package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Result is the structured record of one experiment run: what ran, how
// it was configured, how long it took, and the experiment's own result
// payload. cmd/abwsim writes one Result per experiment under -json so
// that EXPERIMENTS.md (and any downstream analysis) regenerates from
// data rather than from hand-copied numbers.
type Result struct {
	// Name is the experiment's CLI name (fig1, table1, ...).
	Name string `json:"name"`
	// Seed is the experiment seed the run used.
	Seed uint64 `json:"seed"`
	// Quick records whether reduced trial counts were used.
	Quick bool `json:"quick"`
	// Workers is the worker count the run used.
	Workers int `json:"workers"`
	// ElapsedMS is the wall-clock run time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Payload is the experiment's full result struct.
	Payload any `json:"payload,omitempty"`
	// Table is the rendered paper-vs-measured view of Payload.
	Table any `json:"table,omitempty"`
}

// WriteJSON writes the result as <dir>/<name>.json, creating dir if
// needed.
func (r *Result) WriteJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("runner: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("runner: marshal %s: %w", r.Name, err)
	}
	path := filepath.Join(dir, r.Name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("runner: %w", err)
	}
	return path, nil
}
