package main

import (
	"slices"
	"testing"

	"abw/internal/core"
)

// TestMisconceptionsNameCatalogExperiments: every misconception points
// at a key of abwsim's experiment catalog, so the experiment that
// `abwsim -list` names for it is one `abwsim -exp` runs.
func TestMisconceptionsNameCatalogExperiments(t *testing.T) {
	keys := allExperiments()
	for _, m := range core.Misconceptions {
		if !slices.Contains(keys, m.Experiment) {
			t.Errorf("misconception %d (%s) names experiment %q, not a key of %v", m.ID, m.Title, m.Experiment, keys)
		}
	}
}
