package abw_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"abw"
	"abw/internal/exp"
)

// TestAbwprobeSimIsTheMatrixCell holds `abwprobe -mode sim -scenario S
// -tool T -seed s -json` to the full-effort matrix cell (S, T) at seed
// s, byte for byte, for every registered tool at seeds 1–3 on three
// scenarios, one of them named by its alias.
func TestAbwprobeSimIsTheMatrixCell(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	bin := filepath.Join(t.TempDir(), "abwprobe")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/abwprobe").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	scenarios := []struct{ arg, row string }{
		{"canonical", "canonical"},
		{"poisson", "poisson"},
		{"narrow-vs-tight", "narrowtight"},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		m, err := exp.Matrix(exp.MatrixConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			for _, d := range abw.Tools() {
				cell, ok := m.Cell(sc.row, d.Name)
				if !ok {
					t.Fatalf("matrix has no cell %s/%s", sc.row, d.Name)
				}
				want, err := json.MarshalIndent(cell.Outcome, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got, err := exec.Command(bin, "-mode", "sim", "-scenario", sc.arg,
					"-tool", d.Name, "-seed", fmt.Sprint(seed), "-json").Output()
				var exit *exec.ExitError
				if err != nil && !(cell.Err != nil && errors.As(err, &exit) && exit.ExitCode() == 1) {
					t.Fatalf("abwprobe %s/%s seed %d: %v", sc.arg, d.Name, seed, err)
				}
				if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
					t.Errorf("seed %d, %s/%s: abwprobe printed\n%s\nthe matrix cell is\n%s",
						seed, sc.arg, d.Name, got, want)
				}
			}
		}
	}
}
