package abw_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExamples are the examples that run on the simulator from fixed
// seeds (monitorfleet under a fake clock), so every byte they print is
// the facade's behaviour.
var goldenExamples = []string{"quickstart", "scenariocatalog", "toolcomparison", "burstiness", "learnedtool", "monitorfleet"}

// TestExamplesPrintGoldens builds each of goldenExamples and compares
// what it prints with testdata/examples/<name>.golden. After a change
// that is meant to move an example's output, regenerate its golden with
//
//	go run ./examples/<name> > testdata/examples/<name>.golden
func TestExamplesPrintGoldens(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, name := range goldenExamples {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(dir, name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("line %d differs from the golden:\n got  %q\n want %q", i+1, g, w)
				}
			}
		})
	}
}
