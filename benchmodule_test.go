package abw_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds compiles bench/, the nested module that holds
// the repository benchmark. It imports this module's internal packages
// but `go build ./...` and `go test ./...` at the root never descend
// into it, so without this test a rename of anything it uses passes
// tier-1 and breaks the benchmark. The module is stdlib-only with a
// local replace, so the build needs no network.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "build", "-o", t.TempDir(), ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in bench/: %v\n%s", err, out)
	}
}
