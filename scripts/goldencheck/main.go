// Command goldencheck regenerates EXPERIMENTS.md at seed 1 into a
// temporary location and compares it section-by-section against the
// committed file. Any "### "-titled section whose content differs —
// or that exists on only one side — fails the run, with the first
// diverging line reported per section. CI runs this on every push, so
// the committed results document can never drift from what the code
// actually produces: the determinism contract (bit-identical runs at
// any -parallel setting) is what makes a byte comparison meaningful.
//
//	go run ./scripts/goldencheck
//
// It takes no flags: the committed document is EXPERIMENTS.md, always
// generated at paper scale.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// committed is the results document the check holds to a fresh
// regeneration.
const committed = "EXPERIMENTS.md"

func main() {
	if len(os.Args) > 1 {
		fatalf("takes no arguments; usage: go run ./scripts/goldencheck")
	}
	want, err := os.ReadFile(committed)
	if err != nil {
		fatalf("%v", err)
	}

	dir, err := os.MkdirTemp("", "goldencheck")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	fresh := filepath.Join(dir, "EXPERIMENTS.md")
	cmd := exec.Command("go", "run", "./cmd/abwsim", "-exp", "all", "-seed", "1", "-md", fresh)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatalf("regeneration failed: %v", err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		fatalf("%v", err)
	}

	wantSec, wantOrder := sections(string(want))
	gotSec, gotOrder := sections(string(got))
	ok := true
	for _, title := range wantOrder {
		g, present := gotSec[title]
		if !present {
			ok = false
			fmt.Fprintf(os.Stderr, "goldencheck: section %q in %s but not regenerated — stale section?\n", title, committed)
			continue
		}
		if g != wantSec[title] {
			ok = false
			fmt.Fprintf(os.Stderr, "goldencheck: section %q differs:\n%s", title, firstDiff(wantSec[title], g))
		}
	}
	for _, title := range gotOrder {
		if _, present := wantSec[title]; !present {
			ok = false
			fmt.Fprintf(os.Stderr, "goldencheck: regenerated section %q missing from %s — commit a fresh regeneration\n", title, committed)
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "goldencheck: %s is out of date; regenerate with: go run ./cmd/abwsim -exp all -seed 1 -md %s\n",
			committed, committed)
		os.Exit(1)
	}
	fmt.Printf("goldencheck: %s matches a fresh seed-1 regeneration (%d sections)\n", committed, len(wantOrder))
}

// sections splits a results document into its preamble (everything
// before the first "### " heading) and one chunk per "### " section,
// keyed by heading line. Order is returned for stable reporting.
func sections(doc string) (map[string]string, []string) {
	out := map[string]string{}
	var order []string
	title := "(preamble)"
	var body strings.Builder
	flush := func() {
		out[title] = body.String()
		order = append(order, title)
		body.Reset()
	}
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "### ") {
			flush()
			title = strings.TrimSpace(line)
		}
		body.WriteString(line)
	}
	flush()
	return out, order
}

// firstDiff renders the first line where two section bodies diverge.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("  line %d:\n  - committed: %s\n  - fresh:     %s\n", i+1, wl, gl)
		}
	}
	return "  (bodies differ only in length)\n"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "goldencheck: "+format+"\n", args...)
	os.Exit(1)
}
