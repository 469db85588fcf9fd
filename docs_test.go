package abw_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a repository path under cmd/, internal/, examples/ or
// scripts/, bare or behind "./", but not one nested in another
// directory such as bench/internal/.
var docPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|internal|examples|scripts)/[\w./*-]*)`)

// TestDocPathsExist fails on a path the documents name that does not
// exist (a glob must match something), and on a binary under cmd/ that
// README.md does not name.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "bench/README.md", "doc.go"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range docPath.FindAllStringSubmatch(string(b), -1) {
			p := strings.TrimRight(m[1], "./")
			if seen[p] {
				continue
			}
			seen[p] = true
			found, err := filepath.Glob(p)
			if err != nil {
				t.Errorf("%s: bad path pattern %q: %v", doc, p, err)
			} else if len(found) == 0 {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	bins, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bins {
		if d.IsDir() && !regexp.MustCompile(`cmd/`+regexp.QuoteMeta(d.Name())+`\b`).Match(readme) {
			t.Errorf("README.md does not name cmd/%s", d.Name())
		}
	}
}
