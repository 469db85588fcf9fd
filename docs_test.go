package abw_test

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"abw"
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

// codeSpan matches an inline code span; docIdent matches pkg.Name or
// pkg.Type.Member at the start of one.
var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	docIdent = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(?:$|[^\w.])`)
)

// TestDocIdentifiersExist fails on a code span in README.md, DESIGN.md
// or doc.go that names pkg.Name or pkg.Type.Member, pkg a package of
// this module, when no such exported identifier, field or method
// exists; on a code span of README.md or DESIGN.md that names a -flag
// or an abw_ metric nothing defines (see undefinedDocNames); and on a
// registered tool or a cataloged scenario that no code span of
// README.md or DESIGN.md names. Fenced code blocks are not read: the
// examples compile.
func TestDocIdentifiersExist(t *testing.T) {
	x, errs := repoTree()
	for _, e := range errs {
		t.Fatal(e)
	}
	defined := definedDocNames(t)
	pkgs := map[string]*types.Package{}
	for p, pf := range x.pkgs {
		if pkg := x.base[p]; pkg != nil && !pf.consumer && pkg.Name() != "main" {
			pkgs[pkg.Name()] = pkg
		}
	}
	named := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "doc.go"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				named[m[1]] = named[m[1]] || doc != "doc.go"
				if doc != "doc.go" {
					for _, name := range undefinedDocNames(m[1], defined) {
						t.Errorf("%s names `%s`, which nothing defines", doc, name)
					}
				}
				id := docIdent.FindStringSubmatch(m[1])
				if id == nil || pkgs[id[1]] == nil {
					continue
				}
				if why := resolveDocIdent(pkgs[id[1]], id[2], id[3]); why != "" {
					t.Errorf("%s names `%s`: %s", doc, m[1], why)
				}
			}
		}
	}
	for _, d := range abw.Tools() {
		if !named[d.Name] {
			t.Errorf("neither README.md nor DESIGN.md names the tool `%s`", d.Name)
		}
	}
	for _, d := range abw.Scenarios() {
		if !named[d.Name] {
			t.Errorf("neither README.md nor DESIGN.md names the scenario `%s`", d.Name)
		}
	}
}

// resolveDocIdent returns why pkg.name or pkg.name.member does not
// resolve, or "" when it does.
func resolveDocIdent(pkg *types.Package, name, member string) string {
	obj := pkg.Scope().Lookup(name)
	switch {
	case obj == nil || !obj.Exported():
		return "package " + pkg.Name() + " declares no " + name
	case member == "":
		return ""
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return pkg.Name() + "." + name + " is not a type"
	}
	if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, member); m == nil {
		return pkg.Name() + "." + name + " has no field or method " + member
	}
	return ""
}

var (
	// docFlag matches a command-line flag in a code span: a dash and a
	// lower-case name, at the start or after a space, "(" or "/".
	docFlag = regexp.MustCompile(`(?:^|[\s(/])(-[a-z][\w-]*)`)
	// docMetric matches a /metrics name the monitor would serve.
	docMetric = regexp.MustCompile(`\babw_\w+`)
	// flagDef and metricDef match a flag definition and a metric name
	// in Go source.
	flagDef   = regexp.MustCompile(`flag\.\w+\((?:&[\w.]+,\s*)?"([\w-]+)"`)
	metricDef = regexp.MustCompile(`"(abw_\w+)`)
)

// goToolFlags are the flags of the go command, and of this module's
// tests, that the documents name.
var goToolFlags = []string{"-bench", "-benchtime", "-race", "-update"}

// definedDocNames returns every flag a command defines (cmd/*,
// scripts/*, bench/main.go), as "-name", with goToolFlags, and every
// abw_ metric name internal/monitor writes.
func definedDocNames(t *testing.T) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	for _, f := range goToolFlags {
		defined[f] = true
	}
	read := func(pattern string, re *regexp.Regexp, prefix string) {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s (%v)", pattern, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range re.FindAllSubmatch(b, -1) {
				defined[prefix+string(m[1])] = true
			}
		}
	}
	for _, pattern := range []string{"cmd/*/*.go", "scripts/*/*.go", "bench/main.go"} {
		read(pattern, flagDef, "-")
	}
	read("internal/monitor/*.go", metricDef, "")
	return defined
}

// undefinedDocNames returns the flags and abw_ metrics a code span
// names that are not in defined.
func undefinedDocNames(span string, defined map[string]bool) []string {
	var bad []string
	for _, m := range docFlag.FindAllStringSubmatch(span, -1) {
		if !defined[m[1]] {
			bad = append(bad, m[1])
		}
	}
	for _, name := range docMetric.FindAllString(span, -1) {
		if !defined[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

// TestUndefinedDocNames: a span naming a deleted flag or an unwritten
// metric is caught, and one naming defined ones is not.
func TestUndefinedDocNames(t *testing.T) {
	defined := definedDocNames(t)
	for span, want := range map[string]string{
		"abwsim -exp fig6 -only fig6":                "-only",
		"abwprobe -mode sim -min/-max -seed 0":       "",
		"go test -race -bench . -benchtime 1x ./...": "",
		"abw_monitor_runs_total{result=\"ok\"}":      "",
		"abw_monitor_nope_total":                     "abw_monitor_nope_total",
	} {
		if got := strings.Join(undefinedDocNames(span, defined), " "); got != want {
			t.Errorf("undefinedDocNames(%q) = %q, want %q", span, got, want)
		}
	}
}
