package abw_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// allowFile lists exported identifiers TestNoUnusedExports exempts, one
// per line: the identifier as the test prints it, then the reason.
const allowFile = "testdata/unused_exports.txt"

// TestNoUnusedExports fails once per exported identifier of the root
// module that nothing uses, printing file:line and pkg.Name. The rules:
//
//   - A package-level func, type, var or const is used when non-test
//     code of the root module or of the nested bench/ module refers to
//     it outside its own declaration (a type's own methods do not
//     count). Files built only on another platform count too.
//   - An exported method is used when any file refers to it, tests
//     included, or when it is in the method set of a named interface
//     its receiver implements: any the module refers to, plus error and
//     fmt.Stringer.
//   - A constant of an iota block is used when any constant of the
//     block is.
//   - A func or var of the root facade is used only when examples/,
//     cmd/, bench/ or README.md names it as abw.Name; the facade's types
//     and consts are exempt.
//   - A package only tests import is not judged.
//   - An allowlist line that names nothing, or names something used,
//     fails.
func TestNoUnusedExports(t *testing.T) {
	x, errs := repoTree()
	if len(errs) == 0 {
		errs = x.judge()
	}
	for _, f := range errs {
		t.Error(f)
	}
}

// configExempt lists the directories whose *Config types
// TestConfigFieldsAreSet does not judge, each with its reason.
var configExempt = map[string]string{
	"internal/sim":            "each catalog entry will re-parameterise its RED, CoDel and Gilbert-Elliott configs (ROADMAP item 20(a))",
	"internal/livenet":        "its limits bound outside traffic, and its clock is the seam fault-injection tests use (ROADMAP item 11(a))",
	"internal/livenet/ingest": "its limits bound outside traffic, and its clock is the seam fault-injection tests use (ROADMAP item 11(a))",
}

// TestConfigFieldsAreSet fails once per exported field of a struct type
// whose name ends in Config that is not a knob a caller turns, printing
// file:line and pkg.Type.Field. Every package of the root module that
// declares one is judged, less configExempt; an alias is judged where
// its type is declared. The field must be set by non-test code outside
// its package (bench/ included), as a key of a composite literal or on
// the left of an assignment, and read by non-test code anywhere; an
// embedded field is read when a read selector's path goes through it.
// A tool's or an experiment's parameters are the published constants
// beside it; its config holds only the knobs a caller turns.
func TestConfigFieldsAreSet(t *testing.T) {
	x, errs := repoTree()
	if len(errs) == 0 {
		errs = x.unsetConfigFields()
	}
	for _, f := range errs {
		t.Error(f)
	}
}

// repoTree is the repository's module tree, checked once for every test
// that judges it.
var repoTree = sync.OnceValues(func() (*tree, []string) { return checkTree(os.DirFS(".")) })

// unusedExports applies TestNoUnusedExports's rules to the module tree
// rooted at fsys and returns its failures, sorted.
func unusedExports(fsys fs.FS) []string {
	x, errs := checkTree(fsys)
	if len(errs) > 0 {
		return errs
	}
	return x.judge()
}

// checkTree loads and type-checks the module tree rooted at fsys, and
// returns it with the errors that stop it being judged.
func checkTree(fsys fs.FS) (*tree, []string) {
	// The source importer would otherwise run cgo over net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	x, err := loadTree(fsys)
	if err != nil {
		return nil, []string{err.Error()}
	}
	x.check()
	return x, x.errs
}

// unsetConfigFields applies TestConfigFieldsAreSet's rule to the
// checked tree and returns its failures, sorted.
func (x *tree) unsetConfigFields() []string {
	fields := map[types.Object]string{} // judged field → pkg.Type.Field
	home := map[types.Object]string{}   // judged field → its package's directory
	for p, pf := range x.pkgs {
		pkg := x.base[p]
		if _, ok := configExempt[pf.dir]; ok || pf.consumer || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = x.key(p) + "." + name + "." + f.Name()
						home[f] = pf.dir
					}
				}
			}
		}
	}
	writes := map[*ast.Ident]bool{}
	set := map[types.Object]bool{}
	for _, pf := range x.pkgs {
		mark := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				writes[id] = true
				obj := x.uses[id]
				set[obj] = set[obj] || home[obj] != pf.dir
			}
		}
		for _, f := range pf.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				}
				return true
			})
		}
	}
	read := map[types.Object]bool{}
	for id, obj := range x.uses {
		read[obj] = read[obj] || !writes[id]
	}
	for e, sel := range x.sels {
		if writes[e.Sel] {
			continue
		}
		// The embedded fields a promoted selector goes through.
		t, path := sel.Recv(), sel.Index()
		for _, i := range path[:len(path)-1] {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			read[f] = true
			t = f.Type()
		}
	}
	var out []string
	for f, name := range fields {
		pos := x.fset.Position(f.Pos())
		if !set[f] {
			out = append(out, fmt.Sprintf("%s:%d %s is set by no caller", pos.Filename, pos.Line, name))
		}
		if !read[f] {
			out = append(out, fmt.Sprintf("%s:%d %s is read by nothing", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(out)
	return out
}

// tree is one module tree, parsed and type-checked.
type tree struct {
	fsys   fs.FS
	fset   *token.FileSet
	module string
	std    types.Importer
	pkgs   map[string]*pkgFiles // by import path
	base   map[string]*types.Package
	uses   map[*ast.Ident]types.Object            // by non-test files, from the base check
	sels   map[*ast.SelectorExpr]*types.Selection // by non-test files, from the base check
	tuses  map[*ast.Ident]types.Object            // by test files
	deps   map[[2]string]bool                     // memoized dependsOn
	errs   []string
}

// pkgFiles is one directory's Go files.
type pkgFiles struct {
	dir      string
	consumer bool // in a nested module: its uses count, its exports are not judged
	files    []*ast.File
	tests    []*ast.File // package p
	xtests   []*ast.File // package p_test
	other    []*ast.File // excluded by build constraints on this platform
	imports  map[string]bool
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func loadTree(fsys fs.FS) (*tree, error) {
	mod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("go.mod: no module line")
	}
	x := &tree{
		fsys:   fsys,
		fset:   token.NewFileSet(),
		module: string(m[1]),
		pkgs:   map[string]*pkgFiles{},
		base:   map[string]*types.Package{},
		uses:   map[*ast.Ident]types.Object{},
		tuses:  map[*ast.Ident]types.Object{},
		sels:   map[*ast.SelectorExpr]*types.Selection{},
		deps:   map[[2]string]bool{},
	}
	x.std = importer.ForCompiler(x.fset, "source", nil)
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	var nested []string
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		dir := path.Dir(p)
		if name == "go.mod" && dir != "." {
			nested = append(nested, dir+"/")
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		ipath := x.module
		if dir != "." {
			ipath += "/" + dir
		}
		pf := x.pkgs[ipath]
		if pf == nil {
			pf = &pkgFiles{dir: dir, imports: map[string]bool{}}
			x.pkgs[ipath] = pf
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(x.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		match, err := ctxt.MatchFile(dir, name)
		switch {
		case err != nil:
			return err
		case !match:
			pf.other = append(pf.other, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pf.xtests = append(pf.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			pf.tests = append(pf.tests, f)
		default:
			pf.files = append(pf.files, f)
			for _, is := range f.Imports {
				pf.imports[strings.Trim(is.Path.Value, `"`)] = true
			}
		}
		return nil
	})
	for _, pf := range x.pkgs {
		for _, n := range nested {
			pf.consumer = pf.consumer || strings.HasPrefix(pf.dir+"/", n)
		}
	}
	return x, err
}

// loader imports module packages for one type-check. The base loader
// checks each package once; a test loader serves the test variant of
// one package, and re-checks the module packages that import it, as go
// test does.
type loader struct {
	x       *tree
	pkgs    map[string]*types.Package
	variant string
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg := l.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	pf := l.x.pkgs[p]
	if pf == nil {
		return l.x.std.Import(p)
	}
	if l.variant != "" && !l.x.dependsOn(p, l.variant) {
		return l.x.load(p), nil
	}
	info := &types.Info{}
	if l.variant == "" {
		info = &types.Info{Uses: l.x.uses, Selections: l.x.sels}
	}
	pkg := l.x.checkFiles(p, pf.files, l, info)
	l.pkgs[p] = pkg
	return pkg, nil
}

func (x *tree) load(p string) *types.Package {
	pkg, _ := (&loader{x: x, pkgs: x.base}).Import(p)
	return pkg
}

func (x *tree) checkFiles(p string, files []*ast.File, imp types.Importer, info *types.Info) *types.Package {
	conf := types.Config{Importer: imp, Error: func(err error) {
		x.errs = append(x.errs, "type error: "+err.Error())
	}}
	pkg, _ := conf.Check(p, x.fset, files, info)
	return pkg
}

// dependsOn reports whether package p imports q, directly or not.
func (x *tree) dependsOn(p, q string) bool {
	k := [2]string{p, q}
	if v, ok := x.deps[k]; ok {
		return v
	}
	x.deps[k] = false
	for imp := range x.pkgs[p].imports {
		if imp == q || x.pkgs[imp] != nil && x.dependsOn(imp, q) {
			x.deps[k] = true
			break
		}
	}
	return x.deps[k]
}

// check type-checks every package, then its tests.
func (x *tree) check() {
	paths := x.sortedPaths()
	for _, p := range paths {
		if len(x.pkgs[p].files) > 0 {
			x.load(p)
		}
	}
	for _, p := range paths {
		pf := x.pkgs[p]
		tl := &loader{x: x, pkgs: map[string]*types.Package{}}
		if len(pf.tests) > 0 {
			files := append(append([]*ast.File{}, pf.files...), pf.tests...)
			tl.pkgs[p] = x.checkFiles(p, files, &loader{x: x, pkgs: x.base}, &types.Info{Uses: x.tuses})
			tl.variant = p
		}
		if len(pf.xtests) > 0 {
			if tl.variant == "" {
				tl.pkgs = x.base
			}
			x.checkFiles(p+"_test", pf.xtests, tl, &types.Info{Uses: x.tuses})
		}
	}
}

func (x *tree) sortedPaths() []string {
	var paths []string
	for p := range x.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// key names a package the way failures and the allowlist do: its
// directory, less a leading internal/, or "abw" for the module root.
func (x *tree) key(p string) string {
	if pf := x.pkgs[p]; pf != nil && pf.dir != "." {
		return strings.TrimPrefix(pf.dir, "internal/")
	}
	return path.Base(p)
}

type span struct{ from, to token.Pos }

// judge applies the rules to the checked tree.
func (x *tree) judge() []string {
	judged := x.judged()
	own, block := x.extents(judged)
	used, byConsumer := x.usedDecls(own)
	x.otherPlatformUses(used)
	x.interfaceMethods(used)
	readme, _ := fs.ReadFile(x.fsys, "README.md")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\babw\.(\w+)`).FindAllSubmatch(readme, -1) {
		named[string(m[1])] = true
	}

	allow, out := x.allowlist()
	seen := map[string]bool{}
	verdict := func(obj types.Object, name string, isUsed bool) {
		seen[name] = true
		pos := x.fset.Position(obj.Pos())
		if _, ok := allow[name]; ok {
			if isUsed {
				out = append(out, fmt.Sprintf("%s:%d %s is used; delete its line in %s", pos.Filename, pos.Line, name, allowFile))
			}
			return
		}
		if !isUsed {
			out = append(out, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
		}
	}
	for p := range judged {
		pkg, pf := x.base[p], x.pkgs[p]
		if pkg == nil || pf == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							verdict(m, x.key(p)+"."+name+"."+m.Name(), used[m.Pos()])
						}
					}
				}
			}
			if !obj.Exported() {
				continue
			}
			isUsed := used[obj.Pos()]
			for _, sib := range block[obj.Pos()] {
				isUsed = isUsed || used[sib]
			}
			if pf.dir == "." { // the facade
				switch obj.(type) {
				case *types.TypeName, *types.Const:
					continue
				}
				isUsed = byConsumer[obj.Pos()] || named[name]
			}
			verdict(obj, x.key(p)+"."+name, isUsed)
		}
	}
	for name, line := range allow {
		if !seen[name] {
			out = append(out, fmt.Sprintf("%s:%d %s names no exported identifier", allowFile, line, name))
		}
	}
	sort.Strings(out)
	return out
}

// judged returns the packages whose exports are judged: those non-test
// code imports, and commands.
func (x *tree) judged() map[string]bool {
	judged := map[string]bool{}
	for p, pf := range x.pkgs {
		if pkg := x.base[p]; !pf.consumer && pkg != nil && pkg.Name() == "main" {
			judged[p] = true
		}
		for imp := range pf.imports {
			judged[imp] = true
		}
	}
	return judged
}

// extents returns each declaration's own extent (a type's includes
// its methods) and each iota block's members, keyed by declaration.
func (x *tree) extents(judged map[string]bool) (own map[token.Pos][]span, block map[token.Pos][]token.Pos) {
	own, block = map[token.Pos][]span{}, map[token.Pos][]token.Pos{}
	for p := range judged {
		pf := x.pkgs[p]
		if pf == nil {
			continue
		}
		for _, f := range pf.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					s := span{d.Pos(), d.End()}
					own[d.Name.Pos()] = append(own[d.Name.Pos()], s)
					if d.Recv != nil {
						if obj := x.uses[recvIdent(d.Recv.List[0].Type)]; obj != nil {
							own[obj.Pos()] = append(own[obj.Pos()], s)
						}
					}
				case *ast.GenDecl:
					var names []token.Pos
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[s.Name.Pos()] = append(own[s.Name.Pos()], span{s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own[n.Pos()] = append(own[n.Pos()], span{s.Pos(), s.End()})
								names = append(names, n.Pos())
							}
						}
					}
					if d.Tok == token.CONST && usesIota(d) {
						for _, n := range names {
							block[n] = names
						}
					}
				}
			}
		}
	}
	return own, block
}

// usedDecls returns the module declarations referred to outside their
// own extent (a method by any file, anything else by non-test code),
// and those examples/, cmd/ or bench/ refer to.
func (x *tree) usedDecls(own map[token.Pos][]span) (used, byConsumer map[token.Pos]bool) {
	used, byConsumer = map[token.Pos]bool{}, map[token.Pos]bool{}
	for i, uses := range []map[*ast.Ident]types.Object{x.uses, x.tuses} {
		for id, obj := range uses {
			file := x.fset.Position(id.Pos()).Filename
			test := strings.HasSuffix(file, "_test.go")
			if i == 1 && !test || obj.Pkg() == nil || x.pkgs[obj.Pkg().Path()] == nil {
				continue
			}
			decl, inOwn := obj.Pos(), false
			for _, s := range own[decl] {
				inOwn = inOwn || s.from <= id.Pos() && id.Pos() < s.to
			}
			fn, ok := obj.(*types.Func)
			method := ok && fn.Type().(*types.Signature).Recv() != nil
			if inOwn || test && !method {
				continue
			}
			used[decl] = true
			for _, dir := range []string{"examples/", "cmd/", "bench/"} {
				byConsumer[decl] = byConsumer[decl] || strings.HasPrefix(file, dir)
			}
		}
	}
	return used, byConsumer
}

// interfaceMethods marks used every method in the method set of a named
// interface its receiver implements: error, fmt.Stringer when the
// module imports fmt, and every interface the module refers to by name
// or through the signature of a function it calls.
func (x *tree) interfaceMethods(used map[token.Pos]bool) {
	ifaces := map[*types.Named]bool{}
	add := func(t types.Type) {
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.TypeParams().Len() > 0 || !types.IsInterface(n) || !n.Underlying().(*types.Interface).IsMethodSet() {
			return
		}
		// A test check's copy of a module interface stands for the base one.
		if pkg := n.Obj().Pkg(); pkg != nil && x.base[pkg.Path()] != nil {
			tn, ok := x.base[pkg.Path()].Scope().Lookup(n.Obj().Name()).(*types.TypeName)
			if !ok {
				return
			}
			n = tn.Type().(*types.Named)
		}
		ifaces[n] = true
	}
	add(types.Universe.Lookup("error").Type())
	for _, pf := range x.pkgs {
		if pf.imports["fmt"] {
			fmtPkg, _ := x.std.Import("fmt")
			add(fmtPkg.Scope().Lookup("Stringer").Type())
			break
		}
	}
	for _, uses := range []map[*ast.Ident]types.Object{x.uses, x.tuses} {
		for _, obj := range uses {
			switch obj := obj.(type) {
			case *types.TypeName:
				add(obj.Type())
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for j := 0; j < tup.Len(); j++ {
						add(tup.At(j).Type())
					}
				}
			}
		}
	}
	for _, pkg := range x.base {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				ms := types.NewMethodSet(t)
				for it := range ifaces {
					iface := it.Underlying().(*types.Interface)
					if !types.Implements(t, iface) {
						continue
					}
					for i := 0; i < iface.NumMethods(); i++ {
						m := iface.Method(i)
						if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
							used[sel.Obj().Pos()] = true
						}
					}
				}
			}
		}
	}
}

// otherPlatformUses counts the references made by files this platform
// does not build, by name: an identifier of the file's own package, a
// pkg.Name of a module package it imports, or a method of either.
func (x *tree) otherPlatformUses(used map[token.Pos]bool) {
	for p, pf := range x.pkgs {
		for _, f := range pf.other {
			scopes := map[string]*types.Scope{}
			for _, is := range f.Imports {
				ip := strings.Trim(is.Path.Value, `"`)
				if pkg := x.base[ip]; pkg != nil {
					name := pkg.Name()
					if is.Name != nil {
						name = is.Name.Name
					}
					scopes[name] = pkg.Scope()
				}
			}
			own := x.base[p]
			if own == nil {
				continue
			}
			mark := func(scope *types.Scope, name string) {
				if obj := scope.Lookup(name); obj != nil {
					used[obj.Pos()] = true
				}
			}
			markMethods := func(scope *types.Scope, name string) {
				for _, tn := range scope.Names() {
					if n, ok := scope.Lookup(tn).Type().(*types.Named); ok {
						for i := 0; i < n.NumMethods(); i++ {
							if n.Method(i).Name() == name {
								used[n.Method(i).Pos()] = true
							}
						}
					}
				}
			}
			for _, d := range f.Decls {
				declared := map[string]bool{}
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name.Name] = true
					if d.Recv != nil {
						if id := recvIdent(d.Recv.List[0].Type); id != nil {
							declared[id.Name] = true
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declared[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declared[n.Name] = true
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if id, ok := n.X.(*ast.Ident); ok && scopes[id.Name] != nil {
							mark(scopes[id.Name], n.Sel.Name)
							return false
						}
						if !declared[n.Sel.Name] {
							markMethods(own.Scope(), n.Sel.Name)
							for _, s := range scopes {
								markMethods(s, n.Sel.Name)
							}
						}
					case *ast.Ident:
						if !declared[n.Name] {
							mark(own.Scope(), n.Name)
						}
					}
					return true
				})
			}
		}
	}
}

// allowlist reads allowFile: name → line. A line without a reason is
// a failure.
func (x *tree) allowlist() (map[string]int, []string) {
	allow, bad := map[string]int{}, []string(nil)
	data, err := fs.ReadFile(x.fsys, allowFile)
	if err != nil {
		return allow, nil
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			bad = append(bad, fmt.Sprintf("%s:%d %s gives no reason", allowFile, i+1, fields[0]))
		}
		allow[fields[0]] = i + 1
	}
	return allow, bad
}

// recvIdent is the type name of a method receiver.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// TestUnusedExportsRules pins each rule of TestNoUnusedExports on a
// small in-memory module.
func TestUnusedExportsRules(t *testing.T) {
	const (
		pkgA = "package a\n\nfunc Used() {}\n\nfunc F() {}\n"
		main = "package main\n\nimport \"abw/a\"\n\nfunc main() { a.Used() }\n"
	)
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{{
		name: "a test-only reference does not count",
		files: map[string]string{
			"a/a.go": pkgA, "cmd/c/main.go": main,
			"a/a_test.go": "package a\n\nfunc useF() { F() }\n",
		},
		want: []string{"a/a.go:5 a.F"},
	}, {
		name: "a bench reference counts",
		files: map[string]string{
			"a/a.go": pkgA, "cmd/c/main.go": main,
			"bench/go.mod":  "module abw/bench\n",
			"bench/main.go": "package main\n\nimport \"abw/a\"\n\nfunc main() { a.F() }\n",
		},
	}, {
		name: "an iota sibling counts",
		files: map[string]string{
			"a/a.go":        "package a\n\ntype K int\n\nconst (\n\tX K = iota\n\tY\n)\n\nfunc Used() K { return X }\n",
			"cmd/c/main.go": main,
		},
	}, {
		name: "a heap.Interface method counts",
		files: map[string]string{
			"a/a.go": `package a

import "container/heap"

type h []int

func (x h) Len() int           { return len(x) }
func (x h) Less(i, j int) bool { return x[i] < x[j] }
func (x h) Swap(i, j int)      { x[i], x[j] = x[j], x[i] }
func (x *h) Push(v any)        { *x = append(*x, v.(int)) }
func (x *h) Pop() any          { v := (*x)[len(*x)-1]; *x = (*x)[:len(*x)-1]; return v }

func Used() { heap.Init(&h{}) }
`,
			"cmd/c/main.go": main,
		},
	}, {
		name: "a README mention counts for a facade func",
		files: map[string]string{
			"abw.go":        "package abw\n\nfunc F() {}\n\nfunc G() {}\n",
			"cmd/c/main.go": "package main\n\nimport \"abw\"\n\nfunc main() { abw.G() }\n",
			"README.md":     "Call `abw.F()`.\n",
		},
	}, {
		name: "a facade func only tests call is unused",
		files: map[string]string{
			"abw.go":        "package abw\n\nfunc F() {}\n\nfunc G() {}\n",
			"cmd/c/main.go": "package main\n\nimport \"abw\"\n\nfunc main() { abw.G() }\n",
			"abw_test.go":   "package abw_test\n\nimport \"abw\"\n\nfunc useF() { abw.F() }\n",
		},
		want: []string{"abw.go:3 abw.F"},
	}, {
		name: "a stale allowlist line fails",
		files: map[string]string{
			"a/a.go": pkgA, "cmd/c/main.go": main,
			allowFile: "a.F     kept for a reason\na.Gone  deleted since\na.Used  used after all\n",
		},
		want: []string{
			"a/a.go:3 a.Used is used; delete its line in " + allowFile,
			allowFile + ":2 a.Gone names no exported identifier",
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fsys := fstest.MapFS{"go.mod": {Data: []byte("module abw\n\ngo 1.21\n")}}
			for name, src := range c.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			got := unusedExports(fsys)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(c.want, "\n\t"))
			}
		})
	}
}

// TestConfigFieldsRules pins TestConfigFieldsAreSet's rule on small
// in-memory modules.
func TestConfigFieldsRules(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{{
		name: "set outside, unset, test-only, inside-only and unread fields",
		files: map[string]string{
			"internal/exp/exp.go": `package exp

type RunConfig struct{ Set, Assigned, TestOnly, Inside, Unread int }

type other struct{ Unset int }

func Run(c RunConfig) int {
	c.Inside = 1
	return c.Set + c.Assigned + c.TestOnly + c.Inside + other{}.Unset
}
`,
			"internal/exp/exp_test.go": "package exp\n\nvar _ = Run(RunConfig{TestOnly: 1})\n",
			"cmd/c/main.go": `package main

import "abw/internal/exp"

func main() {
	c := exp.RunConfig{Set: 1, Unread: 2}
	c.Assigned = 3
	exp.Run(c)
}
`,
		},
		want: []string{
			"internal/exp/exp.go:3 exp.RunConfig.Inside is set by no caller",
			"internal/exp/exp.go:3 exp.RunConfig.TestOnly is set by no caller",
			"internal/exp/exp.go:3 exp.RunConfig.Unread is read by nothing",
		},
	}, {
		name: "an embedded field read through a promoted selector is read",
		files: map[string]string{
			"internal/exp/exp.go": `package exp

type Stream struct{ Rate int }

type RunConfig struct {
	Stream
	Scale int
}

func Run(c RunConfig) int { return c.Rate * c.Scale }
`,
			"cmd/c/main.go": `package main

import "abw/internal/exp"

func main() { exp.Run(exp.RunConfig{Stream: exp.Stream{Rate: 1}, Scale: 2}) }
`,
		},
	}, {
		name: "every package with a Config type is judged",
		files: map[string]string{
			"internal/exp/exp.go": "package exp\n\ntype RunConfig struct{ Set int }\n\nfunc Run(c RunConfig) int { return c.Set }\n",
			"internal/tool/tool.go": `package tool

type Config struct{ Rate, Step int }

func New(c Config) int {
	if c.Step == 0 {
		c.Step = 2
	}
	return c.Rate + c.Step
}
`,
			"cmd/c/main.go": `package main

import (
	"abw/internal/exp"
	"abw/internal/tool"
)

func main() { exp.Run(exp.RunConfig{Set: tool.New(tool.Config{Rate: 1})}) }
`,
		},
		want: []string{"internal/tool/tool.go:3 tool.Config.Step is set by no caller"},
	}, {
		name: "an alias is judged where its type is declared",
		files: map[string]string{
			"internal/tool/tool.go": "package tool\n\ntype Config struct{ Rate int }\n\nfunc New(c Config) int { return c.Rate }\n",
			"internal/exp/exp.go": `package exp

import "abw/internal/tool"

type ToolConfig = tool.Config

func Run() int { return tool.New(ToolConfig{Rate: 1}) }
`,
			"cmd/c/main.go": "package main\n\nimport \"abw/internal/exp\"\n\nfunc main() { exp.Run() }\n",
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fsys := fstest.MapFS{"go.mod": {Data: []byte("module abw\n\ngo 1.21\n")}}
			for name, src := range c.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			x, errs := checkTree(fsys)
			if len(errs) == 0 {
				errs = x.unsetConfigFields()
			}
			if strings.Join(errs, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(errs, "\n\t"), strings.Join(c.want, "\n\t"))
			}
		})
	}
}
