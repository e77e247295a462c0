// Command deadcode reports code that nothing in the program reaches, and
// fails unless every report is on the allowlist:
//
//	go run ./scripts/deadcode
//
// Run it from the repository root. It lists the root module and every
// module nested below it (bench/) with `go list -json ./...`, parses their
// non-test files, and type-checks them with go/types. It reports two
// things:
//
//   - an unreached package: no root reaches it through imports. The roots
//     are every main package and each module's root package (package cdcs,
//     whose exported API is the library surface);
//   - an unused function or method, exported or not, of a reached library
//     package: no non-test file of either module names it outside its own
//     body. A method also counts as used when its receiver implements an
//     interface that declares it, because a call through the interface
//     never names the concrete method. Package init functions run without
//     being named, so they are never reported.
//
// scripts/deadcode/allowlist.txt keeps what should stay anyway, one entry a
// line: the reported name, then the reason it stays. Blank lines and lines
// starting with # are ignored. An entry that matches no report (the name is
// gone, or something now uses it) also fails the run, so the list cannot
// go stale.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	findings, err := scan(".")
	if err == nil {
		var allow map[string]string
		if allow, err = readAllowlist(filepath.Join("scripts", "deadcode", "allowlist.txt")); err == nil {
			if problems := check(findings, allow); len(problems) > 0 {
				for _, p := range problems {
					fmt.Println(p)
				}
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(1)
}

// A finding is one unreached package or unused function or method.
type finding struct {
	// Name is the package import path, "pkg.Func" or "pkg.Type.Method".
	Name string
	// Pos is where it is declared.
	Pos string
	// Kind says what was found.
	Kind string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s %s", f.Pos, f.Kind, f.Name) }

// check applies the allowlist: it returns every finding the allowlist does
// not name, then every allowlist entry that names no finding.
func check(findings []finding, allow map[string]string) []string {
	var problems []string
	seen := map[string]bool{}
	for _, f := range findings {
		if _, ok := allow[f.Name]; ok {
			seen[f.Name] = true
			continue
		}
		problems = append(problems, f.String())
	}
	var stale []string
	for name := range allow {
		if !seen[name] {
			stale = append(stale, "allowlist: "+name+" is not unreached (gone, or used now); remove the entry")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// readAllowlist parses the allowlist into name -> reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
}

// isRoot reports whether the package is a root: a main package or its
// module's root package.
func (lp *listedPkg) isRoot() bool {
	return lp.Name == "main" || lp.Module != nil && lp.Module.Path == lp.ImportPath
}

// pkg is a listed package once type-checked.
type pkg struct {
	*listedPkg
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks listed packages on demand and shares one types.Package
// per import path, so an object used in one package is the same object as
// the one declared in another. Everything not listed is standard library.
type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPkg
	std    types.Importer
	pkgs   map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.listed[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	lp := l.listed[path]
	p := &pkg{listedPkg: lp, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var err error
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// goList runs `go list -json ./...` in dir.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// moduleDirs returns root and every directory below it holding a go.mod,
// skipping what the go command skips: testdata and names starting with . or _.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" && filepath.Dir(path) != root {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// scan lists and type-checks the modules at root and returns what nothing
// reaches, sorted by name.
func scan(root string) ([]finding, error) {
	// The source importer type-checks the standard library from GOROOT.
	// Without cgo it picks the pure-Go files, so it needs no C toolchain
	// and sees the same exported API.
	build.Default.CgoEnabled = false
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// rel shortens a listed (absolute) path for reports.
	rel := func(path string) string {
		if r, err := filepath.Rel(abs, path); err == nil {
			return r
		}
		return path
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), listed: map[string]*listedPkg{}, pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	for _, dir := range dirs {
		listed, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if _, dup := l.listed[lp.ImportPath]; !dup {
				l.listed[lp.ImportPath] = lp
				paths = append(paths, lp.ImportPath)
			}
		}
	}
	sort.Strings(paths)

	// Packages: walk imports from the roots.
	reached := map[string]bool{}
	var walk func(string)
	walk = func(path string) {
		if _, ok := l.listed[path]; !ok || reached[path] {
			return
		}
		reached[path] = true
		for _, imp := range l.listed[path].Imports {
			walk(imp)
		}
	}
	for _, path := range paths {
		if l.listed[path].isRoot() {
			walk(path)
		}
	}
	var findings []finding
	var checked []*pkg
	for _, path := range paths {
		if !reached[path] {
			findings = append(findings, finding{Name: path, Pos: rel(l.listed[path].Dir), Kind: "unreached package"})
			continue
		}
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		checked = append(checked, p)
	}

	// Functions and methods: every use from a non-test file of a reached
	// package marks the object it names, unless the use is inside the
	// object's own declaration.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	declOf := map[*types.Func]decl{}
	for _, p := range checked {
		if p.isRoot() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				dd := decl{fn: p.info.Defs[fd.Name].(*types.Func), pos: fd.Pos(), end: fd.End()}
				decls = append(decls, dd)
				declOf[dd.fn] = dd
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range checked {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := declOf[fn]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
				continue
			}
			used[fn] = true
		}
	}
	ifaces := interfaces(checked)
	for _, d := range decls {
		if used[d.fn] || implementsUsed(d.fn, ifaces) {
			continue
		}
		kind := "unused function"
		if receiver(d.fn) != nil {
			kind = "unused method"
		}
		pos := l.fset.Position(d.pos)
		findings = append(findings, finding{Name: funcName(d.fn), Pos: fmt.Sprintf("%s:%d", rel(pos.Filename), pos.Line), Kind: kind})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Name < findings[j].Name })
	return findings, nil
}

// interfaces indexes by method name every interface the program can call
// through: the type of any expression in a checked package, and every
// interface declared at package level in a checked or imported package
// (fmt.Stringer and error are called from the standard library).
func interfaces(checked []*pkg) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			addScope(imp)
		}
	}
	for _, p := range checked {
		addScope(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// implementsUsed reports whether fn is a method whose receiver type
// implements an interface that declares fn's name. The pointer's method
// set holds both value and pointer methods, so it is the one checked.
func implementsUsed(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := receiver(fn)
	if recv == nil {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// receiver returns the named type fn is a method of, or nil for a function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// funcName is "pkgpath.Func" or "pkgpath.Type.Method".
func funcName(fn *types.Func) string {
	if recv := receiver(fn); recv != nil {
		return fn.Pkg().Path() + "." + recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
