package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// DeadSym returns the dead-API analyzer: every exported package-level
// func, type, var or const, and every exported method of an exported
// type, must be referenced by some non-test file of the module or of
// its bench/ module. A symbol only tests reach is code the product
// carries for nobody. References from inside the symbol's own
// declaration do not count, nor, for a type, references from its own
// methods. Every package under internal/ must likewise be imported by
// some non-test package.
//
// Two kinds of symbol are never flagged: a method whose type has every
// method of some interface the program or the standard library declares
// (it may be reached only by dynamic dispatch, as String is), and a
// constant of an iota block (deleting one would renumber the rest).
//
// Deliberate surface — an API tests drive, a shared test helper, a
// reference implementation tests hold the product to — carries
// //lint:api <why> on or directly above its name (for a package, above
// its package clause).
//
// The question is whole-program, so the analyzer reports only when the
// run covers every package of its module; a run over a subset (one
// fixture, one directory) reports nothing. bench/ is loaded from the
// module root when it has its own go.mod. Symbols are keyed by package
// path and name, since bench sees the root packages through export data.
func DeadSym() *Analyzer {
	d := &deadSym{
		refs:   make(map[string]bool),
		ran:    make(map[string]bool),
		ifaces: make(map[string][]string),
		seen:   make(map[*types.Package]bool),
	}
	return &Analyzer{
		Name:   "deadsym",
		Doc:    "flags exported symbols and internal packages that nothing outside tests uses",
		Run:    d.run,
		Finish: d.finish,
	}
}

// deadCandidate is one declaration the run must find a reference to.
type deadCandidate struct {
	key  string // "pkgpath.Name", "pkgpath.Type.Method", or a package's "import pkgpath"
	desc string // "func F", "method T.M", "package P", ...
	pos  token.Position
	recv *types.Named // a method's receiver type, for the interface exemption
	api  *apiDirective
}

// apiDirective is the //lint:api comment on a candidate.
type apiDirective struct {
	why string
	pos token.Position
}

type deadSym struct {
	dir   string // a directory of the run, to find its module
	cands []deadCandidate
	refs  map[string]bool // keys referenced outside their own declaration
	ran   map[string]bool // package paths in the run
	// ifaces holds the method names of every interface the run's
	// packages declare, import or spell out, one entry per distinct set.
	ifaces map[string][]string
	seen   map[*types.Package]bool
}

func (d *deadSym) run(pass *Pass) {
	pkg := pass.Pkg
	d.dir = pkg.Dir
	d.ran[pkg.PkgPath] = true
	d.scan(pkg)
	if len(pkg.Files) > 0 && slices.Contains(strings.Split(pkg.PkgPath, "/"), "internal") {
		c := deadCandidate{key: "import " + pkg.PkgPath, desc: "package " + pkg.PkgPath,
			pos: pkg.Fset.Position(pkg.Files[0].Package)}
		for _, f := range pkg.Files {
			if c.api == nil {
				c.api = apiAt(pass, f.Package)
			}
		}
		d.cands = append(d.cands, c)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok || !fn.Exported() {
					continue
				}
				n := recvNamed(fn)
				switch {
				case decl.Recv == nil:
					d.add(pass, fn, "func "+fn.Name(), decl.Name.Pos(), nil)
				case n != nil && n.Obj().Exported():
					d.add(pass, fn, "method "+n.Obj().Name()+"."+fn.Name(), decl.Name.Pos(), n)
				}
			case *ast.GenDecl:
				if decl.Tok == token.CONST && usesIota(decl) {
					continue
				}
				for _, spec := range decl.Specs {
					for _, id := range specNames(spec) {
						if obj := pkg.Info.Defs[id]; obj != nil && obj.Exported() {
							d.add(pass, obj, decl.Tok.String()+" "+obj.Name(), id.Pos(), nil)
						}
					}
				}
			}
		}
	}
}

// specNames is the names a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch spec := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{spec.Name}
	case *ast.ValueSpec:
		return spec.Names
	}
	return nil
}

// scan records pkg's imports, its interfaces, and every symbol its
// declarations reference, minus each declaration's references to what
// it declares (each spec of a group is its own declaration). Names
// precede their uses inside a declaration, so one walk collects both;
// a method also owns its receiver type.
func (d *deadSym) scan(pkg *Package) {
	d.addInterfaces(pkg.Types)
	for _, tv := range pkg.Info.Types {
		d.addInterface(tv.Type)
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			d.refs["import "+strings.Trim(imp.Path.Value, `"`)] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				own := make(map[string]bool)
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok && recvNamed(fn) != nil {
					own[symKey(recvNamed(fn).Obj())] = true
				}
				d.walk(pkg, decl, own)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					d.walk(pkg, spec, make(map[string]bool))
				}
			}
		}
	}
}

// walk records the symbols node references, except those in own and
// those node itself declares.
func (d *deadSym) walk(pkg *Package, node ast.Node, own map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			own[symKey(pkg.Info.Defs[id])] = true
			if k := symKey(pkg.Info.Uses[id]); k != "" && !own[k] {
				d.refs[k] = true
			}
		}
		return true
	})
}

// addInterfaces records the interfaces declared by p and by every
// package it imports, transitively.
func (d *deadSym) addInterfaces(p *types.Package) {
	if d.seen[p] {
		return
	}
	d.seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			d.addInterface(tn.Type())
		}
	}
	for _, imp := range p.Imports() {
		d.addInterfaces(imp)
	}
}

func (d *deadSym) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	names := make([]string, it.NumMethods())
	for i := range names {
		names[i] = it.Method(i).Name() // sorted by go/types
	}
	d.ifaces[strings.Join(names, " ")] = names
}

// dispatched reports whether the method set of *t holds every method
// of some interface that has a method named name: t may then be reached
// through that interface with no static reference to the method.
func (d *deadSym) dispatched(t *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for _, names := range d.ifaces {
		all := slices.Contains(names, name)
		for _, m := range names {
			all = all && ms.Lookup(t.Obj().Pkg(), m) != nil
		}
		if all {
			return true
		}
	}
	return false
}

func (d *deadSym) add(pass *Pass, obj types.Object, desc string, pos token.Pos, recv *types.Named) {
	d.cands = append(d.cands, deadCandidate{
		key:  symKey(obj),
		desc: desc,
		pos:  pass.Pkg.Fset.Position(pos),
		recv: recv,
		api:  apiAt(pass, pos),
	})
}

func apiAt(pass *Pass, pos token.Pos) *apiDirective {
	dir, ok := pass.DirectiveAt(pos, "api")
	if !ok {
		return nil
	}
	return &apiDirective{why: dir.Arg, pos: pass.Pkg.Fset.Position(dir.Pos)}
}

func (d *deadSym) finish(report func(pos token.Position, format string, args ...any)) {
	root, all := moduleOf(d.dir)
	if len(all) == 0 {
		return
	}
	for _, path := range all {
		if !d.ran[path] {
			return // a partial run cannot tell dead from used elsewhere
		}
	}
	bench := filepath.Join(root, "bench")
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		pkgs, err := Load(bench, "./...")
		if err != nil {
			report(token.Position{Filename: filepath.Join(bench, "go.mod"), Line: 1, Column: 1},
				"cannot load the bench module, whose references keep symbols alive: %v", err)
			return
		}
		for _, p := range pkgs {
			d.scan(p)
		}
	}
	for _, c := range d.cands {
		switch {
		case c.api != nil && c.api.why == "":
			report(c.api.pos, `//lint:api requires a justification ("//lint:api why this is public")`)
		case c.api != nil || d.refs[c.key]:
		case c.recv != nil && d.dispatched(c.recv, c.key[strings.LastIndex(c.key, ".")+1:]):
		case strings.HasPrefix(c.key, "import "):
			report(c.pos, "%s is imported by no non-test package: delete it, or mark its package clause //lint:api <why>", c.desc)
		default:
			report(c.pos, "%s is used only by tests or not at all: delete it, move it into a _test.go file, or mark it //lint:api <why>", c.desc)
		}
	}
}

// moduleOf returns the root of the module holding dir and the import
// path of every package in it; no paths when either cannot be listed.
func moduleOf(dir string) (string, []string) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil || strings.TrimSpace(string(out)) == "" {
		return "", nil
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	cmd = exec.Command("go", "list", "-e", "-f", "{{.ImportPath}}", "./...")
	cmd.Dir = root
	if out, err = cmd.Output(); err != nil {
		return "", nil
	}
	return root, strings.Fields(string(out))
}

// usesIota reports whether any value of a const block mentions iota.
func usesIota(decl *ast.GenDecl) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// symKey names a package-level object or a method of a named
// non-interface type by package path and name; "" for anything else
// (locals, fields, interface methods, builtins).
func symKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if n := recvNamed(fn); n != nil {
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
		return ""
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	if _, ok := obj.(*types.PkgName); ok {
		return ""
	}
	if p := obj.Parent(); p != nil && p != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed is a method's receiver type with any pointer removed, or
// nil for functions and interface methods.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	if _, iface := n.Underlying().(*types.Interface); iface {
		return nil
	}
	return n
}
