// Package lint is the repo's invariant enforcement suite: custom static
// analyzers that encode the properties this codebase's correctness
// rests on — byte-identical output at any worker count
// (mapiter), a GC-invisible pointer-free corpus (noptrslab), the
// crash-safe checkpoint protocol (syncdurable), the telemetry
// naming/registration discipline (telemetryreg), and product code that
// something outside tests runs (deadsym) — so violations are caught at
// review time instead of by the equivalence tests after the fact.
// cmd/repolint runs the suite over the whole module and blocks CI.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer/Pass/Diagnostic, analysistest-style "want"
// expectations in internal/lint/linttest) but is built purely on the
// standard library: the build environment vendors no third-party
// modules, so the driver loads type information itself via
// `go list -export` and the gc export-data importer (see load.go).
// If the module ever grows an x/tools dependency, each analyzer's Run
// is a thin shim away from being a real analysis.Analyzer.
//
// # Suppressions
//
// Every analyzer that supports suppression uses the same comment
// grammar, on the flagged line or the line directly above it:
//
//	//lint:NAME justification text
//
// The justification is mandatory: a bare directive is itself a
// diagnostic. The directives in use are //lint:ordered (mapiter),
// //lint:durable (syncdurable) and //lint:api (deadsym: deliberate
// surface tests drive, also above a package clause); //lint:slab
// (noptrslab) and the file-scope markers //lint:deterministic and
// //lint:durable-path are opt-in annotations, not suppressions, and
// take no justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Analyzers are stateful across the
// packages of a single run (telemetryreg accumulates the metric
// namespace), so obtain fresh values from All or the constructors —
// never share one Analyzer between concurrent runs.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and directives.
	Name string
	// Doc is a one-line description of what the analyzer enforces.
	Doc string
	// Run is invoked once per loaded package.
	Run func(*Pass)
	// Finish, if non-nil, is invoked once after Run has seen every
	// package — the hook for whole-program checks (cross-package
	// conflicts). Positions reported here were captured during Run.
	Finish func(report func(pos token.Position, format string, args ...any))
}

// All returns a fresh instance of every analyzer in the suite, in
// stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter(), NoPtrSlab(), SyncDurable(), TelemetryReg(), DeadSym()}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	dirs  map[*ast.File]*fileDirectives
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Run executes every analyzer over every package and returns the
// findings sorted by position. Each Analyzer value must be fresh (see
// Analyzer); the same slice can contain analyzers for one run only.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
		if a.Finish != nil {
			a.Finish(func(pos token.Position, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Pos:      pos,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return diags
}

// ---- directives ----

// Directive is one parsed //lint:NAME comment.
type Directive struct {
	Name string // e.g. "ordered"
	Arg  string // justification / argument text, "" if none
	Pos  token.Pos
	Line int
}

type fileDirectives struct {
	byLine map[int][]Directive
	all    []Directive
}

// parseDirective decodes one comment line, returning ok=false for
// non-directive comments.
func parseDirective(text string) (name, arg string, ok bool) {
	const prefix = "//lint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	name, arg, _ = strings.Cut(rest, " ")
	if name == "" {
		return "", "", false
	}
	return name, strings.TrimSpace(arg), true
}

func (p *Pass) directives(f *ast.File) *fileDirectives {
	if p.dirs == nil {
		p.dirs = make(map[*ast.File]*fileDirectives)
	}
	if d, ok := p.dirs[f]; ok {
		return d
	}
	d := &fileDirectives{byLine: make(map[int][]Directive)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, arg, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			dir := Directive{
				Name: name,
				Arg:  arg,
				Pos:  c.Pos(),
				Line: p.Pkg.Fset.Position(c.Pos()).Line,
			}
			d.byLine[dir.Line] = append(d.byLine[dir.Line], dir)
			d.all = append(d.all, dir)
		}
	}
	p.dirs[f] = d
	return d
}

// FileFor returns the *ast.File containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// DirectiveAt finds a //lint:name directive attached to the statement
// at pos: on the same line or on the line directly above.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	f := p.FileFor(pos)
	if f == nil {
		return Directive{}, false
	}
	d := p.directives(f)
	line := p.Pkg.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, dir := range d.byLine[l] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// FileHasDirective reports whether any //lint:name comment appears
// anywhere in the file containing pos — the file-scope opt-in markers
// (//lint:deterministic, //lint:durable-path).
func (p *Pass) FileHasDirective(pos token.Pos, name string) bool {
	f := p.FileFor(pos)
	if f == nil {
		return false
	}
	for _, dir := range p.directives(f).all {
		if dir.Name == name {
			return true
		}
	}
	return false
}

// Suppressed implements the shared suppression protocol: a
// //lint:name directive on the flagged line (or the line above)
// suppresses the diagnostic iff it carries a justification; a bare
// directive is reported as its own finding. Returns true when the
// caller should skip its diagnostic (either suppressed, or the
// missing-justification diagnostic was already emitted in its place).
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	dir, ok := p.DirectiveAt(pos, name)
	if !ok {
		return false
	}
	if dir.Arg == "" {
		p.Reportf(dir.Pos, "//lint:%s suppression requires a justification (\"//lint:%s why this is safe\")", name, name)
		return true
	}
	return true
}

// CommentDirective reports whether a declaration's doc or trailing
// comment group carries //lint:name (the annotation form used by
// //lint:slab on type declarations).
func CommentDirective(groups []*ast.CommentGroup, name string) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			n, _, ok := parseDirective(c.Text)
			if ok && n == name {
				return true
			}
		}
	}
	return false
}
