package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// deterministicPkgs are the packages whose outputs must be
// byte-identical run to run and at any shard/worker count: every
// figure, table and hitlist is computed here, and the PR 3 Backscan
// incident showed how one stray map iteration quietly breaks that.
var deterministicPkgs = map[string]bool{
	"hitlist6/internal/collector": true,
	"hitlist6/internal/fold":      true,
	"hitlist6/internal/analysis":  true,
	"hitlist6/internal/hitlist":   true,
	"hitlist6/internal/outage":    true,
	"hitlist6/internal/tracking":  true,
	"hitlist6/internal/scan":      true,
	"hitlist6/internal/wigle":     true,
	// The scenario harness asserts byte-identical reports per seed — its
	// own generation and rendering must hold the invariant it checks.
	"hitlist6/internal/workload":        true,
	"hitlist6/internal/workload/matrix": true,
}

// deterministicRootFiles are the root-package files in scope: the
// report/summary renderers whose bytes the golden tests pin.
var deterministicRootFiles = map[string]bool{
	"report.go":  true,
	"summary.go": true,
}

// MapIter returns the determinism analyzer: in determinism-critical
// code it flags `range` over a map and order-exposing maps.* iterators
// (maps.Keys, maps.Values, maps.All), unless the iteration provably
// feeds a canonical sort before anything depends on the order, or a
// //lint:ordered suppression with a justification covers it.
//
// Recognized safe shapes (no suppression needed):
//
//   - for k := range m { s = append(s, k) } followed, later in the same
//     block, by a sort.*/slices.Sort* call on s (if-filtered appends
//     count too);
//   - slices.Sorted(maps.Keys(m)) and the SortedFunc/SortedStableFunc
//     variants;
//   - x := slices.Collect(maps.Keys(m)) with a later sort on x in the
//     same block;
//   - range with no iteration variables (len-style repetition), and
//     the delete-everything loop `for k := range m { delete(m, k) }`,
//     where order cannot escape.
//
// Scope: the packages in deterministicPkgs, report.go/summary.go in
// the root package, and any file carrying a //lint:deterministic
// marker.
func MapIter() *Analyzer {
	a := &Analyzer{
		Name: "mapiter",
		Doc:  "flags nondeterministic map iteration in determinism-critical packages",
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			if !mapiterInScope(pass, file) {
				continue
			}
			inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					checkRangeStmt(pass, n, stack)
				case *ast.CallExpr:
					checkMapsCall(pass, n, stack)
				}
				return true
			})
		}
	}
	return a
}

func mapiterInScope(pass *Pass, file *ast.File) bool {
	if deterministicPkgs[pass.Pkg.PkgPath] {
		return true
	}
	if pass.Pkg.PkgPath == "hitlist6" {
		name := filepath.Base(pass.Pkg.Fset.Position(file.Pos()).Filename)
		if deterministicRootFiles[name] {
			return true
		}
	}
	return pass.FileHasDirective(file.Pos(), "deterministic")
}

func checkRangeStmt(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// Order can only matter if the iteration binds a variable.
	if rng.Key == nil && rng.Value == nil {
		return
	}
	if isDeleteAllLoop(pass, rng) {
		return
	}
	if collectThenSort(pass, rng, stack) {
		return
	}
	if pass.Suppressed(rng.Pos(), "ordered") {
		return
	}
	pass.Reportf(rng.Pos(), "range over map in determinism-critical code: iteration order is random; sort before use or suppress with //lint:ordered <justification>")
}

// orderExposingMapsFuncs are the stdlib maps iterators whose yield
// order is the map's random order.
var orderExposingMapsFuncs = map[string]bool{"Keys": true, "Values": true, "All": true}

func checkMapsCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" || !orderExposingMapsFuncs[fn.Name()] {
		return
	}
	if parent := parentCall(pass, stack, call); parent != nil {
		pfn := calleeFunc(pass.Pkg.Info, parent)
		if pfn != nil && pfn.Pkg() != nil && pfn.Pkg().Path() == "slices" {
			switch pfn.Name() {
			case "Sorted", "SortedFunc", "SortedStableFunc":
				return
			case "Collect":
				// x := slices.Collect(maps.Keys(m)) — safe iff x is sorted
				// later in the same block.
				if collectedThenSorted(pass, parent, stack) {
					return
				}
			}
		}
	}
	if pass.Suppressed(call.Pos(), "ordered") {
		return
	}
	pass.Reportf(call.Pos(), "maps.%s in determinism-critical code yields map order: wrap in slices.Sorted or suppress with //lint:ordered <justification>", fn.Name())
}

// parentCall returns the CallExpr that has call as a direct argument
// (through parens), or nil.
func parentCall(pass *Pass, stack []ast.Node, call *ast.CallExpr) *ast.CallExpr {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if ast.Unparen(arg) == call {
					return p
				}
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// isDeleteAllLoop matches `for k := range m { delete(m, k) }`: the
// sanctioned clear idiom, where order cannot be observed.
func isDeleteAllLoop(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	expr, ok := rng.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	mapObj := objOf(pass.Pkg.Info, rng.X)
	keyObj := objOf(pass.Pkg.Info, rng.Key)
	return mapObj != nil && keyObj != nil &&
		objOf(pass.Pkg.Info, call.Args[0]) == mapObj &&
		objOf(pass.Pkg.Info, call.Args[1]) == keyObj
}

// collectThenSort recognizes the collect-keys-then-sort idiom: every
// statement of the range body (possibly nested in if-filters) appends
// to one local slice, and that slice is sorted by a later statement of
// the enclosing block.
func collectThenSort(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	target := appendOnlyTarget(pass, rng.Body.List, nil)
	if target == nil {
		return false
	}
	blk, idx := enclosingBlock(stack, rng)
	if blk == nil || idx < 0 {
		return false
	}
	return sortedInStmts(pass, blk.List[idx+1:], target)
}

// collectedThenSorted handles x := slices.Collect(maps.Keys(m)):
// safe when the assigned variable is sorted later in the same block.
func collectedThenSorted(pass *Pass, collect *ast.CallExpr, stack []ast.Node) bool {
	// Walk out from the Collect call to the assignment statement.
	var assign *ast.AssignStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if a, ok := stack[i].(*ast.AssignStmt); ok {
			assign = a
			break
		}
		if _, ok := stack[i].(ast.Stmt); ok {
			break
		}
	}
	if assign == nil || len(assign.Lhs) != 1 {
		return false
	}
	target := objOf(pass.Pkg.Info, assign.Lhs[0])
	if target == nil {
		return false
	}
	blk, idx := enclosingBlock(stack, collect)
	if blk == nil || idx < 0 {
		return false
	}
	return sortedInStmts(pass, blk.List[idx+1:], target)
}

// appendOnlyTarget returns the single local variable every statement
// appends to, or nil if the body does anything else. seed threads the
// candidate through recursion into if-filters.
func appendOnlyTarget(pass *Pass, stmts []ast.Stmt, seed types.Object) types.Object {
	target := seed
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			obj := appendAssignTarget(pass, s)
			if obj == nil {
				return nil
			}
			if target == nil {
				target = obj
			} else if target != obj {
				return nil
			}
		case *ast.IfStmt:
			if s.Else != nil || s.Init != nil {
				return nil
			}
			obj := appendOnlyTarget(pass, s.Body.List, target)
			if obj == nil {
				return nil
			}
			target = obj
		default:
			return nil
		}
	}
	return target
}

// appendAssignTarget matches `x = append(x, ...)` and returns x's
// object, or nil.
func appendAssignTarget(pass *Pass, s *ast.AssignStmt) types.Object {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs := objOf(pass.Pkg.Info, s.Lhs[0])
	if lhs == nil {
		return nil
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	if objOf(pass.Pkg.Info, call.Args[0]) != lhs {
		return nil
	}
	return lhs
}

// sortNames are the sort/slices entry points accepted as canonical
// ordering.
func isSortFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// sortedInStmts reports whether any of stmts sorts target.
func sortedInStmts(pass *Pass, stmts []ast.Stmt, target types.Object) bool {
	for _, stmt := range stmts {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortFunc(calleeFunc(pass.Pkg.Info, call)) {
				return true
			}
			for _, arg := range call.Args {
				if objOf(pass.Pkg.Info, arg) == target {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
