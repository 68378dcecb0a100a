package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the byte-identical-report contract (PR 2's cached
// vs live equivalence and PR 4's forensics determinism both depend on it):
// in the packages that produce report output, iterating a map may not feed
// unsorted results into output or into an accumulated slice that is never
// sorted, and wall-clock / nondeterministic randomness sources
// (time.Now, time.Since, math/rand) are banned — internal/rng is the
// deterministic generator. The handful of legitimate wall-clock spots
// (run timing in metrics.go/monitor.go/schedule.go, and the
// serving daemon's single clock seam in server.go) carry
// //lint:allow determinism annotations.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "map iteration feeding report output must be sorted; " +
		"time.Now/time.Since/math/rand are banned in report-producing packages",
	Packages: []string{"experiments", "telemetry", "analysis", "trace", "prog", "spec", "stats", "server"},
	Run:      runDeterminism,
}

// outputMethodNames are method calls that emit bytes somewhere a report
// reader will see them; calling one per map-iteration element bakes map
// order into the output.
var outputMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

func runDeterminism(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		diags = append(diags, banNondeterministicSources(pass, f)...)
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rng) {
				return true
			}
			diags = append(diags, checkMapRange(pass, rng, stack)...)
			return true
		})
	}
	return diags
}

// isMapRange reports whether rng iterates a map.
func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange flags output writes inside the loop body and appends to
// outer slices that are never subsequently sorted.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, stack []ast.Node) []Diagnostic {
	var diags []Diagnostic
	fnBody := enclosingFunc(stack)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := outputCall(pass, x); ok {
				diags = append(diags, Diagnostic{
					Pos: x.Pos(),
					Message: fmt.Sprintf("%s inside map iteration bakes map order into report output; "+
						"collect and sort the keys first", name),
				})
			}
		case *ast.AssignStmt:
			diags = append(diags, checkAppendInMapRange(pass, x, rng, fnBody)...)
		}
		return true
	})
	return diags
}

// outputCall reports whether call writes output (fmt print family or a
// writer/encoder method), returning a display name for the diagnostic.
func outputCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name(), true
	}
	if fn.Type().(*types.Signature).Recv() != nil && outputMethodNames[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// checkAppendInMapRange handles `dst = append(dst, ...)` inside a map
// range: dst must either be local to the loop or be sorted after the loop
// ends, in the same function.
func checkAppendInMapRange(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, fnBody *ast.BlockStmt) []Diagnostic {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return nil
	} else if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	dst := ast.Unparen(as.Lhs[0])
	// A destination declared inside the loop body cannot leak unsorted
	// order out of the iteration.
	if id, ok := dst.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil &&
			obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return nil
		}
	}
	if fnBody != nil && sortedAfter(pass, fnBody, dst, rng.End()) {
		return nil
	}
	return []Diagnostic{{
		Pos: as.Pos(),
		Message: fmt.Sprintf("map iteration appends to %s, which is never sorted afterwards; "+
			"report output depends on map order", exprKey(dst)),
	}}
}

// sortedAfter reports whether dst (matched by expression text) is passed
// to a sort.* or slices.Sort* call after position after, inside body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, dst ast.Expr, after token.Pos) bool {
	dstKey := exprKey(dst)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		fn := funcObj(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		isSorter := fn.Pkg().Path() == "sort" ||
			(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !isSorter {
			return true
		}
		for _, arg := range call.Args {
			if exprKey(ast.Unparen(arg)) == dstKey {
				found = true
			}
		}
		return true
	})
	return found
}

// banNondeterministicSources flags uses of time.Now/time.Since and any
// import of math/rand (v1 or v2).
func banNondeterministicSources(pass *Pass, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			diags = append(diags, Diagnostic{
				Pos: imp.Pos(),
				Message: fmt.Sprintf("import of %s in a report-producing package; "+
					"use twolevel/internal/rng so experiments stay bit-reproducible", path),
			})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			diags = append(diags, Diagnostic{
				Pos: id.Pos(),
				Message: fmt.Sprintf("time.%s reads the wall clock in a report-producing package; "+
					"keep nondeterminism out of report paths or annotate the timing spot", fn.Name()),
			})
		}
		return true
	})
	return diags
}
