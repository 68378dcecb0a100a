package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic enforces the error-not-panic contract on the predictor
// construction surface: exported functions and methods in the root
// twolevel package and in internal/predictor and internal/automaton
// must not contain a reachable panic — invalid configurations are reported as errors by the validating
// constructors. The serving daemon (internal/server) carries the same
// contract: a panic in its exported surface would take down every
// tenant at once. Checking is intraprocedural plus one level of
// same-package callee inlining. Two escape hatches exist by design:
// Must*-named helpers (whose documented contract is to panic) are
// exempt, and deliberate programmer-error panics below the validated
// layer carry //lint:allow nopanic annotations.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc: "exported APIs in predictor-construction and serving packages must " +
		"return errors, not panic (Must* helpers exempt)",
	Packages: []string{"twolevel", "predictor", "automaton", "server"},
	Run:      runNoPanic,
}

func runNoPanic(pass *Pass) []Diagnostic {
	// Map every declared function in the package to its direct,
	// non-suppressed panic sites.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	panics := make(map[*types.Func][]*ast.CallExpr)
	for fn, fd := range decls {
		panics[fn] = directPanics(pass, fd)
	}

	var diags []Diagnostic
	for fn, fd := range decls {
		if !fn.Exported() || isMustHelper(fn.Name()) {
			continue
		}
		for _, p := range panics[fn] {
			diags = append(diags, Diagnostic{
				Pos: p.Pos(),
				Message: fmt.Sprintf("exported %s panics; the public-API contract is to return an error "+
					"(reserve panic for Must* helpers)", fn.Name()),
			})
		}
		// One level of callee inlining: a call to a same-package function
		// whose body panics makes the panic reachable from here.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcObj(pass.TypesInfo, call)
			if callee == nil || callee == fn {
				return true
			}
			calleePanics := panics[callee]
			if len(calleePanics) == 0 {
				return true
			}
			where := pass.Fset.Position(calleePanics[0].Pos())
			diags = append(diags, Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf("exported %s calls %s, which panics (%s:%d); the public-API "+
					"contract is to return an error", fn.Name(), callee.Name(), where.Filename, where.Line),
			})
			return true
		})
	}
	return diags
}

// directPanics returns the panic call sites lexically inside fd's body,
// excluding nested function literals (their execution is not implied by
// calling fd) and excluding sites suppressed with //lint:allow nopanic.
func directPanics(pass *Pass, fd *ast.FuncDecl) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if pass.Allowed("nopanic", call.Pos()) {
			return true
		}
		out = append(out, call)
		return true
	})
	return out
}

// isMustHelper reports whether name follows the Must* convention whose
// documented contract is to panic on error.
func isMustHelper(name string) bool {
	return name == "Must" || strings.HasPrefix(name, "Must")
}
