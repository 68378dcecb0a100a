package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FlatLoop enforces the fast-path kernel contract: the hot replay
// functions in the fastpath package (run*, lookup*, flush*, the plan
// builder's plan* and the telemetry fold's fold*), the telemetry
// package's per-site fold they share with Forensics (Fold*/fold*), the
// flat state package's step functions they call per event (Lookup*,
// alloc*/Allocate, Flush) and the trace package's snapshot walks the
// plan builder calls (Decode*) replay packed traces over flattened state
// tables, so their bodies must not make dynamic dispatch through an
// interface — a predictor.Predictor or trace.Source method call in the
// hot loop would reintroduce exactly the per-event
// indirection the kernel exists to eliminate, and would silently erode
// the benchmarked events/sec without failing any correctness test.
// Interface dispatch belongs in cold setup (New). The one sanctioned
// exception is context.Context: the amortised ctx.Err() cancellation poll
// is part of the hot loop by design (ctxpoll contract).
var FlatLoop = &Analyzer{
	Name: "flatloop",
	Doc: "fastpath/flat/trace/telemetry hot functions (run*/lookup*/flush*/alloc*/plan*/fold*/decode*) must not call " +
		"interface methods other than context.Context",
	Packages: []string{"fastpath", "flat", "trace", "telemetry"},
	Run:      runFlatLoop,
}

// hotPrefixes marks the function-name prefixes that form the kernel's
// per-event replay path: the loops and step functions, the replay plan's
// snapshot walk (plan*) and the trace decode it runs on (decode*), and
// the telemetry fold over mispredict bits (fold*). The first letter
// matches in either case, so the exported step functions (LookupCache,
// Flush, Allocate, DecodeTally) count too.
var hotPrefixes = []string{"run", "lookup", "flush", "alloc", "plan", "fold", "decode"}

func isHotFuncName(name string) bool {
	if name == "" {
		return false
	}
	name = strings.ToLower(name[:1]) + name[1:]
	for _, p := range hotPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func runFlatLoop(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFuncName(fd.Name.Name) {
				continue
			}
			// Function literals inside a hot function (e.g. the goroutine
			// bodies runSharded spawns) execute on the hot path too, so the
			// whole body is walked without pruning.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObj(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				recv := sig.Recv().Type()
				if _, isIface := recv.Underlying().(*types.Interface); !isIface {
					return true
				}
				if isContextType(recv) {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos: call.Pos(),
					Message: "interface method call " + types.TypeString(recv, types.RelativeTo(pass.Pkg)) +
						"." + fn.Name() + " in fast-path hot function " + fd.Name.Name +
						"; flatten the state into arrays or move the dispatch to setup/teardown",
				})
				return true
			})
		}
	}
	return diags
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
