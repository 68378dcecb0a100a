package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc is the static counterpart to BenchmarkKernelVsRunner: it
// holds the kernel's hot functions to the two rules its throughput
// depends on, and a break of either would erode events/sec without
// failing any correctness test. The hot functions are those named by
// hotPrefixes in the fastpath package (the loops, the replay plan's
// snapshot walk plan* and the telemetry fold fold*), the flat state
// package's step functions those loops call (Lookup*/alloc*/Flush), the
// trace package's snapshot decode the plan walks (Decode*) and the
// telemetry package's per-site fold shared with Forensics (Fold*).
//
// No dispatch: a hot function's body, closures included (the lane
// goroutines runLanes spawns run on the hot path too), must not call an
// interface method — a predictor.Predictor or trace.Source call per
// event would reintroduce exactly the indirection the kernel exists to
// eliminate. Interface work belongs in cold setup (New). The one
// sanctioned exception is context.Context: the amortised ctx.Err()
// cancellation poll is part of the hot loop by design (ctxpoll
// contract).
//
// No allocation: the analyzer builds the CFG of every hot function and
// flags, inside natural loops only, the constructs that heap-allocate
// or can: make/new/append, &T{…} and slice or map literals, map inserts,
// closures, string↔[]byte/[]rune conversions, fmt formatting, and
// implicit interface boxing. A struct or array value literal is a plain
// value and passes unless it is boxed into an interface. Calls from a
// hot loop to a same-package helper are checked one level deep: the
// call is flagged if the helper's body contains an allocation site that
// does not carry its own //lint:allow hotalloc justification (amortised
// growth like the replay plan's site directory is annotated at the
// site, which clears every hot caller at once).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "fastpath/flat/trace/telemetry hot functions (run*/lookup*/flush*/alloc*/plan*/fold*/decode*) must not call " +
		"interface methods other than context.Context, nor heap-allocate in their per-event loops " +
		"(no make/append/closures/boxing)",
	Packages: []string{"fastpath", "flat", "trace", "telemetry"},
	Run:      runHotAlloc,
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

func runHotAlloc(pass *Pass) []Diagnostic {
	h := &hotAllocPass{
		pass:   pass,
		decls:  make(map[*types.Func]*ast.FuncDecl),
		callee: make(map[*types.Func][]token.Pos),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					h.decls[fn] = fd
				}
			}
		}
	}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFuncName(fd.Name.Name) {
				continue
			}
			diags = append(diags, h.checkDispatch(fd)...)
			diags = append(diags, h.checkHotFunc(fd)...)
		}
	}
	return diags
}

type hotAllocPass struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	// callee caches, per same-package helper, the positions of its
	// unjustified allocation sites (empty = clean or fully annotated).
	callee map[*types.Func][]token.Pos
}

// checkDispatch flags every interface method call other than
// context.Context's anywhere in one hot function's body, closures
// included.
func (h *hotAllocPass) checkDispatch(fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(h.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		recv := sig.Recv().Type()
		if _, isIface := recv.Underlying().(*types.Interface); !isIface || isContextType(recv) {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos: call.Pos(),
			Message: "interface method call " + types.TypeString(recv, types.RelativeTo(h.pass.Pkg)) +
				"." + fn.Name() + " in fast-path hot function " + fd.Name.Name +
				"; flatten the state into arrays or move the dispatch to setup/teardown",
		})
		return true
	})
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

// checkHotFunc flags allocation constructs in the loop blocks of one
// hot function.
func (h *hotAllocPass) checkHotFunc(fd *ast.FuncDecl) []Diagnostic {
	cfg := buildCFG(fd.Body)
	inLoop := cfg.LoopBlocks()
	var diags []Diagnostic
	for _, blk := range cfg.Blocks {
		if !inLoop[blk.Index] {
			continue
		}
		for _, node := range blk.Nodes {
			h.scanNode(node, fd.Name.Name, &diags)
		}
	}
	return diags
}

// scanNode reports every allocation construct in one CFG leaf node.
func (h *hotAllocPass) scanNode(node ast.Node, fn string, diags *[]Diagnostic) {
	report := func(pos token.Pos, what string) {
		*diags = append(*diags, Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("%s in fast-path loop of %s; hoist it out of the per-event path "+
				"(BenchmarkKernelVsRunner guards this throughput)", what, fn),
		})
	}
	walkLeaf(node, func(n ast.Node) bool { // walkLeaf prunes closure bodies itself
		h.allocations(n, report)
		switch n := n.(type) {
		case *ast.AssignStmt:
			h.checkBoxingAssign(n, report)
		case *ast.CallExpr:
			h.scanCall(n, report)
		}
		return true
	})
}

// allocations reports the allocation construct node n is, if any,
// without descending into it: a closure, an &T{…} or slice or map
// literal, a map insert, or a make/new/append call. Struct and array
// value literals are plain values; they allocate only when boxed into
// an interface, which scanNode's boxing checks catch.
func (h *hotAllocPass) allocations(n ast.Node, report func(token.Pos, string)) {
	switch n := n.(type) {
	case *ast.FuncLit:
		report(n.Pos(), "closure creation (heap-allocates the captured environment)")
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
			report(n.Pos(), "composite literal allocation (&T{…} escapes to the heap)")
		}
	case *ast.CompositeLit:
		if t := h.pass.TypesInfo.TypeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocation")
			case *types.Map:
				report(n.Pos(), "map literal allocation")
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t := h.pass.TypesInfo.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						report(idx.Pos(), "map insert (may grow the table)")
					}
				}
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if _, isBuiltin := h.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					report(n.Pos(), "make allocation")
				case "new":
					report(n.Pos(), "new allocation")
				case "append":
					report(n.Pos(), "append (may grow the backing array)")
				}
			}
		}
	}
}

// scanCall checks one call inside a hot loop for the allocations its
// context decides: copying conversions, fmt formatting, boxed arguments
// and, one level deep, allocating same-package helpers.
func (h *hotAllocPass) scanCall(call *ast.CallExpr, report func(token.Pos, string)) {
	// Conversions: string ↔ []byte/[]rune copies the data.
	if tv, ok := h.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := h.pass.TypesInfo.TypeOf(call.Args[0])
		if src != nil && stringBytesConversion(dst, src) {
			report(call.Pos(), fmt.Sprintf("%s(%s) conversion (copies the data)",
				types.TypeString(dst, types.RelativeTo(h.pass.Pkg)),
				types.TypeString(src, types.RelativeTo(h.pass.Pkg))))
		}
		return
	}
	fn := funcObj(h.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt."+fn.Name()+" call (formats through interfaces and allocates)")
		return
	}
	h.checkBoxingCall(call, report)
	// One level of same-package helper checking.
	if fn != nil && fn.Pkg() == h.pass.Pkg && !isHotFuncName(fn.Name()) {
		if sites := h.calleeAllocs(fn); len(sites) > 0 {
			p := h.pass.Fset.Position(sites[0])
			report(call.Pos(), fmt.Sprintf("call to %s, which allocates (%s:%d)",
				fn.Name(), p.Filename[lastSlash(p.Filename)+1:], p.Line))
		}
	}
}

// calleeAllocs returns the unjustified allocation sites in a
// same-package helper's body (memoized). Sites covered by a
// //lint:allow hotalloc directive are excluded, so annotating an
// amortised allocation once at its site clears every hot caller.
func (h *hotAllocPass) calleeAllocs(fn *types.Func) []token.Pos {
	if sites, ok := h.callee[fn]; ok {
		return sites
	}
	h.callee[fn] = nil // cycle guard
	fd := h.decls[fn]
	if fd == nil {
		return nil
	}
	var sites []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		h.allocations(n, func(pos token.Pos, _ string) {
			if !h.pass.Allowed("hotalloc", pos) {
				sites = append(sites, pos)
			}
		})
		_, closure := n.(*ast.FuncLit)
		return !closure
	})
	h.callee[fn] = sites
	return sites
}

// checkBoxingCall flags arguments implicitly converted to an interface
// parameter (the conversion heap-allocates unless the value is
// pointer-shaped and escapes anyway — statically indistinguishable, so
// boxing in a hot loop is flagged outright).
func (h *hotAllocPass) checkBoxingCall(call *ast.CallExpr, report func(token.Pos, string)) {
	sigT := h.pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1 && call.Ellipsis == token.NoPos:
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if h.boxes(pt, arg) {
			report(arg.Pos(), "interface boxing of argument (concrete value converted to "+
				types.TypeString(pt, types.RelativeTo(h.pass.Pkg))+")")
		}
	}
}

// checkBoxingAssign flags n:n assignments that box a concrete value
// into an interface-typed destination.
func (h *hotAllocPass) checkBoxingAssign(a *ast.AssignStmt, report func(token.Pos, string)) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := h.pass.TypesInfo.TypeOf(lhs)
		if lt == nil {
			continue
		}
		if h.boxes(lt, a.Rhs[i]) {
			report(a.Rhs[i].Pos(), "interface boxing in assignment (concrete value stored as "+
				types.TypeString(lt, types.RelativeTo(h.pass.Pkg))+")")
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst
// performs an interface conversion from a concrete type.
func (h *hotAllocPass) boxes(dst types.Type, expr ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return false
	}
	at := h.pass.TypesInfo.TypeOf(expr)
	if at == nil || at == types.Typ[types.Invalid] {
		return false
	}
	if isNilIdent(h.pass.TypesInfo, ast.Unparen(expr)) {
		return false
	}
	if _, isIface := at.Underlying().(*types.Interface); isIface {
		return false
	}
	if b, ok := at.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		// Untyped constants box too, but flagging literals passed to
		// variadic helpers outside the measured path is noise; constant
		// boxing in the repo's hot loops does not occur.
		return false
	}
	return true
}

// stringBytesConversion reports whether dst(src) is one of the copying
// conversions string↔[]byte / string↔[]rune.
func stringBytesConversion(dst, src types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

// lastSlash returns the index of the last path separator in s, or -1.
func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == '\\' {
			return i
		}
	}
	return -1
}
