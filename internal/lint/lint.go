// Package lint is the repository's invariant-checker suite: ten custom
// static analyzers that mechanically enforce contracts earlier PRs
// established by hand — deterministic report output, error-not-panic
// public constructors, nil-guarded observer hooks, nil-guarded span
// tracing, cancellation-polled event loops and interface-free fast-path
// hot loops — plus, on the
// CFG/dataflow layer in cfg.go and dataflow.go, four flow-sensitive
// checkers: allocation-free fast-path loops (hotalloc), no blocking
// operations under a held mutex (lockheld), join-able goroutines
// (goroleak) and no dropped errors from the trace/sim/server layers
// (errflow). The cmd/brlint binary runs the suite over the module; CI
// runs it as part of tier-1 verification.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) so the analyzers could be ported
// to a vet-compatible multichecker if the dependency ever becomes
// available; the toolchain here is stdlib-only, so packages are loaded and
// type-checked from source by the offline Loader in load.go.
//
// Findings are suppressed — auditably — with an inline directive:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or alone on the line above it. The reason
// is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced contract.
	Doc string
	// Packages lists the package names (the identifier after the
	// `package` keyword, e.g. "experiments") the analyzer applies to.
	// Empty means every package.
	Packages []string
	// Run reports the analyzer's findings for one package.
	Run func(*Pass) []Diagnostic
}

// AppliesTo reports whether the analyzer checks a package with the given
// package name.
func (a *Analyzer) AppliesTo(pkgName string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, n := range a.Packages {
		if n == pkgName {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow *allowSet
}

// Allowed reports whether a //lint:allow directive for the named analyzer
// covers the given position. Most analyzers never call this — the driver
// filters their diagnostics after the fact — but nopanic consults it while
// deciding whether a callee's panics propagate to its callers.
func (p *Pass) Allowed(analyzer string, pos token.Pos) bool {
	if p.allow == nil {
		return false
	}
	position := p.Fset.Position(pos)
	return p.allow.covers(analyzer, position.Filename, position.Line)
}

// Diagnostic is one finding. Suppressed marks a finding covered by a
// //lint:allow directive; the text driver drops those, the JSON output
// keeps them so the suppression inventory stays auditable.
type Diagnostic struct {
	Pos        token.Pos
	Analyzer   string
	Message    string
	Suppressed bool
}

// Analyzers is the full suite in presentation order.
var Analyzers = []*Analyzer{
	Determinism,
	NoPanic,
	ObsNilGuard,
	SpanNilGuard,
	CtxPoll,
	HotAlloc,
	LockHeld,
	GoroLeak,
	ErrFlow,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// CheckPackage runs every applicable analyzer from suite over pkg and
// returns the surviving (non-suppressed) diagnostics together with any
// directive-hygiene findings (missing reason, unknown analyzer name).
func CheckPackage(pkg *Package, suite []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range CheckPackageAll(pkg, suite) {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// CheckPackageAll is CheckPackage without the suppression filter:
// findings covered by a //lint:allow directive are returned with
// Suppressed set, so JSON consumers can audit what the directives hide.
func CheckPackageAll(pkg *Package, suite []*Analyzer) []Diagnostic {
	allow, bad := collectAllowDirectives(pkg.Fset, pkg.Files, suite)
	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range suite {
		if !a.AppliesTo(pkg.Name) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			allow:     allow,
		}
		for _, d := range a.Run(pass) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			d.Suppressed = pass.Allowed(d.Analyzer, d.Pos)
			out = append(out, d)
		}
	}
	sortDiagnostics(pkg.Fset, out)
	return out
}

// sortDiagnostics orders diagnostics by file position, then analyzer.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// FormatDiagnostic renders one finding as file:line:col: [analyzer] msg.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: [%s] %s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
}
