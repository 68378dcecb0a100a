package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe matches the fixture expectation comment: // want "regexp"
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// runFixture loads one fixture package from testdata/src, runs a single
// analyzer over it (with //lint:allow filtering, exactly like the
// driver), and compares the surviving diagnostics against the fixture's
// `// want "regexp"` comments: every want must be matched by a
// diagnostic on its line, and every diagnostic must be expected.
func runFixture(t *testing.T, a *Analyzer, pkgPath string) {
	t.Helper()
	diags, pkg := checkFixture(t, a, pkgPath)

	type wantKey struct {
		file string
		line int
	}
	wants := make(map[wantKey]*regexp.Regexp)
	matched := make(map[wantKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[wantKey{pos.Filename, pos.Line}] = regexp.MustCompile(m[1])
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", FormatDiagnostic(pkg.Fset, d))
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("diagnostic at %s:%d does not match want %q: %s",
				pos.Filename, pos.Line, re, d.Message)
			continue
		}
		matched[key] = true
	}
	for key := range wants {
		if !matched[key] {
			t.Errorf("missing expected diagnostic at %s:%d (want %q)",
				key.file, key.line, wants[key])
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments; it proves nothing", pkgPath)
	}
}

// checkFixture loads a fixture package and runs one analyzer over it.
func checkFixture(t *testing.T, a *Analyzer, pkgPath string) ([]Diagnostic, *Package) {
	t.Helper()
	ld := fixtureLoader(t)
	pkg, err := ld.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	if !a.AppliesTo(pkg.Name) {
		t.Fatalf("fixture package %s (name %s) is out of scope for analyzer %s — "+
			"the fixture would vacuously pass", pkgPath, pkg.Name, a.Name)
	}
	return CheckPackage(pkg, []*Analyzer{a}), pkg
}

// fixtureLoader returns a loader rooted at the real module with
// testdata/src as an extra import root, so fixtures can import both each
// other and the standard library.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	testdata, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root, testdata)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism/experiments")
}

func TestNoPanicFixture(t *testing.T) {
	runFixture(t, NoPanic, "nopanic/predictor")
}

func TestObsNilGuardFixture(t *testing.T) {
	runFixture(t, ObsNilGuard, "obsnilguard/sim")
}

func TestObsNilGuardFastpathFixture(t *testing.T) {
	runFixture(t, ObsNilGuard, "obsnilguard/fastpath")
}

func TestSpanNilGuardFixture(t *testing.T) {
	runFixture(t, SpanNilGuard, "spannilguard/sim")
}

func TestSpanNilGuardFastpathFixture(t *testing.T) {
	runFixture(t, SpanNilGuard, "spannilguard/fastpath")
}

func TestCtxPollFixture(t *testing.T) {
	runFixture(t, CtxPoll, "ctxpoll/trace")
}

func TestAtomicCounterFixture(t *testing.T) {
	runFixture(t, AtomicCounter, "atomiccounter/experiments")
}

func TestFlatLoopFixture(t *testing.T) {
	runFixture(t, FlatLoop, "flatloop/fastpath")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/fastpath")
}

func TestFlatLoopFlatFixture(t *testing.T) {
	runFixture(t, FlatLoop, "flatloop/flat")
}

func TestHotAllocFlatFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/flat")
}

func TestFlatLoopTraceFixture(t *testing.T) {
	runFixture(t, FlatLoop, "flatloop/trace")
}

func TestHotAllocTraceFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/trace")
}

func TestFlatLoopTelemetryFixture(t *testing.T) {
	runFixture(t, FlatLoop, "flatloop/telemetry")
}

func TestHotAllocTelemetryFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc/telemetry")
}

func TestLockHeldFixture(t *testing.T) {
	runFixture(t, LockHeld, "lockheld/server")
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, GoroLeak, "goroleak/server")
}

func TestErrFlowFixture(t *testing.T) {
	runFixture(t, ErrFlow, "errflow/experiments")
}

// TestAllowDirectiveHygiene checks that malformed suppressions are
// findings in their own right, and that a directive that fails hygiene
// does not actually suppress anything. (Checked directly rather than via
// want comments: a want comment cannot share a malformed directive's
// line.)
func TestAllowDirectiveHygiene(t *testing.T) {
	diags, pkg := checkFixture(t, Determinism, "directive/experiments")
	var directive, determinism int
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			directive++
		case "determinism":
			determinism++
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, FormatDiagnostic(pkg.Fset, d))
		}
	}
	if directive != 3 {
		t.Errorf("got %d directive-hygiene findings, want 3 (missing reason, unknown analyzer, bare)", directive)
	}
	if determinism != 3 {
		t.Errorf("got %d determinism findings, want 3 — malformed directives must not suppress", determinism)
	}
	var msgs []string
	for _, d := range diags {
		if d.Analyzer == "directive" {
			msgs = append(msgs, d.Message)
		}
	}
	for _, want := range []string{"needs a reason", "unknown analyzer", "needs an analyzer name"} {
		found := false
		for _, m := range msgs {
			if regexp.MustCompile(want).MatchString(m) {
				found = true
			}
		}
		if !found {
			t.Errorf("no directive finding matching %q in %v", want, msgs)
		}
	}
}

// TestAnalyzerScoping checks that a package outside an analyzer's scope
// is not checked: the same violating code in a differently-named package
// yields nothing.
func TestAnalyzerScoping(t *testing.T) {
	for _, a := range Analyzers {
		if a.AppliesTo("isa") {
			t.Errorf("%s unexpectedly applies to package isa", a.Name)
		}
		if len(a.Packages) == 0 {
			t.Errorf("%s has no package scope; the suite is contract-scoped by design", a.Name)
		}
	}
}

// TestByName checks the analyzer registry lookup.
func TestByName(t *testing.T) {
	for _, a := range Analyzers {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nosuchcheck") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}

// TestFormatDiagnostic pins the driver's output shape.
func TestFormatDiagnostic(t *testing.T) {
	diags, pkg := checkFixture(t, AtomicCounter, "atomiccounter/experiments")
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
	got := FormatDiagnostic(pkg.Fset, diags[0])
	if !regexp.MustCompile(`experiments\.go:\d+:\d+: \[atomiccounter\] `).MatchString(got) {
		t.Errorf("unexpected format: %s", got)
	}
	_ = fmt.Sprintf // keep fmt imported alongside future debugging
}
