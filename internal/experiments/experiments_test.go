package experiments

import (
	"math"
	"strings"
	"testing"

	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
)

// fast is a reduced budget: the orderings asserted here are robust well
// below the default budget, and the full suite must stay quick.
var fast = Options{CondBranches: 8_000}

func TestIDsAndRun(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ext-taxonomy", "ext-interleave", "ext-residual"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for _, w := range want {
		found := false
		for _, id := range ids {
			if id == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %s", w)
		}
	}
	if _, err := Run("fig99", fast); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.CondBranches != DefaultCondBranches || o.TrainBranches != DefaultCondBranches {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if len(o.Benchmarks) != 9 {
		t.Fatalf("default benchmarks = %d", len(o.Benchmarks))
	}
	o2 := Options{CondBranches: 100, TrainBranches: 7}.withDefaults()
	if o2.TrainBranches != 7 {
		t.Fatal("explicit TrainBranches overridden")
	}
}

func TestReportValueAndText(t *testing.T) {
	r := &Report{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Series:  []Series{{Label: "s1", Values: []Cell{0.5, math.NaN()}}},
		Percent: true,
		Notes:   []string{"hello"},
	}
	if r.Value("s1", "a") != 0.5 {
		t.Fatal("Value lookup failed")
	}
	if !math.IsNaN(r.Value("s1", "b")) || !math.IsNaN(r.Value("zz", "a")) || !math.IsNaN(r.Value("s1", "zz")) {
		t.Fatal("missing cells should be NaN")
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== X: test ==", "50.00%", "-", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1CountsPlausible(t *testing.T) {
	r, err := Table1(Options{CondBranches: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 9 {
		t.Fatalf("rows = %d", len(r.Series))
	}
	for _, s := range r.Series {
		measured, paper := s.Values[0], s.Values[1]
		if measured <= 0 || measured > paper+2 {
			t.Errorf("%s: measured %v vs paper %v", s.Label, measured, paper)
		}
	}
	// The small ones reach their paper count even at this budget.
	if got := r.Value("eqntott", "measured"); got != 277 {
		t.Errorf("eqntott static = %v, want 277", got)
	}
}

func TestTable2AndTable3(t *testing.T) {
	r2, err := Table2(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Series) != 9 {
		t.Fatal("table2 rows")
	}
	r3, err := Table3(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Series) != len(table3Specs) {
		t.Fatal("table3 rows")
	}
	// Every Table 3 spec string parses and round-trips.
	for _, s := range table3Specs {
		sp, err := spec.Parse(s)
		if err != nil {
			t.Errorf("table3 spec %q: %v", s, err)
			continue
		}
		if sp.String() != s {
			t.Errorf("table3 spec %q round-trips to %q", s, sp.String())
		}
	}
}

func TestFigure4ClassShares(t *testing.T) {
	r, err := Figure4(fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		sum := 0.0
		for _, v := range s.Values[:5] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: class shares sum to %v", s.Label, sum)
		}
		// li is dispatch-heavy (call/return dominated), so its share is
		// the lowest; everything else sits near the paper's ~80%.
		if s.Values[0] < 0.35 {
			t.Errorf("%s: conditional share %v too low", s.Label, s.Values[0])
		}
	}
}

func TestFigure5AutomataOrdering(t *testing.T) {
	r, err := Figure5(fast)
	if err != nil {
		t.Fatal(err)
	}
	a2 := r.Value("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", "Tot GMean")
	lt := r.Value("PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))", "Tot GMean")
	if !(a2 > lt) {
		t.Fatalf("A2 (%v) should beat Last-Time (%v)", a2, lt)
	}
}

func TestFigure6VariationOrdering(t *testing.T) {
	r, err := Figure6(Options{CondBranches: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"4", "6", "8"} {
		gag := r.Value("GAg("+k+")", "Tot GMean")
		pag := r.Value("PAg("+k+")", "Tot GMean")
		pap := r.Value("PAp("+k+")", "Tot GMean")
		if !(pap > gag && pag > gag) {
			t.Errorf("k=%s: per-address schemes should beat GAg: GAg=%v PAg=%v PAp=%v", k, gag, pag, pap)
		}
	}
	// The headline interference ordering at k=6.
	if !(r.Value("PAp(6)", "Tot GMean") >= r.Value("PAg(6)", "Tot GMean")) {
		t.Error("PAp(6) should be at least PAg(6)")
	}
}

func TestFigure7Monotone(t *testing.T) {
	r, err := Figure7(fast)
	if err != nil {
		t.Fatal(err)
	}
	first := r.Value("GAg(6-bit)", "Tot GMean")
	last := r.Value("GAg(18-bit)", "Tot GMean")
	if !(last > first+0.03) {
		t.Fatalf("GAg should gain markedly from k=6 (%v) to k=18 (%v)", first, last)
	}
}

func TestFigure8EqualAccuracyAndCostNotes(t *testing.T) {
	// GAg(18)'s quarter-million-entry pattern table needs a longer
	// warm-up than the other configurations.
	r, err := Figure8(Options{CondBranches: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	g := r.Value(figure8Specs[0], "Tot GMean")
	p1 := r.Value(figure8Specs[1], "Tot GMean")
	p2 := r.Value(figure8Specs[2], "Tot GMean")
	// "About the same" accuracy: within a few points of each other.
	if math.Abs(g-p1) > 0.05 || math.Abs(p1-p2) > 0.05 {
		t.Fatalf("equal-accuracy configs too far apart: %v %v %v", g, p1, p2)
	}
	costNotes := 0
	for _, n := range r.Notes {
		if strings.Contains(n, "cost BHT=") {
			costNotes++
		}
	}
	if costNotes != 3 {
		t.Fatalf("want 3 cost notes, got %d", costNotes)
	}
}

func TestFigure9ContextSwitchDegradesLittle(t *testing.T) {
	r, err := Figure9(Options{CondBranches: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range figure8Specs {
		base := r.Value(s, "Tot GMean")
		cs := spec.MustParse(s)
		cs.ContextSwitch = true
		with := r.Value(cs.String(), "Tot GMean")
		if math.IsNaN(base) || math.IsNaN(with) {
			t.Fatalf("missing rows for %s", s)
		}
		if base-with > 0.03 {
			t.Errorf("%s: context switches cost %.3f, paper says < 1%% average", s, base-with)
		}
	}
}

func TestFigure10BHTOrdering(t *testing.T) {
	r, err := Figure10(Options{CondBranches: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	ideal := r.Value("PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2),c)", "Tot GMean")
	big := r.Value("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)", "Tot GMean")
	small := r.Value("PAg(BHT(256,1,12-sr),1xPHT(2^12,A2),c)", "Tot GMean")
	if !(ideal >= big && big > small) {
		t.Fatalf("BHT ordering wrong: ideal=%v 512/4=%v 256/1=%v", ideal, big, small)
	}
	if ideal-big > 0.03 {
		t.Errorf("512-entry 4-way should be close to ideal: %v vs %v", big, ideal)
	}
}

func TestFigure11SchemeOrdering(t *testing.T) {
	r, err := Figure11(Options{CondBranches: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	pag := r.Value("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", "Tot GMean")
	psg := r.Value("PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))", "Tot GMean")
	gsg := r.Value("GSg(HR(1,,12-sr),1xPHT(2^12,PB))", "Tot GMean")
	btbA2 := r.Value("BTB(BHT(512,4,A2),)", "Tot GMean")
	btbLT := r.Value("BTB(BHT(512,4,LT),)", "Tot GMean")
	btfn := r.Value("BTFN", "Tot GMean")
	at := r.Value("AlwaysTaken", "Tot GMean")
	// The paper's headline orderings.
	if !(pag > psg) {
		t.Errorf("Two-Level Adaptive (%v) should beat Static Training (%v)", pag, psg)
	}
	if !(pag > btbA2) {
		t.Errorf("Two-Level Adaptive (%v) should beat BTB-A2 (%v)", pag, btbA2)
	}
	if !(psg > gsg) {
		t.Errorf("PSg (%v) should beat GSg (%v)", psg, gsg)
	}
	if !(btbA2 > btbLT) {
		t.Errorf("BTB-A2 (%v) should beat BTB-LT (%v)", btbA2, btbLT)
	}
	if !(btfn > at) {
		t.Errorf("BTFN (%v) should beat Always Taken (%v)", btfn, at)
	}
	if !(btbLT > btfn) {
		t.Errorf("dynamic BTB-LT (%v) should beat static BTFN (%v)", btbLT, btfn)
	}
	// Sanity on absolute levels: the dynamic two-level scheme is high,
	// the static schemes are far below.
	if pag < 0.88 {
		t.Errorf("PAg total gmean %v suspiciously low", pag)
	}
	if at > 0.75 {
		t.Errorf("Always Taken total gmean %v suspiciously high", at)
	}
}

func TestExtTaxonomyOrdering(t *testing.T) {
	r, err := ExtTaxonomy(Options{CondBranches: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	v := func(prefix string) float64 {
		for _, s := range r.Series {
			if strings.HasPrefix(s.Label, prefix) {
				return s.Values[len(s.Values)-1] // Tot GMean
			}
		}
		t.Fatalf("missing row %s", prefix)
		return 0
	}
	// Along the pattern axis with global history: finer association
	// beats coarser.
	if !(v("GAp") > v("GAg")) {
		t.Errorf("GAp (%v) should beat GAg (%v)", v("GAp"), v("GAg"))
	}
	// Along the history axis with global patterns: per-set and
	// per-address history both beat the single register.
	if !(v("SAg") > v("GAg")) || !(v("PAg") > v("GAg")) {
		t.Errorf("SAg (%v) and PAg (%v) should beat GAg (%v)", v("SAg"), v("PAg"), v("GAg"))
	}
	// Per-address history should not lose to untagged per-set history.
	if v("PAg") < v("SAg")-0.01 {
		t.Errorf("PAg (%v) should be at least SAg (%v)", v("PAg"), v("SAg"))
	}
}

func TestExtInterleave(t *testing.T) {
	r, err := ExtInterleave(Options{CondBranches: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("rows = %d", len(r.Series))
	}
	iso := r.Value("gcc isolated", "accuracy")
	flush := r.Value("gcc flush-model", "accuracy")
	if !(flush < iso) {
		t.Errorf("flushing should cost accuracy: %v vs %v", flush, iso)
	}
	if sw := r.Value("gcc+espresso interleaved", "switches"); sw == 0 {
		t.Error("interleaved run recorded no switches")
	}
}

func TestExtResidualSharesSum(t *testing.T) {
	r, err := ExtResidual(Options{CondBranches: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 9 {
		t.Fatalf("rows = %d", len(r.Series))
	}
	for _, s := range r.Series {
		sum := 0.0
		for _, v := range s.Values[1:] {
			sum += v
		}
		if s.Values[0] < 1 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: cause shares sum to %v", s.Label, sum)
		}
	}
	// gcc's huge working set: BHT misses must be a visible cause there.
	if bm := r.Value("gcc", "bht-miss"); bm < 0.05 {
		t.Errorf("gcc bht-miss share %v suspiciously low", bm)
	}
}

// runCell measures sp on b through the grid scheduler: a grid of one row
// and one benchmark.
func runCell(sp spec.Spec, b *prog.Benchmark, o Options) (sim.Result, error) {
	o.Benchmarks = []*prog.Benchmark{b}
	grid, err := runGrid([]labeledSpec{{label: sp.String(), sp: sp}}, o.withDefaults())
	return grid[0][0], err
}

func TestRunSpecResultFields(t *testing.T) {
	b, err := prog.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCell(spec.MustParse("PAg(BHT(512,4,8-sr),1xPHT(2^8,A2),c)"), b, Options{CondBranches: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Predictions != 5000 {
		t.Fatalf("predictions = %d", res.Accuracy.Predictions)
	}
	if res.Instructions == 0 {
		t.Fatal("instructions not counted")
	}
}
