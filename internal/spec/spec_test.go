package spec

import (
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// Table 3 of the paper, as spec strings (r = 12 where the paper sweeps).
var table3 = []string{
	"GAg(HR(1,,12-sr),1xPHT(2^12,A2))",
	"PAg(BHT(256,1,12-sr),1xPHT(2^12,A2))",
	"PAg(BHT(256,4,12-sr),1xPHT(2^12,A2))",
	"PAg(BHT(512,1,12-sr),1xPHT(2^12,A2))",
	"PAg(BHT(512,4,12-sr),1xPHT(2^12,A1))",
	"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))",
	"PAg(BHT(512,4,12-sr),1xPHT(2^12,A3))",
	"PAg(BHT(512,4,12-sr),1xPHT(2^12,A4))",
	"PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))",
	"PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))",
	"PAp(BHT(512,4,12-sr),512xPHT(2^12,A2))",
	"GSg(HR(1,,12-sr),1xPHT(2^12,PB))",
	"PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))",
	"BTB(BHT(512,4,A2),)",
	"BTB(BHT(512,4,LT),)",
}

func TestParseTable3RoundTrip(t *testing.T) {
	for _, s := range table3 {
		sp, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := sp.String(); got != s {
			t.Errorf("round trip: %q -> %q", s, got)
		}
	}
}

func TestParseContextSwitchFlag(t *testing.T) {
	sp, err := Parse("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.ContextSwitch {
		t.Fatal("context switch flag lost")
	}
	if !strings.HasSuffix(sp.String(), ",c)") {
		t.Fatalf("String() dropped the flag: %q", sp.String())
	}
	sp2, err := Parse("BTB(BHT(512,4,A2),,c)")
	if err != nil {
		t.Fatal(err)
	}
	if !sp2.ContextSwitch {
		t.Fatal("BTB context switch flag lost")
	}
}

func TestParseFieldExtraction(t *testing.T) {
	sp := MustParse("PAp(BHT(512,4,6-sr),512xPHT(2^6,A3))")
	if sp.Scheme != SchemePAp || sp.HistEntries != 512 || sp.HistAssoc != 4 ||
		sp.HistoryBits != 6 || sp.PHTSets != 512 || sp.Automaton != automaton.A3 {
		t.Fatalf("fields wrong: %+v", sp)
	}
	g := MustParse("GAg(HR(1,,18-sr),1xPHT(2^18,A2))")
	if g.HistEntries != 1 || g.HistoryBits != 18 || g.PHTSets != 1 {
		t.Fatalf("GAg fields wrong: %+v", g)
	}
	i := MustParse("PAp(IBHT(inf,,8-sr),infxPHT(2^8,A2))")
	if !i.Ideal || i.PHTSets != 0 {
		t.Fatalf("ideal PAp fields wrong: %+v", i)
	}
}

func TestParseIgnoresWhitespaceAndCaseX(t *testing.T) {
	a := MustParse("PAg(BHT(512, 4, 12-sr), 1 X PHT(2^12, A2))")
	b := MustParse("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
	if a != b {
		t.Fatalf("whitespace/X variant parsed differently: %+v vs %+v", a, b)
	}
}

func TestParseStaticSchemes(t *testing.T) {
	for _, s := range []string{"AlwaysTaken", "BTFN", "Profiling"} {
		sp, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if sp.String() != s {
			t.Fatalf("static round trip %q -> %q", s, sp.String())
		}
		if !sp.IsStatic() {
			t.Fatalf("%s should be static", s)
		}
	}
	sp := MustParse("BTFN(,,c)")
	if !sp.ContextSwitch {
		t.Fatal("static context switch flag lost")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Nonsense(HR(1,,12-sr),1xPHT(2^12,A2))",
		"GAg(HR(1,,12-sr),1xPHT(2^12,A2)", // missing close
		"GAg(HR(2,,12-sr),1xPHT(2^12,A2))",
		"GAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", // global can't have BHT
		"PAg(HR(1,,12-sr),1xPHT(2^12,A2))",     // per-address can't have HR
		"PAg(BHT(512,4,12-sr),1xPHT(2^10,A2))", // mismatched sizes
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,ZZ))",
		"PAg(BHT(512,4,12),1xPHT(2^12,A2))", // not a shift register
		"PAg(BHT(500,4,12-sr),1xPHT(2^12,A2))",
		"PAg(BHT(512,3,12-sr),1xPHT(2^12,A2))",
		"PAp(BHT(512,4,6-sr),256xPHT(2^6,A2))", // p != h
		"PAg(BHT(512,4,12-sr))",                // missing pattern
		"PAg(BHT(512,4,12-sr),2xPHT(2^12,A2))",
		"GSg(HR(1,,12-sr),1xPHT(2^12,A2))", // static training needs PB
		"PAg(BHT(512,4,0-sr),1xPHT(2^0,A2))",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),z)",
		"AlwaysTaken(BHT(512,4,A2),)",
		"BTB(BHT(512,4,12-sr),)", // BTB holds an automaton, not a shift register
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestBuildTwoLevelSchemes(t *testing.T) {
	for _, s := range []string{
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
		"PAg(BHT(512,4,8-sr),1xPHT(2^8,A2))",
		"PAp(BHT(256,4,6-sr),256xPHT(2^6,A2))",
		"PAg(IBHT(inf,,8-sr),1xPHT(2^8,LT))",
		"PAp(IBHT(inf,,6-sr),infxPHT(2^6,A2))",
		"BTB(BHT(512,4,A2),)",
		"BTB(BHT(512,4,LT),)",
		"AlwaysTaken",
		"BTFN",
	} {
		sp := MustParse(s)
		p, err := Build(sp, nil)
		if err != nil {
			t.Errorf("Build(%q): %v", s, err)
			continue
		}
		if !sp.IsStatic() && p.Name() != s {
			t.Errorf("built predictor name %q, want %q", p.Name(), s)
		}
		// Smoke: the predictor runs.
		b := trace.Branch{PC: 0x1000, Target: 0x800, Class: trace.Cond, Taken: true}
		pred := p.Predict(b)
		p.Update(b, pred)
		p.ContextSwitch()
	}
}

func TestBuildTrainingSchemesRequireTrainers(t *testing.T) {
	for _, s := range []string{
		"GSg(HR(1,,6-sr),1xPHT(2^6,PB))",
		"PSg(BHT(512,4,6-sr),1xPHT(2^6,PB))",
		"Profiling",
	} {
		sp := MustParse(s)
		if !sp.NeedsTraining() {
			t.Errorf("%s should need training", s)
		}
		if _, err := Build(sp, nil); err == nil {
			t.Errorf("Build(%q) without training data accepted", s)
		}
	}
}

func TestBuildTrainedSchemes(t *testing.T) {
	branches := make([]trace.Branch, 200)
	for i := range branches {
		branches[i] = trace.Branch{PC: 0x100, Target: 0x80, Class: trace.Cond, Taken: i%2 == 0}
	}

	gsgSpec := MustParse("GSg(HR(1,,6-sr),1xPHT(2^6,PB))")
	st, err := NewTrainer(gsgSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range branches {
		st.Observe(b)
	}
	p, err := Build(gsgSpec, &TrainingData{Static: st})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != gsgSpec.String() {
		t.Fatalf("GSg name %q", p.Name())
	}

	psgSpec := MustParse("PSg(BHT(512,4,6-sr),1xPHT(2^6,PB))")
	st2, err := NewTrainer(psgSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range branches {
		st2.Observe(b)
	}
	if _, err := Build(psgSpec, &TrainingData{Static: st2}); err != nil {
		t.Fatal(err)
	}

	pt := predictor.NewProfileTrainer()
	for _, b := range branches {
		pt.Observe(b)
	}
	prof, err := Build(MustParse("Profiling"), &TrainingData{Profile: pt})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Predict(trace.Branch{PC: 0x100}) {
		t.Fatal("profile tie should predict taken")
	}
}

// TestTrain: Train runs the training pass each scheme needs, building
// the trainer the experiment harness, the server and the facade each
// built by hand before; a scheme that needs none gets nil, nil.
func TestTrain(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 3000; i++ {
		pc := uint32(0x1000 + 4*(i%17))
		if i%41 == 40 {
			tr.Append(trace.Event{Trap: true, Instrs: 2})
			continue
		}
		tr.Append(trace.Event{Instrs: 3, Branch: trace.Branch{
			PC: pc, Target: pc - 32, Class: trace.Cond, Taken: (i/(1+i%5))%3 != 0,
		}})
	}
	for _, tc := range []struct {
		spec string
		want func(trace.Source) (*TrainingData, error)
	}{
		{"Profiling", func(src trace.Source) (*TrainingData, error) {
			p := predictor.NewProfileTrainer()
			return &TrainingData{Profile: p}, p.ObserveTrace(src)
		}},
		{"GSg(HR(1,,10-sr),1xPHT(2^10,PB))", func(src trace.Source) (*TrainingData, error) {
			s := predictor.NewStaticTrainer(10, false)
			return &TrainingData{Static: s}, s.ObserveTrace(src)
		}},
		{"PSg(BHT(512,4,8-sr),1xPHT(2^8,PB))", func(src trace.Source) (*TrainingData, error) {
			s := predictor.NewStaticTrainer(8, true)
			return &TrainingData{Static: s}, s.ObserveTrace(src)
		}},
		{"PAg(BHT(512,4,8-sr),1xPHT(2^8,A2))", nil},
		{"AlwaysTaken", nil},
	} {
		sp := MustParse(tc.spec)
		const budget = 2000
		got, err := Train(sp, &trace.LimitSource{Src: tr.Reader(), N: budget})
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if tc.want == nil {
			if got != nil {
				t.Errorf("%s needs no training, got %+v", tc.spec, got)
			}
			continue
		}
		want, err := tc.want(&trace.LimitSource{Src: tr.Reader(), N: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Train built %+v, want %+v", tc.spec, got, want)
		}
		if _, err := Build(sp, got); err != nil {
			t.Errorf("%s: Build on the trained data: %v", tc.spec, err)
		}
	}
}

func TestNewTrainerRejectsNonTrainingSchemes(t *testing.T) {
	if _, err := NewTrainer(MustParse("GAg(HR(1,,6-sr),1xPHT(2^6,A2))")); err == nil {
		t.Fatal("NewTrainer accepted GAg")
	}
}

func TestHasBHT(t *testing.T) {
	cases := map[string]bool{
		"GAg(HR(1,,6-sr),1xPHT(2^6,A2))":       false,
		"PAg(BHT(512,4,6-sr),1xPHT(2^6,A2))":   true,
		"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))": true,
		"BTB(BHT(512,4,A2),)":                  true,
		"AlwaysTaken":                          false,
	}
	for s, want := range cases {
		if MustParse(s).HasBHT() != want {
			t.Errorf("%s: HasBHT = %v, want %v", s, !want, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("garbage(")
}

func TestTaxonomySpecRoundTripAndBuild(t *testing.T) {
	specs := []string{
		"GAp(HR(1,,8-sr),512xPHT(2^8,A2))",
		"GAs(HR(1,,8-sr),16xPHT(2^8,A2))",
		"PAs(BHT(512,4,8-sr),16xPHT(2^8,A2))",
		"SAg(SHT(64,,8-sr),1xPHT(2^8,A2))",
		"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))",
		"SAp(SHT(64,,8-sr),512xPHT(2^8,A2))",
	}
	for _, s := range specs {
		sp, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := sp.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		p, err := Build(sp, nil)
		if err != nil {
			t.Errorf("Build(%q): %v", s, err)
			continue
		}
		if p.Name() != s {
			t.Errorf("built name %q, want %q", p.Name(), s)
		}
		b := trace.Branch{PC: 0x1000, Target: 0x800, Class: trace.Cond, Taken: true}
		p.Update(b, p.Predict(b))
		p.ContextSwitch()
	}
}

func TestTaxonomySpecErrors(t *testing.T) {
	bad := []string{
		"SAg(BHT(512,4,8-sr),1xPHT(2^8,A2))",   // S scheme needs SHT
		"SAg(SHT(60,,8-sr),1xPHT(2^8,A2))",     // not a power of two
		"GAs(HR(1,,8-sr),infxPHT(2^8,A2))",     // per-set needs a finite count
		"GAs(HR(1,,8-sr),3xPHT(2^8,A2))",       // not a power of two
		"PAg(SHT(64,,8-sr),1xPHT(2^8,A2))",     // SHT only for S schemes
		"SAs(SHT(64,,8-sr),1xPHT(2^9,A2))",     // size mismatch
		"GAp(IBHT(inf,,8-sr),512xPHT(2^8,A2))", // IBHT invalid for global history
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestCheckTables: Parse leaves the pattern-table cap to CheckTables and
// Build, so an oversized spec can still be costed. An Ideal BHT's
// per-branch tables count once per distinct branch.
func TestCheckTables(t *testing.T) {
	cases := []struct {
		spec  string
		sites int
		ok    bool
	}{
		{"GAg(HR(1,,24-sr),1xPHT(2^24,A2))", 1 << 20, true},
		{"GAg(HR(1,,25-sr),1xPHT(2^25,A2))", 1, false},
		{"PAp(BHT(512,4,15-sr),512xPHT(2^15,A2))", 1 << 20, true},
		{"PAp(BHT(512,4,16-sr),512xPHT(2^16,A2))", 1, false},
		{"PAp(IBHT(inf,,22-sr),infxPHT(2^22,A2))", 4, true},
		{"PAp(IBHT(inf,,22-sr),infxPHT(2^22,A2))", 5, false},
		{"GAp(HR(1,,8-sr),infxPHT(2^8,A2))", 1 << 16, true},
		{"GAp(HR(1,,8-sr),infxPHT(2^8,A2))", 1<<16 + 1, false},
		{"BTB(BHT(512,4,A2),)", 1 << 20, true},
	}
	for _, c := range cases {
		sp, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%s): %v", c.spec, err)
		}
		if err := sp.CheckTables(c.sites); (err == nil) != c.ok {
			t.Errorf("%s over %d sites: CheckTables = %v, want ok = %v", c.spec, c.sites, err, c.ok)
		}
	}
}
