package predictor

import (
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// run drives p over a sequence of branches, returning the number of
// correct predictions.
func run(p Predictor, branches []trace.Branch) (correct int) {
	for _, b := range branches {
		outcome := b.Taken
		b.Taken = false // Predict must not see the outcome
		pred := p.Predict(b)
		b.Taken = outcome
		if pred == outcome {
			correct++
		}
		p.Update(b, pred)
	}
	return correct
}

// loopBranches models one static loop-closing branch: taken (body-1)
// times then not-taken, repeated.
func loopBranches(pc uint32, body, iterations int) []trace.Branch {
	var out []trace.Branch
	for i := 0; i < iterations; i++ {
		for j := 0; j < body-1; j++ {
			out = append(out, trace.Branch{PC: pc, Target: pc - 40, Class: trace.Cond, Taken: true})
		}
		out = append(out, trace.Branch{PC: pc, Target: pc - 40, Class: trace.Cond, Taken: false})
	}
	return out
}

// alternating models a branch that strictly alternates T,N,T,N...
func alternating(pc uint32, n int) []trace.Branch {
	out := make([]trace.Branch, n)
	for i := range out {
		out[i] = trace.Branch{PC: pc, Target: pc + 400, Class: trace.Cond, Taken: i%2 == 0}
	}
	return out
}

func gag(k int) *TwoLevel {
	return MustTwoLevel(TwoLevelConfig{Variation: GAg, HistoryBits: k, Automaton: automaton.A2})
}

func pag(k, entries, assoc int) *TwoLevel {
	return MustTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: k, Automaton: automaton.A2, Entries: entries, Assoc: assoc})
}

func pap(k, entries, assoc int) *TwoLevel {
	return MustTwoLevel(TwoLevelConfig{Variation: PAp, HistoryBits: k, Automaton: automaton.A2, Entries: entries, Assoc: assoc})
}

func TestConfigValidation(t *testing.T) {
	cases := []TwoLevelConfig{
		{Variation: GAg, HistoryBits: 0},
		{Variation: GAg, HistoryBits: 99},
		{Variation: PAg, HistoryBits: 8, Entries: 0, Assoc: 1},
		{Variation: PAg, HistoryBits: 8, Entries: 100, Assoc: 4},
		{Variation: PAg, HistoryBits: 8, Entries: 512, Assoc: 3},
		{Variation: PAp, HistoryBits: 8, Entries: 512, Assoc: 1024},
	}
	for i, cfg := range cases {
		if _, err := NewTwoLevel(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	// Ideal tables need no geometry.
	if _, err := NewTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: 8, Ideal: true}); err != nil {
		t.Errorf("ideal PAg rejected: %v", err)
	}
}

// TestConfigSizeBounds pins the two size limits Validate adds to the
// geometry checks: a set's ways must fit a 16-bit LRU rank, and the
// pattern tables together must hold at most MaxPatternEntries entries.
// Each limit is checked on both sides of its boundary.
func TestConfigSizeBounds(t *testing.T) {
	cases := []struct {
		name string
		cfg  TwoLevelConfig
		ok   bool
	}{
		{"AssocAtRankWidth", TwoLevelConfig{Variation: PAg, HistoryBits: 8, Entries: 1 << 16, Assoc: 1 << 16}, true},
		{"AssocOverRankWidth", TwoLevelConfig{Variation: PAg, HistoryBits: 8, Entries: 1 << 17, Assoc: 1 << 17}, false},
		{"GlobalTableAtCap", TwoLevelConfig{Variation: GAg, HistoryBits: 24}, true},
		{"GlobalTableOverCap", TwoLevelConfig{Variation: GAg, HistoryBits: 25}, false},
		{"WidestHistoryOverCap", TwoLevelConfig{Variation: GAg, HistoryBits: flat.MaxHistoryBits}, false},
		{"PerSlotTablesAtCap", TwoLevelConfig{Variation: PAp, HistoryBits: 15, Entries: 512, Assoc: 4}, true},
		{"PerSlotTablesOverCap", TwoLevelConfig{Variation: PAp, HistoryBits: 16, Entries: 512, Assoc: 4}, false},
		{"PerSetTablesOverCap", TwoLevelConfig{Variation: GAs, HistoryBits: 20, PatternSets: 32}, false},
		// Validate bounds one Ideal per-branch table; their count over a
		// trace is CheckPatternTables' (spec.TestCheckTables).
		{"IdealPerBranchTables", TwoLevelConfig{Variation: PAp, HistoryBits: 24, Ideal: true}, true},
		{"IdealPerBranchTableOverCap", TwoLevelConfig{Variation: PAp, HistoryBits: 25, Ideal: true}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

func TestVariationString(t *testing.T) {
	if GAg.String() != "GAg" || PAg.String() != "PAg" || PAp.String() != "PAp" {
		t.Fatal("variation names wrong")
	}
	if !strings.Contains(Variation(9).String(), "9") {
		t.Fatal("unknown variation should show its number")
	}
}

func TestDefaultNames(t *testing.T) {
	cases := map[string]Predictor{
		"GAg(HR(1,,12-sr),1xPHT(2^12,A2))":     gag(12),
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))": pag(12, 512, 4),
		"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))": pap(6, 512, 4),
		"PAg(IBHT(inf,,10-sr),1xPHT(2^10,A2))": MustTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: 10, Automaton: automaton.A2, Ideal: true}),
		"PAp(IBHT(inf,,6-sr),infxPHT(2^6,A2))": MustTwoLevel(TwoLevelConfig{Variation: PAp, HistoryBits: 6, Automaton: automaton.A2, Ideal: true}),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestGAgLearnsShortLoop(t *testing.T) {
	// A 4-iteration loop has conditional pattern TTTN repeating; with
	// k >= 4 the global history disambiguates every position, so GAg
	// should converge to ~100% after warm-up.
	p := gag(8)
	branches := loopBranches(0x1000, 4, 200)
	warm := 100
	run(p, branches[:warm])
	correct := run(p, branches[warm:])
	total := len(branches) - warm
	if correct < total*99/100 {
		t.Fatalf("GAg on loop: %d/%d correct", correct, total)
	}
}

func TestTwoLevelLearnsAlternation(t *testing.T) {
	// The paper's motivating example: an alternating branch defeats
	// counters but is perfectly predictable with pattern history.
	for _, p := range []Predictor{gag(6), pag(6, 512, 4), pap(6, 512, 4)} {
		branches := alternating(0x2000, 400)
		run(p, branches[:100])
		correct := run(p, branches[100:])
		if correct != 300 {
			t.Errorf("%s on alternation: %d/300 correct", p.Name(), correct)
		}
	}
	// A BTB with A2 gets ~50% or worse on alternation.
	btb := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	branches := alternating(0x2000, 400)
	run(btb, branches[:100])
	correct := run(btb, branches[100:])
	if correct > 180 {
		t.Errorf("BTB-A2 should not learn alternation: %d/300 correct", correct)
	}
}

func TestPApIsolatesInterferingBranches(t *testing.T) {
	// Two branches that would alias in a shared pattern table: branch A
	// alternates, branch B always taken, interleaved so their global
	// patterns collide. PAp (per-address everything) must nail both.
	var branches []trace.Branch
	for i := 0; i < 600; i++ {
		branches = append(branches,
			trace.Branch{PC: 0x100, Target: 0x80, Class: trace.Cond, Taken: i%2 == 0},
			trace.Branch{PC: 0x200, Target: 0x180, Class: trace.Cond, Taken: true},
		)
	}
	p := pap(6, 512, 4)
	run(p, branches[:200])
	correct := run(p, branches[200:])
	if correct != len(branches)-200 {
		t.Fatalf("PAp interference: %d/%d", correct, len(branches)-200)
	}
}

func TestPAgBeatsGAgUnderGlobalInterference(t *testing.T) {
	// Many always-taken branches plus one alternating branch. With a
	// short global register, GAg's history is polluted by the noise
	// bits of other branches; PAg's per-address history sees a clean
	// alternation.
	var branches []trace.Branch
	for i := 0; i < 2000; i++ {
		branches = append(branches, trace.Branch{PC: 0x500, Target: 0x400, Class: trace.Cond, Taken: i%2 == 0})
		for j := 0; j < 6; j++ {
			pc := uint32(0x1000 + j*64)
			taken := (i+j)%3 != 0 // irregular noise
			branches = append(branches, trace.Branch{PC: pc, Target: pc + 400, Class: trace.Cond, Taken: taken})
		}
	}
	scoreFor := func(p Predictor) int {
		// count only the alternating branch's predictions after warmup
		correct := 0
		for i, b := range branches {
			outcome := b.Taken
			b.Taken = false
			pred := p.Predict(b)
			b.Taken = outcome
			if b.PC == 0x500 && i > len(branches)/2 && pred == outcome {
				correct++
			}
			p.Update(b, pred)
		}
		return correct
	}
	gagScore := scoreFor(gag(4))
	pagScore := scoreFor(pag(4, 512, 4))
	if pagScore <= gagScore {
		t.Fatalf("PAg (%d) should beat GAg (%d) on the polluted alternating branch", pagScore, gagScore)
	}
}

func TestContextSwitchFlushesHistoryNotPatterns(t *testing.T) {
	p := pag(6, 512, 4)
	branches := alternating(0x300, 200)
	run(p, branches)
	missesBefore := p.st.Misses
	p.ContextSwitch()
	// Immediately after the switch, the BHT misses again...
	b := trace.Branch{PC: 0x300, Class: trace.Cond}
	p.Predict(b)
	if p.st.Misses != missesBefore+1 {
		t.Fatal("context switch did not flush the BHT")
	}
	// ...but the pattern table still remembers: after the per-address
	// history is rebuilt (k shifts), predictions are correct again
	// without relearning the pattern table.
	relearn := alternating(0x300, 40)
	correct := 0
	for i, br := range relearn {
		outcome := br.Taken
		br.Taken = false
		pred := p.Predict(br)
		br.Taken = outcome
		if i >= 8 && pred == outcome { // k=6 warm-up plus smear slack
			correct++
		}
		p.Update(br, pred)
	}
	if correct < 30 {
		t.Fatalf("pattern history appears lost after context switch: %d/32", correct)
	}
}

func TestGAgContextSwitchResetsGlobalRegister(t *testing.T) {
	p := gag(8)
	run(p, alternating(0x40, 100))
	p.ContextSwitch()
	if p.st.GHR != 0xFF|flat.FreshBit {
		t.Fatalf("GHR not reinitialised: %#x", p.st.GHR)
	}
}

func TestBHTMissRateAccounting(t *testing.T) {
	p := pag(6, 16, 1)
	if p.BHTMissRate() != 0 {
		t.Fatal("miss rate should start at 0")
	}
	// 32 distinct branches in a 16-entry direct-mapped table: every
	// access conflicts (pairs alias), so the miss rate stays high.
	var branches []trace.Branch
	for i := 0; i < 2000; i++ {
		pc := uint32((i%32)*4 + 0x100)
		branches = append(branches, trace.Branch{PC: pc, Target: pc - 4, Class: trace.Cond, Taken: true})
	}
	run(p, branches)
	if p.BHTMissRate() < 0.9 {
		t.Fatalf("expected thrashing, miss rate %.2f", p.BHTMissRate())
	}
	// Same workload in a 64-entry table: everything fits.
	p2 := pag(6, 64, 4)
	run(p2, branches)
	if p2.BHTMissRate() > 0.05 {
		t.Fatalf("expected residency, miss rate %.2f", p2.BHTMissRate())
	}
}

func TestPApPHTResetOnReplaceByDefault(t *testing.T) {
	// Two branches aliasing in a 1-entry table. Default: the slot's
	// pattern table is reinitialised for the new branch (per-address
	// semantics); the inherit ablation keeps the stale contents.
	mk := func(inherit bool) *TwoLevel {
		return MustTwoLevel(TwoLevelConfig{
			Variation: PAp, HistoryBits: 4, Automaton: automaton.A2,
			Entries: 1, Assoc: 1, InheritPHTOnReplace: inherit,
		})
	}
	// Train branch A strongly not-taken on its (smeared) all-zero history.
	trainA := make([]trace.Branch, 30)
	for i := range trainA {
		trainA[i] = trace.Branch{PC: 0x10, Target: 0x8, Class: trace.Cond, Taken: false}
	}
	probe := trace.Branch{PC: 0x20, Target: 0x18, Class: trace.Cond}

	inherit := mk(true)
	run(inherit, trainA)
	// Branch B evicts A. B's fresh history is all-ones; after one
	// not-taken outcome it smears to all-zeros — the pattern A trained.
	inherit.Update(trace.Branch{PC: 0x20, Target: 0x18, Class: trace.Cond, Taken: false}, inherit.Predict(probe))
	if inherit.Predict(probe) {
		t.Fatal("inherited PHT should predict not-taken for the trained pattern")
	}

	fresh := mk(false)
	run(fresh, trainA)
	fresh.Update(trace.Branch{PC: 0x20, Target: 0x18, Class: trace.Cond, Taken: false}, fresh.Predict(probe))
	if !fresh.Predict(probe) {
		t.Fatal("reset PHT should still be in its taken-biased initial state")
	}
}

func TestIdealVsPracticalUnderPressure(t *testing.T) {
	// 4096 static branches round-robin, each strongly taken. A 256-entry
	// table thrashes (every prediction is a fresh all-ones history); the
	// ideal table keeps every branch's history.
	var branches []trace.Branch
	for round := 0; round < 4; round++ {
		for i := 0; i < 4096; i++ {
			pc := uint32(0x1000 + i*4)
			branches = append(branches, trace.Branch{PC: pc, Target: pc + 40, Class: trace.Cond, Taken: i%2 == 0})
		}
	}
	practical := pag(6, 256, 4)
	ideal := MustTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: 6, Automaton: automaton.A2, Ideal: true})
	pc1 := run(practical, branches)
	pc2 := run(ideal, branches)
	if pc2 <= pc1 {
		t.Fatalf("ideal BHT (%d) should beat a thrashing practical BHT (%d)", pc2, pc1)
	}
	if practical.BHTMissRate() < 0.99 {
		t.Fatalf("workload should thrash: miss rate %.3f", practical.BHTMissRate())
	}
	if ideal.BHTMissRate() > float64(4096)/float64(len(branches))+0.01 {
		t.Fatalf("ideal should only miss cold: %.3f", ideal.BHTMissRate())
	}
}

func TestAllAutomataWorkInTwoLevel(t *testing.T) {
	for _, k := range []automaton.Kind{automaton.LastTime, automaton.A1, automaton.A2, automaton.A3, automaton.A4} {
		p := MustTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: 8, Automaton: k, Entries: 512, Assoc: 4})
		branches := loopBranches(0x900, 5, 100)
		run(p, branches[:250])
		correct := run(p, branches[250:])
		if correct < 240 {
			t.Errorf("%v: only %d/250 correct on a regular loop", k, correct)
		}
	}
}

func TestUpdateCachesTargetAddress(t *testing.T) {
	p := pag(6, 512, 4)
	b := trace.Branch{PC: 0x700, Target: 0x660, Class: trace.Cond, Taken: true}
	p.Update(b, p.Predict(b))
	if target, ok := p.PredictTarget(0x700); !ok || target != 0x660 {
		t.Fatal("target address not cached on taken update")
	}
}

// TestPredictTargetLeavesLRUAlone pins the rule the flat kernel relies
// on: only Predict and Update touch a BHT entry, so a target read moves
// no LRU rank. The reads run in the reverse of the update order, so a
// read that touched would reorder every set.
func TestPredictTargetLeavesLRUAlone(t *testing.T) {
	p := pag(6, 16, 4)
	for pc := uint32(0x100); pc < 0x140; pc += 4 {
		b := trace.Branch{PC: pc, Target: pc - 0x40, Class: trace.Cond, Taken: true}
		p.Update(b, p.Predict(b))
	}
	ranks := append([]uint16(nil), p.State().Ranks...)
	for pc := uint32(0x13c); pc >= 0x100; pc -= 4 {
		if target, ok := p.PredictTarget(pc); !ok || target != pc-0x40 {
			t.Fatalf("PredictTarget(%#x) = (%#x, %v)", pc, target, ok)
		}
	}
	if !reflect.DeepEqual(p.State().Ranks, ranks) {
		t.Fatal("PredictTarget moved an LRU rank")
	}
}

func BenchmarkGAgPredictUpdate(b *testing.B) {
	p := gag(12)
	br := trace.Branch{PC: 0x1000, Target: 0x800, Class: trace.Cond}
	for i := 0; i < b.N; i++ {
		br.Taken = i%3 != 0
		pred := p.Predict(br)
		p.Update(br, pred)
	}
}

func BenchmarkPAgPredictUpdate(b *testing.B) {
	p := pag(12, 512, 4)
	for i := 0; i < b.N; i++ {
		br := trace.Branch{PC: uint32(0x1000 + (i%64)*4), Target: 0x800, Class: trace.Cond, Taken: i%3 != 0}
		pred := p.Predict(br)
		p.Update(br, pred)
	}
}

func BenchmarkPApPredictUpdate(b *testing.B) {
	p := pap(6, 512, 4)
	for i := 0; i < b.N; i++ {
		br := trace.Branch{PC: uint32(0x1000 + (i%64)*4), Target: 0x800, Class: trace.Cond, Taken: i%3 != 0}
		pred := p.Predict(br)
		p.Update(br, pred)
	}
}

// TestStepMatchesPredictUpdate: Step's single lookup leaves the
// predictor exactly as Predict then Update do — LRU ranks and miss
// counters included — and predicts from the same pattern entry, on the
// practical and the Ideal BHT, under context switches and capacity
// pressure (a 16-entry table over 64 branch sites).
func TestStepMatchesPredictUpdate(t *testing.T) {
	ideal := func() *TwoLevel {
		return MustTwoLevel(TwoLevelConfig{Variation: PAg, HistoryBits: 6, Automaton: automaton.A2, Ideal: true})
	}
	for name, mk := range map[string]func() *TwoLevel{
		"GAg":       func() *TwoLevel { return gag(8) },
		"PAg-cache": func() *TwoLevel { return pag(6, 16, 4) },
		"PAg-ideal": ideal,
		"PAp-cache": func() *TwoLevel { return pap(4, 16, 2) },
	} {
		stepped, split := mk(), mk()
		x := uint32(12345)
		for i := 0; i < 20_000; i++ {
			x = x*1103515245 + 12345
			pc := 0x1000 + 4*(x>>16%64)
			b := trace.Branch{PC: pc, Target: pc + 64, Class: trace.Cond, Taken: x>>8%3 != 0}
			if i%997 == 0 {
				stepped.ContextSwitch()
				split.ContextSwitch()
			}
			masked := b
			masked.Taken = false
			want := split.Predict(masked)
			st := split.State()
			pat := *st.History(pc, st.Peek(pc)) & st.HistMask
			split.Update(b, want)
			got, gotPat := stepped.Step(b)
			if got != want || gotPat != pat {
				t.Fatalf("%s branch %d: Step = (%v, %d), Predict/Update = (%v, %d)", name, i, got, gotPat, want, pat)
			}
		}
		if !reflect.DeepEqual(stepped.State(), split.State()) {
			t.Errorf("%s: Step left a different state than Predict then Update", name)
		}
	}
}
