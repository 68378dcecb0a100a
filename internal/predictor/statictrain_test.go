package predictor

import (
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/trace"
)

func TestStaticTrainerGlobalVsPerAddress(t *testing.T) {
	g := NewStaticTrainer(4, false)
	p := NewStaticTrainer(4, true)
	branches := append(alternating(0x100, 50), loopBranches(0x200, 3, 20)...)
	for _, b := range branches {
		g.Observe(b)
		p.Observe(b)
	}
	if g.Observations() != uint64(len(branches)) || p.Observations() != uint64(len(branches)) {
		t.Fatal("observation counts wrong")
	}
}

// TestStaticTrainerPreset checks the frozen table a global-history
// training pass produces: each pattern's majority direction, taken on a
// tie and for a pattern training never reached. The register starts all
// ones and smears its first outcome, so the first branch is counted
// under the all-ones pattern.
func TestStaticTrainerPreset(t *testing.T) {
	const T, N = true, false
	cases := []struct {
		name     string
		k        int
		outcomes []bool
		want     []bool
	}{
		// Pattern 1 sees N; pattern 0 sees N, N, T.
		{"MajorityVote", 1, []bool{N, N, N, T}, []bool{N, N}},
		// Pattern 1 sees T, N; pattern 0 is never reached.
		{"TieGoesToTaken", 1, []bool{T, N}, []bool{T, T}},
		// Pattern 3 sees N, pattern 0 sees N four times; 1 and 2 are
		// never reached.
		{"UnobservedPatternsTaken", 2, []bool{N, N, N, N, N}, []bool{N, T, T, N}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := NewStaticTrainer(c.k, false)
			for _, o := range c.outcomes {
				tr.Observe(trace.Branch{PC: 0x40, Class: trace.Cond, Taken: o})
			}
			if tr.Observations() != uint64(len(c.outcomes)) {
				t.Fatalf("Observations = %d, want %d", tr.Observations(), len(c.outcomes))
			}
			got := tr.Preset()
			if len(got) != len(c.want) {
				t.Fatalf("preset has %d patterns, want %d", len(got), len(c.want))
			}
			for p := range got {
				if got[p] != c.want[p] {
					t.Errorf("pattern %d preset %v, want %v", p, got[p], c.want[p])
				}
			}
		})
	}
}

// TestPresetTableIsFrozen: updates at run time change neither the
// preset pattern table nor its predictions — the defining difference
// between Static Training and Two-Level Adaptive prediction.
func TestPresetTableIsFrozen(t *testing.T) {
	tr := NewStaticTrainer(3, false)
	tr.Observe(trace.Branch{PC: 0x40, Class: trace.Cond, Taken: false})
	p, err := NewGSg(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]automaton.State(nil), p.State().GStates...)
	for i := 0; i < 50; i++ {
		b := trace.Branch{PC: 0x40, Class: trace.Cond, Taken: i%3 != 0}
		p.Update(b, p.Predict(b))
	}
	for i, st := range p.State().GStates {
		if st != want[i] {
			t.Fatalf("pattern %d moved from state %d to %d at run time", i, want[i], st)
		}
	}
	if want[7] != 0 || want[0] != 1 {
		t.Fatalf("preset states %v: pattern 7 should be not-taken, the rest taken", want)
	}
}

func TestGSgPredictsTrainedPatterns(t *testing.T) {
	// Train on alternation; test on alternation: GSg should be perfect
	// after history warm-up because pattern statistics transfer.
	tr := NewStaticTrainer(6, false)
	for _, b := range alternating(0x100, 500) {
		tr.Observe(b)
	}
	p, err := NewGSg(tr)
	if err != nil {
		t.Fatal(err)
	}
	branches := alternating(0x100, 200)
	run(p, branches[:50])
	correct := run(p, branches[50:])
	if correct != 150 {
		t.Fatalf("GSg on trained alternation: %d/150", correct)
	}
}

func TestStaticTrainingDoesNotAdapt(t *testing.T) {
	// Train on always-taken, test on always-not-taken: Static Training
	// keeps mispredicting because the table is frozen — the paper's
	// central criticism. The adaptive scheme relearns.
	tr := NewStaticTrainer(6, false)
	for i := 0; i < 500; i++ {
		tr.Observe(trace.Branch{PC: 0x40, Class: trace.Cond, Taken: true})
	}
	gsg, err := NewGSg(tr)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]trace.Branch, 300)
	for i := range flipped {
		flipped[i] = trace.Branch{PC: 0x40, Class: trace.Cond, Taken: false}
	}
	gsgCorrect := run(gsg, flipped)
	adaptive := gag(6)
	adaptiveCorrect := run(adaptive, flipped)
	if gsgCorrect > 20 {
		t.Fatalf("frozen GSg should keep mispredicting, got %d/300 correct", gsgCorrect)
	}
	if adaptiveCorrect < 280 {
		t.Fatalf("adaptive GAg should relearn, got %d/300 correct", adaptiveCorrect)
	}
}

func TestNewGSgRejectsPerAddressTrainer(t *testing.T) {
	if _, err := NewGSg(NewStaticTrainer(6, true)); err == nil {
		t.Fatal("GSg accepted a per-address trainer")
	}
	if _, err := NewPSg(NewStaticTrainer(6, false), 512, 4, false); err == nil {
		t.Fatal("PSg accepted a global trainer")
	}
}

func TestPSgNameAndStructure(t *testing.T) {
	tr := NewStaticTrainer(12, true)
	for _, b := range alternating(0x80, 100) {
		tr.Observe(b)
	}
	p, err := NewPSg(tr, 512, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	want := "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))"
	if p.Name() != want {
		t.Fatalf("Name = %q, want %q", p.Name(), want)
	}
}

func TestPSgPerAddressHistoryDisambiguates(t *testing.T) {
	// Branch A alternates; branch B is always taken. Per-address
	// training keeps their pattern statistics separate even when
	// interleaved.
	tr := NewStaticTrainer(6, true)
	var branches []trace.Branch
	for i := 0; i < 500; i++ {
		branches = append(branches,
			trace.Branch{PC: 0xA0, Class: trace.Cond, Taken: i%2 == 0},
			trace.Branch{PC: 0xB0, Class: trace.Cond, Taken: true},
		)
	}
	for _, b := range branches {
		tr.Observe(b)
	}
	p, err := NewPSg(tr, 512, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	test := branches[:400]
	run(p, test[:100])
	correct := run(p, test[100:])
	if correct < 295 {
		t.Fatalf("PSg: %d/300 correct", correct)
	}
}

func TestPresetRejectsMismatchedBits(t *testing.T) {
	tr := NewStaticTrainer(6, false)
	_, err := NewTwoLevel(TwoLevelConfig{Variation: GAg, HistoryBits: 8, Preset: tr.Preset()})
	if err == nil {
		t.Fatal("mismatched preset width accepted")
	}
}

func TestPSpRejected(t *testing.T) {
	tr := NewStaticTrainer(6, false)
	_, err := NewTwoLevel(TwoLevelConfig{
		Variation: PAp, HistoryBits: 6, Entries: 512, Assoc: 4, Preset: tr.Preset(),
	})
	if err == nil {
		t.Fatal("PSp (per-address preset tables) should be rejected, per the paper")
	}
}

func TestObserveTrace(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(trace.Event{Branch: trace.Branch{PC: 4, Class: trace.Cond, Taken: true}})
	}
	tr.Append(trace.Event{Trap: true})
	tr.Append(trace.Event{Branch: trace.Branch{PC: 8, Class: trace.Call, Taken: true}})
	st := NewStaticTrainer(4, false)
	if err := st.ObserveTrace(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if st.Observations() != 10 {
		t.Fatalf("trainer saw %d branches, want 10 (conditionals only)", st.Observations())
	}
	pt := NewProfileTrainer()
	if err := pt.ObserveTrace(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	if !pt.Build().Predict(trace.Branch{PC: 4}) {
		t.Fatal("profile should predict taken for an always-taken branch")
	}
}

func TestProfileMajorityAndDefault(t *testing.T) {
	tr := NewProfileTrainer()
	for i := 0; i < 7; i++ {
		tr.Observe(trace.Branch{PC: 0x10, Taken: true})
	}
	for i := 0; i < 3; i++ {
		tr.Observe(trace.Branch{PC: 0x10, Taken: false})
	}
	for i := 0; i < 5; i++ {
		tr.Observe(trace.Branch{PC: 0x20, Taken: false})
	}
	tr.Observe(trace.Branch{PC: 0x30, Taken: true})
	tr.Observe(trace.Branch{PC: 0x30, Taken: false})
	p := tr.Build()
	if !p.Predict(trace.Branch{PC: 0x10}) {
		t.Error("majority-taken branch predicted not-taken")
	}
	if p.Predict(trace.Branch{PC: 0x20}) {
		t.Error("always-not-taken branch predicted taken")
	}
	if !p.Predict(trace.Branch{PC: 0x30}) {
		t.Error("tie should predict taken")
	}
	if !p.Predict(trace.Branch{PC: 0x9999}) {
		t.Error("unprofiled branch should default to taken")
	}
	if p.Name() != "Profiling" {
		t.Errorf("Name = %q", p.Name())
	}
	// Static: Update and ContextSwitch are no-ops.
	p.Update(trace.Branch{PC: 0x20, Taken: true}, true)
	p.ContextSwitch()
	if p.Predict(trace.Branch{PC: 0x20}) {
		t.Error("profile changed at run time")
	}
}

func TestProfileDataSensitivity(t *testing.T) {
	// The paper's point about profiling: training data with different
	// behaviour yields poor testing accuracy. Branch takes 80% in
	// training, 20% in testing.
	tr := NewProfileTrainer()
	for i := 0; i < 100; i++ {
		tr.Observe(trace.Branch{PC: 0x50, Taken: i%5 != 0}) // 80% taken
	}
	p := tr.Build()
	test := make([]trace.Branch, 100)
	for i := range test {
		test[i] = trace.Branch{PC: 0x50, Class: trace.Cond, Taken: i%5 == 0} // 20% taken
	}
	correct := run(p, test)
	if correct != 20 {
		t.Fatalf("flipped distribution should give 20/100, got %d", correct)
	}
}
