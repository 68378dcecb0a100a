package predictor

import (
	"reflect"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/trace"
)

func TestBTBValidation(t *testing.T) {
	bad := []BTBConfig{
		{Entries: 0, Assoc: 1, Automaton: automaton.A2},
		{Entries: 100, Assoc: 4, Automaton: automaton.A2},
		{Entries: 512, Assoc: 3, Automaton: automaton.A2},
		{Entries: 512, Assoc: 4, Automaton: automaton.PB},
		{Entries: 1 << 17, Assoc: 1 << 17, Automaton: automaton.A2}, // over a 16-bit LRU rank
	}
	for i, cfg := range bad {
		if _, err := NewBTB(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewBTB(BTBConfig{Entries: 1 << 16, Assoc: 1 << 16, Automaton: automaton.A2}); err != nil {
		t.Errorf("a fully associative BTB at the rank width rejected: %v", err)
	}
}

func TestBTBName(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	if p.Name() != "BTB(BHT(512,4,A2),)" {
		t.Fatalf("Name = %q", p.Name())
	}
	lt := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.LastTime})
	if lt.Name() != "BTB(BHT(512,4,LT),)" {
		t.Fatalf("Name = %q", lt.Name())
	}
}

func TestBTBMissPolicies(t *testing.T) {
	taken := MustBTB(BTBConfig{Entries: 16, Assoc: 1, Automaton: automaton.A2, MissPolicy: BTBMissTaken})
	fwd := trace.Branch{PC: 0x100, Target: 0x200, Class: trace.Cond}
	bwd := trace.Branch{PC: 0x100, Target: 0x80, Class: trace.Cond}
	if !taken.Predict(fwd) || !taken.Predict(bwd) {
		t.Fatal("miss-taken policy should predict taken on misses")
	}
	btfn := MustBTB(BTBConfig{Entries: 16, Assoc: 1, Automaton: automaton.A2, MissPolicy: BTBMissBTFN})
	if btfn.Predict(fwd) {
		t.Fatal("miss-BTFN should predict forward branches not-taken")
	}
	if !btfn.Predict(bwd) {
		t.Fatal("miss-BTFN should predict backward branches taken")
	}
}

func TestBTBCounterSemantics(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	b := trace.Branch{PC: 0x40, Target: 0x20, Class: trace.Cond}
	// Drive to strong not-taken.
	for i := 0; i < 4; i++ {
		b.Taken = false
		p.Update(b, p.Predict(b))
	}
	if p.Predict(b) {
		t.Fatal("counter should predict not-taken after 4 not-taken outcomes")
	}
	// One taken outcome must not flip a saturated counter (hysteresis).
	b.Taken = true
	p.Update(b, false)
	if p.Predict(b) {
		t.Fatal("single taken outcome flipped a saturated counter")
	}
	b.Taken = true
	p.Update(b, false)
	if !p.Predict(b) {
		t.Fatal("two taken outcomes should flip the counter")
	}
}

func TestBTBPerBranchNotPerPattern(t *testing.T) {
	// The defining limitation vs two-level: a branch with a repeating
	// pattern TTN TTN ... runs at 2/3 accuracy on a counter BTB, while
	// PAg learns it nearly perfectly.
	mkBranches := func() []trace.Branch {
		out := make([]trace.Branch, 900)
		for i := range out {
			out[i] = trace.Branch{PC: 0x80, Target: 0x40, Class: trace.Cond, Taken: i%3 != 2}
		}
		return out
	}
	btb := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	branches := mkBranches()
	run(btb, branches[:300])
	btbCorrect := run(btb, branches[300:])
	p := pag(8, 512, 4)
	run(p, branches[:300])
	pagCorrect := run(p, branches[300:])
	if pagCorrect <= btbCorrect {
		t.Fatalf("PAg (%d) should beat BTB (%d) on patterned branch", pagCorrect, btbCorrect)
	}
	if btbCorrect < 350 || btbCorrect > 450 {
		t.Fatalf("BTB-A2 on TTN pattern should be ~2/3: %d/600", btbCorrect)
	}
	if pagCorrect < 590 {
		t.Fatalf("PAg should be near-perfect on TTN pattern: %d/600", pagCorrect)
	}
}

func TestBTBLastTimeVsA2OnNoisyBranch(t *testing.T) {
	// Mostly-taken branch with occasional deviations: A2's hysteresis
	// gives one misprediction per deviation, Last-Time gives two.
	branches := make([]trace.Branch, 1000)
	for i := range branches {
		branches[i] = trace.Branch{PC: 0x60, Target: 0x20, Class: trace.Cond, Taken: i%10 != 0}
	}
	a2 := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	lt := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.LastTime})
	a2Correct := run(a2, branches)
	ltCorrect := run(lt, branches)
	if a2Correct <= ltCorrect {
		t.Fatalf("A2 (%d) should beat Last-Time (%d) on noisy-taken branch", a2Correct, ltCorrect)
	}
}

func TestBTBContextSwitchFlushes(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	b := trace.Branch{PC: 0x90, Target: 0x10, Class: trace.Cond, Taken: false}
	for i := 0; i < 4; i++ {
		p.Update(b, p.Predict(b))
	}
	if p.Predict(b) {
		t.Fatal("should predict not-taken before switch")
	}
	p.ContextSwitch()
	if !p.Predict(b) {
		t.Fatal("after flush, miss policy (taken) should apply")
	}
}

func TestBTBCachesTarget(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	b := trace.Branch{PC: 0x44, Target: 0x20, Class: trace.Cond, Taken: true}
	p.Update(b, true)
	if target, ok := p.PredictTarget(0x44); !ok || target != 0x20 {
		t.Fatal("BTB should cache the taken target")
	}
	// A not-taken outcome leaves the cached target in place.
	b.Taken = false
	p.Update(b, p.Predict(b))
	if target, ok := p.PredictTarget(0x44); !ok || target != 0x20 {
		t.Fatal("a not-taken outcome dropped the cached target")
	}
}

// TestBTBAllocatesAtUpdate pins the miss rules: a miss predicts by the
// miss policy without allocating, the entry appears only when the
// branch resolves, and a flushed branch comes back with its automaton
// at the initial state.
func TestBTBAllocatesAtUpdate(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 16, Assoc: 2, Automaton: automaton.A2, MissPolicy: BTBMissBTFN})
	b := trace.Branch{PC: 0x100, Target: 0x200, Class: trace.Cond, Taken: false}
	if p.Predict(b) {
		t.Fatal("forward miss under BTFN policy predicted taken")
	}
	if p.Inspect().BHTTouched != 0 {
		t.Fatal("a predict-time miss allocated an entry")
	}
	for i := 0; i < 3; i++ {
		p.Update(b, p.Predict(b))
	}
	if p.Inspect().BHTTouched != 1 || p.Predict(b) {
		t.Fatal("update did not allocate and train the entry")
	}
	p.ContextSwitch()
	b.Taken = true
	p.Update(b, p.Predict(b))
	// Reallocated at the initial state (strongly taken) and trained
	// taken: a single not-taken outcome cannot flip it.
	b.Taken = false
	p.Update(b, p.Predict(b))
	if !p.Predict(b) {
		t.Fatal("a reallocated entry kept its pre-flush automaton state")
	}
}

// TestBTBPredictTargetLeavesLRUAlone pins the rule the flat kernel
// relies on: a target read moves no LRU rank. The reads run in the
// reverse of the update order, so a read that touched would reorder
// every set.
func TestBTBPredictTargetLeavesLRUAlone(t *testing.T) {
	p := MustBTB(BTBConfig{Entries: 8, Assoc: 4, Automaton: automaton.LastTime})
	for pc := uint32(0x40); pc < 0x60; pc += 4 {
		b := trace.Branch{PC: pc, Target: pc - 0x20, Class: trace.Cond, Taken: true}
		p.Update(b, p.Predict(b))
	}
	before := *p.State()
	before.Ranks = append([]uint16(nil), before.Ranks...)
	for pc := uint32(0x5c); pc >= 0x40; pc -= 4 {
		if target, ok := p.PredictTarget(pc); !ok || target != pc-0x20 {
			t.Fatalf("PredictTarget(%#x) = (%#x, %v)", pc, target, ok)
		}
	}
	if after := p.State(); !reflect.DeepEqual(after.Ranks, before.Ranks) {
		t.Fatal("PredictTarget moved an LRU rank")
	}
}

func TestAlwaysTakenAndBTFN(t *testing.T) {
	at := AlwaysTaken{}
	bt := BTFN{}
	if at.Name() != "Always Taken" || bt.Name() != "BTFN" {
		t.Fatal("names wrong")
	}
	fwd := trace.Branch{PC: 0x100, Target: 0x200, Class: trace.Cond}
	bwd := trace.Branch{PC: 0x100, Target: 0x80, Class: trace.Cond}
	if !at.Predict(fwd) || !at.Predict(bwd) {
		t.Fatal("Always Taken must predict taken")
	}
	if bt.Predict(fwd) || !bt.Predict(bwd) {
		t.Fatal("BTFN direction logic wrong")
	}
	// Statelessness.
	at.Update(fwd, true)
	at.ContextSwitch()
	bt.Update(fwd, true)
	bt.ContextSwitch()
}

func TestBTFNLoopProperty(t *testing.T) {
	// BTFN mispredicts exactly once per loop execution (the exit).
	branches := loopBranches(0x1000, 10, 50) // backward target
	correct := run(BTFN{}, branches)
	if correct != 50*9 {
		t.Fatalf("BTFN on backward loop: %d/%d correct, want %d", correct, len(branches), 50*9)
	}
}

func BenchmarkBTBPredictUpdate(b *testing.B) {
	p := MustBTB(BTBConfig{Entries: 512, Assoc: 4, Automaton: automaton.A2})
	for i := 0; i < b.N; i++ {
		br := trace.Branch{PC: uint32(0x1000 + (i%128)*4), Target: 0x800, Class: trace.Cond, Taken: i%4 != 0}
		pred := p.Predict(br)
		p.Update(br, pred)
	}
}
