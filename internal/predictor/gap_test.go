package predictor

import (
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

func gapPredictor(k, entries int) *TwoLevel {
	return MustTwoLevel(TwoLevelConfig{
		Variation: GAp, HistoryBits: k, Automaton: automaton.A2, Entries: entries, Assoc: 4,
	})
}

func TestGApName(t *testing.T) {
	p := gapPredictor(8, 512)
	if p.Name() != "GAp(HR(1,,8-sr),512xPHT(2^8,A2))" {
		t.Fatalf("Name = %q", p.Name())
	}
	ideal := MustTwoLevel(TwoLevelConfig{Variation: GAp, HistoryBits: 6, Automaton: automaton.A2, Ideal: true})
	if ideal.Name() != "GAp(HR(1,,6-sr),infxPHT(2^6,A2))" {
		t.Fatalf("ideal Name = %q", ideal.Name())
	}
}

func TestGApLearnsAlternation(t *testing.T) {
	p := gapPredictor(6, 512)
	branches := alternating(0x2000, 400)
	run(p, branches[:100])
	correct := run(p, branches[100:])
	if correct != 300 {
		t.Fatalf("GAp on alternation: %d/300", correct)
	}
}

func TestGApRemovesPatternInterference(t *testing.T) {
	// Two branches executing back-to-back: when branch A's outcome
	// alternates, both A and B observe the same global history pattern
	// stream, but their next outcomes differ (B is always taken). In
	// GAg they fight over the same pattern entry; GAp gives each its
	// own table.
	var branches []trace.Branch
	for i := 0; i < 1200; i++ {
		branches = append(branches,
			trace.Branch{PC: 0x100, Target: 0x80, Class: trace.Cond, Taken: i%2 == 0},
			trace.Branch{PC: 0x200, Target: 0x180, Class: trace.Cond, Taken: i%3 != 0},
		)
	}
	gapP := gapPredictor(4, 512)
	gagP := gag(4)
	run(gapP, branches[:800])
	gapCorrect := run(gapP, branches[800:])
	run(gagP, branches[:800])
	gagCorrect := run(gagP, branches[800:])
	if gapCorrect <= gagCorrect {
		t.Fatalf("GAp (%d) should beat GAg (%d) under pattern interference", gapCorrect, gagCorrect)
	}
}

func TestGApContextSwitch(t *testing.T) {
	p := gapPredictor(8, 512)
	run(p, alternating(0x40, 100))
	p.ContextSwitch()
	if p.st.GHR != 0xFF|flat.FreshBit {
		t.Fatal("GAp context switch should reinitialise the global register")
	}
	// Predict after flush: binding table was flushed too, so this is a
	// table miss — must not panic, must allocate.
	b := trace.Branch{PC: 0x40, Class: trace.Cond}
	p.Update(b, p.Predict(b))
}

func TestGApSpeculativeHistory(t *testing.T) {
	p := MustTwoLevel(TwoLevelConfig{
		Variation: GAp, HistoryBits: 8, Automaton: automaton.A2,
		Entries: 512, Assoc: 4, SpeculativeHistory: true,
	})
	branches := alternating(0x300, 400)
	// Drive with in-order immediate resolution: speculative mode must
	// behave identically to the base model here.
	correct := run(p, branches)
	if correct < 380 {
		t.Fatalf("speculative GAp on alternation: %d/400", correct)
	}
	if p.InFlight() != 0 {
		t.Fatal("in-flight queue should drain")
	}
}

func TestGApTargetCaching(t *testing.T) {
	p := gapPredictor(6, 512)
	b := trace.Branch{PC: 0x900, Target: 0x700, Class: trace.Cond, Taken: true}
	if _, ok := p.PredictTarget(0x900); ok {
		t.Fatal("no target should be cached before the first update")
	}
	p.Update(b, p.Predict(b))
	if tgt, ok := p.PredictTarget(0x900); !ok || tgt != 0x700 {
		t.Fatalf("target = %#x, %v", tgt, ok)
	}
}
