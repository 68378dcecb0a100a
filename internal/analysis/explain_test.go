package analysis

import (
	"strings"
	"testing"

	"twolevel/internal/telemetry"
)

func TestExplainWellPredicted(t *testing.T) {
	e := Explain(telemetry.PCForensics{PC: 0x10, Executions: 10_000, Mispredicts: 5})
	if e.Verdict != WellPredicted {
		t.Fatalf("verdict = %v, want well-predicted", e.Verdict)
	}
}

func TestExplainWarmupDominated(t *testing.T) {
	e := Explain(telemetry.PCForensics{
		PC: 0x20, Executions: 1000, Mispredicts: 100,
		WarmupMisses: 80, SteadyMisses: 20,
		DominantPattern: "1111", DominantPatternMisses: 60,
		Patterns: []telemetry.PatternStat{{Pattern: "1111", Taken: 500, NotTaken: 100, Mispredicts: 60}},
	})
	if e.Verdict != WarmupDominated {
		t.Fatalf("verdict = %v, want warmup-dominated", e.Verdict)
	}
}

func TestExplainInherentlyVariable(t *testing.T) {
	e := Explain(telemetry.PCForensics{
		PC: 0x30, Executions: 1000, Mispredicts: 400, TakenRate: 0.5,
		SteadyMisses:    400,
		PatternsSeen:    2,
		DominantPattern: "0101", DominantPatternMisses: 300,
		Patterns: []telemetry.PatternStat{
			{Pattern: "0101", Taken: 300, NotTaken: 300, Mispredicts: 300, MissRate: 0.5},
		},
	})
	if e.Verdict != InherentlyVariable {
		t.Fatalf("verdict = %v, want inherently-variable", e.Verdict)
	}
	if !strings.Contains(e.String(), "dominant miss pattern 0101") {
		t.Errorf("explanation does not name the dominant miss pattern:\n%s", e)
	}
}

func TestExplainAutomatonThrash(t *testing.T) {
	e := Explain(telemetry.PCForensics{
		PC: 0x40, Executions: 1000, Mispredicts: 200, TakenRate: 0.9,
		SteadyMisses:    200,
		PatternsSeen:    3,
		DominantPattern: "1110", DominantPatternMisses: 180,
		Patterns: []telemetry.PatternStat{
			{Pattern: "1110", Taken: 540, NotTaken: 60, Mispredicts: 180, MissRate: 0.3},
		},
	})
	if e.Verdict != AutomatonThrash {
		t.Fatalf("verdict = %v, want automaton-thrash", e.Verdict)
	}
	if !strings.Contains(e.Summary, "1110") {
		t.Errorf("summary does not name the pattern: %s", e.Summary)
	}
}

func TestExplainDiffuseHistory(t *testing.T) {
	e := Explain(telemetry.PCForensics{
		PC: 0x50, Executions: 1000, Mispredicts: 200,
		SteadyMisses: 200, PatternsSeen: 16, HistoryEntropyBits: 3.8,
		DominantPattern: "0011", DominantPatternMisses: 20,
		Patterns: []telemetry.PatternStat{
			{Pattern: "0011", Taken: 30, NotTaken: 30, Mispredicts: 20},
		},
	})
	if e.Verdict != DiffuseHistory {
		t.Fatalf("verdict = %v, want diffuse-history", e.Verdict)
	}
}

// TestExplainNamesDominantPatternFromRealRun closes the loop with
// Forensics: an alternating H2P branch folded by Forensics must come out
// of Explain with its dominant miss pattern named in the output.
func TestExplainNamesDominantPatternFromRealRun(t *testing.T) {
	// 200 resolutions of one site, alternating taken and not taken. The
	// predictor under test always predicts taken: every not-taken
	// execution is a miss.
	l := telemetry.SiteLog{IDs: make([]int32, 200), Outs: make([]uint8, 200), Sites: []uint32{0x4000}}
	for i := range l.IDs {
		if i%64 == 0 {
			l.Miss = append(l.Miss, 0)
		}
		if i%2 == 0 {
			l.Outs[i] = 1
		} else {
			l.Miss[i/64] |= 1 << (i % 64)
		}
	}
	f := telemetry.NewForensics(telemetry.ForensicsConfig{HistoryBits: 2})
	f.AppendLog(l)
	pcf, ok := f.Lookup(0x4000)
	if !ok {
		t.Fatal("branch not tracked")
	}
	e := Explain(pcf)
	out := e.String()
	if !strings.Contains(out, "dominant miss pattern") {
		t.Fatalf("explain output does not name a dominant miss pattern:\n%s", out)
	}
	if pcf.DominantPattern == "" || !strings.Contains(out, pcf.DominantPattern) {
		t.Fatalf("output %q missing pattern %q", out, pcf.DominantPattern)
	}
	if e.Verdict != InherentlyVariable && e.Verdict != AutomatonThrash {
		t.Fatalf("alternating branch classified as %v", e.Verdict)
	}
}
