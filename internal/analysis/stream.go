package analysis

import (
	"fmt"

	"twolevel/internal/telemetry"
)

// ExplainStream classifies a branch from the kernel-native streaming
// profile (telemetry.PCStats) — the reduced-evidence twin of Explain for
// the serving path, where the flat kernel accumulates per-PC counters
// but no shadow-pattern model. The verdict taxonomy and thresholds are
// shared with Explain; two verdicts degrade without pattern evidence:
//
//   - DiffuseHistory is unreachable (it needs the per-pattern miss
//     attribution only the Forensics report computes);
//   - InherentlyVariable tests the branch's overall taken rate instead
//     of the rate under its dominant miss pattern.
//
// brsim -explain remains the full-evidence path.
func ExplainStream(p telemetry.PCStats) Explanation {
	e := Explanation{PC: p.PC}
	missRate := 0.0
	if p.Executions > 0 {
		missRate = float64(p.Mispredicts) / float64(p.Executions)
	}
	steady := p.Mispredicts - p.WarmupMisses

	e.Evidence = append(e.Evidence,
		fmt.Sprintf("executed %d times, missed %d (%.2f%%), taken %.1f%% of the time",
			p.Executions, p.Mispredicts, missRate*100, p.TakenRate*100),
		fmt.Sprintf("carries %.1f%% of the run's mispredictions", p.MissShare*100),
	)
	if p.Mispredicts > 0 {
		e.Evidence = append(e.Evidence,
			fmt.Sprintf("warmup/steady miss split %d/%d", p.WarmupMisses, steady))
	}

	switch {
	case p.Mispredicts == 0 || missRate < wellPredictedMissRate:
		e.Verdict = WellPredicted
		e.Summary = fmt.Sprintf("branch %#x is well predicted (%.2f%% miss rate)",
			p.PC, missRate*100)
	case p.WarmupMisses > steady:
		e.Verdict = WarmupDominated
		e.Summary = fmt.Sprintf("branch %#x misses mostly during warmup (%d of %d misses in the warmup window); steady-state behaviour is learned",
			p.PC, p.WarmupMisses, p.Mispredicts)
	case p.TakenRate >= variableLow && p.TakenRate <= variableHigh:
		e.Verdict = InherentlyVariable
		e.Summary = fmt.Sprintf("branch %#x is inherently variable (taken %.1f%% overall, missed %.2f%%) — a hard-to-predict branch worth a deeper -explain pass",
			p.PC, p.TakenRate*100, missRate*100)
	default:
		e.Verdict = AutomatonThrash
		e.Summary = fmt.Sprintf("branch %#x is biased (taken %.1f%%) yet misses %.2f%% — outcome runs keep flipping the counter through its weak states",
			p.PC, p.TakenRate*100, missRate*100)
	}
	return e
}
