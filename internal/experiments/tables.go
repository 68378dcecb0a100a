package experiments

import (
	"fmt"

	"twolevel/internal/prog"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Table1 reproduces "Number of static conditional branches in each
// benchmark": each benchmark's testing trace is summarised and the
// distinct conditional branch sites counted, next to the paper's value.
func Table1(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:      "table1",
		Title:   "Static conditional branches per benchmark",
		Columns: []string{"measured", "paper", "dynamic cond", "taken rate"},
		Notes: []string{
			"measured = distinct conditional branch sites observed in the testing trace",
			fmt.Sprintf("budget: %d conditional branches per benchmark (gcc/li/eqntott get 4x: large site sets surface slowly)", o.CondBranches),
		},
	}
	rows, err := perBenchmark(o, func(b *prog.Benchmark, o Options) (Series, error) {
		budget := o.CondBranches
		switch b.Name {
		case "gcc", "li", "eqntott":
			// Large site sets (gcc), long passes (li's search tree) and
			// rotated cold code (eqntott) surface sites slowly.
			budget *= 4
		}
		src, err := o.source(b, b.Testing, budget)
		if err != nil {
			return Series{}, err
		}
		s, err := trace.Summarize(&trace.LimitSource{Src: src, N: budget})
		if err != nil {
			return Series{}, err
		}
		return Series{
			Label: b.Name,
			Values: []Cell{
				float64(s.StaticCond()),
				float64(b.TargetStaticCond),
				float64(s.ByClass[trace.Cond]),
				s.CondTakenRate(),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Series = rows
	return r, nil
}

// Table2 reproduces "Training and testing data sets of benchmarks".
func Table2(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:      "table2",
		Title:   "Training and testing data sets",
		Columns: []string{"training seed", "training scale", "testing seed", "testing scale"},
	}
	for _, b := range o.Benchmarks {
		r.Series = append(r.Series, Series{
			Label: fmt.Sprintf("%s  [train: %s | test: %s]", b.Name, b.Training.Name, b.Testing.Name),
			Values: []Cell{
				float64(b.Training.Seed), float64(b.Training.Scale),
				float64(b.Testing.Seed), float64(b.Testing.Scale),
			},
		})
	}
	return r, nil
}

// table3Specs are the predictor configurations of Table 3 (with the
// history-register sweep instantiated at r = 12, as in Figure 5's base
// configuration).
var table3Specs = []string{
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

// Table3 reproduces "Configurations of simulated branch predictors": the
// naming-convention strings parsed back into their structural fields.
func Table3(Options) (*Report, error) {
	r := &Report{
		ID:      "table3",
		Title:   "Configurations of simulated branch predictors",
		Columns: []string{"BHT entries", "assoc", "history bits", "PHT sets", "PHT entries"},
		Notes: []string{
			"entry content: shift register (two-level/static training) or automaton (BTB)",
			"each model also simulated with the ,c (context switch) flag in Figure 9",
		},
	}
	for _, s := range table3Specs {
		sp, err := spec.Parse(s)
		if err != nil {
			return nil, err
		}
		phtEntries := 0.0
		if sp.HistoryBits > 0 && sp.Scheme != "BTB" {
			phtEntries = float64(uint64(1) << sp.HistoryBits)
		}
		entries := float64(sp.HistEntries)
		if sp.Ideal {
			entries = float64(0)
		}
		r.Series = append(r.Series, Series{
			Label: s,
			Values: []Cell{
				entries, float64(sp.HistAssoc), float64(sp.HistoryBits),
				float64(sp.PHTSets), phtEntries,
			},
		})
	}
	return r, nil
}

// Figure4 reproduces "Distribution of dynamic branch instructions": per
// benchmark, the share of each branch class.
func Figure4(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:      "fig4",
		Title:   "Distribution of dynamic branch instructions",
		Columns: []string{"conditional", "unconditional", "call", "return", "indirect", "branch/instr"},
		Percent: true,
		Notes:   []string{"paper: ~80% of dynamic branches are conditional"},
	}
	rows, err := perBenchmark(o, func(b *prog.Benchmark, o Options) (Series, error) {
		src, err := o.source(b, b.Testing, o.CondBranches/4)
		if err != nil {
			return Series{}, err
		}
		s, err := trace.Summarize(&trace.LimitSource{Src: src, N: o.CondBranches / 4})
		if err != nil {
			return Series{}, err
		}
		total := float64(s.Branches())
		return Series{
			Label: b.Name,
			Values: []Cell{
				float64(s.ByClass[trace.Cond]) / total,
				float64(s.ByClass[trace.Uncond]) / total,
				float64(s.ByClass[trace.Call]) / total,
				float64(s.ByClass[trace.Return]) / total,
				float64(s.ByClass[trace.Indirect]) / total,
				total / float64(s.Instructions),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Series = rows
	return r, nil
}
