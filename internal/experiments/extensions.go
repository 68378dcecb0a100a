package experiments

import (
	"fmt"

	"twolevel/internal/analysis"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// The "ext" experiments go beyond the paper's evaluation (DESIGN.md §5):
// the fourth variation of the taxonomy and a stronger context-switch
// model.

// ExtTaxonomy compares all nine variations of the {G,P,S} x {g,p,s}
// association taxonomy (Yeh & Patt's follow-up classification) at one
// history length: the paper's three (GAg/PAg/PAp) plus the six
// extensions. Per-set structures use 64 history registers and 16 pattern
// tables — untagged, so aliasing is allowed, trading accuracy for tags.
func ExtTaxonomy(o Options) (*Report, error) {
	const k = 6
	taxonomySpecs := []string{
		fmt.Sprintf("GAg(HR(1,,%d-sr),1xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("GAs(HR(1,,%d-sr),16xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("GAp(HR(1,,%d-sr),512xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("SAg(SHT(64,,%d-sr),1xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("SAs(SHT(64,,%d-sr),16xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("SAp(SHT(64,,%d-sr),512xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("PAg(BHT(512,4,%d-sr),1xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("PAs(BHT(512,4,%d-sr),16xPHT(2^%d,A2))", k, k),
		fmt.Sprintf("PAp(BHT(512,4,%d-sr),512xPHT(2^%d,A2))", k, k),
	}
	r, err := accuracyReport("ext-taxonomy",
		"Extension: the full {G,P,S} x {g,p,s} association taxonomy at k=6",
		mustSpecs(taxonomySpecs...), o)
	// Partial KeepGoing reports travel back alongside their *GridError.
	if r == nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"rows ordered by history association (G, S, P), then pattern association (g, s, p)",
		"expected: accuracy rises along both axes; per-set is the budget middle ground between global and per-address")
	return r, err
}

// extInterleaveQuantum is the instruction quantum used by the interleaved
// context-switch experiment. It is much shorter than the paper's 500k so
// that switches are frequent at this harness's trace budgets.
const extInterleaveQuantum = 50_000

// ExtInterleave compares the paper's context-switch model (flush the
// branch history table) against actually interleaving two processes'
// traces with per-process address spaces: the multiplexed predictor
// suffers genuine cross-process pollution rather than modelled flushes.
func ExtInterleave(o Options) (*Report, error) {
	o = o.withDefaults()
	sp := spec.MustParse("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
	r := &Report{
		ID:      "ext-interleave",
		Title:   "Extension: flush-model vs real interleaved context switches (PAg(12))",
		Columns: []string{"accuracy", "switches"},
		Percent: false,
		Notes: []string{
			fmt.Sprintf("interleave quantum: %d instructions (short, so switches are frequent at this budget)", extInterleaveQuantum),
			"accuracy cells are fractions; the flush model approximates, interleaving measures the real pollution",
		},
	}
	pair := [2]string{"gcc", "espresso"}
	var benches [2]*prog.Benchmark
	for i, name := range pair {
		b, err := prog.ByName(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	row := func(label string, res sim.Result) Series {
		return Series{
			Label:  label,
			Values: []Cell{res.Accuracy.Rate(), float64(res.ContextSwitches)},
		}
	}
	// Three independent units — each benchmark's isolated and flush-model
	// rows, and the multiplexed run — each filling its own slot.
	var rows [3][]Series
	units := make([]unit, 0, len(rows))
	for i, b := range benches {
		units = append(units, unit{
			state: b.Name,
			attrs: []span.Attr{span.Str("bench", b.Name)},
			run: func(o Options) error {
				iso, err := runIsolated(sp, b, sim.Options{MaxCondBranches: o.CondBranches}, o)
				if err != nil {
					return fmt.Errorf("%s isolated: %w", b.Name, err)
				}
				// Flush model at the interleaving quantum.
				flush, err := runIsolated(sp, b, sim.Options{
					MaxCondBranches: o.CondBranches,
					ContextSwitches: true,
					CSInterval:      extInterleaveQuantum,
				}, o)
				if err != nil {
					return fmt.Errorf("%s flush-model: %w", b.Name, err)
				}
				rows[i] = []Series{row(b.Name+" isolated", iso), row(b.Name+" flush-model", flush)}
				return nil
			},
		})
	}
	mixed := pair[0] + "+" + pair[1]
	units = append(units, unit{
		state: mixed,
		attrs: []span.Attr{span.Str("bench", mixed)},
		run: func(o Options) error {
			res, err := runInterleaved(sp, benches, o)
			if err != nil {
				return fmt.Errorf("%s interleaved: %w", mixed, err)
			}
			rows[2] = []Series{row(mixed+" interleaved", res)}
			return nil
		},
	})
	if err := runUnits(units, o); err != nil {
		return nil, err
	}
	for _, rs := range rows {
		r.Series = append(r.Series, rs...)
	}
	return r, nil
}

// runIsolated runs a fresh, untrained sp over b's testing trace with the
// given simulator options, polling o.Context.
func runIsolated(sp spec.Spec, b *prog.Benchmark, so sim.Options, o Options) (sim.Result, error) {
	p, err := spec.Build(sp, nil)
	if err != nil {
		return sim.Result{}, err
	}
	src, err := o.source(b, b.Testing, o.CondBranches)
	if err != nil {
		return sim.Result{}, err
	}
	so.Context = o.Context
	return sim.Run(p, src, so)
}

// runInterleaved runs sp over the benchmarks' testing traces multiplexed
// at the interleave quantum. The multiplexed run stays on live sources:
// its per-process consumption depends on the interleaving, so no
// cond-branch budget bounds how far each stream is read, and a capture
// sized up front could come up short.
func runInterleaved(sp spec.Spec, benches [2]*prog.Benchmark, o Options) (sim.Result, error) {
	var sources []trace.Source
	for _, b := range benches {
		src, err := o.liveSource(b, b.Testing)
		if err != nil {
			return sim.Result{}, err
		}
		sources = append(sources, src)
	}
	mux, err := sim.NewMultiplex(sources, extInterleaveQuantum)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := spec.Build(sp, nil)
	if err != nil {
		return sim.Result{}, err
	}
	// The multiplexer emits its own switch traps; the simulator's flush
	// is disabled so only genuine pollution is measured.
	res, err := sim.Run(p, mux, sim.Options{MaxCondBranches: 2 * o.CondBranches, Context: o.Context})
	if err != nil {
		return sim.Result{}, err
	}
	res.ContextSwitches = mux.Switches
	return res, nil
}

// ExtResidual characterises the residual mispredictions of the paper's
// preferred configuration (PAg(12), 512x4-way) per benchmark — the
// direction §6 of the paper points at: "we are examining that 3 percent
// to try to characterize it and hopefully reduce it".
func ExtResidual(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:      "ext-residual",
		Title:   "Extension: what the residual mispredictions of PAg(12) are made of",
		Columns: []string{"accuracy", "bht-miss", "pattern-cold", "pattern-training", "interference", "inherent"},
		Percent: true,
		Notes: []string{
			"cause columns are shares of that benchmark's mispredictions",
			"interference is the share PAp's per-address pattern tables would remove (§2.2)",
		},
	}
	rows, err := perBenchmark(o, func(b *prog.Benchmark, o Options) (Series, error) {
		src, err := o.source(b, b.Testing, o.CondBranches)
		if err != nil {
			return Series{}, err
		}
		bd, err := analysis.Analyze(src, 12, 512, 4, o.CondBranches)
		if err != nil {
			return Series{}, err
		}
		row := Series{Label: b.Name, Values: []Cell{bd.Accuracy()}}
		for c := analysis.Category(0); c < analysis.Category(analysis.NumCategories); c++ {
			row.Values = append(row.Values, bd.Share(c))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	r.Series = rows
	return r, nil
}
