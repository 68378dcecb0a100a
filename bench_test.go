// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus throughput benchmarks of the predictors and
// the trace substrate.
//
// Each experiment benchmark runs its table/figure at a reduced
// per-benchmark branch budget (the BRANCH_BUDGET environment variable
// overrides it; the paper used 20M per benchmark) and reports the
// headline numbers as benchmark metrics: accuracy metrics are fractions
// (0..1) named after the figure's series.
//
//	go test -bench=Figure -benchmem            # all figures
//	BRANCH_BUDGET=1000000 go test -bench=Figure11   # higher fidelity
package twolevel_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"twolevel"
	"twolevel/internal/sim"
)

// benchBudget returns the per-benchmark conditional branch budget for
// experiment benchmarks.
func benchBudget() uint64 {
	if s := os.Getenv("BRANCH_BUDGET"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 30_000
}

// runExperiment runs one experiment per benchmark iteration and reports
// the named series' total geometric means as metrics.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	var report *twolevel.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = twolevel.RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for series, metric := range metrics {
		v := report.Value(series, "Tot GMean")
		b.ReportMetric(v, metric)
	}
}

func BenchmarkTable1_StaticBranchCounts(b *testing.B) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	var report *twolevel.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = twolevel.RunExperiment("table1", opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.Value("gcc", "measured"), "gcc-static-cond")
	b.ReportMetric(report.Value("eqntott", "measured"), "eqntott-static-cond")
}

func BenchmarkTable2_DataSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := twolevel.RunExperiment("table2", twolevel.ExperimentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := twolevel.RunExperiment("table3", twolevel.ExperimentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4_BranchClassMix(b *testing.B) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	var report *twolevel.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = twolevel.RunExperiment("fig4", opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.Value("gcc", "conditional"), "gcc-cond-share")
}

func BenchmarkFigure5_Automata(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))": "A2-gmean",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))": "LT-gmean",
	})
}

func BenchmarkFigure6_SchemesEqualHistory(b *testing.B) {
	runExperiment(b, "fig6", map[string]string{
		"GAg(6)": "GAg6-gmean",
		"PAg(6)": "PAg6-gmean",
		"PAp(6)": "PAp6-gmean",
	})
}

func BenchmarkFigure7_GAgHistoryLength(b *testing.B) {
	runExperiment(b, "fig7", map[string]string{
		"GAg(6-bit)":  "GAg6-gmean",
		"GAg(18-bit)": "GAg18-gmean",
	})
}

func BenchmarkFigure8_EqualAccuracyCost(b *testing.B) {
	runExperiment(b, "fig8", map[string]string{
		"GAg(HR(1,,18-sr),1xPHT(2^18,A2))":     "GAg18-gmean",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))": "PAg12-gmean",
		"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))": "PAp6-gmean",
	})
}

func BenchmarkFigure9_ContextSwitch(b *testing.B) {
	runExperiment(b, "fig9", map[string]string{
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))":   "PAg-gmean",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)": "PAg-cs-gmean",
	})
}

func BenchmarkFigure10_BHTImplementation(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2),c)": "ideal-gmean",
		"PAg(BHT(256,1,12-sr),1xPHT(2^12,A2),c)": "dm256-gmean",
	})
}

func BenchmarkFigure11_SchemeComparison(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))": "PAg-gmean",
		"PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))": "PSg-gmean",
		"BTB(BHT(512,4,A2),)":                  "BTB-gmean",
		"AlwaysTaken":                          "AT-gmean",
	})
}

func BenchmarkExtensionTaxonomy(b *testing.B) {
	runExperiment(b, "ext-taxonomy", map[string]string{
		"GAg(HR(1,,6-sr),1xPHT(2^6,A2))":   "GAg6-gmean",
		"SAg(SHT(64,,6-sr),1xPHT(2^6,A2))": "SAg6-gmean",
	})
}

func BenchmarkExtensionInterleave(b *testing.B) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	var report *twolevel.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = twolevel.RunExperiment("ext-interleave", opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.Value("gcc isolated", "accuracy"), "gcc-isolated")
	b.ReportMetric(report.Value("gcc+espresso interleaved", "accuracy"), "interleaved")
}

func BenchmarkExtensionResidual(b *testing.B) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	var report *twolevel.Report
	for i := 0; i < b.N; i++ {
		var err error
		report, err = twolevel.RunExperiment("ext-residual", opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.Value("gcc", "interference"), "gcc-interference-share")
}

// BenchmarkFigure6TraceCache is the capture-cache before/after
// comparison on a multi-spec experiment (nine specs x nine benchmarks):
//
//	live        — trace cache disabled: every replay pass and training
//	              run re-executes the CPU interpreter
//	cached-cold — capture cache starts empty each iteration: the
//	              interpreter runs once per (benchmark, data set) and all
//	              specs replay the shared capture in batched passes
//	cached-warm — captures already materialised: pure replay
//
// EXPERIMENTS.md ("Performance") records the measured ratios; cached-cold
// is the end-to-end speedup a fresh process sees.
func BenchmarkFigure6TraceCache(b *testing.B) {
	opts := twolevel.ExperimentOptions{CondBranches: benchBudget()}
	b.Run("live", func(b *testing.B) {
		o := opts
		o.DisableTraceCache = true
		for i := 0; i < b.N; i++ {
			if _, err := twolevel.RunExperiment("fig6", o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			twolevel.ResetExperimentCaches()
			if _, err := twolevel.RunExperiment("fig6", opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-warm", func(b *testing.B) {
		twolevel.ResetExperimentCaches()
		if _, err := twolevel.RunExperiment("fig6", opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := twolevel.RunExperiment("fig6", opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Throughput benchmarks: predictions per second on a live trace.

func benchPredictor(b *testing.B, specStr string) {
	b.Helper()
	p, err := twolevel.NewPredictor(specStr)
	if err != nil {
		b.Fatal(err)
	}
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-capture a trace so the benchmark measures prediction alone.
	var branches []twolevel.Branch
	for len(branches) < 65536 {
		e, err := src.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !e.Trap && e.Branch.Class == twolevel.Cond {
			branches = append(branches, e.Branch)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := branches[i&65535]
		pred := p.Predict(br)
		p.Update(br, pred)
	}
}

func BenchmarkPredictGAg(b *testing.B) { benchPredictor(b, "GAg(HR(1,,12-sr),1xPHT(2^12,A2))") }
func BenchmarkPredictPAg(b *testing.B) { benchPredictor(b, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))") }
func BenchmarkPredictPAp(b *testing.B) {
	benchPredictor(b, "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))")
}
func BenchmarkPredictBTB(b *testing.B) { benchPredictor(b, "BTB(BHT(512,4,A2),)") }

// BenchmarkKernelVsRunner compares the flat replay kernel against the
// interpretive runner on identical packed traces, one sub-benchmark pair
// per (variation, automaton). Both arms replay the same snapshot with a
// fresh predictor per iteration; events/sec is the headline metric the
// fast path exists to move (the Results are bit-identical, so the pair
// differs only in speed).
func BenchmarkKernelVsRunner(b *testing.B) {
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := twolevel.PackTrace(twolevel.LimitConditional(src, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	events := float64(snap.Len())
	arm := func(b *testing.B, specStr string, disable bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := twolevel.NewPredictor(specStr)
			if err != nil {
				b.Fatal(err)
			}
			opts := twolevel.SimOptions{DisableFastpath: disable}
			if _, err := twolevel.Simulate(p, snap.Reader(), opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	for _, c := range []struct{ name, spec string }{
		{"GAg-A2", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))"},
		{"GAg-A3", "GAg(HR(1,,12-sr),1xPHT(2^12,A3))"},
		{"GAg-LT", "GAg(HR(1,,12-sr),1xPHT(2^12,LT))"},
		{"PAg-A2", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))"},
		{"PAg-A1", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A1))"},
		{"PAp-A2", "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))"},
		{"PAp-A4", "PAp(BHT(512,4,6-sr),512xPHT(2^6,A4))"},
		{"SAs-A2", "SAs(SHT(64,,8-sr),16xPHT(2^8,A2))"},
		{"BTB-A2", "BTB(BHT(512,4,A2),)"},
		{"BTB-LT", "BTB(BHT(512,4,LT),)"},
		{"AlwaysTaken", "AlwaysTaken"},
	} {
		b.Run(c.name+"/kernel", func(b *testing.B) { arm(b, c.spec, false) })
		b.Run(c.name+"/runner", func(b *testing.B) { arm(b, c.spec, true) })
	}
}

// BenchmarkKernelSharded measures PC-partitioned parallel replay inside
// the kernel for a per-address scheme at increasing shard counts.
func BenchmarkKernelSharded(b *testing.B) {
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := twolevel.PackTrace(twolevel.LimitConditional(src, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	events := float64(snap.Len())
	const specStr = "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))"
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := twolevel.NewPredictor(specStr)
				if err != nil {
					b.Fatal(err)
				}
				opts := twolevel.SimOptions{Shards: shards}
				if _, err := twolevel.Simulate(p, snap.Reader(), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkKernelTap measures what kernel-native telemetry costs per
// loop shape: each shape replays the same snapshot plain and with a
// Telemetry sink (an interval series plus the top-8 per-PC mispredict
// profile, the tap the sweep grid attaches), reporting events/sec and
// allocs/op. The arms' Results are bit-identical; only the tap differs.
func BenchmarkKernelTap(b *testing.B) {
	const conds = 100_000
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := twolevel.PackTrace(twolevel.LimitConditional(src, conds))
	if err != nil {
		b.Fatal(err)
	}
	events := float64(snap.Len())
	arm := func(b *testing.B, specStr string, tap bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := twolevel.NewPredictor(specStr)
			if err != nil {
				b.Fatal(err)
			}
			opts := twolevel.SimOptions{MaxCondBranches: conds}
			if tap {
				opts.Telemetry = &sim.Telemetry{Interval: conds / 20, TopK: 8}
			}
			if _, err := twolevel.Simulate(p, snap.Reader(), opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	for _, c := range []struct{ name, spec string }{
		{"GAg", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))"},
		{"PAg", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))"},
		{"PAp", "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))"},
		{"SAs", "SAs(SHT(64,,8-sr),16xPHT(2^8,A2))"},
		{"AlwaysTaken", "AlwaysTaken"},
	} {
		b.Run(c.name+"/plain", func(b *testing.B) { arm(b, c.spec, false) })
		b.Run(c.name+"/tap", func(b *testing.B) { arm(b, c.spec, true) })
	}
}

// BenchmarkRunManyShared measures the shared pass against single runs:
// one 11-cell batch — one cell per kernel loop shape (static, GAg, PAg,
// PAp, generic) plus a BTB and Profiling, and the static and three
// two-level shapes again with a Telemetry sink — replayed by one
// SimulateMany call, which builds one replay plan, against the same 11
// cells run as 11 single Simulate calls, which build one plan each. The
// Results are bit-identical; events/sec counts the snapshot's events
// once per cell.
func BenchmarkRunManyShared(b *testing.B) {
	const conds = 100_000
	pack := func(training bool) twolevel.TraceSnapshot {
		src, err := twolevel.NewBenchmarkSource("espresso", training)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := twolevel.PackTrace(twolevel.LimitConditional(src, conds))
		if err != nil {
			b.Fatal(err)
		}
		return snap
	}
	snap, train := pack(false), pack(true)
	cells := []struct {
		spec string
		tap  bool
	}{
		{"AlwaysTaken", false},
		{"GAg(HR(1,,12-sr),1xPHT(2^12,A2))", false},
		{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", false},
		{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", false},
		{"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))", false},
		{"BTB(BHT(512,4,A2),)", false},
		{"Profiling", false},
		{"BTFN", true},
		{"GAg(HR(1,,12-sr),1xPHT(2^12,A2))", true},
		{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", true},
		{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", true},
	}
	build := func(b *testing.B) ([]twolevel.Predictor, []twolevel.SimOptions) {
		preds := make([]twolevel.Predictor, len(cells))
		opts := make([]twolevel.SimOptions, len(cells))
		for i, c := range cells {
			var err error
			if c.spec == "Profiling" {
				preds[i], err = twolevel.NewTrainedPredictor(c.spec, train.Reader())
			} else {
				preds[i], err = twolevel.NewPredictor(c.spec)
			}
			if err != nil {
				b.Fatal(err)
			}
			opts[i] = twolevel.SimOptions{MaxCondBranches: conds}
			if c.tap {
				opts[i].Telemetry = &sim.Telemetry{Interval: conds / 20, TopK: 8}
			}
		}
		return preds, opts
	}
	events := float64(snap.Len() * len(cells))
	arm := func(b *testing.B, batch bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			preds, opts := build(b)
			b.StartTimer()
			if batch {
				if _, err := twolevel.SimulateMany(preds, snap.Reader(), opts); err != nil {
					b.Fatal(err)
				}
				continue
			}
			for j := range preds {
				if _, err := twolevel.Simulate(preds[j], snap.Reader(), opts[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	b.Run("batch", func(b *testing.B) { arm(b, true) })
	b.Run("single", func(b *testing.B) { arm(b, false) })
}

// BenchmarkSimObserverOverhead measures the telemetry hook cost in the
// simulator loop over a prerecorded trace: the nil-observer arm is the
// baseline the hooks must not slow down (and must not allocate); the
// counting arm carries an observer counting every callback.
func BenchmarkSimObserverOverhead(b *testing.B) {
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	tr := &twolevel.Trace{}
	if err := tr.AppendAll(twolevel.LimitConditional(src, 50_000)); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, obs twolevel.Observer) {
		p, err := twolevel.NewPredictor("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
		if err != nil {
			b.Fatal(err)
		}
		rd := tr.Reader()
		opts := twolevel.SimOptions{Observer: obs}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset()
			if _, err := twolevel.Simulate(p, rd, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("counting", func(b *testing.B) { run(b, &countingObserver{}) })
}

// BenchmarkSimSpanOverhead measures the span-tracing cost in the
// simulator loop over a prerecorded trace. The nil arm is the
// zero-cost-when-nil contract: a run without a tracer attached must not
// allocate for the instrumentation at all (asserted, not just
// reported). The traced arm opens one replay span per run against a
// live tracer.
func BenchmarkSimSpanOverhead(b *testing.B) {
	src, err := twolevel.NewBenchmarkSource("espresso", false)
	if err != nil {
		b.Fatal(err)
	}
	tr := &twolevel.Trace{}
	if err := tr.AppendAll(twolevel.LimitConditional(src, 50_000)); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sp *twolevel.Span) {
		p, err := twolevel.NewPredictor("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
		if err != nil {
			b.Fatal(err)
		}
		rd := tr.Reader()
		opts := twolevel.SimOptions{Span: sp}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset()
			if _, err := twolevel.Simulate(p, rd, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) {
		// The replay with no span attached must not allocate: warm the
		// predictor once, then assert the steady state before timing.
		p, err := twolevel.NewPredictor("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
		if err != nil {
			b.Fatal(err)
		}
		rd := tr.Reader()
		if _, err := twolevel.Simulate(p, rd, twolevel.SimOptions{}); err != nil {
			b.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			rd.Reset()
			if _, err := twolevel.Simulate(p, rd, twolevel.SimOptions{}); err != nil {
				b.Fatal(err)
			}
		})
		if allocs != 0 {
			b.Fatalf("nil-span replay allocated %.0f times per run, want 0", allocs)
		}
		run(b, nil)
	})
	b.Run("traced", func(b *testing.B) {
		tracer := twolevel.NewSpanTracer()
		root := tracer.Root("bench")
		defer root.End()
		run(b, root)
	})
}

// BenchmarkTraceGeneration measures the CPU-simulator substrate: events
// generated per second from the gcc program.
func BenchmarkTraceGeneration(b *testing.B) {
	src, err := twolevel.NewBenchmarkSource("gcc", false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the full pipeline: program execution,
// event generation and prediction together.
func BenchmarkEndToEnd(b *testing.B) {
	p, err := twolevel.NewPredictor("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
	if err != nil {
		b.Fatal(err)
	}
	src, err := twolevel.NewBenchmarkSource("doduc", false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := twolevel.Simulate(p, src, twolevel.SimOptions{MaxCondBranches: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Accuracy.Rate(), "accuracy")
}

// Ablation benchmarks: the design-choice experiments of DESIGN.md §5.
// Each runs the two arms of one design decision and reports both
// accuracies as metrics (fractions).

func ablationAccuracy(b *testing.B, bench string, p twolevel.Predictor, opts twolevel.SimOptions) float64 {
	b.Helper()
	src, err := twolevel.NewBenchmarkSource(bench, false)
	if err != nil {
		b.Fatal(err)
	}
	if opts.MaxCondBranches == 0 {
		opts.MaxCondBranches = benchBudget()
	}
	res, err := twolevel.Simulate(p, src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Accuracy.Rate()
}

// BenchmarkAblationSpeculativeHistory measures §3.1: with eight branches
// in flight, prediction from stale history loses accuracy; speculative
// history update with squash-and-repredict recovers it.
func BenchmarkAblationSpeculativeHistory(b *testing.B) {
	var stale, spec float64
	for i := 0; i < b.N; i++ {
		mk := func(speculative bool) twolevel.Predictor {
			p, err := twolevel.NewTwoLevel(twolevel.TwoLevelConfig{
				Variation: twolevel.PAg, HistoryBits: 12, Automaton: twolevel.A2,
				Entries: 512, Assoc: 4, SpeculativeHistory: speculative,
			})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		opts := twolevel.SimOptions{PipelineDepth: 8}
		stale = ablationAccuracy(b, "eqntott", mk(false), opts)
		spec = ablationAccuracy(b, "eqntott", mk(true), opts)
	}
	b.ReportMetric(stale, "stale-history")
	b.ReportMetric(spec, "speculative")
}

// BenchmarkAblationPApInherit measures the PAp slot-replacement policy:
// reinitialising the slot's pattern table for the incoming branch
// (default, per-address semantics) vs inheriting the stale contents
// (what reset-free hardware would do).
func BenchmarkAblationPApInherit(b *testing.B) {
	var reset, inherit float64
	for i := 0; i < b.N; i++ {
		mk := func(inheritPHT bool) twolevel.Predictor {
			p, err := twolevel.NewTwoLevel(twolevel.TwoLevelConfig{
				Variation: twolevel.PAp, HistoryBits: 6, Automaton: twolevel.A2,
				Entries: 512, Assoc: 4, InheritPHTOnReplace: inheritPHT,
			})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		reset = ablationAccuracy(b, "doduc", mk(false), twolevel.SimOptions{})
		inherit = ablationAccuracy(b, "doduc", mk(true), twolevel.SimOptions{})
	}
	b.ReportMetric(reset, "reset-on-replace")
	b.ReportMetric(inherit, "inherit")
}

// BenchmarkAblationPHTInit measures the §4.2 initialisation choice:
// pattern entries starting on the taken side (state 3) vs the not-taken
// side (state 0).
func BenchmarkAblationPHTInit(b *testing.B) {
	var taken, notTaken float64
	for i := 0; i < b.N; i++ {
		mk := func(init *twolevel.AutomatonState) twolevel.Predictor {
			cfg := twolevel.TwoLevelConfig{
				Variation: twolevel.PAg, HistoryBits: 12, Automaton: twolevel.A2,
				Entries: 512, Assoc: 4,
			}
			if init != nil {
				cfg.PatternInit = init
			}
			p, err := twolevel.NewTwoLevel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		zero := twolevel.AutomatonState(0)
		taken = ablationAccuracy(b, "espresso", mk(nil), twolevel.SimOptions{})
		notTaken = ablationAccuracy(b, "espresso", mk(&zero), twolevel.SimOptions{})
	}
	b.ReportMetric(taken, "init-taken")
	b.ReportMetric(notTaken, "init-not-taken")
}

// BenchmarkAblationColdHistory measures the §4.2 BHT miss initialisation:
// all-ones with first-outcome smearing (the paper's policy) vs all-zero
// history.
func BenchmarkAblationColdHistory(b *testing.B) {
	var smear, zero float64
	for i := 0; i < b.N; i++ {
		mk := func(coldZero bool) twolevel.Predictor {
			p, err := twolevel.NewTwoLevel(twolevel.TwoLevelConfig{
				Variation: twolevel.PAg, HistoryBits: 12, Automaton: twolevel.A2,
				Entries: 512, Assoc: 4, ColdHistoryZero: coldZero,
			})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		smear = ablationAccuracy(b, "gcc", mk(false), twolevel.SimOptions{})
		zero = ablationAccuracy(b, "gcc", mk(true), twolevel.SimOptions{})
	}
	b.ReportMetric(smear, "ones-smear")
	b.ReportMetric(zero, "zero-init")
}

// BenchmarkAblationCounterWidth sweeps the saturating-counter width s of
// the pattern entries (the paper's cost model parameter): the classic
// result that two bits capture nearly all the benefit.
func BenchmarkAblationCounterWidth(b *testing.B) {
	accs := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{1, 2, 3, 4} {
			p, err := twolevel.NewTwoLevel(twolevel.TwoLevelConfig{
				Variation: twolevel.PAg, HistoryBits: 12, Automaton: twolevel.A2,
				Entries: 512, Assoc: 4, Machine: twolevel.NewSaturatingAutomaton(bits),
			})
			if err != nil {
				b.Fatal(err)
			}
			accs[bits] = ablationAccuracy(b, "doduc", p, twolevel.SimOptions{})
		}
	}
	for bits, acc := range accs {
		b.ReportMetric(acc, fmt.Sprintf("s%d-bits", bits))
	}
}
