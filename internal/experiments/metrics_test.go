package experiments

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// observedRun replays sp on b's testing capture as the grid does, with
// obs attached: the Observer-fed oracle of the telemetry sink.
func observedRun(t *testing.T, sp spec.Spec, b *prog.Benchmark, budget uint64, obs telemetry.Observer) sim.Result {
	t.Helper()
	p, err := spec.Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Options{}.source(b, b.Testing, budget)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, src, sim.Options{
		ContextSwitches: sp.ContextSwitch,
		MaxCondBranches: budget,
		Observer:        obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTelemetryReplaysOnKernel pins the -metrics contract: a run with
// hot-branch and interval telemetry stays on the replay kernel, its
// interval series, context-switch marks and hot-branch table equal
// hand-attached IntervalSeries and HotBranches observers, and it still
// carries Stats.
func TestTelemetryReplaysOnKernel(t *testing.T) {
	const budget, interval, hotK = 4000, 500, 4
	sp := spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2),c)")
	b, err := prog.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}

	tel := &Telemetry{HotK: hotK, Interval: interval}
	tracer := span.New()
	root := tracer.Root("test")
	res, err := runCell(sp, b, Options{CondBranches: budget, Telemetry: tel, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	fastpath := ""
	for _, rec := range tracer.Snapshot() {
		if rec.Name == "replay" {
			fastpath = spanAttr(rec.Attrs, "fastpath")
		}
	}
	if fastpath != "true" {
		t.Errorf("telemetry run: replay span fastpath=%q, want true", fastpath)
	}
	runs := tel.Runs()
	if len(runs) != 1 {
		t.Fatalf("%d runs recorded, want 1", len(runs))
	}
	run := runs[0]

	iv := telemetry.NewIntervalSeries(interval)
	hot := telemetry.NewHotBranches(hotK)
	ref := observedRun(t, sp, b, budget, telemetry.Multi(iv, hot))
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("result differs from the observed run:\n got %+v\nwant %+v", res, ref)
	}
	if len(run.Intervals) == 0 || !reflect.DeepEqual(run.Intervals, iv.Samples()) {
		t.Errorf("interval series differ:\n got %+v\nwant %+v", run.Intervals, iv.Samples())
	}
	if !reflect.DeepEqual(run.Switches, iv.Switches()) {
		t.Errorf("switch marks differ: got %v, want %v", run.Switches, iv.Switches())
	}
	if len(run.HotBranches) == 0 || !reflect.DeepEqual(run.HotBranches, hot.Report()) {
		t.Errorf("hot branches differ:\n got %+v\nwant %+v", run.HotBranches, hot.Report())
	}
	if run.Stats.Events == 0 || run.Stats.WallClockSeconds <= 0 || run.Stats.Occupancy == nil {
		t.Errorf("run lost its stats: %+v", run.Stats)
	}
}

// TestTelemetryForensicsOnKernel: ForensicsTopK rides the telemetry
// sink, so a forensics run stays on the replay kernel, and its report
// equals a hand-attached Forensics observer's over the same run; the
// interval series is collected alongside.
func TestTelemetryForensicsOnKernel(t *testing.T) {
	const budget = 4000
	sp := spec.MustParse("GAg(HR(1,,8-sr),1xPHT(2^8,A2))")
	b, err := prog.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	tel := &Telemetry{ForensicsTopK: 2, Interval: 500}
	tracer := span.New()
	root := tracer.Root("test")
	res, err := runCell(sp, b, Options{CondBranches: budget, Telemetry: tel, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	fastpath := ""
	for _, rec := range tracer.Snapshot() {
		if rec.Name == "replay" {
			fastpath = spanAttr(rec.Attrs, "fastpath")
		}
	}
	if fastpath != "true" {
		t.Errorf("forensics run: replay span fastpath=%q, want true", fastpath)
	}
	if runs := tel.Runs(); len(runs) != 1 || len(runs[0].Intervals) == 0 {
		t.Fatalf("forensics run did not record intervals: %+v", runs)
	}
	fr := tel.ForensicsRuns()
	if len(fr) != 1 {
		t.Fatalf("forensics not collected: %d reports", len(fr))
	}
	fo := telemetry.NewForensics(telemetry.ForensicsConfig{TopK: 2, Budget: budget})
	if ref := observedRun(t, sp, b, budget, fo); !reflect.DeepEqual(res, ref) {
		t.Errorf("result differs from the observed run:\n got %+v\nwant %+v", res, ref)
	}
	if want := fo.Report(); len(want.TopOffenders) == 0 || !reflect.DeepEqual(fr[0].Report, want) {
		t.Errorf("forensics report differs from the observer's:\n got %+v\nwant %+v", fr[0].Report, want)
	}
}

// TestRunsIndependentOfWorkers: the recorded runs come back in
// (experiment, spec, benchmark) order whatever order the grid's workers
// finished in, so the metrics document is the same at any -j apart from
// the cost fields: Stats, and the batch shape, which the scheduler sizes
// to the worker pool.
func TestRunsIndependentOfWorkers(t *testing.T) {
	rows := mustSpecs(
		"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
		"PSg(BHT(512,4,10-sr),1xPHT(2^10,PB))",
	)
	var benchmarks []*prog.Benchmark
	for _, name := range []string{"li", "espresso", "eqntott"} {
		b, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benchmarks = append(benchmarks, b)
	}
	runs := func(workers int) []RunMetrics {
		tel := &Telemetry{HotK: 3, Interval: 700}
		o := Options{CondBranches: 3000, Benchmarks: benchmarks, Workers: workers, Telemetry: tel}.withDefaults()
		if _, err := runGrid(rows, o); err != nil {
			t.Fatal(err)
		}
		out := tel.Runs()
		for i := range out {
			out[i].Stats = telemetry.RunMetrics{}
			out[i].Batched, out[i].BatchSize = false, 0
		}
		return out
	}
	serial := runs(1)
	if len(serial) != len(rows)*len(benchmarks) {
		t.Fatalf("%d runs recorded, want %d", len(serial), len(rows)*len(benchmarks))
	}
	if !slices.IsSortedFunc(serial, func(a, b RunMetrics) int {
		return cmp.Or(cmp.Compare(a.Spec, b.Spec), cmp.Compare(a.Benchmark, b.Benchmark))
	}) {
		t.Errorf("runs not sorted by (spec, benchmark):\n%+v", serial)
	}
	for try := 0; try < 3; try++ {
		if parallel := runs(4); !reflect.DeepEqual(parallel, serial) {
			t.Fatalf("runs at 4 workers differ from 1 worker:\n got %+v\nwant %+v", parallel, serial)
		}
	}
}

// statsSpecs is sim's kernelEquivSpecs less its API-built BTB: every
// flattenable predictor family, the static-training schemes, the BTB
// designs, Profiling and the static schemes.
var statsSpecs = []string{
	"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
	"GAg(HR(1,,12-sr),1xPHT(2^12,A3))",
	"GAg(HR(1,,4-sr),1xPHT(2^4,LT))",
	"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
	"PAg(BHT(64,1,6-sr),1xPHT(2^6,A1))",
	"PAg(IBHT(inf,,10-sr),1xPHT(2^10,A2))",
	"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
	"PAp(BHT(128,2,4-sr),128xPHT(2^4,A4))",
	"GAs(HR(1,,8-sr),16xPHT(2^8,A2))",
	"GAp(HR(1,,6-sr),512xPHT(2^6,A2))",
	"SAg(SHT(64,,8-sr),1xPHT(2^8,A2))",
	"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))",
	"SAp(SHT(64,,6-sr),512xPHT(2^6,A2))",
	"PAs(BHT(512,4,8-sr),16xPHT(2^8,A2))",
	"GSg(HR(1,,8-sr),1xPHT(2^8,PB))",
	"PSg(BHT(512,4,8-sr),1xPHT(2^8,PB))",
	"BTB(BHT(512,4,A2),)",
	"BTB(BHT(256,1,LT),)",
	"BTB(BHT(64,4,A3),,c)",
	"Profiling",
	"AlwaysTaken",
	"BTFN",
}

// observedCounts clears the time and allocation fields of a RunStats
// observer's metrics, leaving the counts resultCounts derives.
func observedCounts(rs *telemetry.RunStats) telemetry.RunMetrics {
	m := rs.Metrics()
	m.WallClockSeconds, m.EventsPerSec, m.AllocBytes, m.Mallocs = 0, 0, 0, 0
	return m
}

// TestResultCountsMatchRunStats: the Stats counts derived from a Result
// equal what a RunStats observer counts on the interpretive runner —
// events, predictions, resolutions, mispredictions, traps, context
// switches and occupancy — for every spec under the plain,
// context-switch, budgeted and pipelined option sets, serially and in a
// RunMany batch.
func TestResultCountsMatchRunStats(t *testing.T) {
	b, err := prog.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{CondBranches: 6000}.withDefaults()
	src, err := o.source(b, b.Testing, o.CondBranches)
	if err != nil {
		t.Fatal(err)
	}
	snap := src.(*trace.SnapshotReader).Snapshot()
	build := func(sp spec.Spec) predictor.Predictor {
		td, err := trainingData(sp, b, o)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Build(sp, td)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	optionSets := []struct {
		name string
		opts sim.Options
	}{
		{"plain", sim.Options{}},
		{"cs", sim.Options{ContextSwitches: true, CSInterval: 1009}},
		{"budget", sim.Options{MaxCondBranches: 2000}},
		{"pipelined", sim.Options{PipelineDepth: 4}},
	}
	var (
		batchPreds []predictor.Predictor
		batchOpts  []sim.Options
		batchStats []*telemetry.RunStats
	)
	for _, s := range statsSpecs {
		sp := spec.MustParse(s)
		for _, os := range optionSets {
			rs := telemetry.NewRunStats()
			opts := os.opts
			opts.DisableFastpath = true
			opts.Observer = rs
			p := build(sp)
			res, err := sim.Run(p, snap.Reader(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultCounts(res, p), observedCounts(rs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: derived counts differ from RunStats:\n got %+v\nwant %+v", s, os.name, got, want)
			}
			if s == statsSpecs[3] {
				bs := telemetry.NewRunStats()
				bo := os.opts
				bo.Observer = bs
				batchPreds = append(batchPreds, build(sp))
				batchOpts = append(batchOpts, bo)
				batchStats = append(batchStats, bs)
			}
		}
	}
	results, err := sim.RunMany(batchPreds, snap.Reader(), batchOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got, want := resultCounts(res, batchPreds[i]), observedCounts(batchStats[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("batch cell %s: derived counts differ from RunStats:\n got %+v\nwant %+v", optionSets[i].name, got, want)
		}
	}
}
