package experiments

// Chaos suite: drives the grid scheduler through injected faults —
// torn sources, panicking predictors and sources, flaky openers,
// truncated streams, mid-run cancellation — and asserts the pipeline's
// fault contract: failures are attributed to exact cells, siblings
// survive, a failed cell is run alone once and never retried beyond
// that (a one-cell batch not even once), cancellation is prompt and
// resumable, and a resumed suite is bit-identical to a cold one.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"twolevel/internal/faultinject"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// chaosSource is an endless deterministic synthetic branch stream; the
// seed makes streams differ per benchmark so cross-cell mixups would be
// caught by the accuracy numbers.
type chaosSource struct{ state uint64 }

func newChaosSource(seed uint64) *chaosSource {
	return &chaosSource{state: seed*0x9e3779b97f4a7c15 + 1}
}

func (s *chaosSource) Next() (trace.Event, error) {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	x := s.state >> 33
	e := trace.Event{Instrs: uint32(x%7) + 1}
	if x%97 == 0 {
		e.Trap = true
		return e, nil
	}
	pc := uint32(x%64) * 4
	e.Branch = trace.Branch{PC: pc, Target: pc + 16, Class: trace.Cond, Taken: x%3 == 0}
	return e, nil
}

// chaosBenchmarks builds synthetic benchmark descriptors; the grid only
// touches exported fields when the source seam is installed.
func chaosBenchmarks(names ...string) []*prog.Benchmark {
	out := make([]*prog.Benchmark, len(names))
	for i, n := range names {
		out[i] = &prog.Benchmark{
			Name:     n,
			Training: prog.DataSet{Name: "train"},
			Testing:  prog.DataSet{Name: "test"},
		}
	}
	return out
}

// chaosOpen returns a seam serving deterministic per-benchmark streams.
func chaosOpen(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
	seed := uint64(len(ds.Name))
	for _, c := range b.Name + "/" + ds.Name {
		seed = seed*131 + uint64(c)
	}
	return newChaosSource(seed), nil
}

var chaosRows = mustSpecs(
	"GAg(HR(1,,6-sr),1xPHT(2^6,A2))",
	"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
)

// panicPredictor panics on its after-th prediction — a buggy predictor.
type panicPredictor struct {
	predictor.Predictor
	after, n int
	msg      string
}

func (p *panicPredictor) Predict(b trace.Branch) bool {
	if p.n++; p.n >= p.after {
		panic(p.msg)
	}
	return p.Predictor.Predict(b)
}

// hookPredictor calls fn with the number of branches resolved so far
// after each update.
type hookPredictor struct {
	predictor.Predictor
	n  uint64
	fn func(resolved uint64)
}

func (p *hookPredictor) Update(b trace.Branch, predicted bool) {
	p.Predictor.Update(b, predicted)
	p.n++
	p.fn(p.n)
}

// wrapBuild returns a buildPredictor seam passing every predictor
// spec.Build makes through wrap.
func wrapBuild(wrap func(sp spec.Spec, p predictor.Predictor) predictor.Predictor) func(spec.Spec, *spec.TrainingData) (predictor.Predictor, error) {
	return func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		return wrap(sp, p), nil
	}
}

func chaosOptions(benchmarks []*prog.Benchmark) Options {
	return Options{
		CondBranches: 2000,
		Benchmarks:   benchmarks,
		Workers:      2,
		openSource:   chaosOpen,
	}.withDefaults()
}

// chaosGrid runs the grid over the seam with a clean capture cache,
// restoring whatever the previous test left behind.
func chaosGrid(t *testing.T, rows []labeledSpec, o Options) ([][]sim.Result, error) {
	t.Helper()
	ResetCaches()
	t.Cleanup(ResetCaches)
	return runGrid(rows, o)
}

func TestChaosFaultIsAttributedToCell(t *testing.T) {
	benchmarks := chaosBenchmarks("alpha", "beta")
	boom := errors.New("torn stream")
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, err := chaosOpen(b, ds)
		if b.Name == "beta" {
			return &faultinject.ErrorAfter{Src: src, N: 500, Err: boom}, err
		}
		return src, err
	}
	grid, err := chaosGrid(t, chaosRows, o)
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *GridError", err)
	}
	if len(ge.Cells) != len(chaosRows) {
		t.Fatalf("%d failed cells, want %d (all beta rows)", len(ge.Cells), len(chaosRows))
	}
	for _, ce := range ge.Cells {
		if ce.Benchmark != "beta" {
			t.Fatalf("failure attributed to %s/%s, want benchmark beta", ce.Spec, ce.Benchmark)
		}
		if !errors.Is(ce, boom) {
			t.Fatalf("cell error %v does not unwrap to the injected fault", ce)
		}
	}
	// The healthy benchmark's cells survived the sibling failure.
	for ri := range chaosRows {
		if grid[ri][0].Accuracy.Predictions == 0 {
			t.Fatalf("alpha row %d has no result; sibling fault leaked", ri)
		}
	}
}

// TestChaosNoRetryBudgetFails: a source that will not open fails the
// shared pass, then each cell once on its own — one open for the pass
// and one per cell, with nothing retried after that.
func TestChaosNoRetryBudgetFails(t *testing.T) {
	benchmarks := chaosBenchmarks("delta")
	unavailable := errors.New("generator busy")
	o := chaosOptions(benchmarks)
	o.Workers = 1 // one task, so both rows share one pass
	o.Monitor = NewMonitor()
	var opens atomic.Int32
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		opens.Add(1)
		return nil, unavailable
	}
	_, err := chaosGrid(t, chaosRows, o)
	var ge *GridError
	if !errors.As(err, &ge) || !errors.Is(err, unavailable) {
		t.Fatalf("err = %v, want a *GridError carrying the open failure", err)
	}
	if len(ge.Cells) != len(chaosRows) {
		t.Fatalf("%d failed cells, want %d", len(ge.Cells), len(chaosRows))
	}
	for _, ce := range ge.Cells {
		if ce.Attempts != 2 {
			t.Errorf("%s/%s: attempts = %d, want 2 (the shared pass, then alone)", ce.Spec, ce.Benchmark, ce.Attempts)
		}
	}
	if got, want := int(opens.Load()), 1+len(chaosRows); got != want {
		t.Errorf("source opened %d times, want %d (one shared pass, one run per cell)", got, want)
	}
	n := uint64(len(chaosRows))
	if s := o.Monitor.Snapshot(); s.BatchFallbacks != 1 || s.CellsRetried != n || s.CellsFailed != n {
		t.Errorf("monitor: fallbacks=%d retried=%d failed=%d, want 1/%d/%d",
			s.BatchFallbacks, s.CellsRetried, s.CellsFailed, n, n)
	}
}

// TestChaosOneCellBatchNotIsolated: a one-cell batch whose shared pass
// fails has already run that cell alone, so the failure is its only
// attempt — one open, no fallback, nothing retried.
// internal/server's TestChaosOneCellBatchNotIsolated checks the same
// figures under brserve.
func TestChaosOneCellBatchNotIsolated(t *testing.T) {
	benchmarks := chaosBenchmarks("delta")
	unavailable := errors.New("generator busy")
	o := chaosOptions(benchmarks)
	o.Workers = 1
	o.Monitor = NewMonitor()
	var opens atomic.Int32
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		opens.Add(1)
		return nil, unavailable
	}
	_, err := chaosGrid(t, chaosRows[:1], o)
	var ge *GridError
	if !errors.As(err, &ge) || !errors.Is(err, unavailable) || len(ge.Cells) != 1 {
		t.Fatalf("err = %v, want a *GridError carrying the one cell's open failure", err)
	}
	if c := ge.Cells[0]; c.Attempts != 1 {
		t.Errorf("%s/%s: attempts = %d, want 1 (the shared pass was the cell alone)", c.Spec, c.Benchmark, c.Attempts)
	}
	if got := opens.Load(); got != 1 {
		t.Errorf("source opened %d times, want 1", got)
	}
	if s := o.Monitor.Snapshot(); s.BatchFallbacks != 0 || s.CellsRetried != 0 || s.CellsFailed != 1 {
		t.Errorf("monitor: fallbacks=%d retried=%d failed=%d, want 0/0/1",
			s.BatchFallbacks, s.CellsRetried, s.CellsFailed)
	}
}

// TestChaosBatchFallbackParity poisons the middle cell of a 3-cell batch
// and checks what the shared ladder (RunBatch) reports for it under the
// experiment grid; internal/server's TestChaosPanickingCellIsolated
// checks the same figures for the same batch shape served by brserve.
func TestChaosBatchFallbackParity(t *testing.T) {
	benchmarks := chaosBenchmarks("sigma")
	rows := mustSpecs(
		"GAg(HR(1,,6-sr),1xPHT(2^6,A2))",
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))", // the poisoned cell
		"PAg(BHT(64,4,6-sr),1xPHT(2^6,A2))",
	)
	poisoned := rows[1].label
	o := chaosOptions(benchmarks)
	o.Workers = 1 // one task, so the three rows share one pass
	o.KeepGoing = true
	o.Monitor = NewMonitor()
	o.buildPredictor = wrapBuild(func(sp spec.Spec, p predictor.Predictor) predictor.Predictor {
		if sp.String() == poisoned {
			return &panicPredictor{Predictor: p, after: 100, msg: "predictor bug"}
		}
		return p
	})
	grid, err := chaosGrid(t, rows, o)
	var ge *GridError
	if !errors.As(err, &ge) || len(ge.Cells) != 1 {
		t.Fatalf("err = %v, want exactly the poisoned cell failed", err)
	}
	if c := ge.Cells[0]; c.Spec != poisoned || c.Attempts != 2 {
		t.Errorf("failed cell %s with %d attempts, want %s with 2", c.Spec, c.Attempts, poisoned)
	}
	if s := o.Monitor.Snapshot(); s.BatchFallbacks != 1 || s.CellsRetried != 3 || s.CellsFailed != 1 {
		t.Errorf("monitor: fallbacks=%d retried=%d failed=%d, want 1/3/1", s.BatchFallbacks, s.CellsRetried, s.CellsFailed)
	}
	b := benchmarks[0]
	for ri, row := range rows {
		if row.label == poisoned {
			continue
		}
		p, err := spec.Build(row.sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := chaosOpen(b, b.Testing)
		want, err := sim.Run(p, src, sim.Options{MaxCondBranches: o.CondBranches})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grid[ri][0], want) {
			t.Errorf("%s: grid cell differs from a direct sim.Run:\n got %+v\nwant %+v", row.label, grid[ri][0], want)
		}
	}
}

func TestChaosPredictorPanicIsolated(t *testing.T) {
	benchmarks := chaosBenchmarks("epsilon", "zeta")
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	poisoned := chaosRows[1].label
	o.buildPredictor = wrapBuild(func(sp spec.Spec, p predictor.Predictor) predictor.Predictor {
		if sp.String() == poisoned {
			return &panicPredictor{Predictor: p, after: 100, msg: "predictor bug"}
		}
		return p
	})
	grid, err := chaosGrid(t, chaosRows, o)
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *GridError", err)
	}
	if len(ge.Cells) != len(benchmarks) {
		t.Fatalf("failed cells = %v, want exactly the %s cells", ge, poisoned)
	}
	for _, c := range ge.Cells {
		if c.Spec != poisoned {
			t.Fatalf("failed cell %s/%s is not a poisoned one", c.Spec, c.Benchmark)
		}
		var pe *PanicError
		if !errors.As(c.Err, &pe) || pe.Value != "predictor bug" {
			t.Fatalf("cell error %v is not the recovered panic", c.Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("recovered panic carries no stack")
		}
	}
	// Every other cell of the grid still produced a result — including
	// the poisoned cells' replay-pass siblings.
	for ri := range chaosRows {
		for bi := range benchmarks {
			if chaosRows[ri].label == poisoned {
				continue
			}
			if grid[ri][bi].Accuracy.Predictions == 0 {
				t.Fatalf("cell %s/%s lost to an unrelated predictor panic", chaosRows[ri].label, benchmarks[bi].Name)
			}
		}
	}
}

func TestChaosPanickingSourceIsolated(t *testing.T) {
	benchmarks := chaosBenchmarks("eta")
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, _ := chaosOpen(b, ds)
		return &faultinject.PanicSource{Src: src, N: 300, Msg: "generator crash"}, nil
	}
	_, err := chaosGrid(t, chaosRows, o)
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *GridError (panic must not escape the pool)", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "generator crash" {
		t.Fatalf("grid error does not carry the recovered source panic: %v", err)
	}
}

func TestChaosCancellationMidRun(t *testing.T) {
	benchmarks := chaosBenchmarks("theta", "iota")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := chaosOptions(benchmarks)
	o.Workers = 1
	o.Context = ctx
	o.buildPredictor = wrapBuild(func(_ spec.Spec, p predictor.Predictor) predictor.Predictor {
		return &hookPredictor{Predictor: p, fn: func(resolved uint64) {
			if resolved == 500 {
				cancel()
			}
		}}
	})
	_, err := chaosGrid(t, chaosRows, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through the grid error", err)
	}
	var ge *GridError
	if !errors.As(err, &ge) || len(ge.Cells) == 0 {
		t.Fatalf("cancellation did not attribute interrupted cells: %v", err)
	}
}

func TestChaosTruncatedSourceDegradesGracefully(t *testing.T) {
	benchmarks := chaosBenchmarks("kappa")
	o := chaosOptions(benchmarks)
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, _ := chaosOpen(b, ds)
		return &faultinject.Truncate{Src: src, N: 700}, nil
	}
	grid, err := chaosGrid(t, chaosRows, o)
	if err != nil {
		t.Fatalf("an early-ending source is not an error: %v", err)
	}
	for ri := range chaosRows {
		got := grid[ri][0].Accuracy.Predictions
		if got == 0 || got >= o.CondBranches {
			t.Fatalf("row %d resolved %d branches; want partial (0 < n < %d)", ri, got, o.CondBranches)
		}
	}
}

func TestChaosKeepGoingPartialReport(t *testing.T) {
	benchmarks := chaosBenchmarks("lambda", "mu")
	boom := errors.New("broken")
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		if b.Name == "mu" {
			return nil, boom
		}
		return chaosOpen(b, ds)
	}
	ResetCaches()
	t.Cleanup(ResetCaches)
	rep, err := accuracyReport("chaos", "partial", chaosRows, o)
	if err == nil || rep == nil {
		t.Fatalf("want partial report AND error, got rep=%v err=%v", rep, err)
	}
	for _, s := range rep.Series {
		if !math.IsNaN(rep.Value(s.Label, "mu")) {
			t.Fatalf("failed cell %s/mu not marked NaN", s.Label)
		}
		if v := rep.Value(s.Label, "lambda"); math.IsNaN(v) || v <= 0 {
			t.Fatalf("healthy cell %s/lambda = %v", s.Label, v)
		}
	}
	// Without KeepGoing the same failure aborts the report.
	o.KeepGoing = false
	ResetCaches()
	rep, err = accuracyReport("chaos", "partial", chaosRows, o)
	if err == nil || rep != nil {
		t.Fatalf("without KeepGoing want nil report + error, got rep=%v err=%v", rep, err)
	}
}

// The registered experiments wrap accuracyReport and append notes; they
// must pass the partial KeepGoing report through rather than dropping it
// on the accompanying *GridError (the bug would make `brexp -keep-going`
// print nothing at all).
func TestChaosKeepGoingSurvivesFigureWrappers(t *testing.T) {
	benchmarks := chaosBenchmarks("omega", "psi")
	boom := errors.New("broken")
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		if b.Name == "psi" {
			return nil, boom
		}
		return chaosOpen(b, ds)
	}
	ResetCaches()
	t.Cleanup(ResetCaches)
	rep, err := Run("fig6", o)
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *GridError", err)
	}
	if rep == nil {
		t.Fatal("figure wrapper dropped the partial KeepGoing report")
	}
	if len(rep.Notes) == 0 {
		t.Fatal("partial report lost the figure's notes")
	}
	for _, s := range rep.Series {
		if !math.IsNaN(rep.Value(s.Label, "psi")) {
			t.Fatalf("failed cell %s/psi not marked NaN", s.Label)
		}
		if v := rep.Value(s.Label, "omega"); math.IsNaN(v) || v <= 0 {
			t.Fatalf("healthy cell %s/omega = %v", s.Label, v)
		}
	}
}

func TestChaosResumeIsBitIdentical(t *testing.T) {
	benchmarks := chaosBenchmarks("nu", "xi")
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	boom := errors.New("flaky bench")

	// Cold reference run: no checkpoint, no faults.
	cold, err := chaosGrid(t, chaosRows, chaosOptions(benchmarks))
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: benchmark xi is broken; nu's cells complete and are
	// checkpointed.
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	o := chaosOptions(benchmarks)
	o.KeepGoing = true
	o.Checkpoint = ck
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		if b.Name == "xi" {
			return nil, boom
		}
		return chaosOpen(b, ds)
	}
	if _, err := chaosGrid(t, chaosRows, o); !errors.Is(err, boom) {
		t.Fatalf("first attempt should fail on xi: %v", err)
	}
	if ck.Len() != len(chaosRows) {
		t.Fatalf("checkpoint holds %d cells after partial run, want %d (all nu rows)", ck.Len(), len(chaosRows))
	}

	// Resume from a fresh process image: reopen the manifest. The nu
	// cells must restore without touching their generator (a nu open now
	// fails the test), and the completed grid must equal the cold run
	// bit for bit.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != len(chaosRows) {
		t.Fatalf("reloaded manifest has %d cells, want %d", ck2.Len(), len(chaosRows))
	}
	o2 := chaosOptions(benchmarks)
	o2.Checkpoint = ck2
	o2.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		if b.Name == "nu" {
			t.Errorf("resume re-opened the source for checkpointed benchmark nu")
		}
		return chaosOpen(b, ds)
	}
	resumed, err := chaosGrid(t, chaosRows, o2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(resumed, cold) {
		t.Fatal("resumed grid differs from the cold run")
	}
}

func TestChaosChecksumMismatchDetected(t *testing.T) {
	benchmarks := chaosBenchmarks("omicron")
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Complete one of the two rows only, so the resume still has work to
	// do on this benchmark and must re-verify its capture.
	o := chaosOptions(benchmarks)
	o.Checkpoint = ck
	o.KeepGoing = true
	poisoned := chaosRows[1].label
	o.buildPredictor = wrapBuild(func(sp spec.Spec, p predictor.Predictor) predictor.Predictor {
		if sp.String() == poisoned {
			return &panicPredictor{Predictor: p, after: 50, msg: "first run bug"}
		}
		return p
	})
	if _, err := chaosGrid(t, chaosRows, o); err == nil {
		t.Fatal("poisoned first run unexpectedly succeeded")
	}
	if ck.Len() != 1 {
		t.Fatalf("checkpoint holds %d cells, want 1", ck.Len())
	}

	// Resume against a DIFFERENT trace stream: the manifest's capture
	// checksum no longer matches, and the run must refuse.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	o2 := chaosOptions(benchmarks)
	o2.Checkpoint = ck2
	o2.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		return newChaosSource(0xdead), nil // not the stream the manifest saw
	}
	_, err = chaosGrid(t, chaosRows, o2)
	if !errors.Is(err, ErrCaptureMismatch) {
		t.Fatalf("err = %v, want ErrCaptureMismatch", err)
	}
}

// ext-interleave's multiplexed run reads live sources rather than the
// capture cache; they must still open through the fault-injection seam,
// so a broken gcc stream fails the experiment with an attributed error.
func TestChaosInterleaveLiveSourceFault(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	boom := errors.New("torn live stream")
	var gccOpens atomic.Int32
	o := Options{CondBranches: 2000, Workers: 1}
	o.openSource = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, err := newSource(b, ds)
		// With one worker the gcc rows run first and capture gcc once;
		// the multiplexed run's live source is the second open.
		if b.Name == "gcc" && gccOpens.Add(1) > 1 {
			return &faultinject.ErrorAfter{Src: src, N: 500, Err: boom}, err
		}
		return src, err
	}
	rep, err := Run("ext-interleave", o)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if !strings.Contains(err.Error(), "gcc+espresso interleaved") {
		t.Fatalf("error %q not attributed to the multiplexed run", err)
	}
	if rep != nil {
		t.Fatal("failed run returned a report")
	}
}
