// Grid scheduler: experiments measure a rows×benchmarks grid of
// simulation runs. runGrid executes the grid over the bounded worker pool
// (dispatch), batching same-benchmark rows into single-pass
// multi-predictor replays (sim.RunMany) over the shared capture so the
// CPU interpreter's event stream is decoded once per pass instead of once
// per cell. The experiments whose per-benchmark work is not a grid
// (table1, fig4, ext-residual, ext-interleave) run on the same pool, one
// unit per benchmark.
//
// The scheduler is the pipeline's fault boundary. Every failure leaving
// it is a *CellError naming the exact (spec, benchmark) cell: panics in
// predictors, trainers or sources are recovered into attributed errors
// instead of crashing the process; a failed batch falls back to running
// its rows individually so one poisoned cell cannot take down its
// replay-pass siblings; transient failures retry with exponential
// backoff; and a cancelled Context stops dispatch, marking undone cells.
// With a Checkpoint attached, completed cells are recorded (and restored
// on resume) so interrupted suites pick up where they stopped.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/logx"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
)

// gridTask is one unit of pool work: a set of rows measured on one
// benchmark in a single replay pass.
type gridTask struct {
	bi   int   // benchmark index
	rows []int // row indices into the experiment's row list
}

// runGrid measures every (row, benchmark) cell and returns
// grid[row][benchmark]. Rows sharing a benchmark are split into at most
// ceil(workers/len(benchmarks)) chunks — enough tasks to occupy the pool
// without fragmenting the replay batches. Cells already present in
// o.Checkpoint are restored without running; on failure the partial grid
// comes back alongside a *GridError listing every broken cell.
func runGrid(rows []labeledSpec, o Options) ([][]sim.Result, error) {
	grid := make([][]sim.Result, len(rows))
	for i := range grid {
		grid[i] = make([]sim.Result, len(o.Benchmarks))
	}
	if len(rows) == 0 || len(o.Benchmarks) == 0 {
		return grid, nil
	}
	log := logx.Or(o.Logger)
	o.Monitor.addPlanned(len(rows) * len(o.Benchmarks))
	// Restore checkpointed cells; only the remainder is scheduled.
	pending := make([][]int, len(o.Benchmarks))
	for bi, b := range o.Benchmarks {
		for ri, row := range rows {
			if o.Checkpoint != nil {
				if res, ok := o.Checkpoint.lookup(cellKey(row.sp, b, o)); ok {
					grid[ri][bi] = res
					o.Monitor.cellRestored()
					log.Debug("cell restored from checkpoint", "spec", row.label, "bench", b.Name)
					continue
				}
			}
			pending[bi] = append(pending[bi], ri)
		}
	}
	workers := o.workers()
	chunks := (workers + len(o.Benchmarks) - 1) / len(o.Benchmarks)
	chunks = max(1, min(chunks, len(rows)))
	size := (len(rows) + chunks - 1) / chunks
	var tasks []gridTask
	for bi, rowIdx := range pending {
		for lo := 0; lo < len(rowIdx); lo += size {
			tasks = append(tasks, gridTask{bi: bi, rows: rowIdx[lo:min(lo+size, len(rowIdx))]})
		}
	}
	cellErrs := make([][]*CellError, len(tasks))
	var (
		flushMu  sync.Mutex
		flushErr error
	)
	units := make([]unit, len(tasks))
	for ti, t := range tasks {
		b := o.Benchmarks[t.bi]
		units[ti] = unit{
			state: fmt.Sprintf("%s (%d rows)", b.Name, len(t.rows)),
			attrs: []span.Attr{span.Str("bench", b.Name), span.Int("rows", len(t.rows))},
			run: func(uo Options) error {
				cellErrs[ti] = runTask(t, rows, grid, uo)
				var err error
				if len(cellErrs[ti]) > 0 {
					o.Monitor.cellsFailedAdd(len(cellErrs[ti]))
					err = &GridError{Cells: cellErrs[ti]}
				}
				if o.Checkpoint != nil {
					if ferr := o.Checkpoint.Flush(); ferr != nil {
						flushMu.Lock()
						if flushErr == nil {
							flushErr = ferr
						}
						flushMu.Unlock()
						log.Error("checkpoint flush failed", "err", ferr)
						err = errors.Join(err, ferr)
					} else {
						o.Monitor.checkpointFlush()
						log.Debug("checkpoint flushed", "bench", b.Name)
					}
				}
				return err
			},
		}
	}
	errs, started := dispatch(units, o)
	// Cells whose tasks never started because of cancellation are
	// failures too — attributed, so resume knows what is missing — and
	// so are the cells of a task whose panic escaped runTask's fences.
	undispatched := 0
	for ti, t := range tasks {
		if cellErrs[ti] != nil {
			continue
		}
		var pe *PanicError
		switch {
		case ti >= started && o.Context != nil && o.Context.Err() != nil:
			cellErrs[ti] = taskErrors(t, rows, o.Benchmarks[t.bi], o.Context.Err())
			undispatched++
		case errors.As(errs[ti], &pe):
			cellErrs[ti] = taskErrors(t, rows, o.Benchmarks[t.bi], errs[ti])
		default:
			continue
		}
		o.Monitor.cellsFailedAdd(len(cellErrs[ti]))
	}
	if undispatched > 0 {
		log.Warn("grid cancelled before dispatch completed",
			"undispatched_tasks", undispatched, "err", o.Context.Err())
	}
	var cells []*CellError
	for _, errs := range cellErrs {
		cells = append(cells, errs...)
	}
	var err error
	if len(cells) > 0 {
		err = &GridError{Cells: cells}
	}
	if flushErr != nil {
		err = errors.Join(err, flushErr)
	}
	return grid, err
}

// unit is one piece of pool work for dispatch: a grid task, or one
// benchmark's row of a per-benchmark experiment.
type unit struct {
	// state is the worker's live state (Monitor, /progress) while the
	// unit runs.
	state string
	// attrs annotate the unit's task span; dispatch appends the worker.
	attrs []span.Attr
	// run does the work. Its Options carry the task span; a non-nil
	// error fails the unit.
	run func(o Options) error
}

// dispatch runs units over the bounded worker pool: the one pool every
// experiment's per-benchmark work goes through. It owns the worker
// goroutines, each worker's Monitor state, the units' task spans on
// per-worker trace lanes, and when to stop: once o.Context is cancelled,
// or once a unit has failed and o.KeepGoing is off (fail fast), no
// further unit starts, while units already running finish. Units start
// in index order; with one worker they run inline on the calling
// goroutine, one after another. A panicking unit fails with a
// *PanicError.
//
// errs[i] is unit i's error; units[started:] never started.
func dispatch(units []unit, o Options) (errs []error, started int) {
	errs = make([]error, len(units))
	if len(units) == 0 {
		return errs, 0
	}
	var failed atomic.Bool
	exec := func(i, w int, state *atomic.Pointer[string]) {
		setWorkerState(state, units[i].state)
		if errs[i] = runUnit(units[i], w, o); errs[i] != nil {
			failed.Store(true)
		}
		setWorkerState(state, idleState)
	}
	stop := func() bool {
		if o.Context != nil && o.Context.Err() != nil {
			return true
		}
		return failed.Load() && !o.KeepGoing
	}
	workers := min(o.workers(), len(units))
	if workers == 1 {
		state := o.Monitor.workerHandle(0)
		for ; started < len(units) && !stop(); started++ {
			exec(started, 0, state)
		}
		setWorkerState(state, "done")
		return errs, started
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := o.Monitor.workerHandle(w)
			defer setWorkerState(state, "done")
			for i := range work {
				exec(i, w, state)
			}
		}(w)
	}
	for ; started < len(units) && !stop(); started++ {
		work <- started
	}
	close(work)
	wg.Wait()
	return errs, started
}

// runUnit runs one unit of worker w under its task span, behind a panic
// fence.
func runUnit(u unit, w int, o Options) (err error) {
	if parent := o.Span; parent != nil {
		attrs := append(u.attrs[:len(u.attrs):len(u.attrs)], span.Int("worker", w))
		tsp := parent.Child("task", attrs...)
		tsp.SetTID(w + 1)
		o.Span = tsp
		defer tsp.End()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return u.run(o)
}

// runUnits dispatches units and folds the outcome into one error: the
// first failure in unit order, or the Context's error when cancellation
// kept units from starting.
func runUnits(units []unit, o Options) error {
	errs, started := dispatch(units, o)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if started < len(units) && o.Context != nil {
		return o.Context.Err()
	}
	return nil
}

// perBenchmark computes one report row per benchmark, each row its own
// dispatch unit, and returns the rows in benchmark order, so the report
// is byte-identical at any worker count.
func perBenchmark(o Options, row func(b *prog.Benchmark, o Options) (Series, error)) ([]Series, error) {
	out := make([]Series, len(o.Benchmarks))
	units := make([]unit, len(o.Benchmarks))
	for i, b := range o.Benchmarks {
		units[i] = unit{
			state: b.Name,
			attrs: []span.Attr{span.Str("bench", b.Name)},
			run: func(uo Options) (err error) {
				out[i], err = row(b, uo)
				return err
			},
		}
	}
	if err := runUnits(units, o); err != nil {
		return nil, err
	}
	return out, nil
}

// runTask measures one task's rows on its benchmark: batched replay
// first, with a per-cell isolation fallback when the batch fails.
func runTask(t gridTask, rows []labeledSpec, grid [][]sim.Result, o Options) []*CellError {
	log := logx.Or(o.Logger)
	b := o.Benchmarks[t.bi]
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return taskErrors(t, rows, b, err)
		}
	}
	batch := make([]labeledSpec, len(t.rows))
	for i, ri := range t.rows {
		batch[i] = rows[ri]
	}
	start := time.Now() //lint:allow determinism wall-clock cell timing for logs only; never reaches report bytes
	res, err := runBatchGuarded(batch, b, o)
	if err == nil {
		dur := time.Since(start) //lint:allow determinism wall-clock cell timing for logs only; never reaches report bytes
		// Batched cells share one replay pass, so each is charged an
		// equal share of the pass for latency percentiles and ETA.
		o.Monitor.observeCells(dur/time.Duration(len(batch)), len(batch))
		for i, ri := range t.rows {
			grid[ri][t.bi] = res[i]
			recordCell(rows[ri].sp, b, res[i], o)
			logCellDone(log, rows[ri].label, b, res[i], dur, 1, len(batch))
		}
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return taskErrors(t, rows, b, err)
	}
	// Isolation fallback: the batch shares one replay pass, so a single
	// poisoned cell (panicking predictor, broken config) fails
	// every sibling in the pass. Re-run each row on its own — with the
	// retry budget for transient errors — so the failure attributes to
	// exactly the broken cell and healthy siblings still yield results.
	log.Warn("batch failed; isolating cells", "bench", b.Name, "rows", len(t.rows), "err", err)
	o.Monitor.batchFallback()
	var errs []*CellError
	for _, ri := range t.rows {
		start := time.Now() //lint:allow determinism wall-clock cell timing for logs only; never reaches report bytes
		co := o
		var csp *span.Span
		if o.Span != nil {
			csp = o.Span.Child("cell",
				span.Str("spec", rows[ri].label), span.Str("bench", b.Name))
			co.Span = csp
		}
		res, attempts, cerr := runCellAttempts(rows[ri], b, co)
		if csp != nil {
			csp.SetAttr(span.Int("attempts", attempts))
			if cerr != nil {
				csp.SetAttr(span.Str("error", cerr.Error()))
			}
			csp.End()
		}
		if cerr != nil {
			errs = append(errs, &CellError{Spec: rows[ri].label, Benchmark: b.Name, Attempts: attempts, Err: cerr})
			log.Error("cell failed", "spec", rows[ri].label, "bench", b.Name,
				"attempt", attempts, "err", cerr)
			continue
		}
		dur := time.Since(start) //lint:allow determinism wall-clock cell timing for logs only; never reaches report bytes
		o.Monitor.observeCells(dur, 1)
		grid[ri][t.bi] = res
		recordCell(rows[ri].sp, b, res, o)
		logCellDone(log, rows[ri].label, b, res, dur, attempts, 1)
	}
	return errs
}

// logCellDone emits the per-cell completion event with the attrs the
// structured log contract promises: spec, bench, attempt, duration and
// events/sec. Batched cells share their pass's duration, so their
// events/sec figure measures the pass, not the cell alone.
func logCellDone(log *slog.Logger, label string, b *prog.Benchmark, res sim.Result, dur time.Duration, attempt, batch int) {
	events := resultEvents(res)
	eps := 0.0
	if s := dur.Seconds(); s > 0 {
		eps = float64(events) / s
	}
	log.Debug("cell done", "spec", label, "bench", b.Name, "attempt", attempt,
		"batch", batch, "duration", dur, "events", events, "events_per_sec", eps,
		"accuracy", res.Accuracy.Rate())
}

// taskErrors marks every cell of a task failed with err: the
// cancellation cause, or a panic that escaped the task.
func taskErrors(t gridTask, rows []labeledSpec, b *prog.Benchmark, err error) []*CellError {
	out := make([]*CellError, 0, len(t.rows))
	for _, ri := range t.rows {
		out = append(out, &CellError{Spec: rows[ri].label, Benchmark: b.Name, Attempts: 1, Err: err})
	}
	return out
}

// recordCell stores a completed cell in the checkpoint, if one is
// attached, and lands its event count in the monitor.
func recordCell(sp spec.Spec, b *prog.Benchmark, res sim.Result, o Options) {
	o.Monitor.cellDone(resultEvents(res))
	if o.Checkpoint != nil {
		o.Checkpoint.record(cellKey(sp, b, o), res)
	}
}

// runCellAttempts runs one cell with the configured retry budget:
// transient failures back off and retry, while cancellation, panics and
// checksum mismatches fail immediately. It reports how many attempts
// were spent for error attribution.
func runCellAttempts(row labeledSpec, b *prog.Benchmark, o Options) (sim.Result, int, error) {
	log := logx.Or(o.Logger)
	attempts := 0
	for {
		attempts++
		res, err := runCellGuarded(row, b, o)
		if err == nil {
			return res, attempts, nil
		}
		if attempts > o.Retries || !retryable(err) {
			return res, attempts, err
		}
		o.Monitor.cellRetried()
		log.Warn("retrying cell", "spec", row.label, "bench", b.Name,
			"attempt", attempts, "retries", o.Retries, "err", err)
		if werr := o.backoffWait(attempts); werr != nil {
			return res, attempts, werr
		}
	}
}

// backoffWait sleeps before retry attempt n (1-based), doubling the
// configured backoff per prior attempt. The sleep honours Context: a
// cancellation during backoff returns immediately with ctx.Err().
func (o Options) backoffWait(attempt int) error {
	d := o.RetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	if d <= 0 {
		if o.Context != nil {
			return o.Context.Err()
		}
		return nil
	}
	if o.Context == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-o.Context.Done():
		return o.Context.Err()
	case <-t.C:
		return nil
	}
}

// runCellGuarded measures one cell, converting panics from anywhere in
// the run (predictor, source, trainer) into a *PanicError.
func runCellGuarded(row labeledSpec, b *prog.Benchmark, o Options) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return runSpec(row.sp, b, o)
}

// runBatchGuarded is runBatch behind a panic fence; a recovered panic
// triggers the caller's per-cell isolation fallback.
func runBatchGuarded(rows []labeledSpec, b *prog.Benchmark, o Options) (res []sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return runBatch(rows, b, o)
}

// runBatch measures a batch of specs on one benchmark. With the trace
// cache enabled all specs replay a single pass of the shared capture;
// with it disabled each spec runs serially over its own live interpreter,
// exactly as the pre-cache harness did. Both paths produce bit-identical
// results (see TestGridMatchesSerial).
func runBatch(rows []labeledSpec, b *prog.Benchmark, o Options) ([]sim.Result, error) {
	if o.DisableTraceCache {
		out := make([]sim.Result, len(rows))
		errs := make([]error, len(rows))
		for i, row := range rows {
			out[i], errs[i] = RunSpec(row.sp, b, o)
		}
		return out, joinRunErrors(errs)
	}
	preds := make([]predictor.Predictor, len(rows))
	simOpts := make([]sim.Options, len(rows))
	records := make([]recordFunc, len(rows))
	for i, row := range rows {
		td, err := trainingData(row.sp, b, o)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: training: %w", row.sp, b.Name, err)
		}
		p, err := o.build(row.sp, td)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", row.sp, b.Name, err)
		}
		preds[i] = p
		simOpts[i] = sim.Options{
			ContextSwitches: row.sp.ContextSwitch,
			MaxCondBranches: o.CondBranches,
			Context:         o.Context,
			Span:            o.Span,
		}
	}
	src, err := o.source(b, b.Testing, o.CondBranches)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	// Instrument after every predictor is built and the source is open,
	// so each cell's Stats span the shared pass, not its neighbours'
	// training.
	if o.Telemetry != nil {
		for i := range rows {
			simOpts[i].Telemetry, records[i] = o.Telemetry.instrument(preds[i], o.CondBranches)
		}
	}
	results, err := sim.RunMany(preds, src, simOpts)
	if err != nil {
		return results, fmt.Errorf("%s: %w", b.Name, err)
	}
	var fsp *span.Span
	if o.Telemetry != nil {
		fsp = o.Span.Child("forensics", span.Int("batch", len(records)))
	}
	for i, rec := range records {
		if rec != nil {
			rec(rows[i].sp, b, results[i], len(rows))
		}
	}
	fsp.End()
	return results, nil
}
