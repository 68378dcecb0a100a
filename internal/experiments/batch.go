// The cell-failure ladder: brexp's experiment grid and brserve's
// request grid both run their cells through RunBatch. A batch of cells
// replays one source in a single sim.RunMany pass; when that pass fails
// for any reason but cancellation, every cell is set up again and run
// alone, so one poisoned cell costs that cell while its healthy siblings
// still land. Replay is deterministic — the same capture, spec and
// budget always give the same result — so a cell that fails alone would
// fail the same way again, and nothing is retried beyond that. For the
// same reason a one-cell batch is not isolated: its shared pass already
// was the cell run alone.
package experiments

import (
	"context"
	"errors"
	"log/slog"
	"runtime/debug"
	"time"

	"twolevel/internal/logx"
	"twolevel/internal/predictor"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/trace"
)

// Batch is one batch of cells for RunBatch: one predictor per entry of
// Specs, all replaying the same source.
type Batch struct {
	// Bench names what the cells replay (a benchmark, or an uploaded
	// trace) and Specs label the cells; both attribute failed cells and
	// the isolated runs' cell spans.
	Bench string
	Specs []string
	// Setup readies cell i for one run attributed under parent: its
	// predictor and simulator options. The shared pass sets up every
	// cell; an isolated run sets its cell up again from scratch.
	Setup func(i int, parent *span.Span) (predictor.Predictor, sim.Options, error)
	// Open returns the source of one pass, once the pass's cells are set
	// up.
	Open func() (trace.Source, error)
	// Done, when non-nil, receives each successful pass as soon as it
	// ends: its attempt (1 for the shared pass, 2 for an isolated run),
	// its cells and their results, and its wall time from the first
	// Setup on.
	Done func(attempt int, cells []int, res []sim.Result, elapsed time.Duration)

	// Context, when non-nil, cancels the batch: once it is done, no pass
	// starts and a failed pass is not isolated.
	Context context.Context
	// Span parents the shared pass and each isolated run's "cell" span.
	Span *span.Span
	// Logger receives the fallback warning and the isolated failures
	// (nil discards them).
	Logger *slog.Logger
	// Monitors each count the fallback and every cell run alone. A
	// one-cell batch is never isolated, so it counts neither.
	Monitors []*Monitor
}

// RunBatch runs b's cells in one shared sim.RunMany pass. If the pass
// fails, the batch is not cancelled and it holds more than one cell,
// each cell is set up again and run alone with sim.Run; every pass runs
// behind a recover fence, so a panic fails its pass with a *PanicError.
// A one-cell batch whose pass fails reports that failure as the cell's
// only attempt: the source is opened once and no fallback or retried
// cell is counted. It returns each cell's result and, for each failed
// cell, a *CellError whose Attempts is 1 when the cell never ran alone
// (the batch was cancelled, or held that one cell) and 2 when it failed
// again alone.
func RunBatch(b Batch) ([]sim.Result, []*CellError) {
	n := len(b.Specs)
	res := make([]sim.Result, n)
	errs := make([]*CellError, n)
	cellError := func(i, attempts int, err error) *CellError {
		return &CellError{Spec: b.Specs[i], Benchmark: b.Bench, Attempts: attempts, Err: err}
	}
	failAll := func(err error) ([]sim.Result, []*CellError) {
		for i := range errs {
			errs[i] = cellError(i, 1, err)
		}
		return res, errs
	}
	if err := b.cancelled(nil); err != nil {
		return failAll(err)
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	start := time.Now() //lint:allow determinism pass wall time for logs and the monitor only; never reaches report bytes
	err := fence(func() error {
		preds := make([]predictor.Predictor, n)
		opts := make([]sim.Options, n)
		for i := range n {
			p, o, err := b.Setup(i, b.Span)
			if err != nil {
				return err
			}
			preds[i], opts[i] = p, o
		}
		src, err := b.Open()
		if err != nil {
			return err
		}
		shared, err := sim.RunMany(preds, src, opts)
		if err == nil {
			copy(res, shared)
		}
		return err
	})
	if err == nil {
		b.done(1, all, res, start)
		return res, errs
	}
	if cerr := b.cancelled(err); cerr != nil {
		return failAll(cerr)
	}
	log := logx.Or(b.Logger)
	if n == 1 {
		log.Error("cell failed", "spec", b.Specs[0], "bench", b.Bench, "attempt", 1, "err", err)
		return failAll(err)
	}

	log.Warn("batch failed; isolating cells", "bench", b.Bench, "cells", n, "err", err)
	for _, m := range b.Monitors {
		m.batchFallback()
	}
	for i := range n {
		for _, m := range b.Monitors {
			m.cellRetried()
		}
		var csp *span.Span
		if b.Span != nil {
			csp = b.Span.Child("cell", span.Str("spec", b.Specs[i]), span.Str("bench", b.Bench),
				span.Int("attempts", 2))
		}
		start := time.Now() //lint:allow determinism pass wall time for logs and the monitor only; never reaches report bytes
		var r sim.Result
		err := fence(func() error {
			p, o, err := b.Setup(i, csp)
			if err != nil {
				return err
			}
			src, err := b.Open()
			if err != nil {
				return err
			}
			r, err = sim.Run(p, src, o)
			return err
		})
		if err != nil {
			csp.SetAttr(span.Str("error", err.Error()))
			csp.End()
			errs[i] = cellError(i, 2, err)
			log.Error("cell failed", "spec", b.Specs[i], "bench", b.Bench, "attempt", 2, "err", err)
			continue
		}
		csp.End()
		res[i] = r
		b.done(2, []int{i}, res[i:i+1], start)
	}
	return res, errs
}

// cancelled returns why the batch stops: the Context's error once it is
// done, else err itself when err is a cancellation. Nil means go on.
func (b *Batch) cancelled(err error) error {
	if b.Context != nil && b.Context.Err() != nil {
		return b.Context.Err()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// done hands one successful pass to Done.
func (b *Batch) done(attempt int, cells []int, res []sim.Result, start time.Time) {
	if b.Done != nil {
		b.Done(attempt, cells, res, time.Since(start)) //lint:allow determinism pass wall time for logs and the monitor only; never reaches report bytes
	}
}

// fence runs f, turning a panic anywhere in it into a *PanicError.
func fence(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return f()
}
