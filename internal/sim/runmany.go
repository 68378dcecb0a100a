// Single-pass multi-predictor replay: RunMany drives N predictors down
// one decode pass of a trace source, the engine behind the experiment
// suite's same-benchmark batching.
package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"twolevel/internal/predictor"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/span"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// RunMany simulates every predictor in preds over a single pass of src,
// with per-predictor options: each event is decoded once and fed to all
// still-active predictors. Results are bit-identical to running each
// (predictor, options) pair serially with Run over its own copy of the
// stream — budgets, context-switch modes, pipeline depths and observers
// may all differ per predictor; a predictor whose budget is reached
// simply stops consuming while the pass continues for the rest.
//
// preds must be distinct predictor instances (they are mutated). opts
// must have one entry per predictor. On a source error the partial
// results collected so far are returned alongside the error.
//
// Cancellation: the pass is shared, so a cancelled Context on any option
// set aborts the whole pass with that context's error and the partial
// results collected so far (batched predictors cannot outlive the decode
// pass they ride).
func RunMany(preds []predictor.Predictor, src trace.Source, opts []Options) ([]Result, error) {
	if len(opts) != len(preds) {
		return nil, fmt.Errorf("sim: RunMany got %d predictors but %d option sets", len(preds), len(opts))
	}
	out := make([]Result, len(preds))

	// Partition the batch: cells the flat kernel serves replay the packed
	// snapshot concurrently (one goroutine per cell, bounded by
	// GOMAXPROCS); the rest ride the interpretive shared pass below. The
	// kernel cells never touch src, so the shared pass starts from the
	// same position they did; afterwards the reader is advanced to the
	// furthest position any cell consumed, as one serial pass would have.
	sr, _ := src.(*trace.SnapshotReader)
	var fastIdx []int
	var kernels []*fastpath.Kernel
	if sr != nil {
		for i, p := range preds {
			if !FastpathEligible(p, src, opts[i]) {
				continue
			}
			if k, ok := fastpath.New(p, fastpathConfig(opts[i])); ok {
				fastIdx = append(fastIdx, i)
				kernels = append(kernels, k)
			}
		}
	}
	var slowIdx []int
	{
		isFast := make([]bool, len(preds))
		for _, i := range fastIdx {
			isFast[i] = true
		}
		for i := range preds {
			if !isFast[i] {
				slowIdx = append(slowIdx, i)
			}
		}
	}

	// The pass is shared, so one "replay" span covers it: the first
	// non-nil parent among the option sets adopts it (the experiment
	// scheduler hands every batch member the same parent).
	var passSpan *span.Span
	for i := range opts {
		if parent := opts[i].Span; parent != nil {
			passSpan = parent.Child("replay",
				span.Int("batch", len(preds)),
				span.Int("fastcells", len(fastIdx)),
				span.Bool("fastpath", len(fastIdx) == len(preds)))
			break
		}
	}
	defer passSpan.End()

	start := 0
	if sr != nil {
		start = sr.Pos()
	}
	var consumedFast int
	if len(kernels) > 0 {
		snap := sr.Snapshot()
		// Every kernel cell replays from the same start, so each distinct
		// budget's stop index is one scan of the metadata column, shared
		// by the cells that carry it.
		ends := make([]int, len(kernels))
		stops := make(map[uint64]int)
		for j, i := range fastIdx {
			budget := opts[i].MaxCondBranches
			end, ok := stops[budget]
			if !ok {
				end = fastpath.StopIndex(snap, start, budget)
				stops[budget] = end
			}
			ends[j] = end
		}
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		errs := make([]error, len(kernels))
		consumed := make([]int, len(kernels))
		var wg sync.WaitGroup
		for j := range kernels {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				var c fastpath.Counters
				c, consumed[j], errs[j] = kernels[j].RunTo(snap, start, ends[j])
				out[fastIdx[j]] = countersToResult(c)
				opts[fastIdx[j]].Telemetry.fill(kernels[j].Tap())
			}(j)
		}
		wg.Wait()
		for j := range kernels {
			if consumed[j] > consumedFast {
				consumedFast = consumed[j]
			}
			if errs[j] != nil {
				// A cancelled cell aborts the whole batch, matching the
				// shared-pass contract; partial results stand.
				seekPast(sr, start+consumedFast)
				return out, errs[j]
			}
		}
		if len(slowIdx) == 0 {
			seekPast(sr, start+consumedFast)
			return out, nil
		}
	}

	runners := make([]runner, len(slowIdx))
	var ctxs []context.Context
	for si, i := range slowIdx {
		runners[si] = newRunner(preds[i], opts[i])
		if obs := opts[i].Observer; obs != nil {
			obs.Start(telemetry.RunInfo{Predictor: preds[i]})
		}
		if ctx := opts[i].Context; ctx != nil {
			dup := false
			for _, c := range ctxs {
				if c == ctx {
					dup = true
					break
				}
			}
			if !dup {
				ctxs = append(ctxs, ctx)
			}
		}
	}
	// finish closes every interpretive cell on each return path: results
	// land in out, observers see Finish and sinks are filled.
	finish := func() []Result {
		for si, i := range slowIdx {
			out[i] = runners[si].res
			if obs := opts[i].Observer; obs != nil {
				obs.Finish()
			}
			opts[i].Telemetry.fill(runners[si].tap)
		}
		return out
	}
	var sinceCheck uint32
	for {
		// ready must be polled on every runner each round: it performs
		// the budget-reached drain transition.
		active := false
		for i := range runners {
			if runners[i].ready() {
				active = true
			}
		}
		if !active {
			break
		}
		if ctxs != nil {
			if sinceCheck++; sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				for _, ctx := range ctxs {
					if err := ctx.Err(); err != nil {
						seekPast(sr, start+consumedFast)
						return finish(), err
					}
				}
			}
		}
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			seekPast(sr, start+consumedFast)
			return finish(), err
		}
		for i := range runners {
			if !runners[i].done {
				runners[i].step(e)
			}
		}
	}
	for i := range runners {
		runners[i].finish()
	}
	seekPast(sr, start+consumedFast)
	return finish(), nil
}

// seekPast advances sr to pos when the interpretive pass stopped short of
// the furthest kernel cell (a nil reader or an already-further position
// is a no-op), so the source ends where one serial pass would have left
// it.
func seekPast(sr *trace.SnapshotReader, pos int) {
	if sr != nil && pos > sr.Pos() {
		sr.Seek(pos)
	}
}
