package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// budget is the per-cell conditional branch budget of suite-cold and
// sweep-warm: the paper-default experiment budget.
const budget = experiments.DefaultCondBranches

// captureKey names one benchmark data set in a capture cache.
func captureKey(b *prog.Benchmark, ds prog.DataSet) string { return b.Name + "/" + ds.Name }

// capture returns the snapshot of b's data set ds covering conds
// conditional branches, capturing it on first use.
func capture(cache *trace.CaptureCache, b *prog.Benchmark, ds prog.DataSet, conds uint64, parent *span.Span) (trace.Snapshot, error) {
	snap, _, err := cache.CaptureTraced(context.Background(), captureKey(b, ds), conds, parent, func() (trace.Source, error) {
		return b.NewSource(ds)
	})
	if err != nil {
		return trace.Snapshot{}, fmt.Errorf("capturing %s: %w", captureKey(b, ds), err)
	}
	return snap, nil
}

// training runs the training pass sp needs over src, as the experiment
// harness does: a profile for Profiling, a pattern trainer for Static
// Training. It returns nil for specs that need none.
func training(sp spec.Spec, src trace.Source, conds uint64) (*spec.TrainingData, error) {
	if !sp.NeedsTraining() {
		return nil, nil
	}
	limited := &trace.LimitSource{Src: src, N: conds}
	td := &spec.TrainingData{}
	var err error
	if sp.Scheme == spec.SchemeProfiling {
		td.Profile = predictor.NewProfileTrainer()
		err = td.Profile.ObserveTrace(limited)
	} else if td.Static, err = spec.NewTrainer(sp); err == nil {
		err = td.Static.ObserveTrace(limited)
	}
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", sp, err)
	}
	return td, nil
}

// outcome is the deterministic part of one cell's result: what the
// golden files compare.
type outcome struct {
	Predictions uint64 `json:"predictions"`
	Correct     uint64 `json:"correct"`
}

func outcomeOf(res sim.Result) outcome {
	return outcome{Predictions: res.Accuracy.Predictions, Correct: res.Accuracy.Correct}
}

// job is one unit of a batch workload's pass: one experiment for
// suite-cold, one benchmark's RunMany batch for sweep-warm.
type job func(parent *span.Span) (events uint64, ok bool, err error)

// pass is one timed pass over a batch workload's jobs.
type pass struct {
	wall   time.Duration
	lat    []float64 // per-job service time, ms
	events uint64
}

// runPass runs jobs on a pool of workers. The loop is closed: a job is
// due when a worker is free to take it, so its latency is its service
// time. With a tracer, every job runs under a "job" span of one root.
func runPass(jobs []job, workers int, tr *span.Tracer) (pass, error) {
	root := tr.Root("pass")
	var (
		mu    sync.Mutex
		p     pass
		first error
		next  = make(chan int, len(jobs))
		wg    sync.WaitGroup
		start = time.Now()
	)
	for i := range jobs {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				var sp *span.Span
				if root != nil {
					sp = root.Child("job")
					sp.SetTID(w + 1)
				}
				began := time.Now()
				events, ok, err := jobs[i](sp)
				sp.End()
				done := time.Now()
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				p.lat = append(p.lat, ms(done.Sub(began)))
				if ok {
					p.events += events
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(start)
	root.End()
	return p, first
}

// runPhases alternates low (one worker) and high (nproc workers) passes
// until d has elapsed, at least one of each.
func runPhases(d time.Duration, passFn func(workers int) (pass, error)) (low, high []pass, err error) {
	start := time.Now()
	for len(high) == 0 || time.Since(start) < d {
		p, err := passFn(1)
		if err != nil {
			return nil, nil, err
		}
		low = append(low, p)
		if p, err = passFn(runtime.NumCPU()); err != nil {
			return nil, nil, err
		}
		high = append(high, p)
	}
	return low, high, nil
}

// setPhaseMetrics derives the shared end-to-end metrics of a batch
// workload from its low and high passes. Each pass is one window of the
// latency quantiles (see windowQuantile). sim_events_per_s goes to the
// report line only: a pass's event count is fixed by its inputs, so it
// carries the same signal as wall_s.
func setPhaseMetrics(r *result, low, high []pass) {
	var walls []float64
	var lowLat, highLat [][]float64
	var wall time.Duration
	var events uint64
	for _, p := range high {
		walls = append(walls, p.wall.Seconds())
		highLat = append(highLat, p.lat)
		wall += p.wall
		events += p.events
	}
	for _, p := range low {
		lowLat = append(lowLat, p.lat)
	}
	r.set("wall_s", median(walls), "s", len(walls), "")
	r.set("sim_events_per_s", float64(events)/wall.Seconds(), "sim-ev/s", len(high), "")
	setLatency(r, "low", lowLat)
	setLatency(r, "high", highLat)
}

// setLatency records a phase's windowed p50 and p99.
func setLatency(r *result, phase string, windows [][]float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_ms.", 0.5}, {"lat_p99_ms.", 0.99}} {
		v, n := windowQuantile(windows, q.q)
		r.set(q.name+phase, v, "ms", n, "")
	}
}
