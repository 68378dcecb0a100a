package main

import (
	"fmt"
	"math"
	"runtime"

	"twolevel/internal/cpu"
	"twolevel/internal/experiments"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/rng"
	"twolevel/internal/sim"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// A sweep-warm grid is the first sweepPerShape pool specs of each kernel
// shape and the first sweepDeclined kernel-declined ones (61 specs, 10%
// declined); every benchmark replays all of them in one RunMany batch.
// The spec set is the same for every seed: when the seed drew which pool
// specs ran, the same seed's wall time differed from another's by 5–8%,
// a spread that belongs to the inputs, not to the program.
const (
	sweepPerShape = 11
	sweepDeclined = 6
)

// tapShare is the share of each shape's sweep-warm cells that carry a
// telemetry sink, so plain and tapped kernel loops both run. The seed
// picks which cells, per benchmark; the count is fixed, because a tapped
// cell costs two to three times a plain one.
const tapShare = 0.25

// sweepCell is one column of the sweep grid.
type sweepCell struct {
	raw string
	sp  spec.Spec
}

// sweepInput is everything a seed decides: the grid's specs and which
// (benchmark, spec) cells carry a telemetry sink.
type sweepInput struct {
	cells []sweepCell
	taps  [][]bool // [benchmark][cell]
}

func sweepInputs(seed uint64) (sweepInput, error) {
	byShape := map[string][]poolSpec{}
	for _, ps := range specPool() {
		byShape[ps.Shape] = append(byShape[ps.Shape], ps)
	}
	var in sweepInput
	var strata [][]int // cell indices of each shape
	take := func(shape string, n int) error {
		var idx []int
		for _, ps := range byShape[shape][:n] {
			sp, err := spec.Parse(ps.Spec)
			if err != nil {
				return err
			}
			idx = append(idx, len(in.cells))
			in.cells = append(in.cells, sweepCell{raw: ps.Spec, sp: sp})
		}
		strata = append(strata, idx)
		return nil
	}
	for _, shape := range kernelShapes {
		if err := take(shape, sweepPerShape); err != nil {
			return in, err
		}
	}
	if err := take(shapeDeclined, sweepDeclined); err != nil {
		return in, err
	}
	r := rng.New(seed)
	in.taps = make([][]bool, len(prog.All))
	for bi := range in.taps {
		in.taps[bi] = make([]bool, len(in.cells))
		for _, idx := range strata {
			n := int(math.Round(tapShare * float64(len(idx))))
			for _, j := range r.Perm(len(idx))[:n] {
				in.taps[bi][idx[j]] = true
			}
		}
	}
	return in, nil
}

// sweepWarm is the sweep-warm workload: a spec grid with seeded
// telemetry taps over captures built during set-up, one sim.RunMany
// batch per benchmark. The capture
// cache is warm, so the CPU interpreter does no timed work; fastpath,
// sim and spec.Build do nearly all of it.
type sweepWarm struct {
	in     sweepInput
	golden sweepGolden
	cache  *trace.CaptureCache
}

func setupSweepWarm(seed uint64, parent *span.Span) (*sweepWarm, error) {
	in, err := sweepInputs(seed)
	if err != nil {
		return nil, err
	}
	s := &sweepWarm{in: in, cache: trace.NewCaptureCache()}
	if err := loadGolden("sweep-warm.json", &s.golden); err != nil {
		return nil, err
	}
	if s.golden.Budget != budget {
		return nil, fmt.Errorf("golden/sweep-warm.json is for budget %d, not %d", s.golden.Budget, budget)
	}
	for _, b := range prog.All {
		for _, ds := range []prog.DataSet{b.Testing, b.Training} {
			if _, err := capture(s.cache, b, ds, budget, parent); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// batch replays the whole grid over benchmark bi in one RunMany pass.
// Each cell whose outcome disagrees with the golden file, or whose
// telemetry sink came back empty, is a failed operation.
func (s *sweepWarm) batch(bi int, parent *span.Span, r *result) (uint64, bool, error) {
	b := prog.All[bi]
	test, err := capture(s.cache, b, b.Testing, budget, parent)
	if err != nil {
		return 0, false, err
	}
	preds := make([]predictor.Predictor, len(s.in.cells))
	opts := make([]sim.Options, len(s.in.cells))
	for ci, c := range s.in.cells {
		var td *spec.TrainingData
		if c.sp.NeedsTraining() {
			train, err := capture(s.cache, b, b.Training, budget, parent)
			if err != nil {
				return 0, false, err
			}
			if td, err = training(c.sp, train.Reader(), budget); err != nil {
				return 0, false, err
			}
		}
		if preds[ci], err = spec.Build(c.sp, td); err != nil {
			return 0, false, err
		}
		opts[ci] = sim.Options{ContextSwitches: c.sp.ContextSwitch, MaxCondBranches: budget, Span: parent}
		if s.in.taps[bi][ci] {
			opts[ci].Telemetry = &sim.Telemetry{Interval: budget / 20, TopK: 8}
		}
	}
	res, err := sim.RunMany(preds, test.Reader(), opts)
	if err != nil {
		for _, c := range s.in.cells {
			r.check(false, c.raw+" on "+b.Name+": "+err.Error())
		}
		return 0, false, nil
	}
	var events uint64
	allOK := true
	for ci, c := range s.in.cells {
		want, known := s.golden.Cells[cellKey(b.Name, c.raw)]
		ok := known && outcomeOf(res[ci]) == want
		if t := opts[ci].Telemetry; t != nil && len(t.Samples) == 0 {
			ok = false
		}
		r.check(ok, "cell "+c.raw+" on "+b.Name)
		if ok {
			events += experiments.ResultEvents(res[ci])
		}
		allOK = allOK && ok
	}
	return events, allOK, nil
}

func (s *sweepWarm) pass(workers int, tr *span.Tracer, r *result) (pass, error) {
	jobs := make([]job, len(prog.All))
	for bi := range jobs {
		bi := bi
		jobs[bi] = func(parent *span.Span) (uint64, bool, error) { return s.batch(bi, parent, r) }
	}
	return runPass(jobs, workers, tr)
}

func runSweepWarm(o options) (*result, error) {
	r := newResult()
	cons := cpu.Constructions()
	s, setupS, err := timedSetup(setupReps, func() (*sweepWarm, error) { return setupSweepWarm(o.seed, nil) })
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS, "s", setupReps, "")
	if o.trace {
		return r, s.traced(r, o.seed, (cpu.Constructions()-cons)/setupReps)
	}
	low, high, err := runPhases(o.duration(), func(workers int) (pass, error) {
		return s.pass(workers, nil, r)
	})
	if err != nil {
		return nil, err
	}
	setPhaseMetrics(r, low, high)
	r.set("ok_ratio", r.okRatio(), "ratio", r.attempted, "")
	setRSS(r)
	return r, nil
}

// traced is the ledger run: one untraced high pass, then set-up once
// more under the tracer (for its capture spans) and a traced high pass
// over that set-up, then the layer probes.
func (s *sweepWarm) traced(r *result, seed uint64, interpreters uint64) error {
	workers := runtime.NumCPU()
	r.set("cpu.interpreters", float64(interpreters), "count", 0, "workload")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := s.pass(workers, nil, r)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	setGoMetrics(r, ms0, ms1, plain.events, "workload")

	tr := span.New()
	setup := tr.Root("setup")
	ts, err := setupSweepWarm(seed, setup)
	if err != nil {
		return err
	}
	setup.End()
	tracedPass, err := ts.pass(workers, tr, r)
	if err != nil {
		return err
	}
	st := ts.cache.Stats()
	r.set("trace.cache_hit_ratio", st.HitRatio(), "ratio", int(st.Hits+st.Misses), "workload")
	r.set("trace.cache_mb", float64(st.Bytes)/1e6, "MB", st.Entries, "workload")
	readSpans(tr).setReplay(r, "workload")
	r.set("bench.trace_overhead", tracedPass.wall.Seconds()/plain.wall.Seconds()-1, "ratio", 2, "workload")

	if err := runProbes(r, probeServe|probeExperiments); err != nil {
		return err
	}
	r.set("ok_ratio", r.okRatio(), "ratio", r.attempted, "")
	setRSS(r)
	return nil
}
