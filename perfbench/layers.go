package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/rng"
	"twolevel/internal/sim"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// spanLedger aggregates finished span records by phase name. Durations
// are exact span totals, never histogram buckets.
type spanLedger struct {
	total            map[string]time.Duration
	count            map[string]int
	taskSelf         time.Duration
	cells, fastCells int
}

func readSpans(tr *span.Tracer) spanLedger { return ledgerOf(tr.Snapshot()) }

// ledgerOf aggregates records. A task's self time is its duration minus
// its direct children's; a replay span counts its batch's cells (or one
// cell for a single run) and how many of them the kernel served.
func ledgerOf(recs []span.Record) spanLedger {
	l := spanLedger{total: map[string]time.Duration{}, count: map[string]int{}}
	children := map[uint64]time.Duration{}
	for _, rec := range recs {
		if rec.Parent != 0 {
			children[rec.Parent] += rec.Duration()
		}
	}
	for _, rec := range recs {
		l.total[rec.Name] += rec.Duration()
		l.count[rec.Name]++
		switch rec.Name {
		case "task":
			l.taskSelf += rec.Duration() - children[rec.ID]
		case "replay":
			attrs := map[string]string{}
			for _, a := range rec.Attrs {
				attrs[a.Key] = a.Value
			}
			if batch, err := strconv.Atoi(attrs["batch"]); err == nil {
				fast, _ := strconv.Atoi(attrs["fastcells"])
				l.cells += batch
				l.fastCells += fast
			} else {
				l.cells++
				if attrs["fastpath"] == "true" {
					l.fastCells++
				}
			}
		}
	}
	return l
}

// setReplay records the capture and replay layers' time and the share
// of replayed cells the kernel served.
func (l spanLedger) setReplay(r *result, source string) {
	r.set("trace.capture_s", l.total["capture"].Seconds(), "s", l.count["capture"], source)
	r.set("sim.replay_s", l.total["replay"].Seconds(), "s", l.count["replay"], source)
	if l.cells > 0 {
		r.set("sim.kernel_event_share", float64(l.fastCells)/float64(l.cells), "ratio", l.cells, source)
	}
}

// setExperiments records the grid scheduler's own time (task spans
// minus their children), training time and how busy its workers were
// over wall.
func (l spanLedger) setExperiments(r *result, workers int, wall time.Duration, source string) {
	r.set("experiments.task_self_s", l.taskSelf.Seconds(), "s", l.count["task"], source)
	r.set("experiments.train_s", l.total["train"].Seconds(), "s", l.count["train"], source)
	r.set("experiments.worker_busy_ratio", l.total["task"].Seconds()/(float64(workers)*wall.Seconds()), "ratio", l.count["task"], source)
}

// Optional probes for layers a workload does not drive itself.
const (
	probeServe = 1 << iota
	probeExperiments
)

// Shape representatives timed by the kernel probes: one fixed spec per
// fastpath loop, so each row always measures the same loop.
var shapeProbeSpecs = map[string]string{
	shapeStatic:   "BTFN",
	shapeGAg:      "GAg(HR(1,,12-sr),1xPHT(2^12,A2))",
	shapePAgCache: "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))",
	shapePApCache: "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
	shapeGeneric:  "GAs(HR(1,,10-sr),16xPHT(2^10,A2))",
}

// Probe inputs: the benchmark whose capture the replay probes use, its
// budget, and the timing repetitions whose median a probe reports.
const (
	probeBench  = "gcc"
	probeConds  = 200_000
	probeReps   = 5
	probeEvents = 200_000 // interpreter events per benchmark in the capture probe
)

// runProbes times calls into each layer's public functions on fixed
// inputs — the same in every workload — and, per flags, drives the
// server or the experiment grid for layers the workload does not.
func runProbes(r *result, flags int) error {
	if err := probeCapture(r); err != nil {
		return err
	}
	b, err := prog.ByName(probeBench)
	if err != nil {
		return err
	}
	snap, err := capture(trace.NewCaptureCache(), b, b.Testing, probeConds, nil)
	if err != nil {
		return err
	}
	if err := probeReplay(r, snap); err != nil {
		return err
	}
	if err := probeBuild(r); err != nil {
		return err
	}
	if err := probeUpload(r); err != nil {
		return err
	}
	if flags&probeServe != 0 {
		if err := probeServer(r); err != nil {
			return err
		}
	}
	if flags&probeExperiments != 0 {
		if err := probeGrid(r); err != nil {
			return err
		}
	}
	return nil
}

// probeCapture times the CPU interpreter (cpu.Source.Next behind
// prog.NewSource) and packing (trace.Packed.Append) separately over the
// first probeEvents events of every benchmark's testing set.
func probeCapture(r *result) error {
	var interp, pack time.Duration
	var n int
	for _, b := range prog.All {
		src, err := b.NewSource(b.Testing)
		if err != nil {
			return err
		}
		events := make([]trace.Event, 0, probeEvents)
		start := time.Now()
		for len(events) < probeEvents {
			e, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			events = append(events, e)
		}
		interp += time.Since(start)
		var p trace.Packed
		start = time.Now()
		for _, e := range events {
			p.Append(e)
		}
		pack += time.Since(start)
		n += len(events)
	}
	r.set("cpu.capture_events_per_s", float64(n)/interp.Seconds(), "trace-ev/s", n, "probe")
	r.set("trace.pack_ns_per_event", float64(pack.Nanoseconds())/float64(n), "ns/trace-ev", n, "probe")
	return nil
}

// counterEvents is experiments.ResultEvents over raw kernel counters.
func counterEvents(c fastpath.Counters) uint64 {
	return 2*c.Predictions + c.Traps + c.ContextSwitches
}

// timeKernel returns the median events/s of probeReps kernel runs of sp.
func timeKernel(sp spec.Spec, snap trace.Snapshot, cfg fastpath.Config) (float64, error) {
	var rates []float64
	for i := 0; i < probeReps; i++ {
		p, err := spec.Build(sp, nil)
		if err != nil {
			return 0, err
		}
		k, ok := fastpath.New(p, cfg)
		if !ok {
			return 0, fmt.Errorf("kernel declined %s", sp)
		}
		start := time.Now()
		c, _, err := k.Run(snap, 0)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(counterEvents(c))/time.Since(start).Seconds())
	}
	return median(rates), nil
}

// timeSim returns the median events/s of probeReps calls of run.
func timeSim(run func() ([]sim.Result, error)) (float64, error) {
	var rates []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		res, err := run()
		if err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		var ev uint64
		for _, x := range res {
			ev += experiments.ResultEvents(x)
		}
		rates = append(rates, float64(ev)/secs)
	}
	return median(rates), nil
}

// probeReplay times every kernel loop shape plain and tapped, the
// sharded kernel, the interpretive runner and a mixed RunMany batch.
func probeReplay(r *result, snap trace.Snapshot) error {
	plain := fastpath.Config{CSInterval: sim.DefaultCSInterval, MaxCondBranches: probeConds}
	tap := plain
	tap.Interval, tap.TopPCs, tap.Warmup = probeConds/20, 8, probeConds/10
	for _, shape := range kernelShapes {
		sp := spec.MustParse(shapeProbeSpecs[shape])
		for _, mode := range []struct {
			name string
			cfg  fastpath.Config
		}{{"plain", plain}, {"tap", tap}} {
			rate, err := timeKernel(sp, snap, mode.cfg)
			if err != nil {
				return err
			}
			r.set("fastpath."+shape+"."+mode.name+".events_per_s", rate, "sim-ev/s", probeReps, "probe")
		}
	}
	// Sharding needs a second CPU to mean anything; on one it is not
	// measured, and the metric is reported absent.
	if runtime.GOMAXPROCS(0) > 1 {
		sharded := plain
		sharded.Shards = 2
		rate, err := timeKernel(spec.MustParse(shapeProbeSpecs[shapePApCache]), snap, sharded)
		if err != nil {
			return err
		}
		r.set("fastpath.sharded2.events_per_s", rate, "sim-ev/s", probeReps, "probe")
	}

	runnerSpec := spec.MustParse(shapeProbeSpecs[shapePAgCache])
	rate, err := timeSim(func() ([]sim.Result, error) {
		p, err := spec.Build(runnerSpec, nil)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(p, snap.Reader(), sim.Options{MaxCondBranches: probeConds, DisableFastpath: true})
		return []sim.Result{res}, err
	})
	if err != nil {
		return err
	}
	r.set("sim.runner.events_per_s", rate, "sim-ev/s", probeReps, "probe")

	batch := []string{"BTB(BHT(512,4,A2),)"}
	for _, shape := range kernelShapes {
		batch = append(batch, shapeProbeSpecs[shape])
	}
	rate, err = timeSim(func() ([]sim.Result, error) {
		preds := make([]predictor.Predictor, len(batch))
		opts := make([]sim.Options, len(batch))
		for i, s := range batch {
			p, err := spec.Build(spec.MustParse(s), nil)
			if err != nil {
				return nil, err
			}
			preds[i] = p
			opts[i] = sim.Options{MaxCondBranches: probeConds}
		}
		return sim.RunMany(preds, snap.Reader(), opts)
	})
	if err != nil {
		return err
	}
	r.set("sim.runmany.events_per_s", rate, "sim-ev/s", probeReps, "probe")
	return nil
}

// probeBuild times spec.Build over the whole spec pool (training-free
// specs; trained ones need a training pass first).
func probeBuild(r *result) error {
	var specs []spec.Spec
	for _, s := range servePool() {
		specs = append(specs, spec.MustParse(s))
	}
	var per []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		for _, sp := range specs {
			if _, err := spec.Build(sp, nil); err != nil {
				return err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/float64(len(specs)))
	}
	r.set("spec.build_us_per_cell", median(per), "us", probeReps*len(specs), "probe")
	return nil
}

// probeUpload times the trace layer's share of an upload: decoding a
// TLBPTRC1 body, packing it and inserting it into a capture cache.
func probeUpload(r *result) error {
	gen := rng.New(0x0b10ad)
	cache := trace.NewCaptureCache()
	var lat []float64
	for i := 0; i < 24; i++ {
		body, err := uploadTrace(gen, 8000)
		if err != nil {
			return err
		}
		start := time.Now()
		_, _, err = cache.CaptureWithStatus(context.Background(), fmt.Sprint("upload", i), ^uint64(0), func() (trace.Source, error) {
			return trace.NewFileReader(bytes.NewReader(body))
		})
		if err != nil {
			return err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	r.set("trace.upload_ms_p50", median(lat), "ms", len(lat), "probe")
	return nil
}

// probeServer drives a fresh in-process server open-loop with a short
// seeded schedule and reads its span tree: the server layers' ledger.
func probeServer(r *result) error {
	reqs, err := serveInputs(0x5e7e, 1500*time.Millisecond, probeRate)
	if err != nil {
		return err
	}
	env, err := setupServe(reqs)
	if err != nil {
		return err
	}
	lerr := env.ledger(r)
	if err := env.ls.stop(); err != nil {
		return err
	}
	return lerr
}

// probeGrid runs fig11 (trained, kernel and runner cells) cold at a
// small budget under a tracer, for workloads that do not use the grid.
func probeGrid(r *result) error {
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	tr := span.New()
	root := tr.Root("probe")
	workers := runtime.NumCPU()
	start := time.Now()
	_, err := experiments.Run("fig11", experiments.Options{CondBranches: 20_000, Workers: workers, Span: root})
	wall := time.Since(start)
	root.End()
	if err != nil {
		return err
	}
	readSpans(tr).setExperiments(r, workers, wall, "probe")
	return nil
}
