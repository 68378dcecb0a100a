package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"twolevel/internal/faultinject"
	"twolevel/internal/predictor"
	"twolevel/internal/reference"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// telemetryOptionSets mirrors the equivalence matrix of
// TestKernelMatchesInterpretive: plain, context-switch, budgeted and
// sharded replays all must produce the same telemetry.
func telemetryOptionSets(conds uint64) []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"cs", Options{ContextSwitches: true, CSInterval: 1009}},
		{"budget", Options{MaxCondBranches: conds / 3}},
		{"cs-budget", Options{ContextSwitches: true, CSInterval: 1500, MaxCondBranches: conds / 2}},
		{"sharded", Options{Shards: 4}},
		{"cs-sharded", Options{ContextSwitches: true, CSInterval: 1009, Shards: 4}},
	}
}

// TestKernelTelemetryMatchesIntervalSeries is the telemetry property of
// the kernel: for every flattenable spec and option set, the sink's
// interval series equals a per-window count over the resolutions the
// interpretive runner reports to an Observer, the context-switch indices
// match, and the per-PC profile agrees with the naive reference
// forensics model's offenders and with the interpretive sink path.
func TestKernelTelemetryMatchesIntervalSeries(t *testing.T) {
	snap := kernelSnapshot(24_000)
	conds := uint64(0)
	for i := 0; i < snap.Len(); i++ {
		e := snap.At(i)
		if !e.Trap && e.Branch.Class == trace.Cond {
			conds++
		}
	}
	const interval, topk = 512, 8
	for _, s := range kernelEquivSpecs {
		for _, os := range telemetryOptionSets(conds) {
			// Reference: the runner's resolutions, logged by an Observer.
			log := &resolutionLog{}
			refOpts := os.opts
			refOpts.DisableFastpath = true
			refOpts.Observer = log
			refRes, err := Run(buildEquivSpec(t, s, snap), snap.Reader(), refOpts)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", s, os.name, err)
			}
			hot := log.forensics(telemetry.ForensicsConfig{TopK: topk, Budget: os.opts.MaxCondBranches})

			// Kernel path: the Telemetry sink must not cost eligibility.
			sink := &Telemetry{Interval: interval, TopK: topk}
			fastOpts := os.opts
			fastOpts.Telemetry = sink
			p := buildEquivSpec(t, s, snap)
			if !FastpathEligible(p, snap.Reader(), fastOpts) {
				t.Fatalf("%s/%s: Telemetry sink cost fastpath eligibility", s, os.name)
			}
			fastRes, err := Run(p, snap.Reader(), fastOpts)
			if err != nil {
				t.Fatalf("%s/%s kernel: %v", s, os.name, err)
			}
			if !reflect.DeepEqual(fastRes, refRes) {
				t.Errorf("%s/%s: kernel Result differs under telemetry:\n got %+v\nwant %+v",
					s, os.name, fastRes, refRes)
			}
			if want := log.samples(interval); !reflect.DeepEqual(sink.Samples, want) {
				t.Errorf("%s/%s: kernel samples differ from the runner's per-window counts:\n got %+v\nwant %+v",
					s, os.name, sink.Samples, want)
			}
			if !reflect.DeepEqual(sink.Switches, log.switches) {
				t.Errorf("%s/%s: kernel switch indices differ:\n got %v\nwant %v",
					s, os.name, sink.Switches, log.switches)
			}
			hotRef := hot.Report()
			if sink.StaticBranches != hotRef.StaticBranches {
				t.Errorf("%s/%s: sink counts %d static branches, the reference model %d",
					s, os.name, sink.StaticBranches, hotRef.StaticBranches)
			}
			if len(sink.TopMispredicted) != len(hotRef.TopOffenders) {
				t.Errorf("%s/%s: profile has %d rows, the reference model %d",
					s, os.name, len(sink.TopMispredicted), len(hotRef.TopOffenders))
			} else {
				for i, row := range sink.TopMispredicted {
					ref := hotRef.TopOffenders[i]
					if row.PC != ref.PC || row.Mispredicts != ref.Mispredicts ||
						row.Executions != ref.Executions || row.WarmupMisses != ref.WarmupMisses ||
						row.TakenRate != ref.TakenRate || row.MissShare != ref.MissShare {
						t.Errorf("%s/%s: profile row %d = %+v, the reference model's %+v",
							s, os.name, i, row, ref)
					}
				}
			}

			// Interpretive sink path: the runner feeding the same Tap
			// must agree with the kernel field for field.
			slowSink := &Telemetry{Interval: interval, TopK: topk}
			slowOpts := os.opts
			slowOpts.DisableFastpath = true
			slowOpts.Telemetry = slowSink
			if _, err := Run(buildEquivSpec(t, s, snap), snap.Reader(), slowOpts); err != nil {
				t.Fatalf("%s/%s interpretive sink: %v", s, os.name, err)
			}
			if !reflect.DeepEqual(slowSink, sink) {
				t.Errorf("%s/%s: interpretive sink differs from kernel sink:\n got %+v\nwant %+v",
					s, os.name, slowSink, sink)
			}
		}
	}
}

// TestTelemetryKeepsFastpathEligible pins the headline contract: a run
// with a Telemetry sink still replays on the kernel (replay span
// fastpath=true) and the sink comes back populated.
func TestTelemetryKeepsFastpathEligible(t *testing.T) {
	snap := kernelSnapshot(8192)
	sp := spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))")
	sink := &Telemetry{Interval: 256, TopK: 4}
	res, attr := replaySpanAttr(t, buildKernelSpec(t, sp, snap), snap, Options{Telemetry: sink})
	if attr != "true" {
		t.Fatalf("telemetry run: replay span fastpath=%q, want true", attr)
	}
	if len(sink.Samples) == 0 || len(sink.TopMispredicted) == 0 {
		t.Fatalf("kernel run left the sink unpopulated: %+v", sink)
	}
	var total uint64
	for _, s := range sink.Samples {
		total += s.Predictions
	}
	if total != res.Accuracy.Predictions {
		t.Errorf("interval samples cover %d predictions, result has %d",
			total, res.Accuracy.Predictions)
	}
	if last := sink.Samples[len(sink.Samples)-1]; last.Branches != res.Accuracy.Predictions {
		t.Errorf("last sample at branch %d, want %d", last.Branches, res.Accuracy.Predictions)
	}
}

// TestRunManyTelemetry drives a mixed batch — kernel cells, a forced
// interpretive cell and a pipelined cell — with per-cell Telemetry sinks
// and checks each against its serial Run twin.
func TestRunManyTelemetry(t *testing.T) {
	snap := kernelSnapshot(24_000)
	cells := []struct {
		spec string
		opts Options
	}{
		{"GAg(HR(1,,8-sr),1xPHT(2^8,A2))", Options{}},
		{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", Options{ContextSwitches: true, CSInterval: 1009, Shards: 4}},
		{"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))", Options{MaxCondBranches: 3000}},
		{"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))", Options{DisableFastpath: true}},
		{"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))", Options{PipelineDepth: 4}},
	}
	var (
		preds = make([]predictor.Predictor, 0, len(cells))
		want  = make([]*Telemetry, 0, len(cells))
		opts  = make([]Options, 0, len(cells))
	)
	for _, c := range cells {
		sp := spec.MustParse(c.spec)
		serialSink := &Telemetry{Interval: 512, TopK: 4}
		serialOpts := c.opts
		serialOpts.Telemetry = serialSink
		if _, err := Run(buildKernelSpec(t, sp, snap), snap.Reader(), serialOpts); err != nil {
			t.Fatal(err)
		}
		want = append(want, serialSink)

		batchSink := &Telemetry{Interval: 512, TopK: 4}
		o := c.opts
		o.Telemetry = batchSink
		opts = append(opts, o)
		preds = append(preds, buildKernelSpec(t, sp, snap))
	}
	if _, err := RunMany(preds, snap.Reader(), opts); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(opts[i].Telemetry, want[i]) {
			t.Errorf("cell %d (%s): batched sink differs from serial:\n got %+v\nwant %+v",
				i, cells[i].spec, opts[i].Telemetry, want[i])
		}
	}
}

// foldForensicsConfig configures the Forensics the fold oracle
// compares: a short shadow history and recorder, so bursts are
// snapshotted on every spec.
func foldForensicsConfig(budget uint64) telemetry.ForensicsConfig {
	return telemetry.ForensicsConfig{TopK: 6, HistoryBits: 6, RecorderSize: 16, Budget: budget}
}

// resolutionLog is an Observer logging every resolution the
// interpretive runner reports and the resolution index of every context
// switch: the ground truth the sink's outputs are folded from.
type resolutionLog struct {
	pcs            []uint32
	taken, correct []bool
	switches       []uint64
}

func (r *resolutionLog) Start(telemetry.RunInfo)      {}
func (r *resolutionLog) OnPredict(trace.Branch, bool) {}
func (r *resolutionLog) OnResolve(b trace.Branch, _, correct bool) {
	r.pcs = append(r.pcs, b.PC)
	r.taken = append(r.taken, b.Taken)
	r.correct = append(r.correct, correct)
}
func (r *resolutionLog) OnContextSwitch() { r.switches = append(r.switches, uint64(len(r.pcs))) }
func (r *resolutionLog) OnTrap()          {}
func (r *resolutionLog) Finish()          {}

// samples counts the correct predictions of each window of every
// resolutions, the last window possibly short.
func (r *resolutionLog) samples(every int) []telemetry.Sample {
	var out []telemetry.Sample
	for lo := 0; lo < len(r.correct); lo += every {
		hi := min(lo+every, len(r.correct))
		s := telemetry.Sample{Branches: uint64(hi), Predictions: uint64(hi - lo)}
		for _, c := range r.correct[lo:hi] {
			if c {
				s.Correct++
			}
		}
		s.Accuracy = float64(s.Correct) / float64(s.Predictions)
		out = append(out, s)
	}
	return out
}

// forensics folds the log into the naive reference forensics model.
func (r *resolutionLog) forensics(cfg telemetry.ForensicsConfig) *reference.Forensics {
	f := reference.NewForensics(cfg)
	for j, pc := range r.pcs {
		f.Resolve(pc, r.taken[j], r.correct[j])
	}
	return f
}

// observedForensics replays spec s over src on the interpretive runner
// with a resolutionLog attached and returns the reference forensics
// model's report over it.
func observedForensics(t *testing.T, s string, snap trace.Snapshot, src trace.Source, opts Options) telemetry.ForensicsReport {
	t.Helper()
	log := &resolutionLog{}
	opts.DisableFastpath, opts.Shards, opts.Observer = true, 0, log
	if _, err := Run(buildEquivSpec(t, s, snap), src, opts); err != nil {
		t.Fatalf("%s observed: %v", s, err)
	}
	return log.forensics(foldForensicsConfig(opts.MaxCondBranches)).Report()
}

// TestForensicsFoldMatchesObserver is the oracle of the forensics fold:
// for every flattenable spec, the report of a Telemetry sink's Forensics,
// handed the replay's resolved-branch log, deep-equals the report of the
// naive reference model (internal/reference) over the resolutions the
// interpretive runner reports to an Observer — on the serial and the
// sharded kernel, the pipelined runner, a RunMany batch, a kernel
// resumed by RunTo legs, and a cancelled kernel run (against the runner
// over the prefix it consumed).
func TestForensicsFoldMatchesObserver(t *testing.T) {
	snap := kernelSnapshot(24_000)
	conds := uint64(0)
	for i := 0; i < snap.Len(); i++ {
		if e := snap.At(i); !e.Trap && e.Branch.Class == trace.Cond {
			conds++
		}
	}
	sinkFor := func(o Options) *Telemetry {
		return &Telemetry{Forensics: telemetry.NewForensics(foldForensicsConfig(o.MaxCondBranches))}
	}
	for _, s := range kernelEquivSpecs {
		check := func(arm string, sink *Telemetry, want telemetry.ForensicsReport) {
			t.Helper()
			got := sink.Forensics.Report()
			if got.Resolutions == 0 || len(got.Snapshots) == 0 {
				t.Errorf("%s/%s: folded report is empty: %d resolutions, %d snapshots",
					s, arm, got.Resolutions, len(got.Snapshots))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: folded forensics differ from the reference model's:\n got %+v\nwant %+v", s, arm, got, want)
			}
		}

		for _, arm := range []struct {
			name   string
			opts   Options
			kernel bool
		}{
			{"serial", Options{ContextSwitches: true, CSInterval: 1009, MaxCondBranches: conds / 2}, true},
			{"sharded", Options{Shards: 4}, true},
			{"pipelined", Options{PipelineDepth: 4}, false},
		} {
			o := arm.opts
			o.Telemetry = sinkFor(o)
			p := buildEquivSpec(t, s, snap)
			if FastpathEligible(p, snap.Reader(), o) != arm.kernel {
				t.Fatalf("%s/%s: kernel eligibility is not %v", s, arm.name, arm.kernel)
			}
			if _, err := Run(p, snap.Reader(), o); err != nil {
				t.Fatalf("%s/%s: %v", s, arm.name, err)
			}
			check(arm.name, o.Telemetry, observedForensics(t, s, snap, snap.Reader(), arm.opts))
		}

		// A RunMany batch: two kernel cells of the spec share one plan.
		batch := []Options{{}, {ContextSwitches: true, CSInterval: 1500, MaxCondBranches: conds / 3}}
		preds := make([]predictor.Predictor, len(batch))
		opts := make([]Options, len(batch))
		for i, o := range batch {
			preds[i], opts[i] = buildEquivSpec(t, s, snap), o
			opts[i].Telemetry = sinkFor(o)
		}
		if _, err := RunMany(preds, snap.Reader(), opts); err != nil {
			t.Fatalf("%s/batch: %v", s, err)
		}
		for i, o := range batch {
			check(fmt.Sprintf("batch cell %d", i), opts[i].Telemetry, observedForensics(t, s, snap, snap.Reader(), o))
		}

		// A bare kernel resumed by RunTo across three legs.
		legs := Options{}
		legs.Telemetry = sinkFor(legs)
		k, ok := fastpath.New(buildEquivSpec(t, s, snap), fastpathConfig(legs))
		if !ok {
			t.Fatalf("%s/legs: fastpath.New declined", s)
		}
		pos := 0
		for _, cut := range []int{snap.Len() / 5, snap.Len() / 2, snap.Len()} {
			if _, _, err := k.RunTo(snap, pos, cut); err != nil {
				t.Fatalf("%s/legs: %v", s, err)
			}
			pos = cut
		}
		legs.Telemetry.fill(k.Tap())
		check("legs", legs.Telemetry, observedForensics(t, s, snap, snap.Reader(), Options{}))

		// A kernel run cancelled at its third poll.
		cancelled := Options{Context: &faultinject.CtxAfter{N: 2}}
		cancelled.Telemetry = sinkFor(cancelled)
		src := snap.Reader()
		if _, err := Run(buildEquivSpec(t, s, snap), src, cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s/cancelled: err = %v, want context.Canceled", s, err)
		}
		prefix := &faultinject.Truncate{Src: snap.Reader(), N: uint64(src.Pos())}
		check("cancelled", cancelled.Telemetry, observedForensics(t, s, snap, prefix, Options{}))
	}
}
