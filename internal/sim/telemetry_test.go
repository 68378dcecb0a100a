package sim

import (
	"reflect"
	"testing"

	"twolevel/internal/predictor"
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

// TestKernelTelemetryMatchesIntervalSeries is the telemetry bit-identity
// property: for every flattenable spec and option set, the kernel-native
// interval series equals the legacy IntervalSeries observer's output
// sample for sample, the context-switch indices match, and the per-PC
// profile agrees with the legacy HotBranches report and the interpretive
// sink path.
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
			// Reference: the legacy observers on the interpretive runner.
			iv := telemetry.NewIntervalSeries(interval)
			hot := telemetry.NewHotBranches(topk)
			refOpts := os.opts
			refOpts.DisableFastpath = true
			refOpts.Observer = telemetry.Multi(iv, hot)
			refRes, err := Run(buildEquivSpec(t, s, snap), snap.Reader(), refOpts)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", s, os.name, err)
			}

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
			if !reflect.DeepEqual(sink.Samples, iv.Samples()) {
				t.Errorf("%s/%s: kernel samples differ from IntervalSeries:\n got %+v\nwant %+v",
					s, os.name, sink.Samples, iv.Samples())
			}
			if !reflect.DeepEqual(sink.Switches, iv.Switches()) {
				t.Errorf("%s/%s: kernel switch indices differ:\n got %v\nwant %v",
					s, os.name, sink.Switches, iv.Switches())
			}
			hotRef := hot.Report()
			if len(sink.TopMispredicted) != len(hotRef) {
				t.Errorf("%s/%s: profile has %d rows, HotBranches %d",
					s, os.name, len(sink.TopMispredicted), len(hotRef))
			} else {
				for i, row := range sink.TopMispredicted {
					ref := hotRef[i]
					if row.PC != ref.PC || row.Mispredicts != ref.Mispredicts ||
						row.Executions != ref.Executions ||
						row.TakenRate != ref.TakenRate || row.MissShare != ref.MissShare {
						t.Errorf("%s/%s: profile row %d = %+v, HotBranches %+v",
							s, os.name, i, row, ref)
					}
				}
			}

			// Interpretive sink path: the runner feeding the same Tap
			// must agree with the kernel field for field (including the
			// warmup-miss split the legacy observers lack).
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
