package reference

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"twolevel/internal/rng"
	"twolevel/internal/sim"
	"twolevel/internal/telemetry"
)

// correct reports whether the reference predicted branch j correctly.
func (run replay) correct(j int) bool { return run.preds[j] == run.outcomes[j] }

// windows counts the reference's correct predictions in each window of
// every resolutions, the last window possibly short (nil for every 0).
func (run replay) windows(every uint64) []telemetry.Sample {
	if every == 0 {
		return nil
	}
	var out []telemetry.Sample
	n := len(run.preds)
	for lo := 0; lo < n; lo += int(every) {
		hi := min(lo+int(every), n)
		s := telemetry.Sample{Branches: uint64(hi), Predictions: uint64(hi - lo)}
		for j := lo; j < hi; j++ {
			if run.correct(j) {
				s.Correct++
			}
		}
		s.Accuracy = float64(s.Correct) / float64(s.Predictions)
		out = append(out, s)
	}
	return out
}

// profile ranks the reference's branch sites through a per-PC map: the
// topK with the most mispredictions, ties broken by lower PC, each with
// the mispredictions among the first tenth of budget's resolutions
// counted as warmup misses. It also returns the number of distinct PCs.
func (run replay) profile(topK int, budget uint64) ([]telemetry.PCStats, int) {
	rows := map[uint32]*telemetry.PCStats{}
	var misses uint64
	for j, pc := range run.pcs {
		row := rows[pc]
		if row == nil {
			row = &telemetry.PCStats{PC: pc}
			rows[pc] = row
		}
		row.Executions++
		if run.outcomes[j] {
			row.Taken++
		}
		if !run.correct(j) {
			misses++
			row.Mispredicts++
			if uint64(j) < budget/10 {
				row.WarmupMisses++
			}
		}
	}
	var pcs []uint32
	for pc := range rows {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(a, b int) bool {
		ra, rb := rows[pcs[a]], rows[pcs[b]]
		if ra.Mispredicts != rb.Mispredicts {
			return ra.Mispredicts > rb.Mispredicts
		}
		return pcs[a] < pcs[b]
	})
	var top []telemetry.PCStats
	for _, pc := range pcs[:min(topK, len(pcs))] {
		row := *rows[pc]
		row.TakenRate = float64(row.Taken) / float64(row.Executions)
		if misses > 0 {
			row.MissShare = float64(row.Mispredicts) / float64(misses)
		}
		top = append(top, row)
	}
	return top, len(rows)
}

// drawTelemetry draws what a run's Telemetry sink asks for: an interval
// (0, none, in a quarter of cases), a top-K (0, none, in a fifth) and,
// in half of the cases, forensics with a drawn configuration whose
// budget is the run's, another or unknown.
func drawTelemetry(r *rng.RNG, opts sim.Options, conds int) (uint64, int, *telemetry.ForensicsConfig) {
	var interval uint64
	if r.Intn(4) != 0 {
		interval = 1 + uint64(r.Intn(200))
	}
	topK := 0
	if r.Intn(5) != 0 {
		topK = 1 + r.Intn(60)
	}
	if r.Intn(2) == 0 {
		return interval, topK, nil
	}
	cfg := &telemetry.ForensicsConfig{
		TopK:         r.Intn(12),
		HistoryBits:  1 + r.Intn(12),
		RecorderSize: r.Intn(80),
		MaxSnapshots: r.Intn(6),
	}
	if cfg.RecorderSize > 0 {
		cfg.BurstThreshold = r.Intn(cfg.RecorderSize + 2)
	}
	switch r.Intn(3) {
	case 0:
		cfg.Budget = opts.MaxCondBranches
	case 1:
		cfg.Budget = uint64(r.Intn(2*conds + 1))
	}
	return interval, topK, cfg
}

// FuzzTelemetryVsReference checks every output of the Telemetry sink —
// Samples, Switches, TopMispredicted, StaticBranches and the Forensics
// report — against folds written here over the reference's per-branch
// predictions and outcomes: a per-window count, a per-PC map and the
// naive Forensics model. The scheme, trace and context-switch schedule
// are drawn as in FuzzPredictorVsReference, the interval, top-K and
// forensics configuration on top, and each is checked on the
// interpretive runner, the serial kernel and the kernel asked for 2 and
// 4 shards.
func FuzzTelemetryVsReference(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		name, snap, opts, ref, build := drawCase(t, r)
		run := replayReference(ref, snap, opts)
		interval, topK, fcfg := drawTelemetry(r, opts, len(run.preds))

		wantSamples := run.windows(interval)
		var wantSwitches []uint64
		if interval > 0 {
			wantSwitches = run.switches
		}
		wantTop, wantSites := run.profile(topK, opts.MaxCondBranches)
		if topK == 0 {
			wantSites = 0
		}
		var wantForensics telemetry.ForensicsReport
		if fcfg != nil {
			model := NewForensics(*fcfg)
			for j, pc := range run.pcs {
				model.Resolve(pc, run.outcomes[j], run.correct(j))
			}
			wantForensics = model.Report()
		}

		for _, path := range []struct {
			name   string
			shards int
			kernel bool
		}{{"interpretive", 0, false}, {"kernel/shards=1", 1, true}, {"kernel/shards=2", 2, true}, {"kernel/shards=4", 4, true}} {
			what := fmt.Sprintf("seed %d, %s %s, interval %d, top %d", seed, name, path.name, interval, topK)
			sink := &sim.Telemetry{Interval: interval, TopK: topK}
			if fcfg != nil {
				sink.Forensics = telemetry.NewForensics(*fcfg)
			}
			o := opts
			o.Shards, o.DisableFastpath, o.Telemetry = path.shards, !path.kernel, sink
			p := build()
			if path.kernel && !sim.FastpathEligible(p, snap.Reader(), o) {
				t.Fatalf("%s: kernel declined", what)
			}
			if _, err := sim.Run(p, snap.Reader(), o); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sink.Samples, wantSamples) {
				t.Fatalf("%s: samples differ from the reference's windows:\n got %+v\nwant %+v", what, sink.Samples, wantSamples)
			}
			if !reflect.DeepEqual(sink.Switches, wantSwitches) {
				t.Fatalf("%s: switch marks %v, reference %v", what, sink.Switches, wantSwitches)
			}
			if len(sink.TopMispredicted)+len(wantTop) > 0 && !reflect.DeepEqual(sink.TopMispredicted, wantTop) {
				t.Fatalf("%s: profile differs from the reference's per-PC map:\n got %+v\nwant %+v", what, sink.TopMispredicted, wantTop)
			}
			if sink.StaticBranches != wantSites {
				t.Fatalf("%s: %d static branches, reference %d", what, sink.StaticBranches, wantSites)
			}
			if fcfg != nil {
				if got := sink.Forensics.Report(); !reflect.DeepEqual(got, wantForensics) {
					t.Fatalf("%s, %+v: forensics differ from the reference model's:\n got %+v\nwant %+v", what, *fcfg, got, wantForensics)
				}
			}
		}
	})
}
