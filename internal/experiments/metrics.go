package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"

	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
)

// RunMetrics is the per-run unit of the metrics document: one predictor
// measured on one benchmark, with the telemetry Telemetry collected.
type RunMetrics struct {
	// Experiment is the experiment ID the run belongs to (empty for
	// runs outside an experiment).
	Experiment string `json:"experiment,omitempty"`
	// Spec is the predictor configuration in the paper's naming
	// convention.
	Spec string `json:"spec"`
	// Benchmark is the benchmark name.
	Benchmark string `json:"benchmark"`
	// Accuracy is the run's prediction accuracy (fraction).
	Accuracy float64 `json:"accuracy"`
	// Stats carries wall-clock, throughput, allocation and occupancy.
	Stats telemetry.RunMetrics `json:"stats"`
	// Batched marks runs that were replayed in a single-pass
	// multi-predictor batch (sim.RunMany); BatchSize is the number of
	// predictors sharing that pass. Wall-clock and allocation figures for
	// batched runs measure the shared pass, not the run alone — consumers
	// comparing per-run cost should divide by BatchSize or filter on
	// Batched.
	Batched bool `json:"batched,omitempty"`
	// BatchSize is the predictor count of the shared pass (0 for serial
	// runs).
	BatchSize int `json:"batch_size,omitempty"`
	// HotBranches is the top-K static branches by mispredictions
	// (present when Telemetry.HotK > 0).
	HotBranches []telemetry.HotBranch `json:"hot_branches,omitempty"`
	// Intervals is the accuracy time series (present when
	// Telemetry.Interval > 0).
	Intervals []telemetry.Sample `json:"intervals,omitempty"`
	// Switches marks the resolved-branch index of each context switch,
	// for aligning recovery curves against Intervals.
	Switches []uint64 `json:"switches,omitempty"`
}

// ExperimentMetrics summarises one experiment's execution.
type ExperimentMetrics struct {
	// ID is the experiment identifier.
	ID string `json:"id"`
	// WallClockSeconds is the experiment's total duration, including
	// training passes and trace generation.
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	// Runs is the number of instrumented simulation runs recorded.
	Runs int `json:"runs"`
}

// Telemetry configures and accumulates per-run telemetry across
// experiments. Attach one to Options.Telemetry; every measured predictor
// run then lands in Runs with its Stats, plus hot branches, an interval
// series and a forensics report when requested. All of them ride the
// simulator's sim.Telemetry sink and Stats are derived from the run's
// Result, so an instrumented run replays on the kernel like any other.
// The collector is goroutine-safe: experiments fan runs out across
// benchmarks.
type Telemetry struct {
	// HotK, when positive, collects the top-K static branches by
	// mispredictions for every run.
	HotK int
	// Interval, when positive, samples accuracy every Interval resolved
	// conditional branches for every run.
	Interval uint64
	// ForensicsTopK, when positive, collects a mispredict-forensics
	// report (flight recorder + H2P profiles) for every run, for
	// ForensicsDocument.
	ForensicsTopK int

	mu          sync.Mutex
	current     string // experiment ID runs are stamped with
	runsAtBegin int
	runs        []RunMetrics
	experiments []ExperimentMetrics
	forensics   []ForensicsRun
}

// ForensicsRun is one run's forensics report with its grid coordinates.
type ForensicsRun struct {
	// Experiment is the experiment ID the run belongs to (empty for
	// runs outside an experiment).
	Experiment string `json:"experiment,omitempty"`
	// Spec and Benchmark name the grid cell.
	Spec      string `json:"spec"`
	Benchmark string `json:"benchmark"`
	// Report is the run's forensics report.
	Report telemetry.ForensicsReport `json:"report"`
}

// recordFunc lands one completed run in the collector. from is the cost
// stamp taken as the run's pass began; batch is the number of
// predictors that shared the simulation pass (1 for a serial run);
// batched runs are stamped so per-run timing can be interpreted.
type recordFunc func(sp spec.Spec, b *prog.Benchmark, res sim.Result, from CostStamp, batch int)

// instrument returns the telemetry sink for one simulation run of p and
// the record function to call once the run completed. budget is the
// run's conditional-branch budget; the forensics report uses it for the
// warmup-vs-steady miss split. Stats are derived from the run's Result,
// and their time and allocation figures span the record call's from
// stamp to the call itself. The record function must only be called
// once.
func (t *Telemetry) instrument(p predictor.Predictor, budget uint64) (*sim.Telemetry, recordFunc) {
	sink := &sim.Telemetry{Interval: t.Interval, TopK: t.HotK}
	if t.ForensicsTopK > 0 {
		sink.Forensics = telemetry.NewForensics(telemetry.ForensicsConfig{
			TopK:   t.ForensicsTopK,
			Budget: budget,
		})
	}
	record := func(sp spec.Spec, b *prog.Benchmark, res sim.Result, from CostStamp, batch int) {
		rm := RunMetrics{
			Spec:      sp.String(),
			Benchmark: b.Name,
			Accuracy:  res.Accuracy.Rate(),
			Stats:     RunStats(res, p, from, ReadCost()),
		}
		if batch > 1 {
			rm.Batched = true
			rm.BatchSize = batch
		}
		rm.HotBranches = sink.HotBranches()
		rm.Intervals, rm.Switches = sink.Samples, sink.Switches
		t.mu.Lock()
		rm.Experiment = t.current
		t.runs = append(t.runs, rm)
		if sink.Forensics != nil {
			t.forensics = append(t.forensics, ForensicsRun{
				Experiment: t.current,
				Spec:       rm.Spec,
				Benchmark:  rm.Benchmark,
				Report:     sink.Forensics.Report(),
			})
		}
		t.mu.Unlock()
	}
	return sink, record
}

// CostStamp is one reading of the clock and the allocation counters;
// Stats' time and allocation figures are the difference of two.
type CostStamp struct {
	at             time.Time
	alloc, mallocs uint64
}

// ReadCost reads the clock and the allocation counters.
func ReadCost() CostStamp {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return CostStamp{
		at:      time.Now(), //lint:allow determinism Stats measure wall-clock cost; excluded from byte-identical report surfaces
		alloc:   m.TotalAlloc,
		mallocs: m.Mallocs,
	}
}

// RunStats builds the Stats of a completed run of p: the counts derived
// from its Result (resultCounts), and the time and allocation figures
// between two cost stamps taken around the run.
func RunStats(res sim.Result, p predictor.Predictor, from, to CostStamp) telemetry.RunMetrics {
	m := resultCounts(res, p)
	m.WallClockSeconds = to.at.Sub(from.at).Seconds()
	m.AllocBytes = to.alloc - from.alloc
	m.Mallocs = to.mallocs - from.mallocs
	if m.WallClockSeconds > 0 {
		m.EventsPerSec = float64(m.Events) / m.WallClockSeconds
	}
	return m
}

// resultCounts derives the count fields of a completed run of p —
// events, predictions (squashed
// re-predictions included), resolutions, mispredictions, traps, context
// switches and the predictor's final table occupancy — from its Result
// alone, so collecting them costs the run no observer.
func resultCounts(res sim.Result, p predictor.Predictor) telemetry.RunMetrics {
	m := telemetry.RunMetrics{
		Events:          ResultEvents(res),
		Predictions:     res.Accuracy.Predictions + res.Repredictions,
		Resolutions:     res.Accuracy.Predictions,
		Mispredictions:  res.Accuracy.Predictions - res.Accuracy.Correct,
		Traps:           res.Traps,
		ContextSwitches: res.ContextSwitches,
	}
	if insp, ok := p.(predictor.Inspector); ok {
		occ := insp.Inspect()
		m.Occupancy = &occ
	}
	return m
}

// ForensicsRuns returns the recorded per-run forensics reports, sorted by
// (experiment, spec, benchmark) so the collection is deterministic no
// matter how the grid's workers interleaved.
func (t *Telemetry) ForensicsRuns() []ForensicsRun {
	t.mu.Lock()
	out := append([]ForensicsRun(nil), t.forensics...)
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b ForensicsRun) int {
		return cmp.Or(cmp.Compare(a.Experiment, b.Experiment),
			cmp.Compare(a.Spec, b.Spec), cmp.Compare(a.Benchmark, b.Benchmark))
	})
	return out
}

// beginExperiment stamps subsequent runs with the experiment ID and
// returns the wall-clock start.
func (t *Telemetry) beginExperiment(id string) time.Time {
	t.mu.Lock()
	t.current = id
	t.runsAtBegin = len(t.runs)
	t.mu.Unlock()
	return time.Now() //lint:allow determinism wall-clock duration reporting; excluded from byte-identical report surfaces
}

// runsSinceBegin reports how many runs the current experiment recorded.
func (t *Telemetry) runsSinceBegin() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs) - t.runsAtBegin
}

// endExperiment closes the experiment's metrics entry.
func (t *Telemetry) endExperiment(id string, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.experiments = append(t.experiments, ExperimentMetrics{
		ID:               id,
		WallClockSeconds: time.Since(start).Seconds(), //lint:allow determinism wall-clock duration reporting; excluded from byte-identical report surfaces
		Runs:             len(t.runs) - t.runsAtBegin,
	})
	t.current = ""
}

// Runs returns a copy of the recorded per-run metrics, sorted by
// (experiment, spec, benchmark) like ForensicsRuns, so the document does
// not depend on the order the grid's workers finished in.
func (t *Telemetry) Runs() []RunMetrics {
	t.mu.Lock()
	out := append([]RunMetrics(nil), t.runs...)
	t.mu.Unlock()
	slices.SortStableFunc(out, func(a, b RunMetrics) int {
		return cmp.Or(cmp.Compare(a.Experiment, b.Experiment),
			cmp.Compare(a.Spec, b.Spec), cmp.Compare(a.Benchmark, b.Benchmark))
	})
	return out
}

// Experiments returns a copy of the per-experiment summaries.
func (t *Telemetry) Experiments() []ExperimentMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ExperimentMetrics(nil), t.experiments...)
}

// referenceSpec is the run stamped for experiments that only summarise
// traces (table1-3, fig4): the paper's preferred configuration, so a
// metrics document always carries per-benchmark timing, throughput,
// hot-branch and interval data no matter which experiment produced it.
var referenceSpec = "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))"

// stampReference measures the reference configuration on every benchmark
// of o, recording runs under the current experiment label. It rides the
// same grid scheduler as the accuracy experiments.
func stampReference(o Options) error {
	o = o.withDefaults()
	sp, err := spec.Parse(referenceSpec)
	if err != nil {
		return err
	}
	_, err = runGrid([]labeledSpec{{label: referenceSpec, sp: sp}}, o)
	return err
}
