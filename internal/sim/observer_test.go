package sim

import (
	"reflect"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// observerTrace builds a deterministic in-memory trace: a handful of
// static conditional branches with mixed outcomes plus periodic traps.
func observerTrace(events int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < events; i++ {
		if i%97 == 96 {
			tr.Append(trace.Event{Instrs: 3, Trap: true})
			continue
		}
		pc := uint32(0x1000 + 4*(i%13))
		tr.Append(trace.Event{Instrs: 5, Branch: trace.Branch{
			PC:     pc,
			Target: pc - 64,
			Class:  trace.Cond,
			Taken:  (i/(1+i%3))%2 == 0,
		}})
	}
	return tr
}

func observerTestPredictor(t testing.TB) *predictor.TwoLevel {
	t.Helper()
	p, err := predictor.NewTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: 8, Automaton: automaton.A2,
		Entries: 64, Assoc: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNilObserverAllocationFree proves the nil-observer path in the sim
// hot loop allocates nothing: attaching telemetry must stay free until an
// observer is actually supplied.
func TestNilObserverAllocationFree(t *testing.T) {
	tr := observerTrace(4096)
	p := observerTestPredictor(t)
	rd := tr.Reader()
	// Warm-up pass: BHT entries and history registers for every static
	// branch are allocated on first touch and persist across runs.
	if _, err := Run(p, rd, Options{ContextSwitches: true, CSInterval: 100}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset()
		if _, err := Run(p, rd, Options{ContextSwitches: true, CSInterval: 100}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-observer sim.Run allocated %.1f times per run, want 0", allocs)
	}
}

// countingObserver records every callback for the threading tests.
type countingObserver struct {
	starts, finishes             int
	predicts, resolves, corrects int
	traps, switches              int
	sawOutcomeInPredict          bool
	info                         telemetry.RunInfo
}

func (c *countingObserver) Start(info telemetry.RunInfo) { c.starts++; c.info = info }
func (c *countingObserver) OnPredict(b trace.Branch, predicted bool) {
	c.predicts++
	if b.Taken {
		c.sawOutcomeInPredict = true
	}
}
func (c *countingObserver) OnResolve(b trace.Branch, predicted, correct bool) {
	c.resolves++
	if correct {
		c.corrects++
	}
}
func (c *countingObserver) OnContextSwitch() { c.switches++ }
func (c *countingObserver) OnTrap()          { c.traps++ }
func (c *countingObserver) Finish()          { c.finishes++ }

func TestObserverThreadedThroughSerialRun(t *testing.T) {
	tr := observerTrace(2000)
	p := observerTestPredictor(t)
	obs := &countingObserver{}
	res, err := Run(p, tr.Reader(), Options{
		ContextSwitches: true, CSInterval: 100, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.starts != 1 || obs.finishes != 1 {
		t.Errorf("start/finish = %d/%d, want 1/1", obs.starts, obs.finishes)
	}
	if obs.info.Predictor != predictor.Predictor(p) {
		t.Error("RunInfo.Predictor not threaded")
	}
	if uint64(obs.predicts) != res.Accuracy.Predictions || uint64(obs.resolves) != res.Accuracy.Predictions {
		t.Errorf("predicts/resolves = %d/%d, want %d", obs.predicts, obs.resolves, res.Accuracy.Predictions)
	}
	if uint64(obs.corrects) != res.Accuracy.Correct {
		t.Errorf("correct resolutions = %d, want %d", obs.corrects, res.Accuracy.Correct)
	}
	if uint64(obs.traps) != res.Traps || uint64(obs.switches) != res.ContextSwitches {
		t.Errorf("traps/switches = %d/%d, want %d/%d", obs.traps, obs.switches, res.Traps, res.ContextSwitches)
	}
	if res.Traps == 0 || res.ContextSwitches == 0 {
		t.Fatal("test trace produced no traps/switches; observer paths unexercised")
	}
	if obs.sawOutcomeInPredict {
		t.Error("OnPredict leaked the branch outcome (b.Taken set)")
	}
}

func TestObserverThreadedThroughPipelinedRun(t *testing.T) {
	tr := observerTrace(2000)
	p := observerTestPredictor(t)
	obs := &countingObserver{}
	res, err := Run(p, tr.Reader(), Options{PipelineDepth: 4, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.starts != 1 || obs.finishes != 1 {
		t.Errorf("start/finish = %d/%d, want 1/1", obs.starts, obs.finishes)
	}
	if uint64(obs.resolves) != res.Accuracy.Predictions {
		t.Errorf("resolves = %d, want %d", obs.resolves, res.Accuracy.Predictions)
	}
	// Squashed re-predictions are reported as predictions too.
	want := res.Accuracy.Predictions + res.Repredictions
	if uint64(obs.predicts) != want {
		t.Errorf("predicts = %d, want %d (incl. %d repredictions)", obs.predicts, want, res.Repredictions)
	}
	if res.Repredictions == 0 {
		t.Fatal("pipelined run squashed nothing; reprediction path unexercised")
	}
}

func TestMultiplexNotifiesObserver(t *testing.T) {
	a, b := observerTrace(3000), observerTrace(3000)
	mux, err := NewMultiplex([]trace.Source{a.Reader(), b.Reader()}, 200)
	if err != nil {
		t.Fatal(err)
	}
	p := observerTestPredictor(t)
	res, err := Run(p, mux, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mux.Switches == 0 {
		t.Fatal("multiplexer never switched")
	}
	// Each multiplexer switch is surfaced to the simulator as a trap, on
	// top of the trap events already present in the source traces.
	if res.Traps < mux.Switches {
		t.Errorf("traps = %d < switches = %d; every switch should emit a trap", res.Traps, mux.Switches)
	}
}

// TestIntervalSeriesThroughBatchedReplay collects per-cell interval
// series through one RunMany pass with branch budgets NOT divisible by
// the sampling interval, and checks that each series ends in the
// correct partial sample and equals the per-window counts of the
// resolutions a serial interpretive run of the same predictor reports to
// an Observer.
func TestIntervalSeriesThroughBatchedReplay(t *testing.T) {
	tr := observerTrace(4000)
	const interval = 100
	budgets := []uint64{250, 330} // 2 full + partial 50, 3 full + partial 30
	preds := make([]predictor.Predictor, len(budgets))
	opts := make([]Options, len(budgets))
	for i, budget := range budgets {
		preds[i] = observerTestPredictor(t)
		opts[i] = Options{MaxCondBranches: budget, Telemetry: &Telemetry{Interval: interval}}
	}
	results, err := RunMany(preds, tr.Reader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, budget := range budgets {
		samples := opts[i].Telemetry.Samples
		wantN := int(budget/interval) + 1
		if len(samples) != wantN {
			t.Fatalf("budget %d: %d samples, want %d (full intervals + final partial)", budget, len(samples), wantN)
		}
		last := samples[len(samples)-1]
		if last.Branches != budget || last.Predictions != budget%interval {
			t.Errorf("budget %d: final partial sample = %+v, want %d branches over a %d-wide interval",
				budget, last, budget, budget%interval)
		}
		if results[i].Accuracy.Predictions != budget {
			t.Errorf("budget %d: run resolved %d branches", budget, results[i].Accuracy.Predictions)
		}

		serial := &resolutionLog{}
		if _, err := Run(observerTestPredictor(t), tr.Reader(), Options{
			MaxCondBranches: budget, Observer: serial,
		}); err != nil {
			t.Fatal(err)
		}
		if want := serial.samples(interval); !reflect.DeepEqual(samples, want) {
			t.Errorf("budget %d: batched series diverges from the serial run's resolutions:\n%v\n%v",
				budget, samples, want)
		}
	}
}
