package twolevel_test

import (
	"reflect"
	"testing"

	"twolevel"
)

// countingObserver counts every simulator callback of a run and reads
// the predictor's occupancy when the run finishes, in RunMetrics' terms.
type countingObserver struct {
	info twolevel.ObserverRunInfo
	m    twolevel.RunMetrics
}

func (c *countingObserver) Start(info twolevel.ObserverRunInfo) { c.info = info }
func (c *countingObserver) OnPredict(twolevel.Branch, bool)     { c.m.Predictions++ }
func (c *countingObserver) OnContextSwitch()                    { c.m.ContextSwitches++ }
func (c *countingObserver) OnTrap()                             { c.m.Traps++ }
func (c *countingObserver) OnResolve(_ twolevel.Branch, _, correct bool) {
	c.m.Resolutions++
	if !correct {
		c.m.Mispredictions++
	}
}

func (c *countingObserver) Finish() {
	c.m.Events = c.m.Predictions + c.m.Resolutions + c.m.Traps + c.m.ContextSwitches
	if insp, ok := c.info.Predictor.(twolevel.PredictorInspector); ok {
		occ := insp.Inspect()
		c.m.Occupancy = &occ
	}
}

// TestRunStatsForMatchesCountingObserver pins RunStatsFor, the cost
// summary metrics.json records for a run, against a counting Observer
// on the same run: every count and the table occupancy must agree, on
// a pipelined run (whose squashed branches are predicted again) and on
// a context-switched one, and the cost stamps around the run must give
// it a duration and a throughput.
func TestRunStatsForMatchesCountingObserver(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts twolevel.SimOptions
	}{
		{"pipelined", twolevel.SimOptions{PipelineDepth: 4}},
		{"context-switched", twolevel.SimOptions{ContextSwitches: true, CSInterval: 20_000}},
	} {
		p, err := twolevel.NewPredictor("PAg(BHT(64,4,8-sr),1xPHT(2^8,A2))")
		if err != nil {
			t.Fatal(err)
		}
		src, err := twolevel.NewBenchmarkSource("gcc", false)
		if err != nil {
			t.Fatal(err)
		}
		obs := &countingObserver{}
		opts := tc.opts
		opts.MaxCondBranches, opts.Observer = 20_000, obs
		from := twolevel.ReadCost()
		res, err := twolevel.Simulate(p, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := twolevel.RunStatsFor(res, p, from, twolevel.ReadCost())
		if res.Repredictions+res.ContextSwitches == 0 {
			t.Fatalf("%s: the run neither repredicted nor switched context", tc.name)
		}

		if m.WallClockSeconds <= 0 || m.EventsPerSec <= 0 {
			t.Errorf("%s: cost not measured: %+v", tc.name, m)
		}
		m.WallClockSeconds, m.EventsPerSec, m.AllocBytes, m.Mallocs = 0, 0, 0, 0
		if !reflect.DeepEqual(m, obs.m) {
			t.Errorf("%s: RunStatsFor = %+v, the observer counted %+v", tc.name, m, obs.m)
		}
		if occ := m.Occupancy; occ == nil || occ.BHTCapacity != 64 || occ.PHTTables != 1 || occ.PHTEntriesPerTable != 256 {
			t.Errorf("%s: occupancy %+v, want a 64-entry BHT and 1 x 256 PHT", tc.name, occ)
		}
	}
}
