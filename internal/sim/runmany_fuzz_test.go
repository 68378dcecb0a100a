package sim

import (
	"fmt"
	"reflect"
	"testing"

	"twolevel/internal/predictor"
	"twolevel/internal/rng"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// fuzzSnapshot draws a kernelSnapshot-style packed trace from r: a few
// hundred branch sites, mixed classes, traps, biased, alternating and
// random outcomes, forward and backward targets.
func fuzzSnapshot(r *rng.RNG) trace.Snapshot {
	var p trace.Packed
	sites := 1 + r.Intn(400)
	classes := []trace.Class{trace.Uncond, trace.Call, trace.Return, trace.Indirect}
	for i, n := 0, 200+r.Intn(5800); i < n; i++ {
		instrs := 1 + uint32(r.Intn(9))
		if r.Intn(101) == 0 {
			p.Append(trace.Event{Instrs: instrs, Trap: true})
			continue
		}
		site := uint32(r.Intn(sites))
		pc := 0x40_0000 + 4*site
		b := trace.Branch{PC: pc, Target: pc + 4 + 4*uint32(r.Intn(50)), Class: trace.Cond}
		if r.Intn(3) == 0 {
			b.Target = pc - 4 - 4*uint32(r.Intn(50))
		}
		switch {
		case r.Intn(6) == 0:
			b.Class = classes[r.Intn(len(classes))]
			b.Taken = true
		case site%3 == 0:
			b.Taken = r.Intn(4) != 0
		case site%3 == 1:
			b.Taken = i%2 == 0
		default:
			b.Taken = r.Bool(0.5)
		}
		p.Append(trace.Event{Instrs: instrs, Branch: b})
	}
	return p.View(p.Len())
}

// fuzzCell is one drawn batch cell.
type fuzzCell struct {
	spec string
	opts Options
	// forensics, when non-nil, configures the Forensics the cell's sink
	// carries.
	forensics *telemetry.ForensicsConfig
}

// drawFuzzCell draws a kernelEquivSpecs entry and the options of one
// batch cell: budget, context-switch mode and quantum, telemetry
// interval, top-K and forensics, and one or two shards.
func drawFuzzCell(r *rng.RNG, conds int) fuzzCell {
	c := fuzzCell{spec: kernelEquivSpecs[r.Intn(len(kernelEquivSpecs))]}
	if r.Intn(3) == 0 {
		c.opts.MaxCondBranches = 1 + uint64(r.Intn(conds+1))
	}
	if r.Intn(2) == 0 {
		c.opts.ContextSwitches = true
		c.opts.CSInterval = 5 + uint64(r.Intn(2000))
	}
	if r.Intn(2) == 0 {
		c.opts.Telemetry = &Telemetry{}
		if r.Intn(3) != 0 {
			c.opts.Telemetry.Interval = 1 + uint64(r.Intn(500))
		}
		if r.Intn(3) != 0 {
			c.opts.Telemetry.TopK = 1 + r.Intn(10)
		}
		if r.Intn(2) == 0 {
			c.forensics = &telemetry.ForensicsConfig{
				TopK:         1 + r.Intn(10),
				HistoryBits:  1 + r.Intn(12),
				RecorderSize: 4 + r.Intn(60),
				Budget:       c.opts.MaxCondBranches,
			}
		}
	}
	c.opts.Shards = 1 + r.Intn(2)
	return c
}

// sink returns a fresh sink asking for what the cell asks for, or nil.
func (c fuzzCell) sink() *Telemetry {
	t := c.opts.Telemetry
	if t == nil {
		return nil
	}
	s := &Telemetry{Interval: t.Interval, TopK: t.TopK}
	if c.forensics != nil {
		s.Forensics = telemetry.NewForensics(*c.forensics)
	}
	return s
}

// FuzzRunManyVsRunner checks plan sharing differentially: a batch of 2–5
// kernel cells drawn from seed, with per-cell budgets, context-switch
// schedules, telemetry and shard counts, replays one shared plan in
// RunMany; every cell's Result, final predictor state and Telemetry sink
// (its Forensics included) must equal the same cell run alone on the
// interpretive runner, and the
// reader must end where the furthest of those runs ends. One cell is
// also replayed by a bare kernel through RunTo, split into legs at
// random event indices, which must land in the same place.
func FuzzRunManyVsRunner(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		snap := fuzzSnapshot(r)
		conds := 0
		for i := 0; i < snap.Len(); i++ {
			if e := snap.At(i); !e.Trap && e.Branch.Class == trace.Cond {
				conds++
			}
		}
		cells := make([]fuzzCell, 2+r.Intn(4))
		for i := range cells {
			cells[i] = drawFuzzCell(r, conds)
		}

		var (
			preds   []predictor.Predictor
			opts    []Options
			want    []Result
			wantP   []predictor.Predictor
			wantT   []*Telemetry
			wantEnd []int
		)
		furthest := 0
		for _, c := range cells {
			slowOpts := c.opts
			slowOpts.DisableFastpath = true
			slowOpts.Telemetry = c.sink()
			slowP := buildEquivSpec(t, c.spec, snap)
			src := snap.Reader()
			res, err := Run(slowP, src, slowOpts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantP, wantT = append(want, res), append(wantP, slowP), append(wantT, slowOpts.Telemetry)
			wantEnd = append(wantEnd, src.Pos())
			furthest = max(furthest, src.Pos())

			o := c.opts
			o.Telemetry = c.sink()
			p := buildEquivSpec(t, c.spec, snap)
			if !FastpathEligible(p, snap.Reader(), o) {
				t.Fatalf("%s: kernel declined", c.spec)
			}
			preds, opts = append(preds, p), append(opts, o)
		}

		src := snap.Reader()
		got, err := RunMany(preds, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			name := fmt.Sprintf("cell %d %s %+v", i, c.spec, c.opts)
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: RunMany result differs from the runner:\n got %+v\nwant %+v", name, got[i], want[i])
			}
			assertSameState(t, name, preds[i], wantP[i])
			if !reflect.DeepEqual(opts[i].Telemetry, wantT[i]) {
				t.Errorf("%s: RunMany telemetry differs from the runner:\n got %+v\nwant %+v", name, opts[i].Telemetry, wantT[i])
			}
		}
		if src.Pos() != furthest {
			t.Errorf("RunMany left the reader at %d, the runner's furthest pass at %d", src.Pos(), furthest)
		}

		// The legs: a bare kernel resumed by RunTo across random cuts of
		// the cell's replay range carries its context-switch phase,
		// predictor state and telemetry from leg to leg.
		ci := r.Intn(len(cells))
		c := cells[ci]
		p := buildEquivSpec(t, c.spec, snap)
		o := c.opts
		o.Telemetry = c.sink()
		k, ok := fastpath.New(p, fastpathConfig(o))
		if !ok {
			t.Fatalf("%s: fastpath.New declined", c.spec)
		}
		var counters fastpath.Counters
		for pos := 0; ; {
			end := min(pos+1+r.Intn(wantEnd[ci]-pos+1), wantEnd[ci])
			var n int
			counters, n, err = k.RunTo(snap, pos, end)
			if err != nil {
				t.Fatal(err)
			}
			if pos+n != end {
				t.Fatalf("%s: leg [%d, %d) consumed %d events", c.spec, pos, end, n)
			}
			if pos = end; pos >= wantEnd[ci] {
				break
			}
		}
		o.Telemetry.fill(k.Tap())
		name := fmt.Sprintf("legs of cell %d %s %+v", ci, c.spec, c.opts)
		if res := countersToResult(counters); !reflect.DeepEqual(res, want[ci]) {
			t.Errorf("%s: result differs from the runner:\n got %+v\nwant %+v", name, res, want[ci])
		}
		assertSameState(t, name, p, wantP[ci])
		if !reflect.DeepEqual(o.Telemetry, wantT[ci]) {
			t.Errorf("%s: telemetry differs from the runner:\n got %+v\nwant %+v", name, o.Telemetry, wantT[ci])
		}
	})
}
