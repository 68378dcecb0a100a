package reference

import (
	"fmt"
	"testing"

	"twolevel/internal/predictor"
	"twolevel/internal/rng"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// randomSpec draws a two-level configuration from the spec grammar:
// every variation of the {G,P,S}A{g,p,s} grid, practical and ideal
// tables, direct-mapped to fully associative, and every automaton.
func randomSpec(r *rng.RNG) string {
	k := 1 + r.Intn(8)
	atm := []string{"LT", "A1", "A2", "A3", "A4"}[r.Intn(5)]
	pow := func(maxLog int) int { return 1 << r.Intn(maxLog+1) }
	bhtSize := 0
	bht := fmt.Sprintf("IBHT(inf,,%d-sr)", k)
	if r.Intn(4) != 0 {
		bhtSize = pow(6)
		assoc := 1
		for assoc < bhtSize && r.Intn(2) == 0 {
			assoc *= 2
		}
		bht = fmt.Sprintf("BHT(%d,%d,%d-sr)", bhtSize, assoc, k)
	}
	hr := fmt.Sprintf("HR(1,,%d-sr)", k)
	sht := fmt.Sprintf("SHT(%d,,%d-sr)", pow(4), k)
	pht := func(sets string) string { return fmt.Sprintf("%sxPHT(2^%d,%s)", sets, k, atm) }
	setCount := func() string { return fmt.Sprint(pow(4)) }
	bound := func() string { // *p binding table size, or inf
		if r.Intn(4) == 0 {
			return "inf"
		}
		return fmt.Sprint(pow(6))
	}
	switch r.Intn(9) {
	case 0:
		return "GAg(" + hr + "," + pht("1") + ")"
	case 1:
		return "PAg(" + bht + "," + pht("1") + ")"
	case 2:
		if bhtSize == 0 {
			return "PAp(" + bht + "," + pht("inf") + ")"
		}
		return "PAp(" + bht + "," + pht(fmt.Sprint(bhtSize)) + ")"
	case 3:
		return "GAp(" + hr + "," + pht(bound()) + ")"
	case 4:
		return "GAs(" + hr + "," + pht(setCount()) + ")"
	case 5:
		return "PAs(" + bht + "," + pht(setCount()) + ")"
	case 6:
		return "SAg(" + sht + "," + pht("1") + ")"
	case 7:
		return "SAs(" + sht + "," + pht(setCount()) + ")"
	default:
		return "SAp(" + sht + "," + pht(bound()) + ")"
	}
}

// refConfig translates a parsed spec into the reference's terms. GAp and
// SAp bind pattern tables through a 4-way table sized by the pattern set
// count, the implementation choice spec.Build documents.
func refConfig(sp spec.Spec) Config {
	c := Config{
		Scheme:    string(sp.Scheme),
		K:         sp.HistoryBits,
		Automaton: sp.Automaton.String(),
		HistSets:  sp.HistSets,
	}
	switch sp.Scheme {
	case spec.SchemeGAp, spec.SchemeSAp:
		c.Entries, c.Assoc = sp.PHTSets, min(4, sp.PHTSets)
	case spec.SchemeGAs, spec.SchemePAs, spec.SchemeSAs:
		c.PatSets = sp.PHTSets
	}
	if sp.Scheme[0] == 'P' && !sp.Ideal {
		c.Entries, c.Assoc = sp.HistEntries, sp.HistAssoc
	}
	return c
}

// randomTrace draws a packed trace over a few dozen branch sites (so
// small tables conflict and recycle), with per-site outcome behaviours,
// non-conditional classes, unaligned PCs and traps.
func randomTrace(r *rng.RNG) trace.Snapshot {
	type site struct {
		pc       uint32
		behave   int
		period   int
		pTaken   float64
		executed int
	}
	sites := make([]site, 1+r.Intn(48))
	for i := range sites {
		pc := 0x1000 + 4*uint32(r.Intn(256))
		if r.Intn(8) == 0 {
			pc += 1 + uint32(r.Intn(3))
		}
		sites[i] = site{pc: pc, behave: r.Intn(5), period: 2 + r.Intn(6), pTaken: r.Float64()}
	}
	classes := []trace.Class{trace.Uncond, trace.Call, trace.Return, trace.Indirect}
	var p trace.Packed
	for n := 50 + r.Intn(1500); n > 0; n-- {
		instrs := 1 + uint32(r.Intn(8))
		if r.Intn(60) == 0 {
			p.Append(trace.Event{Instrs: instrs, Trap: true})
			continue
		}
		s := &sites[r.Intn(len(sites))]
		if r.Intn(6) == 0 {
			s = &sites[0] // a hot site
		}
		b := trace.Branch{PC: s.pc, Target: s.pc + 4 + 4*uint32(r.Intn(8)), Class: trace.Cond}
		if r.Intn(5) == 0 {
			b.Class = classes[r.Intn(len(classes))]
			b.Taken = true
		} else {
			switch s.behave {
			case 0:
				b.Taken = true
			case 1:
				b.Taken = false
			case 2:
				b.Taken = s.executed%2 == 0
			case 3:
				b.Taken = s.executed%s.period != 0 // loop back-edge
			default:
				b.Taken = r.Bool(s.pTaken)
			}
			s.executed++
		}
		p.Append(trace.Event{Instrs: instrs, Branch: b})
	}
	return p.View(p.Len())
}

// resolutions records per-branch predictions from the interpretive
// runner.
type resolutions struct {
	preds []bool
}

func (o *resolutions) Start(telemetry.RunInfo)      {}
func (o *resolutions) OnPredict(trace.Branch, bool) {}
func (o *resolutions) OnResolve(_ trace.Branch, predicted, _ bool) {
	o.preds = append(o.preds, predicted)
}
func (o *resolutions) OnContextSwitch() {}
func (o *resolutions) OnTrap()          {}
func (o *resolutions) Finish()          {}

// model is a reference predictor driven one conditional branch at a
// time: step predicts, trains and returns the prediction.
type model struct {
	step          func(pc, target uint32, taken bool) bool
	contextSwitch func()
}

// replay is a reference run: every conditional branch's PC, prediction
// and outcome in resolution order, and the number of branches resolved
// before each context switch.
type replay struct {
	pcs             []uint32
	preds, outcomes []bool
	switches        []uint64
}

// replayReference drives the reference over snap with the simulator's
// schedule: a trap switches context when switching is on, otherwise a
// switch comes before the first event that completes the quantum, and
// the run stops once budget conditional branches have been predicted.
func replayReference(m model, snap trace.Snapshot, opts sim.Options) replay {
	var run replay
	var sinceCS uint64
	contextSwitch := func() {
		m.contextSwitch()
		run.switches = append(run.switches, uint64(len(run.preds)))
		sinceCS = 0
	}
	for i := 0; i < snap.Len(); i++ {
		if opts.MaxCondBranches > 0 && uint64(len(run.preds)) >= opts.MaxCondBranches {
			break
		}
		e := snap.At(i)
		sinceCS += uint64(e.Instrs)
		if e.Trap {
			if opts.ContextSwitches {
				contextSwitch()
			}
			continue
		}
		if opts.ContextSwitches && sinceCS >= opts.CSInterval {
			contextSwitch()
		}
		if e.Branch.Class != trace.Cond {
			continue
		}
		run.pcs = append(run.pcs, e.Branch.PC)
		run.preds = append(run.preds, m.step(e.Branch.PC, e.Branch.Target, e.Branch.Taken))
		run.outcomes = append(run.outcomes, e.Branch.Taken)
	}
	return run
}

// randomShape draws a practical table shape: 1 to 64 entries, from
// direct-mapped to fully associative.
func randomShape(r *rng.RNG) (entries, assoc int) {
	entries, assoc = 1<<r.Intn(7), 1
	for assoc < entries && r.Intn(2) == 0 {
		assoc *= 2
	}
	return entries, assoc
}

// conds calls f with every conditional branch of snap.
func conds(snap trace.Snapshot, f func(b trace.Branch)) {
	for i := 0; i < snap.Len(); i++ {
		if e := snap.At(i); !e.Trap && e.Branch.Class == trace.Cond {
			f(e.Branch)
		}
	}
}

// drawCase draws one fuzz case from r: a spec name, the simulator
// options, the reference model and a constructor for fresh simulator
// predictors. Four in seven cases are two-level configurations
// (randomSpec); the rest are BTB designs over every automaton, either
// miss policy and practical tables from direct-mapped to fully
// associative, and the two training schemes, Profiling and Static
// Training (GSg, or PSg over a practical or ideal table), each trained
// on a second random trace, so some branches and patterns of the
// replayed trace are untrained.
func drawCase(t *testing.T, r *rng.RNG) (string, trace.Snapshot, sim.Options, model, func() predictor.Predictor) {
	kind := r.Intn(7)
	var name string
	if kind >= 3 {
		name = randomSpec(r)
	}
	snap := randomTrace(r)
	var opts sim.Options
	if r.Intn(2) == 0 {
		opts.ContextSwitches = true
		opts.CSInterval = 5 + uint64(r.Intn(300))
	}
	if r.Intn(3) == 0 {
		opts.MaxCondBranches = 1 + uint64(r.Intn(snap.Len()))
	}
	cs := ""
	if opts.ContextSwitches {
		cs = ",c"
	}
	switch kind {
	case 0:
		entries, assoc := randomShape(r)
		atm := []string{"LT", "A1", "A2", "A3", "A4"}[r.Intn(5)]
		missBTFN := r.Intn(2) == 0
		name = fmt.Sprintf("BTB(BHT(%d,%d,%s),%s)", entries, assoc, atm, cs)
		sp := mustParse(t, name)
		policy := predictor.BTBMissTaken
		if missBTFN {
			policy = predictor.BTBMissBTFN
			name += " miss=BTFN"
		}
		ref := NewBTB(entries, assoc, atm, missBTFN)
		return name, snap, opts, model{ref.Step, ref.ContextSwitch}, func() predictor.Predictor {
			p, err := predictor.NewBTB(predictor.BTBConfig{
				Entries: sp.HistEntries, Assoc: sp.HistAssoc, Automaton: sp.Automaton, MissPolicy: policy,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return p
		}
	case 1:
		name = "Profiling"
		if opts.ContextSwitches {
			name = "Profiling(,,c)"
		}
		sp := mustParse(t, name)
		train := randomTrace(r)
		ref := NewProfile()
		conds(train, func(b trace.Branch) { ref.Train(b.PC, b.Taken) })
		step := func(pc, _ uint32, _ bool) bool { return ref.Predict(pc) }
		return name, snap, opts, model{step, func() {}}, func() predictor.Predictor {
			trainer := predictor.NewProfileTrainer()
			if err := trainer.ObserveTrace(train.Reader()); err != nil {
				t.Fatal(err)
			}
			p, err := spec.Build(sp, &spec.TrainingData{Profile: trainer})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return p
		}
	case 2:
		k := 1 + r.Intn(8)
		perAddress := r.Intn(2) == 0
		entries, assoc := 0, 0
		name = fmt.Sprintf("GSg(HR(1,,%d-sr),1xPHT(2^%d,PB))", k, k)
		if perAddress {
			hist := fmt.Sprintf("IBHT(inf,,%d-sr)", k)
			if r.Intn(3) != 0 {
				entries, assoc = randomShape(r)
				hist = fmt.Sprintf("BHT(%d,%d,%d-sr)", entries, assoc, k)
			}
			name = fmt.Sprintf("PSg(%s,1xPHT(2^%d,PB))", hist, k)
		}
		sp := mustParse(t, name)
		train := randomTrace(r)
		static := NewStatic(k, perAddress)
		conds(train, func(b trace.Branch) { static.Train(b.PC, b.Taken) })
		ref := static.Predictor(entries, assoc)
		step := func(pc, _ uint32, taken bool) bool { return ref.Step(pc, taken) }
		return name, snap, opts, model{step, ref.ContextSwitch}, func() predictor.Predictor {
			trainer, err := spec.NewTrainer(sp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := trainer.ObserveTrace(train.Reader()); err != nil {
				t.Fatal(err)
			}
			p, err := spec.Build(sp, &spec.TrainingData{Static: trainer})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return p
		}
	}
	sp := mustParse(t, name)
	ref := New(refConfig(sp))
	step := func(pc, _ uint32, taken bool) bool { return ref.Step(pc, taken) }
	return name, snap, opts, model{step, ref.ContextSwitch}, func() predictor.Predictor {
		p, err := spec.Build(sp, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
}

func mustParse(t *testing.T, name string) spec.Spec {
	t.Helper()
	sp, err := spec.Parse(name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sp
}

// FuzzPredictorVsReference checks the simulator's predictions, branch
// by branch, against the reference models: the interpretive runner, the
// serial flat kernel and the kernel asked for 2 and 4 shards, over a
// random scheme (two-level, BTB, Profiling or Static Training), trace
// and context-switch schedule drawn from seed. Kernel predictions are
// read back from an Interval 1 telemetry series, whose samples hold one
// resolution each in resolution order.
func FuzzPredictorVsReference(f *testing.F) {
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		name, snap, opts, ref, build := drawCase(t, rng.New(seed))
		run := replayReference(ref, snap, opts)
		want, outcomes := run.preds, run.outcomes

		check := func(path string, got []bool) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d predictions, reference made %d", name, path, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: branch %d predicted %v, reference %v", name, path, i, got[i], want[i])
				}
			}
		}

		p := build()
		rec := &resolutions{}
		slowOpts := opts
		slowOpts.DisableFastpath = true
		slowOpts.Observer = rec
		slow, err := sim.Run(p, snap.Reader(), slowOpts)
		if err != nil {
			t.Fatal(err)
		}
		check("interpretive", rec.preds)

		for _, shards := range []int{1, 2, 4} {
			path := fmt.Sprintf("kernel/shards=%d", shards)
			p := build()
			fastOpts := opts
			fastOpts.Shards = shards
			fastOpts.Telemetry = &sim.Telemetry{Interval: 1}
			if !sim.FastpathEligible(p, snap.Reader(), fastOpts) {
				t.Fatalf("%s %s: kernel declined", name, path)
			}
			res, err := sim.Run(p, snap.Reader(), fastOpts)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]bool, len(fastOpts.Telemetry.Samples))
			for i, s := range fastOpts.Telemetry.Samples {
				if s.Predictions != 1 {
					t.Fatalf("%s %s: sample %d holds %d resolutions", name, path, i, s.Predictions)
				}
				if i < len(outcomes) {
					got[i] = outcomes[i] == (s.Correct == 1)
				}
			}
			check(path, got)
			if res != slow {
				t.Fatalf("%s %s: result %+v, interpretive %+v", name, path, res, slow)
			}
		}
	})
}
