package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/sim/fastpath"
	"twolevel/internal/span"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// kernelSnapshot synthesises a packed trace with the hostile shapes the
// flat kernel must reproduce bit for bit: several hundred static branch
// sites (forcing BHT set conflicts and slot recycling), mixed branch
// classes, traps, a blend of biased and alternating outcomes, and both
// forward and backward targets (so BTFN predicts both ways).
func kernelSnapshot(events int) trace.Snapshot {
	var p trace.Packed
	rng := uint32(0x2545F491)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	for i := 0; i < events; i++ {
		r := next()
		if r%101 == 0 {
			p.Append(trace.Event{Instrs: 1 + r%7, Trap: true})
			continue
		}
		cls := trace.Cond
		switch r % 11 {
		case 7:
			cls = trace.Uncond
		case 8:
			cls = trace.Call
		case 9:
			cls = trace.Return
		case 10:
			cls = trace.Indirect
		}
		site := r >> 8 % 709 // prime site count → uneven set pressure
		pc := 0x40_0000 + 4*site
		var target uint32
		if r>>3%3 == 0 {
			target = pc - 4 - 4*(r>>16%50) // backward (BTFN: predict taken)
		} else {
			target = pc + 4 + 4*(r>>16%50)
		}
		var taken bool
		switch site % 3 {
		case 0:
			taken = r>>5&3 != 0 // biased taken
		case 1:
			taken = i%2 == 0 // alternating
		default:
			taken = r>>6&1 == 0 // coin flip
		}
		p.Append(trace.Event{Instrs: 1 + r%9, Branch: trace.Branch{
			PC:     pc,
			Target: target,
			Class:  cls,
			Taken:  taken,
		}})
	}
	return p.View(p.Len())
}

// missBTFN marks a kernelEquivSpecs BTB entry that buildEquivSpec builds
// through the predictor API with predictor.BTBMissBTFN, a miss policy
// the spec grammar cannot name.
const missBTFN = " +missBTFN"

// kernelEquivSpecs span every flattenable family: the paper's three
// primary variations under several automata and table shapes, the ideal
// BHT, the six taxonomy extensions, static training, the BTB designs
// (both miss policies, direct-mapped and set-associative), Profiling and
// the static predictors.
var kernelEquivSpecs = []string{
	"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
	"GAg(HR(1,,12-sr),1xPHT(2^12,A3))",
	"GAg(HR(1,,4-sr),1xPHT(2^4,LT))",
	"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
	"PAg(BHT(64,1,6-sr),1xPHT(2^6,A1))",
	"PAg(IBHT(inf,,10-sr),1xPHT(2^10,A2))",
	"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
	"PAp(BHT(128,2,4-sr),128xPHT(2^4,A4))",
	"GAs(HR(1,,8-sr),16xPHT(2^8,A2))",
	"GAp(HR(1,,6-sr),512xPHT(2^6,A2))",
	"SAg(SHT(64,,8-sr),1xPHT(2^8,A2))",
	"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))",
	"SAp(SHT(64,,6-sr),512xPHT(2^6,A2))",
	"PAs(BHT(512,4,8-sr),16xPHT(2^8,A2))",
	"GSg(HR(1,,8-sr),1xPHT(2^8,PB))",
	"PSg(BHT(512,4,8-sr),1xPHT(2^8,PB))",
	"BTB(BHT(512,4,A2),)",
	"BTB(BHT(256,1,LT),)",
	"BTB(BHT(64,4,A3),,c)",
	"BTB(BHT(128,2,A1),)" + missBTFN,
	"Profiling",
	"AlwaysTaken",
	"BTFN",
}

// assertSameState fails t unless the two predictors hold the same state,
// unexported fields included. It names the first exported flat.State
// field that differs.
func assertSameState(t *testing.T, name string, got, want predictor.Predictor) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	gp, ok := got.(*predictor.TwoLevel)
	wp, ok2 := want.(*predictor.TwoLevel)
	if !ok || !ok2 {
		t.Errorf("%s: final predictors differ:\n got %+v\nwant %+v", name, got, want)
		return
	}
	gv, wv := reflect.ValueOf(*gp.State()), reflect.ValueOf(*wp.State())
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if f.IsExported() && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: predictor state %s differs:\n got %v\nwant %v",
				name, f.Name, gv.Field(i).Interface(), wv.Field(i).Interface())
			return
		}
	}
	t.Errorf("%s: final predictors differ in an unexported field", name)
}

// buildKernelSpec constructs sp's predictor, running a training pass
// over snap for the static-training schemes. Profiling trains on the
// first 2,000 events of kernelSnapshot only, so some of snap's branches
// are unprofiled.
func buildKernelSpec(t *testing.T, sp spec.Spec, snap trace.Snapshot) predictor.Predictor {
	t.Helper()
	var td *spec.TrainingData
	switch {
	case sp.Scheme == spec.SchemeProfiling:
		trainer := predictor.NewProfileTrainer()
		if err := trainer.ObserveTrace(kernelSnapshot(2000).Reader()); err != nil {
			t.Fatal(err)
		}
		td = &spec.TrainingData{Profile: trainer}
	case sp.NeedsTraining():
		trainer, err := spec.NewTrainer(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := trainer.ObserveTrace(snap.Reader()); err != nil {
			t.Fatal(err)
		}
		td = &spec.TrainingData{Static: trainer}
	}
	p, err := spec.Build(sp, td)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildEquivSpec is buildKernelSpec for a kernelEquivSpecs entry,
// building the missBTFN-marked BTB through the predictor API.
func buildEquivSpec(t *testing.T, s string, snap trace.Snapshot) predictor.Predictor {
	t.Helper()
	name, btfn := strings.CutSuffix(s, missBTFN)
	sp := spec.MustParse(name)
	if !btfn {
		return buildKernelSpec(t, sp, snap)
	}
	p, err := predictor.NewBTB(predictor.BTBConfig{
		Entries:    sp.HistEntries,
		Assoc:      sp.HistAssoc,
		Automaton:  sp.Automaton,
		MissPolicy: predictor.BTBMissBTFN,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replaySpanAttr runs p over a fresh reader of snap under a tracer and
// returns the result alongside the replay span's fastpath attribute.
func replaySpanAttr(t *testing.T, p predictor.Predictor, snap trace.Snapshot, opts Options) (Result, string) {
	t.Helper()
	tracer := span.New()
	root := tracer.Root("test")
	opts.Span = root
	res, err := Run(p, snap.Reader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	for _, rec := range tracer.Snapshot() {
		if rec.Name != "replay" {
			continue
		}
		for _, a := range rec.Attrs {
			if a.Key == "fastpath" {
				return res, a.Value
			}
		}
	}
	t.Fatal("no replay span with a fastpath attribute recorded")
	return res, ""
}

// TestKernelMatchesInterpretive is the headline bit-identity property:
// for every flattenable spec, under plain, context-switch, budgeted and
// sharded options, the fast kernel's Result deep-equals the interpretive
// runner's, the two paths leave the predictor in the same state, and
// the replay span proves the kernel actually served the fast leg.
func TestKernelMatchesInterpretive(t *testing.T) {
	snap := kernelSnapshot(24_000)
	conds := uint64(0)
	for i := 0; i < snap.Len(); i++ {
		e := snap.At(i)
		if !e.Trap && e.Branch.Class == trace.Cond {
			conds++
		}
	}
	optionSets := []struct {
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
	for _, s := range kernelEquivSpecs {
		for _, os := range optionSets {
			slowOpts := os.opts
			slowOpts.DisableFastpath = true
			slowSrc := snap.Reader()
			slowP := buildEquivSpec(t, s, snap)
			want, err := Run(slowP, slowSrc, slowOpts)
			if err != nil {
				t.Fatalf("%s/%s interpretive: %v", s, os.name, err)
			}

			fastSrc := snap.Reader()
			p := buildEquivSpec(t, s, snap)
			if !FastpathEligible(p, fastSrc, os.opts) {
				t.Fatalf("%s/%s: expected fast-path eligibility", s, os.name)
			}
			got, attr := replaySpanAttr(t, p, snap, os.opts)
			if attr != "true" {
				t.Fatalf("%s/%s: replay span fastpath=%q, kernel did not engage", s, os.name, attr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: kernel result differs from interpretive runner:\n got %+v\nwant %+v",
					s, os.name, got, want)
			}
			assertSameState(t, s+"/"+os.name, p, slowP)
		}
	}
}

// TestKernelWritebackResumes proves a kernel run leaves the predictor
// resumable: a budgeted kernel run followed by an interpretive
// continuation over the same reader must land exactly where two
// interpretive runs do, with identical predictor state after each leg.
// Any state the kernel kept to itself (histories, pattern tables, BHT
// residency and LRU ranks, cached predictions or targets) would diverge.
func TestKernelWritebackResumes(t *testing.T) {
	snap := kernelSnapshot(24_000)
	first := Options{MaxCondBranches: 4000, ContextSwitches: true, CSInterval: 1711}
	for _, s := range kernelEquivSpecs {
		slowSrc := snap.Reader()
		slowP := buildEquivSpec(t, s, snap)
		slowOpts := first
		slowOpts.DisableFastpath = true
		if _, err := Run(slowP, slowSrc, slowOpts); err != nil {
			t.Fatalf("%s interpretive leg 1: %v", s, err)
		}
		fastSrc := snap.Reader()
		fastP := buildEquivSpec(t, s, snap)
		if _, err := Run(fastP, fastSrc, first); err != nil {
			t.Fatalf("%s kernel leg 1: %v", s, err)
		}
		if slowPos, fastPos := slowSrc.Pos(), fastSrc.Pos(); slowPos != fastPos {
			t.Errorf("%s: kernel consumed %d events, interpretive %d", s, fastPos, slowPos)
		}
		assertSameState(t, s+" after leg 1", fastP, slowP)

		want, err := Run(slowP, slowSrc, Options{DisableFastpath: true})
		if err != nil {
			t.Fatalf("%s interpretive leg 2: %v", s, err)
		}
		got, err := Run(fastP, fastSrc, Options{DisableFastpath: true})
		if err != nil {
			t.Fatalf("%s continuation: %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: interpretive continuation after kernel leg differs:\n got %+v\nwant %+v",
				s, got, want)
		}
		assertSameState(t, s+" after leg 2", fastP, slowP)
	}
}

// TestKernelShardedMatchesSerial pins the PC-partition merge: for the
// shardable schemes, with and without context switches, every shard
// count yields the serial kernel's exact Result and final predictor,
// LRU ranks included.
func TestKernelShardedMatchesSerial(t *testing.T) {
	snap := kernelSnapshot(24_000)
	shardable := []string{
		"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
		"PAs(BHT(512,4,8-sr),16xPHT(2^8,A2))",
		"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))",
		"SAp(SHT(64,,6-sr),512xPHT(2^6,A2))",
	}
	for _, s := range shardable {
		sp := spec.MustParse(s)
		for _, opts := range []Options{{}, {ContextSwitches: true, CSInterval: 1009}} {
			serialP := buildKernelSpec(t, sp, snap)
			serial, err := Run(serialP, snap.Reader(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8, 16} {
				o := opts
				o.Shards = shards
				p := buildKernelSpec(t, sp, snap)
				got, err := Run(p, snap.Reader(), o)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s cs=%v shards=%d", s, opts.ContextSwitches, shards)
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("%s: sharded result differs from serial:\n got %+v\nwant %+v", name, got, serial)
				}
				assertSameState(t, name, p, serialP)
			}
		}
	}
}

// TestKernelRunManyMatchesSerial drives a mixed batch — kernel cells,
// interpretive cells and a pipelined cell — through RunMany and checks
// every cell against its serial Run, plus the final reader position.
func TestKernelRunManyMatchesSerial(t *testing.T) {
	snap := kernelSnapshot(24_000)
	specs := []string{
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))",
		"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))",
		"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))",
		"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))",
		"BTFN",
	}
	baseOpts := []Options{
		{},
		{ContextSwitches: true, CSInterval: 1009},
		{MaxCondBranches: 3000},
		{Shards: 4},
		{DisableFastpath: true}, // forced interpretive cell in the batch
	}
	var preds []predictor.Predictor
	var opts []Options
	var want []Result
	for i, s := range specs {
		sp := spec.MustParse(s)
		p := buildKernelSpec(t, sp, snap)
		serial, err := Run(buildKernelSpec(t, sp, snap), snap.Reader(), baseOpts[i])
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
		opts = append(opts, baseOpts[i])
		want = append(want, serial)
	}
	// One pipelined interpretive cell rides along to cover the legacy
	// pass inside the mixed batch.
	pipeP := buildKernelSpec(t, spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))"), snap)
	pipeOpts := Options{PipelineDepth: 4}
	pipeWant, err := Run(buildKernelSpec(t, spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))"), snap),
		snap.Reader(), pipeOpts)
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, pipeP)
	opts = append(opts, pipeOpts)
	want = append(want, pipeWant)

	src := snap.Reader()
	got, err := RunMany(preds, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d: RunMany result differs from serial Run:\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
	if src.Pos() != snap.Len() {
		t.Errorf("RunMany left reader at %d, want %d (unbudgeted cells drain the snapshot)",
			src.Pos(), snap.Len())
	}
}

// TestRunManySharedStopIndex pins the stop index RunMany resolves once
// per distinct budget and hands to every kernel cell carrying it. The
// batch starts from a reader already advanced past the snapshot's
// start and mixes two cells with one budget, a cell with another, tapped
// cells and, in the second batch, an unbudgeted cell. Every cell (and
// every telemetry sink) equals a serial Run from the same position, and
// the reader ends where the furthest serial pass leaves it.
func TestRunManySharedStopIndex(t *testing.T) {
	snap := kernelSnapshot(24_000)
	const from = 1234
	type cell struct {
		spec string
		opts Options
		tap  bool
	}
	shared := []cell{
		{"GAg(HR(1,,8-sr),1xPHT(2^8,A2))", Options{MaxCondBranches: 2500}, false},
		{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", Options{MaxCondBranches: 2500}, true},
		{"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))", Options{MaxCondBranches: 6000, ContextSwitches: true, CSInterval: 1009}, true},
		{"BTFN", Options{MaxCondBranches: 2500}, true},
	}
	unbudgeted := cell{"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))", Options{}, false}
	for _, batch := range [][]cell{shared, append(append([]cell(nil), shared...), unbudgeted)} {
		var preds []predictor.Predictor
		var opts []Options
		var want []Result
		var wantSinks []*Telemetry
		wantPos := from
		for _, c := range batch {
			sink := func() *Telemetry {
				if !c.tap {
					return nil
				}
				return &Telemetry{Interval: 300, TopK: 6}
			}
			o := c.opts
			o.Telemetry = sink()
			src := snap.Reader()
			src.Seek(from)
			res, err := Run(buildKernelSpec(t, spec.MustParse(c.spec), snap), src, o)
			if err != nil {
				t.Fatal(err)
			}
			if src.Pos() > wantPos {
				wantPos = src.Pos()
			}
			want = append(want, res)
			wantSinks = append(wantSinks, o.Telemetry)

			p := buildKernelSpec(t, spec.MustParse(c.spec), snap)
			o.Telemetry = sink()
			if !FastpathEligible(p, snap.Reader(), o) {
				t.Fatalf("%s: expected fast-path eligibility", c.spec)
			}
			preds = append(preds, p)
			opts = append(opts, o)
		}
		src := snap.Reader()
		src.Seek(from)
		got, err := RunMany(preds, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range batch {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%d cells, %s: RunMany result differs from serial Run:\n got %+v\nwant %+v",
					len(batch), c.spec, got[i], want[i])
			}
			if !reflect.DeepEqual(opts[i].Telemetry, wantSinks[i]) {
				t.Errorf("%d cells, %s: RunMany telemetry differs from serial Run:\n got %+v\nwant %+v",
					len(batch), c.spec, opts[i].Telemetry, wantSinks[i])
			}
		}
		if src.Pos() != wantPos {
			t.Errorf("%d cells: RunMany left reader at %d, serial passes at %d", len(batch), src.Pos(), wantPos)
		}
		if len(batch) == len(shared) && wantPos == snap.Len() {
			t.Errorf("budgeted batch drained the snapshot; the position check is vacuous")
		}
	}
}

// TestFastpathEligibility is the dispatch table: which (predictor,
// source, options) combinations select the kernel.
func TestFastpathEligibility(t *testing.T) {
	snap := kernelSnapshot(256)
	twoLevel := func(cfg predictor.TwoLevelConfig) predictor.Predictor {
		p, err := predictor.NewTwoLevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pag := predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: 8, Automaton: automaton.A2,
		Entries: 64, Assoc: 4,
	}
	specPAg := pag
	specPAg.SpeculativeHistory = true
	btb, err := predictor.NewBTB(predictor.BTBConfig{Entries: 64, Assoc: 4, Automaton: automaton.A2})
	if err != nil {
		t.Fatal(err)
	}
	btfnBTB, err := predictor.NewBTB(predictor.BTBConfig{Entries: 64, Assoc: 1, Automaton: automaton.LastTime,
		MissPolicy: predictor.BTBMissBTFN})
	if err != nil {
		t.Fatal(err)
	}
	profile := predictor.NewProfileTrainer().Build()
	packed := snap.Reader()
	live := (&trace.Trace{}).Reader()
	cases := []struct {
		name string
		p    predictor.Predictor
		src  trace.Source
		opts Options
		want bool
	}{
		{"two-level over packed source", twoLevel(pag), packed, Options{}, true},
		{"always-taken static", predictor.AlwaysTaken{}, packed, Options{}, true},
		{"btfn static", predictor.BTFN{}, packed, Options{}, true},
		{"context-switch mode stays eligible", twoLevel(pag), packed, Options{ContextSwitches: true}, true},
		{"unpacked trace source", twoLevel(pag), live, Options{}, false},
		{"explicit opt-out", twoLevel(pag), packed, Options{DisableFastpath: true}, false},
		{"observer attached", twoLevel(pag), packed, Options{Observer: &countingObserver{}}, false},
		{"pipelined timing model", twoLevel(pag), packed, Options{PipelineDepth: 4}, false},
		{"speculative history", twoLevel(specPAg), packed, Options{}, true},
		{"btb design", btb, packed, Options{}, true},
		{"btb with btfn miss policy", btfnBTB, packed, Options{}, true},
		{"btb over unpacked source", btb, live, Options{}, false},
		{"btb with observer", btb, packed, Options{Observer: &countingObserver{}}, false},
		{"profiling", profile, packed, Options{}, true},
		{"profiling pipelined", profile, packed, Options{PipelineDepth: 2}, false},
	}
	for _, c := range cases {
		if got := FastpathEligible(c.p, c.src, c.opts); got != c.want {
			t.Errorf("%s: FastpathEligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReplaySpanFastpathAttr pins the telemetry contract: the replay
// span carries fastpath=true exactly when the kernel served the run.
func TestReplaySpanFastpathAttr(t *testing.T) {
	snap := kernelSnapshot(2048)
	sp := spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))")
	if _, attr := replaySpanAttr(t, buildKernelSpec(t, sp, snap), snap, Options{}); attr != "true" {
		t.Errorf("kernel-served run: replay span fastpath=%q, want true", attr)
	}
	if _, attr := replaySpanAttr(t, buildKernelSpec(t, sp, snap), snap, Options{DisableFastpath: true}); attr != "false" {
		t.Errorf("interpretive run: replay span fastpath=%q, want false", attr)
	}
}

// TestKernelSupportedCoverage guards against silent fallbacks: every
// equivalence spec must flatten (fastpath.New accepts it), or the
// bit-identity suite would be testing the interpretive runner against
// itself. It also pins the suite's reach, so the test cannot pass on a
// list that lost a family: every scheme the spec grammar names, and the
// BTB's non-default miss policy, has an equivalence spec.
func TestKernelSupportedCoverage(t *testing.T) {
	snap := kernelSnapshot(256)
	covered := map[spec.Scheme]bool{}
	var btfnMiss bool
	for _, s := range kernelEquivSpecs {
		name, btfn := strings.CutSuffix(s, missBTFN)
		covered[spec.MustParse(name).Scheme] = true
		btfnMiss = btfnMiss || btfn
		p := buildEquivSpec(t, s, snap)
		if !fastpath.Supported(p) {
			t.Errorf("%s: fastpath.Supported = false", s)
			continue
		}
		if _, ok := fastpath.New(p, fastpathConfig(Options{})); !ok {
			t.Errorf("%s: fastpath.New declined", s)
		}
	}
	for _, sc := range []spec.Scheme{
		spec.SchemeGAg, spec.SchemePAg, spec.SchemePAp,
		spec.SchemeGAp, spec.SchemeGAs, spec.SchemePAs,
		spec.SchemeSAg, spec.SchemeSAs, spec.SchemeSAp,
		spec.SchemeGSg, spec.SchemePSg, spec.SchemeBTB,
		spec.SchemeAlwaysTaken, spec.SchemeBTFN, spec.SchemeProfiling,
	} {
		if !covered[sc] {
			t.Errorf("no kernelEquivSpecs entry for %s", sc)
		}
	}
	if !btfnMiss {
		t.Error("no kernelEquivSpecs BTB entry with the BTFN miss policy")
	}
}

// TestSpeculativeDepth0MatchesBase pins the speculative history path
// against the base model: with branches resolving immediately, a
// speculative two-level predictor makes the same predictions and ends in
// the same flat state, LRU ranks and hit counters included, for every
// two-level equivalence spec. A mispredicted register that still awaits
// its first outcome must be repaired by smearing, as the base model
// shifts it. The kernel arm replays the speculative predictor on the
// flat kernel, which serves it as the base model, and holds it to the
// base runner's Result and flat.State as well.
func TestSpeculativeDepth0MatchesBase(t *testing.T) {
	snap := kernelSnapshot(24_000)
	optionSets := []Options{
		{DisableFastpath: true},
		{DisableFastpath: true, ContextSwitches: true, CSInterval: 1009},
		{DisableFastpath: true, MaxCondBranches: 5000},
	}
	checked := 0
	for _, s := range kernelEquivSpecs {
		if _, ok := buildEquivSpec(t, s, snap).(*predictor.TwoLevel); !ok {
			continue
		}
		for _, opts := range optionSets {
			base := buildEquivSpec(t, s, snap).(*predictor.TwoLevel)
			cfg := base.Config()
			cfg.SpeculativeHistory = true
			specP, err := predictor.NewTwoLevel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(base, snap.Reader(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(specP, snap.Reader(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: speculative result differs from base:\n got %+v\nwant %+v", s, opts, got, want)
			}
			if !reflect.DeepEqual(specP.State(), base.State()) {
				t.Errorf("%s %+v: speculative state differs from base", s, opts)
			}

			kernelP, err := predictor.NewTwoLevel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kernelOpts := opts
			kernelOpts.DisableFastpath = false
			if !FastpathEligible(kernelP, snap.Reader(), kernelOpts) {
				t.Fatalf("%s: speculative history at depth 0 declined by the kernel", s)
			}
			got, err = Run(kernelP, snap.Reader(), kernelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: kernel speculative result differs from base:\n got %+v\nwant %+v", s, opts, got, want)
			}
			if !reflect.DeepEqual(kernelP.State(), base.State()) {
				t.Errorf("%s %+v: kernel speculative state differs from base", s, opts)
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d two-level specs checked", checked)
	}
}

// TestKernelNewAllocatesOnce pins the single state layout: the
// kernel replays on the predictor's own tables, so building one costs a
// single allocation (the Kernel) whatever the table sizes.
func TestKernelNewAllocatesOnce(t *testing.T) {
	snap := kernelSnapshot(256)
	for _, s := range kernelEquivSpecs {
		p := buildEquivSpec(t, s, snap)
		cfg := fastpathConfig(Options{})
		if allocs := testing.AllocsPerRun(10, func() { fastpath.New(p, cfg) }); allocs > 1 {
			t.Errorf("%s: fastpath.New made %.0f allocations, want 1", s, allocs)
		}
	}
}

// TestPipelinedQueueAllocationFree locks in the in-flight ring buffer:
// a pipelined run performs one queue allocation up front and none in
// steady state (the old reslice-on-resolve walked the backing array off
// its end, reallocating every depth+1 branches).
func TestPipelinedQueueAllocationFree(t *testing.T) {
	tr := observerTrace(8192)
	p := observerTestPredictor(t)
	rd := tr.Reader()
	opts := Options{PipelineDepth: 8}
	if _, err := Run(p, rd, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		rd.Reset()
		if _, err := Run(p, rd, opts); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per run: the runner's fixed-capacity ring.
	if allocs > 1 {
		t.Errorf("pipelined replay allocated %.0f times per run, want at most 1", allocs)
	}
}

// BenchmarkPipelinedReplay measures the pipelined-mode hot loop; with
// the ring buffer the reported allocs/op stay at the single up-front
// queue allocation regardless of trace length.
func BenchmarkPipelinedReplay(b *testing.B) {
	tr := observerTrace(65_536)
	p, err := predictor.NewTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: 8, Automaton: automaton.A2,
		Entries: 64, Assoc: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	rd := tr.Reader()
	opts := Options{PipelineDepth: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset()
		if _, err := Run(p, rd, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFastpathDeclineCounters pins decline visibility: a pipelined cell
// and an observer cell, run alone and then inside one RunMany batch with
// a kernel cell, each bump only their own reason's counter; the registry
// renders the counters, and the replay spans name the reasons.
func TestFastpathDeclineCounters(t *testing.T) {
	snap := kernelSnapshot(4096)
	sp := spec.MustParse("PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))")
	counts := func() (c [numDeclines]uint64) {
		for d := range c {
			c[d] = declines[d].Load()
		}
		return c
	}
	pipelined := Options{PipelineDepth: 2}
	observed := Options{Observer: &countingObserver{}}
	before := counts()

	tracer := span.New()
	root := tracer.Root("test")
	for _, o := range []Options{pipelined, observed} {
		o.Span = root
		if _, err := Run(buildKernelSpec(t, sp, snap), snap.Reader(), o); err != nil {
			t.Fatal(err)
		}
	}
	preds := []predictor.Predictor{buildKernelSpec(t, sp, snap), buildKernelSpec(t, sp, snap), buildKernelSpec(t, sp, snap)}
	batch := []Options{{Span: root}, pipelined, observed}
	if _, err := RunMany(preds, snap.Reader(), batch); err != nil {
		t.Fatal(err)
	}
	root.End()

	after := counts()
	for d := Served + 1; d < numDeclines; d++ {
		want := uint64(0)
		if d == DeclinePipeline || d == DeclineObserver {
			want = 2
		}
		if got := after[d] - before[d]; got != want {
			t.Errorf("%s declines grew by %d, want %d", d, got, want)
		}
	}

	reg := telemetry.NewRegistry()
	reg.Register(DeclineMetrics)
	var buf strings.Builder
	reg.WriteAll(&buf)
	for _, d := range []Decline{DeclinePipeline, DeclineObserver} {
		line := fmt.Sprintf("twolevel_fastpath_declines_total{reason=%q} %d", d, after[d])
		if !strings.Contains(buf.String(), line) {
			t.Errorf("registry exposition lacks %q:\n%s", line, buf.String())
		}
	}

	var attrs []string
	for _, rec := range tracer.Snapshot() {
		if rec.Name != "replay" {
			continue
		}
		for _, a := range rec.Attrs {
			if strings.HasPrefix(a.Key, "decline") {
				attrs = append(attrs, a.Key+"="+a.Value)
			}
		}
	}
	want := []string{"decline=pipeline", "decline=observer", "decline.observer=1", "decline.pipeline=1"}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("replay span decline attrs = %v, want %v", attrs, want)
	}
}
