package sim

import (
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// condEvent builds a conditional branch event.
func condEvent(pc uint32, taken bool, instrs uint32) trace.Event {
	return trace.Event{
		Instrs: instrs,
		Branch: trace.Branch{PC: pc, Target: pc - 16, Class: trace.Cond, Taken: taken},
	}
}

// alternatingTrace builds n alternating conditional branches at one PC.
func alternatingTrace(pc uint32, n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(condEvent(pc, i%2 == 0, 5))
	}
	return tr
}

func pagA2(k int) *predictor.TwoLevel {
	return predictor.MustTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: k, Automaton: automaton.A2, Entries: 512, Assoc: 4,
	})
}

// recorder wraps a predictor and records the call sequence.
type recorder struct {
	predictor.Predictor
	predicts, updates, switches int
}

func (r *recorder) Predict(b trace.Branch) bool {
	r.predicts++
	return r.Predictor.Predict(b)
}
func (r *recorder) Update(b trace.Branch, pred bool) {
	r.updates++
	r.Predictor.Update(b, pred)
}
func (r *recorder) ContextSwitch() {
	r.switches++
	r.Predictor.ContextSwitch()
}

func TestRunCountsAndAccuracy(t *testing.T) {
	tr := alternatingTrace(0x100, 200)
	res, err := Run(pagA2(6), tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Predictions != 200 {
		t.Fatalf("predictions = %d", res.Accuracy.Predictions)
	}
	if res.Instructions != 200*5 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.TakenCond != 100 {
		t.Fatalf("taken = %d", res.TakenCond)
	}
	if res.Accuracy.Rate() < 0.85 {
		t.Fatalf("two-level should learn alternation: %v", res.Accuracy)
	}
	if res.ContextSwitches != 0 {
		t.Fatal("context switches disabled but injected")
	}
}

func TestRunMaxCondBranches(t *testing.T) {
	tr := alternatingTrace(0x100, 1000)
	res, err := Run(pagA2(6), tr.Reader(), Options{MaxCondBranches: 123})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Predictions != 123 {
		t.Fatalf("predictions = %d, want 123", res.Accuracy.Predictions)
	}
}

func TestRunNonConditionalsNotPredicted(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Append(condEvent(0x100, true, 1))
		tr.Append(trace.Event{Instrs: 1, Branch: trace.Branch{PC: 0x200, Target: 0x400, Class: trace.Call, Taken: true}})
		tr.Append(trace.Event{Instrs: 1, Branch: trace.Branch{PC: 0x404, Target: 0x204, Class: trace.Return, Taken: true}})
	}
	rec := &recorder{Predictor: pagA2(6)}
	res, err := Run(rec, tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Predictions != 50 || rec.predicts != 50 {
		t.Fatalf("only conditionals should be predicted: %d / %d", res.Accuracy.Predictions, rec.predicts)
	}
	if res.ByClass[trace.Call] != 50 || res.ByClass[trace.Return] != 50 {
		t.Fatalf("class counts wrong: %v", res.ByClass)
	}
}

func TestTrapTriggersContextSwitch(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(condEvent(0x100, true, 10))
	tr.Append(trace.Event{Trap: true, Instrs: 1})
	tr.Append(condEvent(0x100, true, 10))
	tr.Append(trace.Event{Trap: true, Instrs: 1})

	rec := &recorder{Predictor: pagA2(6)}
	res, err := Run(rec, tr.Reader(), Options{ContextSwitches: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps != 2 || res.ContextSwitches != 2 || rec.switches != 2 {
		t.Fatalf("traps=%d switches=%d rec=%d", res.Traps, res.ContextSwitches, rec.switches)
	}

	// Without the flag, traps are counted but do not flush.
	rec2 := &recorder{Predictor: pagA2(6)}
	res2, err := Run(rec2, tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Traps != 2 || res2.ContextSwitches != 0 || rec2.switches != 0 {
		t.Fatal("context switches should be off by default")
	}
}

func TestQuantumTriggersContextSwitch(t *testing.T) {
	// 100 branches x 10 instructions = 1000 instructions; with a 250
	// instruction quantum we expect 4 switches.
	tr := &trace.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(condEvent(0x100, true, 10))
	}
	res, err := Run(pagA2(6), tr.Reader(), Options{ContextSwitches: true, CSInterval: 250})
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwitches != 4 {
		t.Fatalf("switches = %d, want 4", res.ContextSwitches)
	}
}

func TestTrapResetsQuantum(t *testing.T) {
	// Interval 100. 9 instructions, trap, 95 instructions: without the
	// trap reset there would be a switch at 100; with the reset the
	// quantum restarts at the trap, so exactly one switch (the trap's).
	tr := &trace.Trace{}
	tr.Append(condEvent(0x100, true, 9))
	tr.Append(trace.Event{Trap: true, Instrs: 1})
	for i := 0; i < 19; i++ {
		tr.Append(condEvent(0x100, true, 5))
	}
	res, err := Run(pagA2(6), tr.Reader(), Options{ContextSwitches: true, CSInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwitches != 1 {
		t.Fatalf("switches = %d, want 1 (trap only)", res.ContextSwitches)
	}
}

func TestDefaultCSInterval(t *testing.T) {
	// 600,000 instructions at the default quantum: one switch.
	tr := &trace.Trace{}
	for i := 0; i < 60; i++ {
		tr.Append(condEvent(0x100, true, 10000))
	}
	res, err := Run(pagA2(6), tr.Reader(), Options{ContextSwitches: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwitches != 1 {
		t.Fatalf("switches = %d, want 1 at the 500k default", res.ContextSwitches)
	}
}

func TestContextSwitchHurtsAccuracy(t *testing.T) {
	// A pattern-heavy trace with frequent flushes should predict no
	// better than the same trace without flushes.
	tr := alternatingTrace(0x100, 5000)
	clean, err := Run(pagA2(6), tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := Run(pagA2(6), tr.Reader(), Options{ContextSwitches: true, CSInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	if churned.Accuracy.Rate() > clean.Accuracy.Rate() {
		t.Fatalf("flushing improved accuracy: %.4f > %.4f", churned.Accuracy.Rate(), clean.Accuracy.Rate())
	}
}

func TestPipelinedDepthZeroEquivalence(t *testing.T) {
	// Depth 0 must take the simple path; depth 1 with immediate drain
	// resolves one behind but on a single-branch alternating trace the
	// predictions count must match.
	tr := alternatingTrace(0x100, 500)
	d0, err := Run(pagA2(6), tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Run(pagA2(6), tr.Reader(), Options{PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d0.Accuracy.Predictions != d1.Accuracy.Predictions {
		t.Fatalf("prediction counts differ: %d vs %d", d0.Accuracy.Predictions, d1.Accuracy.Predictions)
	}
}

// mixedTrace builds n events over a few dozen branch sites: mostly
// conditional branches with data-dependent outcomes, plus calls and the
// occasional trap, so a budget cut lands mid-stream with more to come.
func mixedTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	x := uint32(12345)
	for i := 0; i < n; i++ {
		x = x*1103515245 + 12345
		switch {
		case x>>28 == 0:
			tr.Append(trace.Event{Trap: true, Instrs: 2})
		case x>>27 == 2:
			tr.Append(trace.Event{Instrs: 3, Branch: trace.Branch{PC: 0x2000, Target: 0x3000, Class: trace.Call, Taken: true}})
		default:
			tr.Append(condEvent(0x100+4*(x>>20&31), x>>8&3 != 0, 1+x>>16&7))
		}
	}
	return tr
}

// TestPipelinedBudgetMatchesCutSource pins the budget of a pipelined run
// to the branches it fetches: over a source that continues past the
// budget, Run and RunMany at every depth resolve exactly MaxCondBranches
// branches and equal the same runs over the source cut at the budget.
func TestPipelinedBudgetMatchesCutSource(t *testing.T) {
	const budget = 700
	tr := mixedTrace(4000)
	var preds []predictor.Predictor
	var opts []Options
	var want []Result
	for depth := 1; depth <= 8; depth++ {
		o := Options{MaxCondBranches: budget, PipelineDepth: depth, ContextSwitches: depth%2 == 0}
		cut, err := Run(pagA2(6), &trace.LimitSource{Src: tr.Reader(), N: budget}, o)
		if err != nil {
			t.Fatal(err)
		}
		if cut.Accuracy.Predictions != budget {
			t.Fatalf("depth %d over the cut source: %d predictions, want %d", depth, cut.Accuracy.Predictions, budget)
		}
		got, err := Run(pagA2(6), tr.Reader(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got != cut {
			t.Errorf("depth %d: Run past the budget differs from the cut source:\n got %+v\nwant %+v", depth, got, cut)
		}
		preds = append(preds, pagA2(6))
		opts = append(opts, o)
		want = append(want, cut)
	}
	got, err := RunMany(preds, tr.Reader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("depth %d: RunMany past the budget differs from the cut source:\n got %+v\nwant %+v", i+1, got[i], want[i])
		}
	}
}

func TestPipelinedStaleHistoryHurts(t *testing.T) {
	// With deep in-flight branches and non-speculative history, the
	// alternating branch is predicted from stale history: accuracy
	// collapses versus immediate resolution.
	tr := alternatingTrace(0x100, 4000)
	immediate, err := Run(pagA2(8), tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := Run(pagA2(8), tr.Reader(), Options{PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Accuracy.Rate() >= immediate.Accuracy.Rate() {
		t.Fatalf("stale history should hurt: stale %.4f vs immediate %.4f",
			stale.Accuracy.Rate(), immediate.Accuracy.Rate())
	}
}

func TestPipelinedSpeculativeHistoryRecovers(t *testing.T) {
	// §3.1: speculative history update restores most of the loss.
	tr := alternatingTrace(0x100, 4000)
	base, err := Run(pagA2(8), tr.Reader(), Options{PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	specp := predictor.MustTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: 8, Automaton: automaton.A2,
		Entries: 512, Assoc: 4, SpeculativeHistory: true,
	})
	spec, err := Run(specp, tr.Reader(), Options{PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Accuracy.Rate() <= base.Accuracy.Rate() {
		t.Fatalf("speculative history should help: %.4f <= %.4f",
			spec.Accuracy.Rate(), base.Accuracy.Rate())
	}
	if spec.Accuracy.Rate() < 0.95 {
		t.Fatalf("speculative history should nearly match immediate resolution: %.4f", spec.Accuracy.Rate())
	}
	if specp.InFlight() != 0 {
		t.Fatalf("in-flight queue not drained: %d", specp.InFlight())
	}
}

func TestPipelinedGAgSpeculative(t *testing.T) {
	tr := alternatingTrace(0x100, 4000)
	specp := predictor.MustTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.GAg, HistoryBits: 10, Automaton: automaton.A2,
		SpeculativeHistory: true,
	})
	res, err := Run(specp, tr.Reader(), Options{PipelineDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Rate() < 0.95 {
		t.Fatalf("speculative GAg on alternation: %.4f", res.Accuracy.Rate())
	}
}

func TestPipelinedWithContextSwitches(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 300; i++ {
		tr.Append(condEvent(0x100, i%2 == 0, 10))
		if i%100 == 99 {
			tr.Append(trace.Event{Trap: true, Instrs: 1})
		}
	}
	specp := predictor.MustTwoLevel(predictor.TwoLevelConfig{
		Variation: predictor.PAg, HistoryBits: 6, Automaton: automaton.A2,
		Entries: 512, Assoc: 4, SpeculativeHistory: true,
	})
	res, err := Run(specp, tr.Reader(), Options{PipelineDepth: 4, ContextSwitches: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwitches != 3 {
		t.Fatalf("switches = %d, want 3", res.ContextSwitches)
	}
	if res.Accuracy.Predictions != 300 {
		t.Fatalf("predictions = %d, want 300", res.Accuracy.Predictions)
	}
}

func TestStaticSchemesUnderSim(t *testing.T) {
	tr := &trace.Trace{}
	// Backward loop branch taken 9/10.
	for i := 0; i < 1000; i++ {
		tr.Append(condEvent(0x1000, i%10 != 9, 1))
	}
	at, err := Run(predictor.AlwaysTaken{}, tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if at.Accuracy.Rate() != 0.9 {
		t.Fatalf("Always Taken on 90%% taken trace: %v", at.Accuracy.Rate())
	}
	bt, err := Run(predictor.BTFN{}, tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bt.Accuracy.Rate() != 0.9 { // backward branch -> predict taken
		t.Fatalf("BTFN on backward loop: %v", bt.Accuracy.Rate())
	}
}

func BenchmarkSimPAg(b *testing.B) {
	tr := alternatingTrace(0x100, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pagA2(12), tr.Reader(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
