package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// syntheticTrace builds a deterministic branchy event stream: a few
// hundred static sites with biased, history-dependent behaviour plus
// occasional traps and non-conditional branches.
func syntheticTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	hist := map[uint32]uint32{}
	for i := 0; i < n; i++ {
		if rng.Intn(200) == 0 {
			tr.Append(trace.Event{Instrs: uint32(1 + rng.Intn(20)), Trap: true})
			continue
		}
		pc := uint32(0x1000 + 4*rng.Intn(300))
		class := trace.Cond
		switch rng.Intn(10) {
		case 7:
			class = trace.Uncond
		case 8:
			class = trace.Call
		case 9:
			class = trace.Return
		}
		h := hist[pc]
		taken := (h&3 == 0) || rng.Intn(5) == 0
		hist[pc] = h<<1 | b2u(taken)
		tr.Append(trace.Event{
			Instrs: uint32(1 + rng.Intn(30)),
			Branch: trace.Branch{PC: pc, Target: pc + uint32(rng.Intn(64)*4) - 96, Class: class, Taken: taken},
		})
	}
	return tr
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func mkTwoLevel(t *testing.T, variation predictor.Variation, bits int) predictor.Predictor {
	t.Helper()
	p, err := predictor.NewTwoLevel(predictor.TwoLevelConfig{
		Variation: variation, HistoryBits: bits, Automaton: 1, Entries: 64, Assoc: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunManyMatchesSerialRuns is the core equivalence property: a batch
// of predictors with heterogeneous options replayed down one pass must
// produce results bit-identical to serial Runs over fresh readers.
func TestRunManyMatchesSerialRuns(t *testing.T) {
	tr := syntheticTrace(30_000, 42)
	optsSet := []Options{
		{MaxCondBranches: 5000},
		{MaxCondBranches: 5000, ContextSwitches: true, CSInterval: 10_000},
		{MaxCondBranches: 2000}, // smaller budget: stops early in the shared pass
		{MaxCondBranches: 5000, PipelineDepth: 4},
		{MaxCondBranches: 3000, PipelineDepth: 8, ContextSwitches: true, CSInterval: 7000},
		{}, // no budget: drains the stream
	}
	build := func() []predictor.Predictor {
		return []predictor.Predictor{
			mkTwoLevel(t, predictor.GAg, 8),
			mkTwoLevel(t, predictor.PAg, 6),
			mkTwoLevel(t, predictor.PAp, 4),
			mkTwoLevel(t, predictor.GAg, 10),
			mkTwoLevel(t, predictor.PAg, 8),
			mkTwoLevel(t, predictor.GAg, 6),
		}
	}

	serialPreds := build()
	want := make([]Result, len(optsSet))
	for i, o := range optsSet {
		var err error
		want[i], err = Run(serialPreds[i], tr.Reader(), o)
		if err != nil {
			t.Fatal(err)
		}
	}

	batchPreds := build()
	got, err := RunMany(batchPreds, tr.Reader(), optsSet)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("predictor %d: batched result differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestRunManyObserversMatchSerial checks the observer path: an observer
// attached to one cell of a batched pass sees the same resolutions and
// context switches as on the serial run.
func TestRunManyObserversMatchSerial(t *testing.T) {
	tr := syntheticTrace(20_000, 7)
	o := Options{MaxCondBranches: 4000, ContextSwitches: true, CSInterval: 9000}

	serialLog := &resolutionLog{}
	serialOpts := o
	serialOpts.Observer = serialLog
	serialRes, err := Run(mkTwoLevel(t, predictor.PAg, 6), tr.Reader(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	batchLog := &resolutionLog{}
	batchOpts := o
	batchOpts.Observer = batchLog
	plain := o
	res, err := RunMany(
		[]predictor.Predictor{mkTwoLevel(t, predictor.PAg, 6), mkTwoLevel(t, predictor.GAg, 8)},
		tr.Reader(),
		[]Options{batchOpts, plain},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], serialRes) {
		t.Fatalf("instrumented batched run differs from serial:\n got %+v\nwant %+v", res[0], serialRes)
	}
	if len(serialLog.pcs) == 0 || !reflect.DeepEqual(batchLog, serialLog) {
		t.Fatalf("observed resolutions differ:\n got %+v\nwant %+v", batchLog, serialLog)
	}
}

type errSource struct {
	src  trace.Source
	n    int
	seen int
}

func (s *errSource) Next() (trace.Event, error) {
	if s.seen >= s.n {
		return trace.Event{}, errors.New("source broke")
	}
	s.seen++
	return s.src.Next()
}

func TestRunManyPropagatesSourceError(t *testing.T) {
	tr := syntheticTrace(5000, 9)
	preds := []predictor.Predictor{mkTwoLevel(t, predictor.PAg, 6), mkTwoLevel(t, predictor.GAg, 8)}
	res, err := RunMany(preds, &errSource{src: tr.Reader(), n: 100}, []Options{{}, {}})
	if err == nil {
		t.Fatal("source error swallowed")
	}
	if len(res) != 2 || res[0].Instructions == 0 {
		t.Fatalf("partial results missing: %+v", res)
	}
}

func TestRunManyOptionCountMismatch(t *testing.T) {
	if _, err := RunMany([]predictor.Predictor{mkTwoLevel(t, predictor.PAg, 6)}, syntheticTrace(10, 1).Reader(), nil); err == nil {
		t.Fatal("mismatched option count accepted")
	}
}
