package sim

import (
	"reflect"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/bht"
	"twolevel/internal/predictor"
)

// bhtSlotState is one practical-BHT slot as the predictor holds it after
// a run. Rank replaces the raw LRU stamp: the kernel's clock ticks once
// per branch rather than once per Lookup/Allocate touch, so only the
// within-set stamp order — all that replacement consults — is comparable.
type bhtSlotState struct {
	Valid, Ever bool
	PC          uint32
	Rank        int
	Hist        uint32
	Fresh       bool
	Pred        bool
	Target      uint32
	PHT         []automaton.State
	Touched     []uint64
}

// cacheState is the final state of a two-level predictor on the
// practical BHT with per-slot pattern tables: every slot, plus the BHT
// hit-rate counters.
type cacheState struct {
	Slots           []bhtSlotState
	Lookups, Misses uint64
}

func papCacheState(t *testing.T, p *predictor.TwoLevel) cacheState {
	t.Helper()
	v := p.FlatView()
	c, ok := v.Store.(*bht.Cache)
	if !ok {
		t.Fatalf("%s: not a practical BHT", p.Name())
	}
	st := cacheState{Lookups: *v.BHTLookups, Misses: *v.BHTMisses}
	for i := 0; i < c.Entries(); i++ {
		e := c.At(i)
		s := bhtSlotState{
			Valid: e.Valid(), Ever: e.Ever(), PC: e.PC(),
			Hist: e.Hist.Pattern(), Fresh: e.Hist.Fresh(),
			Pred: e.Pred, Target: e.Target,
		}
		base := i - i%c.Assoc()
		for j := base; j < base+c.Assoc(); j++ {
			if c.At(j).Stamp() < e.Stamp() {
				s.Rank++
			}
		}
		if e.PHT != nil {
			s.PHT = append([]automaton.State(nil), e.PHT.RawStates()...)
			s.Touched = append([]uint64(nil), e.PHT.RawTouched()...)
		}
		st.Slots = append(st.Slots, s)
	}
	return st
}

// TestKernelSlotRecycleMatchesInterpretive pins the PAp slot-recycle
// path — the kernel resets a recycled slot's pattern table by copying a
// template built at seed — against the interpretive runner. The
// configurations are built from predictor.TwoLevelConfig because spec
// strings cannot express a non-default PatternInit or
// InheritPHTOnReplace. A 64-entry, 2-way BHT under the 709-site trace
// recycles slots constantly; with context switches, slots are also
// revalidated by their previous owner.
func TestKernelSlotRecycleMatchesInterpretive(t *testing.T) {
	snap := kernelSnapshot(24_000)
	weak := automaton.State(1) // A2's initial state is 3 (strongly taken)
	base := predictor.TwoLevelConfig{
		Variation: predictor.PAp, HistoryBits: 6, Automaton: automaton.A2,
		Entries: 64, Assoc: 2, PatternInit: &weak,
	}
	inherit := base
	inherit.InheritPHTOnReplace = true
	for _, c := range []struct {
		name string
		cfg  predictor.TwoLevelConfig
	}{{"reinit", base}, {"inherit", inherit}} {
		for _, os := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"cs", Options{ContextSwitches: true, CSInterval: 1009}},
			{"budget", Options{MaxCondBranches: 5000}},
		} {
			build := func() *predictor.TwoLevel {
				p, err := predictor.NewTwoLevel(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			slowP := build()
			slowOpts := os.opts
			slowOpts.DisableFastpath = true
			want, err := Run(slowP, snap.Reader(), slowOpts)
			if err != nil {
				t.Fatal(err)
			}
			fastP := build()
			if !FastpathEligible(fastP, snap.Reader(), os.opts) {
				t.Fatalf("%s/%s: expected fast-path eligibility", c.name, os.name)
			}
			got, err := Run(fastP, snap.Reader(), os.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: kernel result differs from interpretive runner:\n got %+v\nwant %+v",
					c.name, os.name, got, want)
			}
			wantState, gotState := papCacheState(t, slowP), papCacheState(t, fastP)
			if wantState.Misses <= 709 {
				t.Fatalf("%s/%s: %d BHT misses over 709 sites: no slot was recycled",
					c.name, os.name, wantState.Misses)
			}
			if !reflect.DeepEqual(gotState, wantState) {
				for i := range wantState.Slots {
					if !reflect.DeepEqual(gotState.Slots[i], wantState.Slots[i]) {
						t.Errorf("%s/%s: slot %d differs:\n got %+v\nwant %+v",
							c.name, os.name, i, gotState.Slots[i], wantState.Slots[i])
						break
					}
				}
				if gotState.Lookups != wantState.Lookups || gotState.Misses != wantState.Misses {
					t.Errorf("%s/%s: BHT counters %d/%d, want %d/%d", c.name, os.name,
						gotState.Lookups, gotState.Misses, wantState.Lookups, wantState.Misses)
				}
			}
		}
	}
}
