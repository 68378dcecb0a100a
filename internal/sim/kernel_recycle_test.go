package sim

import (
	"reflect"
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/predictor"
)

// TestKernelSlotRecycleMatchesInterpretive pins the PAp slot-recycle
// path — a recycled slot's pattern table is reinitialised, or inherited
// under InheritPHTOnReplace — on the kernel against the interpretive
// runner, down to every slot's LRU rank. The
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
			if misses := slowP.State().Misses; misses <= 709 {
				t.Fatalf("%s/%s: %d BHT misses over 709 sites: no slot was recycled",
					c.name, os.name, misses)
			}
			assertSameState(t, c.name+"/"+os.name, fastP, slowP)
		}
	}
}
