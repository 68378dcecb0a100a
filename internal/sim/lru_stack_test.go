package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"twolevel/internal/flat"
	"twolevel/internal/prog"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// testingCapture packs the first events of a benchmark's testing run.
func testingCapture(t *testing.T, name string, events int) trace.Snapshot {
	t.Helper()
	bench, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := bench.NewSource(bench.Testing)
	if err != nil {
		t.Fatal(err)
	}
	var p trace.Packed
	for p.Len() < events {
		e, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Append(e)
	}
	return p.View(p.Len())
}

// stackMisses reads off the capture alone the misses of a true-LRU table
// of the given set count for every associativity up to maxWays (Mattson's
// stack distances): a lookup misses in A ways iff at least A other
// branches of its set were looked up since its own previous lookup.
// misses[A] is the count for A ways.
func stackMisses(snap trace.Snapshot, sets, maxWays int) []uint64 {
	recent := make([][]uint32, sets) // per set, most recent first
	misses := make([]uint64, maxWays+1)
	for i := 0; i < snap.Len(); i++ {
		e := snap.At(i)
		if e.Trap || e.Branch.Class != trace.Cond {
			continue
		}
		pc := e.Branch.PC
		set := recent[pc>>2%uint32(sets)]
		d := slices.Index(set, pc)
		if d < 0 {
			d = maxWays // cold, or further back than maxWays ways reach
			set = append(set, pc)
			if len(set) > maxWays {
				set = set[:maxWays]
			}
		}
		for a := 1; a <= min(d, maxWays); a++ {
			misses[a]++
		}
		copy(set[1:], set[:min(d, len(set)-1)])
		set[0] = pc
		recent[pc>>2%uint32(sets)] = set
	}
	return misses
}

// TestLRUStackProperty is a metamorphic law over real captures. LRU is a
// stack algorithm: with the set count fixed, a set of 2A ways holds the
// 2A most recently used branches of the set, a superset of what A ways
// hold, and a context switch empties both alike. So the table's miss
// count never rises as the associativity doubles from 1 to 8 ways. The
// law is checked for PAg and the BTB, with and without context
// switches, on the kernel and on the interpretive runner. Without
// context switches each count must also equal the one stackMisses reads
// off the capture, which no other stack algorithm (MRU replacement is
// one) meets.
func TestLRUStackProperty(t *testing.T) {
	const sets = 32
	schemes := []string{"PAg(BHT(%d,%d,8-sr),1xPHT(2^8,A2))", "BTB(BHT(%d,%d,A2),)"}
	for _, bench := range []string{"eqntott", "gcc", "li"} {
		snap := testingCapture(t, bench, 200_000)
		want := stackMisses(snap, sets, 8)
		for _, scheme := range schemes {
			for _, opts := range []Options{{}, {ContextSwitches: true}, {DisableFastpath: true}, {ContextSwitches: true, DisableFastpath: true}} {
				var misses []uint64
				for assoc := 1; assoc <= 8; assoc *= 2 {
					p, err := spec.Build(spec.MustParse(fmt.Sprintf(scheme, sets*assoc, assoc)), nil)
					if err != nil {
						t.Fatal(err)
					}
					if !opts.DisableFastpath && !FastpathEligible(p, snap.Reader(), opts) {
						t.Fatalf("%s: kernel not eligible", p.Name())
					}
					if _, err := Run(p, snap.Reader(), opts); err != nil {
						t.Fatal(err)
					}
					misses = append(misses, p.(interface{ State() *flat.State }).State().Misses)
				}
				name := fmt.Sprintf("%s %s, %d sets, cs=%v runner=%v", bench, scheme[:3], sets,
					opts.ContextSwitches, opts.DisableFastpath)
				prev := uint64(math.MaxUint64)
				for i, m := range misses {
					if m > prev {
						t.Errorf("%s: %d ways miss %d times, %d ways %d: misses %v", name, 1<<i, m, 1<<(i-1), prev, misses)
					}
					if !opts.ContextSwitches && m != want[1<<i] {
						t.Errorf("%s: %d ways miss %d times, stack distances give %d", name, 1<<i, m, want[1<<i])
					}
					prev = m
				}
				if misses[0] == misses[len(misses)-1] {
					t.Errorf("%s: misses %v do not fall with associativity; the law is vacuous here", name, misses)
				}
			}
		}
	}
}
