package flat

import (
	"testing"
	"testing/quick"

	"twolevel/internal/automaton"
	"twolevel/internal/rng"
)

// a2 is the automaton of every test state below: states 0–3, initial 3,
// taken in 2 and 3.
var a2 = automaton.New(automaton.A2)

// newState returns a k-bit A2 state with the given axes and branch
// history table.
func newState(k int, hist, pat Axis, bht BHTKind, entries, assoc int) State {
	return New(Config{
		HistoryAxis: hist, PatternAxis: pat, HistoryBits: k,
		Machine: a2, Init: a2.Initial(),
		BHT: bht, Entries: entries, Assoc: assoc,
		HistorySets: 4, PatternSets: 4,
	})
}

func TestShift(t *testing.T) {
	cases := []struct {
		name     string
		k        int
		outcomes []uint32
		want     uint32
	}{
		{"NewInitialisedAllOnes", 8, nil, 0xFF | FreshBit},
		{"NewInitialisedAllOnesWidest", MaxHistoryBits, nil, 1<<MaxHistoryBits - 1 | FreshBit},
		{"FirstOutcomeSmeared", 8, []uint32{0}, 0},
		{"FirstTakenFillsRegister", 8, []uint32{1}, 0xFF},
		{"FirstOutcomeSmearedWidest", MaxHistoryBits, []uint32{1}, 1<<MaxHistoryBits - 1},
		{"ShiftSemantics", 4, []uint32{1, 0, 1, 0}, 0b1010},
		{"ShiftDropsOldBits", 3, []uint32{1, 0, 0, 0}, 0},
		{"PatternMasking", 4, []uint32{1, 1, 1, 1, 1, 0, 1}, 0b1101},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mask := uint32(1)<<c.k - 1
			h := mask | FreshBit
			for _, o := range c.outcomes {
				h = Shift(h, o, mask)
			}
			if h != c.want {
				t.Fatalf("register %#x, want %#x", h, c.want)
			}
		})
	}
}

// TestShiftProperties checks Shift over random outcome sequences: the
// register never holds bits beyond its mask, and once the register has
// seen more than k outcomes it holds the last k, newest in bit 0.
func TestShiftProperties(t *testing.T) {
	shiftAll := func(k8 uint8, raw []bool) (h, mask uint32, k int) {
		k = int(k8%MaxHistoryBits) + 1
		mask = uint32(1)<<k - 1
		h = mask | FreshBit
		for _, o := range raw {
			h = Shift(h, bitOf(o), mask)
		}
		return h, mask, k
	}
	t.Run("PatternAlwaysWithinMask", func(t *testing.T) {
		if err := quick.Check(func(k8 uint8, raw []bool) bool {
			h, mask, _ := shiftAll(k8, raw)
			return len(raw) == 0 || h&^mask == 0
		}, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("PatternRecordsLastKOutcomes", func(t *testing.T) {
		if err := quick.Check(func(k8 uint8, raw []bool) bool {
			h, _, k := shiftAll(k8%12, raw)
			if len(raw) <= k {
				return true
			}
			var want uint32
			for _, o := range raw[len(raw)-k:] {
				want = want<<1 | bitOf(o)
			}
			return h == want
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func bitOf(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// lookup is one step of a BHT scenario: a counted lookup of pc that is
// expected to hit or miss, or a flush.
type lookup struct {
	pc    uint32
	hit   bool
	flush bool
}

// repeat returns rounds passes of hit-or-miss lookups over pcs.
func repeat(rounds int, hit bool, pcs ...uint32) []lookup {
	var steps []lookup
	for r := 0; r < rounds; r++ {
		for _, pc := range pcs {
			steps = append(steps, lookup{pc: pc, hit: hit})
		}
	}
	return steps
}

// seq returns the n PCs base, base+stride, … .
func seq(base, stride uint32, n int) []uint32 {
	pcs := make([]uint32, n)
	for i := range pcs {
		pcs[i] = base + uint32(i)*stride
	}
	return pcs
}

func cat(parts ...[]lookup) []lookup {
	var steps []lookup
	for _, p := range parts {
		steps = append(steps, p...)
	}
	return steps
}

// TestLookup drives LookupCache and LookupIdeal through hit/miss
// scenarios, reading each lookup's outcome off the miss counter.
func TestLookup(t *testing.T) {
	flush := []lookup{{flush: true}}
	cases := []struct {
		name           string
		bht            BHTKind
		entries, assoc int
		steps          []lookup
	}{
		{"MissThenHit", CacheBHT, 16, 4, []lookup{{pc: 0x1000}, {pc: 0x1000, hit: true}}},
		// 4 sets of 2 ways: PCs 4, 20 and 36 share set 1. Touching 4
		// leaves 20 least recently used, so 36 evicts 20, not 4.
		{"ConflictWithinSetLRU", CacheBHT, 8, 2, []lookup{
			{pc: 4}, {pc: 20}, {pc: 4, hit: true}, {pc: 36}, {pc: 4, hit: true}, {pc: 20},
		}},
		{"DirectMappedConflicts", CacheBHT, 4, 1, []lookup{{pc: 0}, {pc: 16}, {pc: 0}}},
		{"FlushInvalidatesAll", CacheBHT, 16, 4, cat(
			repeat(1, false, seq(0, 4, 16)...), flush, repeat(1, false, seq(0, 4, 16)...))},
		// 16 branches in distinct sets of a 64-entry 4-way table stay
		// resident.
		{"WorkingSetSmallerThanWayFitsEntirely", CacheBHT, 64, 4, cat(
			repeat(1, false, seq(0, 4, 16)...), repeat(10, true, seq(0, 4, 16)...))},
		// A fully associative set keeps its four branches however often
		// a round-robin over them reorders the set.
		{"FullyAssociativeSetKeepsItsBranches", CacheBHT, 4, 4, cat(
			repeat(1, false, seq(0, 4, 4)...), repeat(25000, true, seq(0, 4, 4)...))},
		{"IdealNeverForgets", IdealBHT, 0, 0, cat(
			repeat(1, false, 0x10), repeat(1, false, seq(0x1000, 4, 10000)...), repeat(1, true, 0x10))},
		{"IdealFlushMisses", IdealBHT, 0, 0, cat(
			repeat(1, false, 0x10, 0x20), repeat(1, true, 0x20), flush, repeat(1, false, 0x20, 0x10))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newState(6, PerAddress, Global, c.bht, c.entries, c.assoc)
			var lookups uint64
			for i, step := range c.steps {
				if step.flush {
					s.Flush()
					continue
				}
				lookups++
				misses := s.Misses
				if c.bht == IdealBHT {
					s.LookupIdeal(&s.LookupCounts, step.pc)
				} else {
					s.LookupCache(&s.LookupCounts, step.pc)
				}
				if hit := s.Misses == misses; hit != step.hit {
					t.Fatalf("step %d: lookup of %#x hit = %v, want %v", i, step.pc, hit, step.hit)
				}
			}
			if s.Lookups != lookups {
				t.Fatalf("Lookups = %d, want %d", s.Lookups, lookups)
			}
		})
	}
}

// TestCacheNeverExceedsCapacityProperty: however many branches a
// practical table sees, no more than its capacity stay resident, and
// every resident branch sits in its own set.
func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := newState(6, PerAddress, Global, CacheBHT, 32, 4)
		r := rng.New(seed)
		seen := map[uint32]bool{}
		for i := 0; i < 500; i++ {
			pc := uint32(r.Intn(4096)) << 2
			j := s.LookupCache(&s.LookupCounts, pc)
			if int(pc>>2&s.SetMask) != j/s.Assoc {
				return false
			}
			seen[pc] = true
		}
		resident := 0
		for pc := range seen {
			if s.Peek(pc) >= 0 {
				resident++
			}
		}
		return resident <= 32 && s.BHTTouched() <= 32
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReallocation trains pattern 5 of pc a's per-slot table, gives
// a's register a live history of 0, then looks up pc b (after a flush,
// if asked): whether b reuses a's slot, hits, and finds a's pattern
// table and register or fresh ones.
func TestSlotReallocation(t *testing.T) {
	cases := []struct {
		name           string
		bht            BHTKind
		entries, assoc int
		inherit, flush bool
		a, b           uint32
		wantHit        bool
		wantPHT        automaton.State // pattern 5 of the slot after b's lookup
		wantHist       uint32
	}{
		{"EntryPayloadSurvivesLookups", CacheBHT, 8, 2, false, false, 0x100, 0x100, true, 1, 0},
		{"AllocateSamePCNotRecycled", CacheBHT, 8, 2, false, true, 0x100, 0x100, false, 1, 0x3F | FreshBit},
		{"RecycledSlotReinitialised", CacheBHT, 4, 1, false, false, 0x0, 0x10, false, 3, 0x3F | FreshBit},
		{"InheritPHTOnReplace", CacheBHT, 4, 1, true, false, 0x0, 0x10, false, 1, 0x3F | FreshBit},
		// A flushed slot holds no resident branch, so another branch
		// taking it is no replacement either.
		{"FlushedSlotNotRecycled", CacheBHT, 4, 1, false, true, 0x0, 0x10, false, 1, 0x3F | FreshBit},
		{"IdealFlushRevivesSameSlot", IdealBHT, 0, 0, false, true, 0x20, 0x20, false, 1, 0x3F | FreshBit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{
				HistoryAxis: PerAddress, PatternAxis: PerAddress, HistoryBits: 6,
				Machine: a2, Init: a2.Initial(), InheritPHTOnReplace: c.inherit,
				BHT: c.bht, Entries: c.entries, Assoc: c.assoc,
			})
			look := func(pc uint32) int {
				if c.bht == IdealBHT {
					return s.LookupIdeal(&s.LookupCounts, pc)
				}
				return s.LookupCache(&s.LookupCounts, pc)
			}
			j := look(c.a)
			s.Train(s.PHTStates[j], s.PHTTouched[j], 5, 0)
			s.Train(s.PHTStates[j], s.PHTTouched[j], 5, 0)
			s.Hists[j] = Shift(s.Hists[j], 0, s.HistMask)
			if c.flush {
				s.Flush()
			}
			misses := s.Misses
			if jb := look(c.b); jb != j {
				t.Fatalf("%#x took slot %d, want %d", c.b, jb, j)
			}
			if hit := s.Misses == misses; hit != c.wantHit {
				t.Fatalf("hit = %v, want %v", hit, c.wantHit)
			}
			if got := s.PHTStates[j][5]; got != c.wantPHT {
				t.Fatalf("pattern 5 state %d, want %d", got, c.wantPHT)
			}
			if touched := Ones(s.PHTTouched[j]); (touched == 1) != (c.wantPHT != a2.Initial()) {
				t.Fatalf("%d patterns touched with pattern 5 at state %d", touched, c.wantPHT)
			}
			if s.Hists[j] != c.wantHist {
				t.Fatalf("register %#x, want %#x", s.Hists[j], c.wantHist)
			}
		})
	}
}

// TestNewPatternTables: every pattern table of every pattern axis
// starts with its 2^k entries at the configured initial state, which
// predicts taken for every automaton of Figure 2 and PB.
func TestNewPatternTables(t *testing.T) {
	for _, kind := range automaton.Kinds {
		m := automaton.New(kind)
		for _, pat := range []Axis{Global, PerSet, PerAddress} {
			s := New(Config{
				HistoryAxis: PerAddress, PatternAxis: pat, HistoryBits: 6,
				Machine: m, Init: m.Initial(), BHT: CacheBHT, Entries: 8, Assoc: 2, PatternSets: 4,
			})
			j := s.LookupCache(&s.LookupCounts, 0x40)
			var tables [][]automaton.State
			switch pat {
			case Global:
				tables = append(tables, s.GStates)
			case PerSet:
				tables = s.SetStates
			default:
				tables = append(tables, s.PHTStates[j])
			}
			for _, states := range tables {
				if len(states) != 64 {
					t.Fatalf("%v axis %d: %d entries, want 64", kind, pat, len(states))
				}
				for p, st := range states {
					if st != m.Initial() || !s.Taken(st) {
						t.Fatalf("%v axis %d: entry %d at state %d", kind, pat, p, st)
					}
				}
			}
		}
	}
}

func TestTrain(t *testing.T) {
	t.Run("UpdateIsPerPattern", func(t *testing.T) {
		s := newState(4, Global, Global, NoBHT, 0, 0)
		for i := 0; i < 4; i++ {
			s.Train(s.GStates, s.GTouched, 5, 0)
		}
		if s.Taken(s.GStates[5]) || s.GStates[5] != 0 {
			t.Errorf("pattern 5 at state %d, want 0 (not taken)", s.GStates[5])
		}
		if !s.Taken(s.GStates[6]) {
			t.Error("pattern 6 should still predict taken")
		}
		if Ones(s.GTouched) != 1 || s.GTouched[0] != 1<<5 {
			t.Errorf("touched bitset %b, want pattern 5 only", s.GTouched)
		}
	})
	t.Run("TableTracksAutomatonExactly", func(t *testing.T) {
		if err := quick.Check(func(kind8 uint8, pattern uint8, outcomes []bool) bool {
			m := automaton.New(automaton.Kinds[int(kind8)%len(automaton.Kinds)])
			s := New(Config{HistoryAxis: Global, PatternAxis: Global, HistoryBits: 8, Machine: m, Init: m.Initial()})
			want := m.Initial()
			p := uint32(pattern)
			for _, o := range outcomes {
				if s.Taken(s.GStates[p]) != m.Predict(want) {
					return false
				}
				s.Train(s.GStates, s.GTouched, p, bitOf(o))
				want = m.Next(want, o)
			}
			return s.GStates[p] == want
		}, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBHTTouched counts the slots ever allocated: a flush does not
// reset the count, and a branch returning to its own slot is not
// counted twice.
func TestBHTTouched(t *testing.T) {
	cases := []struct {
		name           string
		bht            BHTKind
		entries, assoc int
		pcs            []uint32
		want           int
	}{
		{"CacheDistinctSlots", CacheBHT, 8, 2, []uint32{4, 20, 4, 36, 8}, 3},
		{"CacheAllSlots", CacheBHT, 8, 2, seq(0, 4, 40), 8},
		{"IdealOnePerBranch", IdealBHT, 0, 0, []uint32{4, 20, 4, 36, 8}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newState(4, PerAddress, Global, c.bht, c.entries, c.assoc)
			for i, pc := range c.pcs {
				if i == len(c.pcs)/2 {
					s.Flush()
				}
				s.Find(pc)
				if s.Peek(pc) < 0 {
					s.Allocate(pc)
				}
			}
			if got := s.BHTTouched(); got != c.want {
				t.Fatalf("BHTTouched = %d, want %d", got, c.want)
			}
		})
	}
}

// TestFlush: a context switch reinitialises every history register (so
// the next outcome is smeared again) and invalidates the BHT, but keeps
// every pattern table.
func TestFlush(t *testing.T) {
	cases := []struct {
		name      string
		hist, pat Axis
		bht       BHTKind
	}{
		{"ResetRestoresFreshState", Global, Global, NoBHT},
		{"PerSetRegisters", PerSet, PerSet, NoBHT},
		{"PerAddressKeepsPatternTables", PerAddress, PerAddress, CacheBHT},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newState(6, c.hist, c.pat, c.bht, 8, 2)
			const pc = 0x44
			j := -1
			if c.bht != NoBHT {
				j = s.LookupCache(&s.LookupCounts, pc)
			}
			r := s.History(pc, j)
			*r = Shift(Shift(*r, 1, s.HistMask), 0, s.HistMask)
			states, touched := s.Tables(pc, j)
			s.Train(states, touched, 3, 0)
			s.Flush()
			if c.bht != NoBHT {
				if s.Peek(pc) >= 0 {
					t.Fatal("branch still resident after the flush")
				}
				if got := s.Allocate(pc); got != j {
					t.Fatalf("re-allocated to slot %d, want %d", got, j)
				}
			}
			if *r != s.ResetHist {
				t.Fatalf("register %#x after flush, want %#x", *r, s.ResetHist)
			}
			if *r = Shift(*r, 0, s.HistMask); *r != 0 {
				t.Fatalf("first outcome after the flush not smeared: %#x", *r)
			}
			if states[3] != 2 || Ones(touched) != 1 {
				t.Fatalf("pattern table lost its training: state %d, %d touched", states[3], Ones(touched))
			}
		})
	}
}
