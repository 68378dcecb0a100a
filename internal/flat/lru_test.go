package flat_test

import (
	"testing"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/reference"
	"twolevel/internal/rng"
)

// FuzzLRUVsReference drives one practical-table flat.State and the
// reference model's table, which keeps LRU order as an explicit
// most-recent-first list of ways and shares no code with package flat,
// through the same random operations: counted lookups, Find, Peek,
// Allocate of an absent branch, and flushes. The seed selects the
// geometry, 1 to 64 sets of 1 to 16 ways (powers of two, as
// predictor.TwoLevelConfig.Validate requires; the corpus holds every
// pair), and draws a pool of twice as many branch PCs as the table has
// entries, so both hits and replacements are common. Each op byte picks
// the operation; the PCs come from the seed.
//
// Both sides must agree on every hit or miss, and after every step each
// set's ranks must be the reference's order: the way at position i of
// the order holds rank i, with the same validity, and a valid way is
// where flat finds its tag.
func FuzzLRUVsReference(f *testing.F) {
	for seed := uint64(0); seed < 7*5; seed++ {
		r := rng.New(seed * 7919)
		ops := make([]byte, 1500)
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		sets, assoc := 1<<(seed%7), 1<<(seed/7%5)
		r := rng.New(seed)
		a2 := automaton.New(automaton.A2)
		s := flat.New(flat.Config{
			HistoryAxis: flat.PerAddress, PatternAxis: flat.Global, HistoryBits: 1,
			Machine: a2, Init: a2.Initial(),
			BHT: flat.CacheBHT, Entries: sets * assoc, Assoc: assoc,
		})
		ref := reference.New(reference.Config{
			Scheme: "PAg", K: 1, Automaton: "A2", Entries: sets * assoc, Assoc: assoc,
		})
		pcs := make([]uint32, 2*sets*assoc)
		for i := range pcs {
			pcs[i] = uint32(r.Intn(1<<20)) << 2
		}
		resident := func(pc uint32) bool {
			for _, w := range ref.Order(int(pc >> 2 % uint32(sets))) {
				if w.Valid && w.Tag == pc {
					return true
				}
			}
			return false
		}
		check := func(step int, op string) {
			for set := 0; set < sets; set++ {
				for i, w := range ref.Order(set) {
					j := set*assoc + w.Way
					if int(s.Ranks[j]) != i || s.Valid[j] != w.Valid {
						t.Fatalf("step %d (%s), %d×%d: set %d way %d has rank %d, valid %v; reference position %d, valid %v",
							step, op, sets, assoc, set, w.Way, s.Ranks[j], s.Valid[j], i, w.Valid)
					}
					if w.Valid && s.Peek(w.Tag) != j {
						t.Fatalf("step %d (%s): %#x found at slot %d, reference slot %d", step, op, w.Tag, s.Peek(w.Tag), j)
					}
				}
			}
		}
		check(-1, "new")
		for step, b := range ops {
			pc := pcs[r.Intn(len(pcs))]
			hit := resident(pc)
			var op string
			switch b % 8 {
			case 0, 1, 2, 3:
				op = "lookup"
				misses := s.Misses
				s.LookupCache(&s.LookupCounts, pc)
				if got := s.Misses == misses; got != hit {
					t.Fatalf("step %d: lookup of %#x hit = %v, reference %v", step, pc, got, hit)
				}
				ref.Step(pc, true)
			case 4:
				op = "find"
				if got := s.Find(pc) >= 0; got != hit {
					t.Fatalf("step %d: Find(%#x) hit = %v, reference %v", step, pc, got, hit)
				}
				if hit {
					ref.Step(pc, true)
				}
			case 5:
				op = "peek"
				if got := s.Peek(pc) >= 0; got != hit {
					t.Fatalf("step %d: Peek(%#x) hit = %v, reference %v", step, pc, got, hit)
				}
			case 6:
				op = "allocate"
				if !hit {
					s.Allocate(pc)
					ref.Step(pc, true)
				}
			default:
				op = "flush"
				if b>>3%4 != 0 {
					continue
				}
				s.Flush()
				ref.ContextSwitch()
			}
			check(step, op)
		}
	})
}
