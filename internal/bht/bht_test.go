package bht

import (
	"testing"
	"testing/quick"

	"twolevel/internal/history"
	"twolevel/internal/rng"
)

func TestNewCacheValidation(t *testing.T) {
	bad := [][2]int{{0, 1}, {-4, 1}, {100, 4}, {512, 3}, {512, 0}, {4, 8}}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", c[0], c[1])
				}
			}()
			NewCache(c[0], c[1])
		}()
	}
	// The paper's four configurations must construct.
	for _, c := range [][2]int{{512, 4}, {512, 1}, {256, 4}, {256, 1}} {
		cache := NewCache(c[0], c[1])
		if cache.Entries() != c[0] || cache.Assoc() != c[1] || cache.Sets() != c[0]/c[1] {
			t.Errorf("NewCache(%d,%d) shape wrong", c[0], c[1])
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := NewCache(16, 4)
	if c.Lookup(0x1000) != nil {
		t.Fatal("empty cache hit")
	}
	e, recycled := c.Allocate(0x1000)
	if recycled {
		t.Fatal("allocation in empty cache reported recycled")
	}
	e.Hist = history.New(6)
	got := c.Lookup(0x1000)
	if got == nil || got.PC() != 0x1000 {
		t.Fatal("lookup after allocate missed")
	}
	if got != e {
		t.Fatal("lookup returned a different entry")
	}
}

func TestConflictWithinSetLRU(t *testing.T) {
	// 8 entries, 2-way: 4 sets. PCs with identical index bits collide.
	c := NewCache(8, 2)
	// index = (pc>>2) & 3. Use pcs with index 1: pc>>2 in {1,5,9,...}
	pcs := []uint32{1 << 2, 5 << 2, 9 << 2}
	c.Allocate(pcs[0])
	c.Allocate(pcs[1])
	// Touch pcs[0] so pcs[1] becomes LRU.
	if c.Lookup(pcs[0]) == nil {
		t.Fatal("expected hit")
	}
	_, recycled := c.Allocate(pcs[2])
	if !recycled {
		t.Fatal("conflict allocation should recycle")
	}
	if c.Lookup(pcs[0]) == nil {
		t.Fatal("LRU evicted the most recently used entry")
	}
	if c.Lookup(pcs[1]) != nil {
		t.Fatal("LRU failed to evict the least recently used entry")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := NewCache(4, 1)
	a, b := uint32(0<<2), uint32(4<<2) // same index 0
	c.Allocate(a)
	_, recycled := c.Allocate(b)
	if !recycled {
		t.Fatal("direct-mapped conflict should recycle")
	}
	if c.Lookup(a) != nil {
		t.Fatal("direct-mapped did not evict")
	}
}

func TestAllocateSamePCNotRecycled(t *testing.T) {
	c := NewCache(8, 2)
	c.Allocate(0x40)
	_, recycled := c.Allocate(0x40)
	if recycled {
		t.Fatal("re-allocating the same branch must not report recycled")
	}
}

func TestFlushInvalidatesAll(t *testing.T) {
	c := NewCache(16, 4)
	for i := uint32(0); i < 16; i++ {
		c.Allocate(i * 4)
	}
	c.Flush()
	for i := uint32(0); i < 16; i++ {
		if c.Lookup(i*4) != nil {
			t.Fatalf("entry %d survived flush", i)
		}
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		c := NewCache(32, 4)
		r := rng.New(seed)
		live := make(map[uint32]bool)
		for i := 0; i < 500; i++ {
			pc := uint32(r.Intn(4096)) << 2
			if c.Lookup(pc) == nil {
				c.Allocate(pc)
			}
			live[pc] = true
		}
		// Count how many of the touched PCs still hit; must be <= 32.
		hits := 0
		for pc := range live {
			if c.Lookup(pc) != nil {
				hits++
			}
		}
		return hits <= 32
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetSmallerThanWayFitsEntirely(t *testing.T) {
	// Any working set that maps <= assoc branches per set never misses
	// after warm-up: with 64 entries 4-way and 16 sets, 16 branches with
	// distinct indices all stick.
	c := NewCache(64, 4)
	var pcs []uint32
	for i := uint32(0); i < 16; i++ {
		pcs = append(pcs, i<<2)
	}
	for _, pc := range pcs {
		c.Allocate(pc)
	}
	for round := 0; round < 10; round++ {
		for _, pc := range pcs {
			if c.Lookup(pc) == nil {
				t.Fatalf("resident branch %x missed", pc)
			}
		}
	}
}

func TestIdealNeverForgets(t *testing.T) {
	id := NewIdeal()
	if id.Lookup(0x10) != nil {
		t.Fatal("empty ideal table hit")
	}
	e, recycled := id.Allocate(0x10)
	if recycled {
		t.Fatal("ideal allocation reported recycled")
	}
	e.Hist = history.New(6)
	e.Hist.Shift(true)
	for i := uint32(0); i < 10000; i++ {
		id.Allocate(0x1000 + i*4)
	}
	got := id.Lookup(0x10)
	if got == nil || got.Hist.Pattern() != 63 {
		t.Fatal("ideal table lost an entry under pressure")
	}
	if id.Known() != 10001 {
		t.Fatalf("Known = %d, want 10001", id.Known())
	}
	if id.Entries() != 0 {
		t.Fatal("ideal table should report unbounded capacity")
	}
}

func TestIdealFlushRevivesSameSlot(t *testing.T) {
	id := NewIdeal()
	e, _ := id.Allocate(0x20)
	e.Hist = history.New(6)
	e.Hist.Shift(true)
	id.Flush()
	if id.Lookup(0x20) != nil {
		t.Fatal("flushed entry still hits")
	}
	revived, recycled := id.Allocate(0x20)
	if recycled {
		t.Fatal("revival must not report recycled")
	}
	if revived != e || revived.Hist.Pattern() != 63 {
		t.Fatal("revived entry lost its payload across the flush")
	}
}

func TestEntryPayloadSurvivesLookups(t *testing.T) {
	c := NewCache(8, 2)
	e, _ := c.Allocate(0x100)
	e.Hist = history.New(6)
	e.Hist.Shift(false)
	got := c.Lookup(0x100)
	if got.Hist.Pattern() != 0 {
		t.Fatal("payload fields did not survive")
	}
}

func TestLRUStampOverflowResistance(t *testing.T) {
	// Stamps are uint64; just confirm monotonic behaviour over many ops.
	c := NewCache(4, 4)
	for i := 0; i < 100000; i++ {
		pc := uint32(i%4) << 2
		if c.Lookup(pc) == nil {
			c.Allocate(pc)
		}
	}
	// All four still resident.
	for i := uint32(0); i < 4; i++ {
		if c.Lookup(i<<2) == nil {
			t.Fatal("resident entry evicted")
		}
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(512, 4)
	for i := uint32(0); i < 512; i++ {
		c.Allocate(i << 2)
	}
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i%512) << 2)
	}
}

func BenchmarkCacheMissAllocate(b *testing.B) {
	c := NewCache(512, 4)
	for i := 0; i < b.N; i++ {
		pc := uint32(i) << 2
		if c.Lookup(pc) == nil {
			c.Allocate(pc)
		}
	}
}
