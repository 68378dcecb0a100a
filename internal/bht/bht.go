// Package bht implements the branch history table of §3.3 as a keyed
// store of entry objects, used by the branch-behaviour analyses. (The
// two-level predictors and the Branch Target Buffer designs keep their
// table in the flat layout of package flat.)
//
// Two implementations are provided:
//
//   - Cache: the practical table — direct-mapped or set-associative with
//     true LRU replacement, indexed by the low bits of the branch address
//     with the high bits stored as a tag.
//   - Ideal: the Ideal Branch History Table (IBHT) — one entry per static
//     conditional branch, no capacity or conflict misses.
//
// An Entry's payload is the branch's k-bit history register.
package bht

import (
	"fmt"
	"math/bits"

	"twolevel/internal/history"
)

// Entry is one branch history table entry. The bookkeeping fields (tag,
// validity, LRU stamp) are managed by the Store; the payload fields are
// owned by the table's user.
type Entry struct {
	valid bool
	ever  bool   // slot has been allocated at least once (occupancy telemetry)
	pc    uint32 // full address of the owning branch
	stamp uint64 // LRU timestamp

	// Hist is the branch's k-bit history register.
	Hist history.Register
}

// PC returns the full address of the branch owning this entry.
func (e *Entry) PC() uint32 { return e.pc }

// Store is a branch history table: either a practical Cache or the Ideal
// table.
type Store interface {
	// Lookup returns the entry for pc, or nil on a miss. A hit refreshes
	// the entry's LRU position.
	Lookup(pc uint32) *Entry
	// Allocate victimises an entry for pc and returns it. recycled
	// reports whether the entry previously belonged to a different
	// branch (its payload holds a stranger's history). The caller must
	// reinitialise the payload fields it uses.
	Allocate(pc uint32) (e *Entry, recycled bool)
	// Flush invalidates every entry (context switch, §5.1.4).
	Flush()
	// Entries returns the table capacity (0 means unbounded).
	Entries() int
	// Touched returns the number of distinct entry slots ever allocated
	// since construction — table occupancy telemetry. Flush does not
	// reset the count.
	Touched() int
}

// Cache is the practical set-associative branch history table.
type Cache struct {
	entries  []Entry
	sets     int
	assoc    int
	idxBits  int
	clock    uint64
	capacity int
	touched  int // slots ever allocated
}

// NewCache returns a table with the given number of entries and
// associativity. entries must be a power of two and divisible by assoc;
// assoc must be a power of two >= 1 (assoc == 1 is direct-mapped).
func NewCache(entries, assoc int) *Cache {
	if entries <= 0 || entries&(entries-1) != 0 {
		//lint:allow nopanic programmer-error guard below the validated-constructor layer (analysis.New validates first); contract-tested
		panic(fmt.Sprintf("bht: entries %d must be a positive power of two", entries))
	}
	if assoc <= 0 || assoc&(assoc-1) != 0 || assoc > entries {
		//lint:allow nopanic programmer-error guard below the validated-constructor layer (analysis.New validates first); contract-tested
		panic(fmt.Sprintf("bht: associativity %d invalid for %d entries", assoc, entries))
	}
	sets := entries / assoc
	return &Cache{
		entries:  make([]Entry, entries),
		sets:     sets,
		assoc:    assoc,
		idxBits:  bits.TrailingZeros(uint(sets)),
		capacity: entries,
	}
}

// index returns the set index for pc. Instructions are word-aligned, so
// the low two bits are dropped first.
func (c *Cache) index(pc uint32) int {
	return int(pc >> 2 & uint32(c.sets-1))
}

// Entries implements Store.
func (c *Cache) Entries() int { return c.capacity }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Lookup implements Store.
func (c *Cache) Lookup(pc uint32) *Entry {
	base := c.index(pc) * c.assoc
	for i := 0; i < c.assoc; i++ {
		e := &c.entries[base+i]
		if e.valid && e.pc == pc {
			c.clock++
			e.stamp = c.clock
			return e
		}
	}
	return nil
}

// Allocate implements Store. Within a set, the least recently used entry
// is victimised (§3.3).
func (c *Cache) Allocate(pc uint32) (*Entry, bool) {
	base := c.index(pc) * c.assoc
	victim := &c.entries[base]
	for i := 0; i < c.assoc; i++ {
		e := &c.entries[base+i]
		if !e.valid {
			victim = e
			break
		}
		if e.stamp < victim.stamp {
			victim = e
		}
	}
	recycled := victim.valid && victim.pc != pc
	c.clock++
	if !victim.ever {
		victim.ever = true
		c.touched++
	}
	victim.valid = true
	victim.pc = pc
	victim.stamp = c.clock
	return victim, recycled
}

// Touched implements Store.
func (c *Cache) Touched() int { return c.touched }

// Flush implements Store.
func (c *Cache) Flush() {
	for i := range c.entries {
		c.entries[i].valid = false
	}
}

// Ideal is the Ideal Branch History Table: one entry per static branch,
// no misses after first reference, no replacement.
type Ideal struct {
	entries map[uint32]*Entry
}

// NewIdeal returns an empty ideal table.
func NewIdeal() *Ideal {
	return &Ideal{entries: make(map[uint32]*Entry)}
}

// Entries implements Store; the ideal table is unbounded.
func (t *Ideal) Entries() int { return 0 }

// Known returns the number of static branches currently tracked.
func (t *Ideal) Known() int { return len(t.entries) }

// Lookup implements Store.
func (t *Ideal) Lookup(pc uint32) *Entry {
	e := t.entries[pc]
	if e == nil || !e.valid {
		return nil
	}
	return e
}

// Allocate implements Store. A flushed entry for the same branch is
// revived with its payload intact.
func (t *Ideal) Allocate(pc uint32) (*Entry, bool) {
	if e, ok := t.entries[pc]; ok {
		e.valid = true
		return e, false
	}
	e := &Entry{valid: true, ever: true, pc: pc}
	t.entries[pc] = e
	return e, false
}

// Flush implements Store.
func (t *Ideal) Flush() {
	for _, e := range t.entries {
		e.valid = false
	}
}

// Touched implements Store: every static branch seen has its own entry.
func (t *Ideal) Touched() int { return len(t.entries) }
