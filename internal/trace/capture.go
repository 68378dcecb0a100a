package trace

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"twolevel/internal/span"
)

// Packed is a memory-compact, append-only event store. Events are held in
// struct-of-arrays form — three uint32 columns plus one metadata byte per
// event (13 bytes) instead of the padded Event struct (20 bytes) — so a
// benchmark's full capture stays resident cheaply while many replay
// cursors walk it.
//
// Appending is not safe for concurrent use; snapshots taken with View are
// immutable and may be read from any number of goroutines, including
// while the Packed keeps growing (appends never mutate the prefix a
// snapshot covers).
//
// The four columns always share one capacity: growth is a single
// decision that reallocates all of them (see grow).
type Packed struct {
	instrs  []uint32
	pcs     []uint32
	targets []uint32
	meta    []uint8
	conds   int

	// budget is the conditional-branch count the appends are heading
	// for (0 when unknown); CaptureCache sets it so growth can size the
	// columns for the whole capture instead of growing blindly.
	budget uint64
	// mark and markConds are Len and Conds at the last growth: the
	// events appended since then give the current events-per-branch
	// ratio.
	mark, markConds int
}

// Metadata bit layout: trap flag, taken flag, branch class. Exported so
// flat replay kernels (internal/sim/fastpath) can decode the packed meta
// column directly instead of paying a per-event At/Next decode.
const (
	// MetaTrap marks a trap event (no branch fields).
	MetaTrap = 1 << 0
	// MetaTaken is the branch outcome bit.
	MetaTaken = 1 << 1
	// MetaClassShift is the bit offset of the branch class field, which
	// occupies bits 2..4.
	MetaClassShift = 2
)

// Private aliases keep the package-internal encode/decode sites short.
const (
	metaTrap  = MetaTrap
	metaTaken = MetaTaken
	metaClass = MetaClassShift
)

// Append adds one event.
func (p *Packed) Append(e Event) {
	var m uint8
	if e.Trap {
		m |= metaTrap
	}
	if e.Branch.Taken {
		m |= metaTaken
	}
	m |= uint8(e.Branch.Class) << metaClass
	if len(p.meta) == cap(p.meta) {
		p.grow()
	}
	p.instrs = append(p.instrs, e.Instrs)
	p.pcs = append(p.pcs, e.Branch.PC)
	p.targets = append(p.targets, e.Branch.Target)
	p.meta = append(p.meta, m)
	if !e.Trap && e.Branch.Class == Cond {
		p.conds++
	}
}

// Column growth bounds, in events.
const (
	// growMin is the smallest budgeted growth step.
	growMin = 64
	// firstReserve caps the first reservation of a budgeted capture. A
	// budget is a lower bound on events only while the source lasts,
	// and "everything" requests pass ^uint64(0).
	firstReserve = 1 << 12
)

// grow makes room for more events in all four columns at once. Without
// a budget it grows each column as append does (by a quarter for large
// slices, leaving the copied prefix unzeroed: this is the path PackTrace
// and the pack probe take) and keeps the smallest capacity of the four.
// With one, it estimates the events still to come from the events per
// conditional branch since the last growth (at least one each) plus a
// 1/32 margin, grows by at least an eighth, and at most quadruples the
// capacity, so an over-large budget over a short source cannot
// over-allocate.
func (p *Packed) grow() {
	n := len(p.meta)
	if p.budget <= uint64(p.conds) {
		instrs, pcs, targets, meta := append(p.instrs, 0), append(p.pcs, 0), append(p.targets, 0), append(p.meta, 0)
		c := min(cap(instrs), cap(pcs), cap(targets), cap(meta))
		p.instrs, p.pcs, p.targets, p.meta = instrs[:n:c], pcs[:n:c], targets[:n:c], meta[:n:c]
		return
	}
	limit := max(3*n, firstReserve)
	left := min(p.budget-uint64(p.conds), uint64(limit))
	est := left
	if seen := p.conds - p.markConds; seen > 0 {
		est = left * uint64(n-p.mark) / uint64(seen)
	}
	p.mark, p.markConds = n, p.conds
	p.resize(n + min(max(int(est+est/32), n/8, growMin), limit))
}

// resize moves the columns to fresh arrays of capacity c (c >= Len()).
// Snapshots keep the old arrays.
func (p *Packed) resize(c int) {
	p.instrs = append(make([]uint32, 0, c), p.instrs...)
	p.pcs = append(make([]uint32, 0, c), p.pcs...)
	p.targets = append(make([]uint32, 0, c), p.targets...)
	p.meta = append(make([]uint8, 0, c), p.meta...)
}

// trim drops spare capacity beyond a quarter of the stored events, for a
// source that ended before the budget its growth was sized for.
func (p *Packed) trim() {
	if n := len(p.meta); cap(p.meta)-n > n/4 {
		p.resize(n)
	}
}

// Len returns the number of stored events.
func (p *Packed) Len() int { return len(p.meta) }

// Conds returns the number of stored conditional branch events.
func (p *Packed) Conds() int { return p.conds }

// Bytes returns the heap footprint of the stored columns: each column's
// capacity times its element size.
func (p *Packed) Bytes() int64 {
	return 4*int64(cap(p.instrs)+cap(p.pcs)+cap(p.targets)) + int64(cap(p.meta))
}

// eventsForConds returns the prefix length that covers the first n
// conditional branches (the index just past the nth one), or Len() when
// the store holds fewer.
func (p *Packed) eventsForConds(n uint64) int {
	if n == 0 {
		return 0
	}
	if uint64(p.conds) < n {
		return p.Len()
	}
	var seen uint64
	for i, m := range p.meta {
		if m&metaTrap == 0 && Class(m>>metaClass) == Cond {
			if seen++; seen == n {
				return i + 1
			}
		}
	}
	return p.Len()
}

// View snapshots the first n events. The snapshot stays valid and
// immutable across later appends. n is clamped to [0, Len()]: callers
// computing prefix lengths from untrusted budgets get the whole (or an
// empty) capture rather than a panic.
func (p *Packed) View(n int) Snapshot {
	if n < 0 {
		n = 0
	}
	if n > p.Len() {
		n = p.Len()
	}
	return Snapshot{
		instrs:  p.instrs[:n:n],
		pcs:     p.pcs[:n:n],
		targets: p.targets[:n:n],
		meta:    p.meta[:n:n],
	}
}

// Snapshot is an immutable view of a Packed prefix. Any number of
// goroutines may take Readers over the same snapshot.
type Snapshot struct {
	instrs  []uint32
	pcs     []uint32
	targets []uint32
	meta    []uint8
}

// Len returns the number of events in the snapshot.
func (s Snapshot) Len() int { return len(s.meta) }

// Conds returns the number of conditional branch events in the
// snapshot (a meta-column scan, not a stored counter — snapshots are
// cheap prefix views and do not carry derived state).
func (s Snapshot) Conds() int {
	n := 0
	for _, m := range s.meta {
		if m&metaTrap == 0 && Class(m>>metaClass) == Cond {
			n++
		}
	}
	return n
}

// At decodes event i.
func (s Snapshot) At(i int) Event {
	m := s.meta[i]
	return Event{
		Instrs: s.instrs[i],
		Trap:   m&metaTrap != 0,
		Branch: Branch{
			PC:     s.pcs[i],
			Target: s.targets[i],
			Class:  Class(m >> metaClass),
			Taken:  m&metaTaken != 0,
		},
	}
}

// Reader returns a fresh replay cursor positioned at the first event.
func (s Snapshot) Reader() *SnapshotReader { return &SnapshotReader{s: s} }

// Columns exposes the snapshot's raw packed columns for flat replay
// kernels: per-event instruction counts, branch addresses, branch targets
// and the metadata byte (see the Meta* bit layout). The slices alias the
// snapshot's immutable storage — callers must treat them as read-only.
func (s Snapshot) Columns() (instrs, pcs, targets []uint32, meta []uint8) {
	return s.instrs, s.pcs, s.targets, s.meta
}

// Checksum returns an FNV-1a digest over the snapshot's packed columns
// (length-prefixed, column order fixed). Two snapshots of the same
// deterministic generator at the same budget always agree; resume
// manifests store it to detect a capture that no longer matches the one
// a checkpoint was written against.
func (s Snapshot) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint32) {
		h = (h ^ uint64(v&0xff)) * prime64
		h = (h ^ uint64(v>>8&0xff)) * prime64
		h = (h ^ uint64(v>>16&0xff)) * prime64
		h = (h ^ uint64(v>>24&0xff)) * prime64
	}
	word(uint32(len(s.meta)))
	for _, v := range s.instrs {
		word(v)
	}
	for _, v := range s.pcs {
		word(v)
	}
	for _, v := range s.targets {
		word(v)
	}
	for _, m := range s.meta {
		h = (h ^ uint64(m)) * prime64
	}
	return h
}

// SnapshotReader replays a Snapshot as a Source. Each reader carries its
// own position; readers over one snapshot are independent.
type SnapshotReader struct {
	s   Snapshot
	pos int
}

// Next implements Source.
func (r *SnapshotReader) Next() (Event, error) {
	if r.pos >= r.s.Len() {
		return Event{}, io.EOF
	}
	e := r.s.At(r.pos)
	r.pos++
	return e, nil
}

// Reset rewinds the reader to the start of the snapshot.
func (r *SnapshotReader) Reset() { r.pos = 0 }

// Snapshot returns the snapshot the reader walks.
func (r *SnapshotReader) Snapshot() Snapshot { return r.s }

// Pos returns the index of the next event Next would return.
func (r *SnapshotReader) Pos() int { return r.pos }

// Seek positions the reader so the next event is index pos, clamped to
// [0, Len()]. Flat replay kernels consume events by index over Columns
// and then Seek the cursor past what they consumed, so interleaved
// interface-level reads keep working.
func (r *SnapshotReader) Seek(pos int) {
	if pos < 0 {
		pos = 0
	}
	if n := r.s.Len(); pos > n {
		pos = n
	}
	r.pos = pos
}

// CaptureCache materialises event streams exactly once and serves them to
// any number of replaying consumers. Each key (conventionally a
// benchmark/data-set pair) owns one generating Source, opened lazily and
// drained incrementally: a request for n conditional branches extends the
// stored capture only past what previous requests already paid for, so
// the expensive generator runs at most once per key no matter how many
// budgets or goroutines ask.
//
// Concurrent Capture calls on one key are single-flighted: the first
// caller opens the source and captures while the rest block on the entry
// lock, then reuse the stored events.
//
// Errors are NOT sticky: a failed open or a mid-capture source error is
// returned to the caller and the entry is reset, so a later Capture on
// the same key re-opens the source and re-captures from scratch — a
// transient failure never poisons the key. A cancelled context leaves
// the partial capture in place; the next Capture resumes extending it.
type CaptureCache struct {
	mu      sync.Mutex
	entries map[string]*captureEntry

	// hits counts Capture calls served entirely from stored events;
	// misses counts calls that had to open or extend a capture. Atomics:
	// Stats reads them without the entry locks Capture holds.
	hits   atomic.Uint64
	misses atomic.Uint64
}

type captureEntry struct {
	mu        sync.Mutex
	opened    bool
	src       Source
	exhausted bool // src returned io.EOF
	packed    Packed
}

// reset drops the entry's source and captured events so the next Capture
// retries from scratch. Snapshots already handed out keep the old
// columns — they are immutable — and stay valid.
func (e *captureEntry) reset() {
	e.opened = false
	e.src = nil
	e.exhausted = false
	e.packed = Packed{}
}

// captureCheckInterval is how many captured events pass between
// cancellation polls while a capture drains its generating source.
const captureCheckInterval = 65536

// NewCaptureCache returns an empty cache.
func NewCaptureCache() *CaptureCache {
	return &CaptureCache{entries: map[string]*captureEntry{}}
}

// Capture returns an immutable snapshot of key's event stream covering
// the first conds conditional branches (fewer if the source ends early).
// open creates the generating source; it is invoked once per successful
// capture lifetime (a failed open or source error resets the entry, so
// the next Capture calls open again — see the poisoning note on
// CaptureCache).
//
// ctx, when non-nil, bounds the capture: cancellation returns ctx.Err()
// and keeps the partial capture, so a resumed call continues where the
// cancelled one stopped. A nil ctx is context.Background().
func (c *CaptureCache) Capture(ctx context.Context, key string, conds uint64, open func() (Source, error)) (Snapshot, error) {
	snap, _, err := c.CaptureWithStatus(ctx, key, conds, open)
	return snap, err
}

// CaptureWithStatus is Capture plus whether the request was a cache hit:
// true when it was served entirely from stored events, false when the
// capture had to open or extend (or failed). Callers logging per-capture
// cache behaviour use this; the same outcome feeds the Stats counters.
func (c *CaptureCache) CaptureWithStatus(ctx context.Context, key string, conds uint64, open func() (Source, error)) (Snapshot, bool, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &captureEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	extended := false
	if !e.opened {
		src, err := open()
		if err != nil {
			c.misses.Add(1)
			return Snapshot{}, false, err
		}
		e.src = src
		e.opened = true
		extended = true
	}
	var sinceCheck uint32
	e.packed.budget = conds
	for uint64(e.packed.Conds()) < conds && !e.exhausted {
		extended = true
		if ctx != nil {
			if sinceCheck++; sinceCheck >= captureCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					c.misses.Add(1)
					return Snapshot{}, false, err
				}
			}
		}
		ev, err := e.src.Next()
		if err == io.EOF {
			e.exhausted = true
			e.packed.trim()
			break
		}
		if err != nil {
			// A mid-stream error leaves the source at an undefined
			// position; drop the entry so a retry re-captures cleanly
			// instead of serving a torn prefix forever.
			e.reset()
			c.misses.Add(1)
			return Snapshot{}, false, err
		}
		e.packed.Append(ev)
	}
	if extended {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.packed.View(e.packed.eventsForConds(conds)), !extended, nil
}

// CaptureTraced is CaptureWithStatus with latency attribution: the whole
// capture request — single-flight lock wait plus any source extension —
// is recorded as a "capture" child span of parent, with the key, the
// requested budget and the hit/miss outcome as attributes. A nil parent
// is exactly CaptureWithStatus: no span is opened and no attribute is
// built (the nil guard below is the zero-cost-when-disabled contract the
// spannilguard analyzer enforces in this package).
func (c *CaptureCache) CaptureTraced(ctx context.Context, key string, conds uint64, parent *span.Span, open func() (Source, error)) (Snapshot, bool, error) {
	if parent == nil {
		return c.CaptureWithStatus(ctx, key, conds, open)
	}
	sp := parent.Child("capture", span.Str("key", key), span.Uint64("conds", conds))
	snap, hit, err := c.CaptureWithStatus(ctx, key, conds, open)
	sp.SetAttr(span.Bool("hit", hit))
	if err != nil {
		sp.SetAttr(span.Str("error", err.Error()))
	}
	sp.End()
	return snap, hit, err
}

// CaptureStats summarises a cache's contents.
type CaptureStats struct {
	// Entries is the number of captured streams.
	Entries int `json:"entries"`
	// Events is the total number of stored events.
	Events int `json:"events"`
	// Conds is the total number of stored conditional branches.
	Conds int `json:"conds"`
	// Bytes is the approximate heap footprint of the stored columns.
	Bytes int64 `json:"bytes"`
	// Hits counts Capture calls served entirely from stored events;
	// Misses counts calls that had to open or extend a capture (a failed
	// open or torn capture counts as a miss too).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// HitRatio returns Hits over all Capture calls (0 before the first call).
func (s CaptureStats) HitRatio() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Stats reports the cache's current footprint.
func (c *CaptureCache) Stats() CaptureStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s CaptureStats
	s.Entries = len(c.entries)
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	for _, e := range c.entries {
		e.mu.Lock()
		s.Events += e.packed.Len()
		s.Conds += e.packed.Conds()
		s.Bytes += e.packed.Bytes()
		e.mu.Unlock()
	}
	return s
}

// Reset drops every captured stream and zeroes the hit/miss counters.
// In-flight snapshots remain valid; subsequent Capture calls re-open
// their sources.
func (c *CaptureCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*captureEntry{}
	c.hits.Store(0)
	c.misses.Store(0)
}
