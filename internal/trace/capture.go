package trace

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"twolevel/internal/span"
)

// CaptureCache materialises event streams exactly once and serves them to
// any number of replaying consumers. Each key (conventionally a
// benchmark/data-set pair) owns one generating Source, opened lazily and
// drained incrementally: a request for n conditional branches extends the
// stored capture only past what previous requests already paid for, so
// the expensive generator runs at most once per key no matter how many
// budgets or goroutines ask.
//
// Concurrent capture calls on one key are single-flighted: the first
// caller opens the source and captures while the rest block on the entry
// lock, then reuse the stored events.
//
// Errors are NOT sticky: a failed open or a mid-capture source error is
// returned to the caller and the entry is reset, so a later capture on
// the same key re-opens the source and re-captures from scratch — a
// transient failure never poisons the key. A cancelled context leaves
// the partial capture in place; the next capture resumes extending it.
type CaptureCache struct {
	mu      sync.Mutex
	entries map[string]*captureEntry

	// hits counts capture calls served entirely from stored events;
	// misses counts calls that had to open or extend a capture. Atomics:
	// Stats reads them without the entry locks a capture holds.
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

// CaptureWithStatus returns an immutable snapshot of key's event stream
// covering the first conds conditional branches (fewer if the source
// ends early), and whether the request was a cache hit: true when it was
// served entirely from stored events, false when the capture had to open
// or extend (or failed). The same outcome feeds the Stats counters.
// open creates the generating source; it is invoked once per successful
// capture lifetime (a failed open or source error resets the entry, so
// the next call opens again — see the poisoning note on CaptureCache).
//
// ctx, when non-nil, bounds the capture: cancellation returns ctx.Err()
// and keeps the partial capture, so a resumed call continues where the
// cancelled one stopped. A nil ctx is context.Background().
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
	// Hits counts capture calls served entirely from stored events;
	// Misses counts calls that had to open or extend a capture (a failed
	// open or torn capture counts as a miss too).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// HitRatio returns Hits over all capture calls (0 before the first call).
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
// In-flight snapshots remain valid; subsequent capture calls re-open
// their sources.
func (c *CaptureCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*captureEntry{}
	c.hits.Store(0)
	c.misses.Store(0)
}
