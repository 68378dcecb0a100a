package trace

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent contention tests for the shared CaptureCache: the brserve
// daemon points every tenant at one cache, so simultaneous uploads of
// the same trace, interleaved reads at different budgets, and cancelled
// captures must all coexist without torn snapshots, duplicate source
// opens, or counter drift. Run with -race.

// TestCaptureCacheMixedReadWriteContention hammers one cache from many
// goroutines: per key, writers extend the capture at growing budgets
// while readers replay prefixes. Every snapshot handed out must be an
// exact prefix of the canonical stream, each source must open exactly
// once, and the hit/miss counters must account for every call.
func TestCaptureCacheMixedReadWriteContention(t *testing.T) {
	const (
		keys    = 4
		writers = 4
		readers = 4
		rounds  = 8
	)
	canon := make([][]Event, keys)
	for k := range canon {
		canon[k] = randomEvents(6000, int64(100+k))
	}
	var opens [keys]atomic.Int32
	var calls atomic.Uint64
	c := NewCaptureCache()
	open := func(k int) func() (Source, error) {
		return func() (Source, error) {
			opens[k].Add(1)
			tr := &Trace{Events: canon[k]}
			return tr.Reader(), nil
		}
	}
	key := func(k int) string { return string(rune('a' + k)) }

	// verify checks snap is the canonical stream's exact prefix.
	verify := func(t *testing.T, k int, snap Snapshot) {
		t.Helper()
		if snap.Len() > len(canon[k]) {
			t.Errorf("key %d: snapshot longer than its stream: %d > %d", k, snap.Len(), len(canon[k]))
			return
		}
		for i := 0; i < snap.Len(); i++ {
			if snap.At(i) != canon[k][i] {
				t.Errorf("key %d: event %d torn under contention", k, i)
				return
			}
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, keys*(writers+readers)*rounds)
	for k := 0; k < keys; k++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(k, w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					conds := uint64(50 * (w*rounds + r + 1))
					calls.Add(1)
					snap, _, err := c.CaptureWithStatus(nil, key(k), conds, open(k))
					if err != nil {
						errc <- err
						return
					}
					verify(t, k, snap)
				}
			}(k, w)
		}
		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					calls.Add(1)
					snap, _, err := c.CaptureWithStatus(nil, key(k), 25, open(k))
					if err != nil {
						errc <- err
						return
					}
					verify(t, k, snap)
				}
			}(k)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for k := 0; k < keys; k++ {
		if n := opens[k].Load(); n != 1 {
			t.Errorf("key %d: source opened %d times, want 1 (singleflight)", k, n)
		}
		// The settled capture equals a clean one bit for bit.
		final, _, err := c.CaptureWithStatus(nil, key(k), uint64(len(canon[k])), open(k))
		if err != nil {
			t.Fatal(err)
		}
		verify(t, k, final)
		calls.Add(1)
	}
	st := c.Stats()
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
	if total := st.Hits + st.Misses; total != calls.Load() {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d calls accounted", st.Hits, st.Misses, total, calls.Load())
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("contention run should see both hits and misses: %+v", st)
	}
}

// TestCaptureCacheCancelledUploadDoesNotPoison models a client that
// abandons a large upload mid-capture: the cancelled call returns
// ctx.Err(), but the partial capture is kept and resumable — concurrent
// readers inside the captured prefix are served without reopening the
// source, and a later uncancelled call finishes the capture with bytes
// identical to an uninterrupted one.
func TestCaptureCacheCancelledUploadDoesNotPoison(t *testing.T) {
	// The capture cancellation poll is amortised every 65536 events, so
	// the stream must comfortably exceed one poll window.
	events := randomEvents(3*captureCheckInterval, 11)
	var opens atomic.Int32
	open := func() (Source, error) {
		opens.Add(1)
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	}
	c := NewCaptureCache()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.CaptureWithStatus(cancelled, "big", uint64(len(events)), open)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	partial := c.Stats()
	if partial.Events == 0 || partial.Events >= len(events) {
		t.Fatalf("cancelled capture stored %d events, want a strict partial prefix of %d", partial.Events, len(events))
	}

	// Concurrent readers within the partial prefix: all served from the
	// stored events, no reopen, no error.
	var wg sync.WaitGroup
	snaps := make([]Snapshot, 8)
	errs := make([]error, 8)
	for w := range snaps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			snaps[w], _, errs[w] = c.CaptureWithStatus(nil, "big", 100, open)
		}(w)
	}
	wg.Wait()
	for w := range snaps {
		if errs[w] != nil {
			t.Fatalf("reader %d after cancelled upload: %v", w, errs[w])
		}
		if !reflect.DeepEqual(snaps[w], snaps[0]) {
			t.Fatalf("reader %d saw a different snapshot", w)
		}
	}

	// The retry resumes the same source — no reopen — and completes.
	full, _, err := c.CaptureWithStatus(nil, "big", uint64(len(events)), open)
	if err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 1 {
		t.Fatalf("source opened %d times, want 1 (cancelled capture must stay resumable)", opens.Load())
	}
	clean := NewCaptureCache()
	want, _, err := clean.CaptureWithStatus(nil, "big", uint64(len(events)), func() (Source, error) {
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != want.Len() || full.Checksum() != want.Checksum() {
		t.Fatalf("capture after cancellation differs from clean capture: %d/%x vs %d/%x",
			full.Len(), full.Checksum(), want.Len(), want.Checksum())
	}
}
