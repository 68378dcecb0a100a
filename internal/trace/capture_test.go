package trace

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// randomEvents builds a deterministic pseudo-random event stream with
// traps, all branch classes and both outcomes.
func randomEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, n)
	for i := range out {
		e := Event{Instrs: uint32(rng.Intn(1000))}
		if rng.Intn(10) == 0 {
			e.Trap = true
		} else {
			e.Branch = Branch{
				PC:     rng.Uint32(),
				Target: rng.Uint32(),
				Class:  Class(rng.Intn(NumClasses)),
				Taken:  rng.Intn(2) == 0,
			}
		}
		out[i] = e
	}
	return out
}

func TestPackedRoundTrip(t *testing.T) {
	events := randomEvents(5000, 1)
	var p Packed
	conds := 0
	for _, e := range events {
		p.Append(e)
		if !e.Trap && e.Branch.Class == Cond {
			conds++
		}
	}
	if p.Len() != len(events) || p.Conds() != conds {
		t.Fatalf("Len=%d Conds=%d, want %d/%d", p.Len(), p.Conds(), len(events), conds)
	}
	s := p.View(p.Len())
	for i, want := range events {
		if got := s.At(i); got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	// Reader replays the same sequence and Reset rewinds.
	r := s.Reader()
	for pass := 0; pass < 2; pass++ {
		for i := range events {
			e, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if e != events[i] {
				t.Fatalf("pass %d event %d mismatch", pass, i)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
		r.Reset()
	}
}

func TestPackedEventsForConds(t *testing.T) {
	var p Packed
	// Layout: uncond, cond, cond, trap, uncond, cond, uncond.
	classes := []struct {
		class Class
		trap  bool
	}{{Uncond, false}, {Cond, false}, {Cond, false}, {0, true}, {Uncond, false}, {Cond, false}, {Uncond, false}}
	for _, c := range classes {
		p.Append(Event{Trap: c.trap, Branch: Branch{Class: c.class}})
	}
	for _, tc := range []struct {
		conds uint64
		want  int
	}{{0, 0}, {1, 2}, {2, 3}, {3, 6}, {4, 7}, {100, 7}} {
		if got := p.eventsForConds(tc.conds); got != tc.want {
			t.Errorf("eventsForConds(%d) = %d, want %d", tc.conds, got, tc.want)
		}
	}
}

func TestSnapshotStableAcrossAppends(t *testing.T) {
	events := randomEvents(4000, 2)
	var p Packed
	for _, e := range events[:1000] {
		p.Append(e)
	}
	s := p.View(1000)
	for _, e := range events[1000:] {
		p.Append(e)
	}
	for i := 0; i < 1000; i++ {
		if s.At(i) != events[i] {
			t.Fatalf("snapshot mutated at %d after later appends", i)
		}
	}
}

func TestCaptureCacheExtendsOneSource(t *testing.T) {
	events := randomEvents(10_000, 3)
	var opens atomic.Int32
	open := func() (Source, error) {
		opens.Add(1)
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	}
	c := NewCaptureCache()
	s1, err := c.Capture(nil, "k", 50, open)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Capture(nil, "k", 200, open)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := c.Capture(nil, "k", 50, open)
	if err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 1 {
		t.Fatalf("source opened %d times, want 1", opens.Load())
	}
	if !reflect.DeepEqual(s1, s3) {
		t.Fatal("same budget should produce the same snapshot")
	}
	if s2.Len() <= s1.Len() {
		t.Fatalf("larger budget should extend: %d vs %d", s2.Len(), s1.Len())
	}
	// The snapshots must match a LimitSource over a fresh stream.
	for _, tc := range []struct {
		snap Snapshot
		n    uint64
	}{{s1, 50}, {s2, 200}} {
		tr := &Trace{Events: events}
		want, err := Collect(&LimitSource{Src: tr.Reader(), N: tc.n}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.snap.Len() != want.Len() {
			t.Fatalf("n=%d: snapshot %d events, LimitSource %d", tc.n, tc.snap.Len(), want.Len())
		}
		for i := range want.Events {
			if tc.snap.At(i) != want.Events[i] {
				t.Fatalf("n=%d: event %d differs from LimitSource replay", tc.n, i)
			}
		}
	}
	st := c.Stats()
	if st.Entries != 1 || st.Conds < 200 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("after Reset: %+v", st)
	}
}

func TestCaptureCacheHitMissStats(t *testing.T) {
	events := randomEvents(10_000, 9)
	open := func() (Source, error) {
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	}
	c := NewCaptureCache()
	// Cold capture, extension, and a second cold key are misses; repeat
	// captures within the stored prefix are hits.
	if _, err := c.Capture(nil, "a", 50, open); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Capture(nil, "a", 200, open); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Capture(nil, "b", 50, open); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Capture(nil, "a", 100, open); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3 (stats %+v)", st.Hits, st.Misses, st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
	// A failed open counts as a miss and must not divide by zero later.
	fresh := NewCaptureCache()
	if fresh.Stats().HitRatio() != 0 {
		t.Fatal("empty cache hit ratio must be 0")
	}
	if _, err := fresh.Capture(nil, "x", 1, func() (Source, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("failed open not reported")
	}
	if st := fresh.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("failed open stats = %+v", st)
	}
}

// TestCaptureCacheNoStampede proves the per-key singleflight: many
// goroutines racing on a cold key open the underlying source exactly
// once and all see identical bytes.
func TestCaptureCacheNoStampede(t *testing.T) {
	events := randomEvents(20_000, 4)
	var opens atomic.Int32
	c := NewCaptureCache()
	const workers = 16
	snaps := make([]Snapshot, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			snaps[w], errs[w] = c.Capture(nil, "k", 500, func() (Source, error) {
				opens.Add(1)
				tr := &Trace{Events: events}
				return tr.Reader(), nil
			})
		}(w)
	}
	wg.Wait()
	if opens.Load() != 1 {
		t.Fatalf("stampede: source opened %d times, want 1", opens.Load())
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(snaps[w], snaps[0]) {
			t.Fatalf("goroutine %d saw a different snapshot", w)
		}
	}
}

func TestCaptureCacheExhaustedSource(t *testing.T) {
	events := randomEvents(100, 5)
	c := NewCaptureCache()
	s, err := c.Capture(nil, "k", 1_000_000, func() (Source, error) {
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(events) {
		t.Fatalf("exhausted capture has %d events, want all %d", s.Len(), len(events))
	}
	// A second, smaller request still slices correctly.
	s2, err := c.Capture(nil, "k", 1, nil) // open must not be called again
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() >= s.Len() && s.Len() > 5 {
		t.Fatalf("smaller budget returned %d events", s2.Len())
	}
}

// TestCaptureCacheRetriesFailedOpen is the poisoned-entry regression
// test: a transient open failure used to be cached in the entry forever,
// failing every later caller. Errors must be returned but not stored, so
// a retry can re-open and capture successfully.
func TestCaptureCacheRetriesFailedOpen(t *testing.T) {
	boom := errors.New("boom")
	events := randomEvents(1000, 6)
	c := NewCaptureCache()
	calls := 0
	open := func() (Source, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	}
	if _, err := c.Capture(nil, "k", 10, open); !errors.Is(err, boom) {
		t.Fatalf("first err = %v, want %v", err, boom)
	}
	s, err := c.Capture(nil, "k", 10, open)
	if err != nil {
		t.Fatalf("retry after transient open failure: %v", err)
	}
	if s.Len() == 0 {
		t.Fatal("retry produced an empty capture")
	}
	if calls != 2 {
		t.Fatalf("open called %d times, want 2 (fail, then retry)", calls)
	}
}

// TestCaptureCacheRetriesMidStreamError: a source error mid-capture must
// reset the entry so the retry re-captures from scratch and matches a
// clean capture exactly.
func TestCaptureCacheRetriesMidStreamError(t *testing.T) {
	boom := errors.New("torn")
	events := randomEvents(2000, 7)
	c := NewCaptureCache()
	opens := 0
	open := func() (Source, error) {
		opens++
		tr := &Trace{Events: events}
		rd := tr.Reader()
		if opens == 1 {
			return &errorAfterSource{src: rd, after: 100, err: boom}, nil
		}
		return rd, nil
	}
	if _, err := c.Capture(nil, "k", 500, open); !errors.Is(err, boom) {
		t.Fatalf("first err = %v, want %v", err, boom)
	}
	s, err := c.Capture(nil, "k", 500, open)
	if err != nil {
		t.Fatalf("retry after mid-stream error: %v", err)
	}
	// The retried capture must be identical to a clean one — no leftover
	// prefix from the torn first attempt.
	clean := NewCaptureCache()
	want, err := clean.Capture(nil, "k", 500, func() (Source, error) {
		tr := &Trace{Events: events}
		return tr.Reader(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != want.Len() || s.Checksum() != want.Checksum() {
		t.Fatalf("retried capture differs from clean capture: %d/%#x vs %d/%#x",
			s.Len(), s.Checksum(), want.Len(), want.Checksum())
	}
}

// errorAfterSource yields events from src until after of them have
// passed, then returns err forever (a local stand-in so package trace
// does not import the faultinject package it underpins).
type errorAfterSource struct {
	src   Source
	after int
	err   error
	seen  int
}

func (s *errorAfterSource) Next() (Event, error) {
	if s.seen >= s.after {
		return Event{}, s.err
	}
	s.seen++
	return s.src.Next()
}

func TestSnapshotChecksumDeterministic(t *testing.T) {
	events := randomEvents(3000, 8)
	build := func() Snapshot {
		var p Packed
		for _, e := range events {
			p.Append(e)
		}
		return p.View(p.Len())
	}
	a, b := build(), build()
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical captures produced different checksums")
	}
	var p Packed
	for _, e := range events {
		p.Append(e)
	}
	if got := p.View(100).Checksum(); got == a.Checksum() {
		t.Fatal("prefix snapshot collided with the full capture checksum")
	}
	// A single flipped outcome must change the digest.
	mutated := append([]Event(nil), events...)
	mutated[1500].Branch.Taken = !mutated[1500].Branch.Taken
	var q Packed
	for _, e := range mutated {
		q.Append(e)
	}
	if q.View(q.Len()).Checksum() == a.Checksum() {
		t.Fatal("mutated capture kept the same checksum")
	}
}

func TestPackedViewClampsBounds(t *testing.T) {
	var p Packed
	for _, e := range randomEvents(10, 9) {
		p.Append(e)
	}
	if got := p.View(100).Len(); got != 10 {
		t.Fatalf("View(100) on 10 events = %d, want clamp to 10", got)
	}
	if got := p.View(-5).Len(); got != 0 {
		t.Fatalf("View(-5) = %d events, want 0", got)
	}
}

// phasedSource generates events without allocating, so a test can charge
// every byte allocated during a capture to the packed columns. Event i
// is a conditional branch on every second event for the first half of
// the stream and on every fifth after that, so the events-per-branch
// ratio a budgeted capture sizes itself by shifts mid-capture. n bounds
// the stream (0 = endless).
type phasedSource struct{ i, n int }

func (s *phasedSource) Next() (Event, error) {
	if s.n > 0 && s.i >= s.n {
		return Event{}, io.EOF
	}
	i := s.i
	s.i++
	every := 2
	if i >= 100_000 {
		every = 5
	}
	class := Uncond
	if i%every == 0 {
		class = Cond
	}
	return Event{Instrs: uint32(i%7 + 1), Branch: Branch{PC: uint32(i), Target: uint32(i + 4), Class: class, Taken: i%3 == 0}}, nil
}

func TestPackedBytesExact(t *testing.T) {
	columns := func(p *Packed) int64 {
		return int64(cap(p.instrs))*4 + int64(cap(p.pcs))*4 + int64(cap(p.targets))*4 + int64(cap(p.meta))
	}
	check := func(name string, p *Packed) {
		t.Helper()
		if got, want := p.Bytes(), columns(p); got != want {
			t.Errorf("%s: Bytes() = %d, columns hold %d", name, got, want)
		}
		if c := cap(p.meta); cap(p.instrs) != c || cap(p.pcs) != c || cap(p.targets) != c {
			t.Errorf("%s: column capacities %d/%d/%d/%d differ", name, cap(p.instrs), cap(p.pcs), cap(p.targets), c)
		}
	}
	for _, n := range []int{1, 100_000, 119_066} {
		var p Packed
		src := &phasedSource{}
		for p.Len() < n {
			e, _ := src.Next()
			p.Append(e)
		}
		check("unbudgeted", &p)
	}

	c := NewCaptureCache()
	for _, conds := range []uint64{1, 5_000, 80_000, 200_000} {
		if _, err := c.Capture(nil, "k", conds, func() (Source, error) { return &phasedSource{}, nil }); err != nil {
			t.Fatal(err)
		}
		e := c.entries["k"]
		check("budgeted", &e.packed)
		if got := c.Stats().Bytes; got != columns(&e.packed) {
			t.Errorf("CaptureStats.Bytes = %d, columns hold %d", got, columns(&e.packed))
		}
	}
}

// TestPackedAllocationBounded holds a capture's column growth to its
// bounds: spare capacity at most a quarter of the live bytes, and, for a
// source that lasts the budget, at most three times the final footprint
// allocated along the way. A source that ends first is only held to the
// slack bound: its length is unknown until it ends.
func TestPackedAllocationBounded(t *testing.T) {
	everything := ^uint64(0)
	cases := []struct {
		name    string
		budgets []uint64
		events  int // source length (0 = endless)
	}{
		{"one budget", []uint64{200_000}, 0},
		{"extended budgets", []uint64{20_000, 60_000, 200_000}, 0},
		{"small budget", []uint64{3_000}, 0},
		{"everything from a finite source", []uint64{everything}, 50_000},
		{"budget past a finite source", []uint64{1_000_000}, 30_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCaptureCache()
			src := &phasedSource{n: tc.events}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, conds := range tc.budgets {
				if _, err := c.Capture(nil, "k", conds, func() (Source, error) { return src, nil }); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			p := &c.entries["k"].packed
			live := int64(p.Len()) * 13
			if slack := p.Bytes() - live; slack > live/4 {
				t.Errorf("%d events: %d spare column bytes, over a quarter of the %d live", p.Len(), slack, live)
			}
			if alloc := int64(after.TotalAlloc - before.TotalAlloc); tc.events == 0 && alloc > 3*p.Bytes() {
				t.Errorf("%d events: capture allocated %d bytes, over 3x the final %d", p.Len(), alloc, p.Bytes())
			}
		})
	}
}
