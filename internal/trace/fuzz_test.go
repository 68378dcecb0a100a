package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"testing"
)

// drainEvents reads src to its first error, returning the events and the
// terminating error. The event count is bounded by the caller's input
// size, so the loop always terminates.
func drainEvents(src Source) ([]Event, error) {
	var events []Event
	for {
		e, err := src.Next()
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// FuzzFileReader feeds arbitrary bytes to the binary trace decoder. The
// decoder must terminate with io.EOF or an ErrCorrupt-wrapped error —
// never panic — and a stream it accepts in full must survive a
// re-encode/re-decode round trip unchanged.
func FuzzFileReader(f *testing.F) {
	// Well-formed stream: header plus a trap and a branch event.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	events := []Event{
		{Instrs: 3, Trap: true},
		{Instrs: 1, Branch: Branch{PC: 0x1000, Target: 0x1004, Class: Cond, Taken: true}},
		{Instrs: 9, Branch: Branch{PC: 0x1004, Target: 0x0ffc, Class: Uncond, Taken: true}},
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-1]) // truncated mid-record
	f.Add([]byte("TLBPTRC1"))               // header only
	f.Add([]byte("NOTATRACE"))              // bad magic
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewFileReader error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		decoded, err := drainEvents(fr)
		if err != io.EOF {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is neither io.EOF nor ErrCorrupt", err)
			}
			return
		}
		// Accepted in full: the decoded events must round-trip.
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range decoded {
			if err := w.Write(e); err != nil {
				t.Fatalf("re-encode of accepted event %+v: %v", e, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fr2, err := NewFileReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		again, err := drainEvents(fr2)
		if err != io.EOF {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(decoded))
		}
		for i := range decoded {
			if again[i] != decoded[i] {
				t.Fatalf("event %d changed across round trip: %+v != %+v", i, again[i], decoded[i])
			}
		}
	})
}

// FuzzTextReader feeds arbitrary text to the line-oriented trace decoder.
func FuzzTextReader(f *testing.F) {
	f.Add("B 00001000 00001010 0 T 5\nT 3\n# comment\n\nB 00001010 00001000 1 T 2\n")
	f.Add("B deadbeef 00000000 9 X notanum\n")
	f.Add("Z what\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, src string) {
		tr := NewTextReader(bytes.NewReader([]byte(src)))
		decoded, err := drainEvents(tr)
		if err != io.EOF {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("decode error %v is neither io.EOF, ErrCorrupt nor ErrTooLong", err)
			}
			return
		}
		// Accepted in full: write back out and re-decode.
		var out bytes.Buffer
		if err := WriteText(&out, (&Trace{Events: decoded}).Reader()); err != nil {
			t.Fatalf("re-encode of accepted events: %v", err)
		}
		again, err := drainEvents(NewTextReader(&out))
		if err != io.EOF {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(decoded))
		}
		for i := range decoded {
			if again[i] != decoded[i] {
				t.Fatalf("event %d changed across round trip: %+v != %+v", i, again[i], decoded[i])
			}
		}
	})
}

// unpackFuzzEvents deterministically expands raw fuzz bytes into events:
// 13 bytes per event (instrs, pc, target, meta), classes folded into the
// valid range so the counters under test see realistic streams.
func unpackFuzzEvents(data []byte) []Event {
	var events []Event
	for len(data) >= 13 {
		m := data[12]
		e := Event{
			Instrs: binary.LittleEndian.Uint32(data[0:4]),
			Trap:   m&1 != 0,
			Branch: Branch{
				PC:     binary.LittleEndian.Uint32(data[4:8]),
				Target: binary.LittleEndian.Uint32(data[8:12]),
				Taken:  m&2 != 0,
				Class:  Class(m>>2) % Class(NumClasses),
			},
		}
		events = append(events, e)
		data = data[13:]
	}
	return events
}

// FuzzPackedView exercises the Packed/Snapshot bounds contract: View must
// clamp any n, readers must yield exactly Len events, eventsForConds must
// return a prefix covering at most the requested budget, and Checksum
// must be a pure function of the snapshot.
func FuzzPackedView(f *testing.F) {
	seed := make([]byte, 26)
	seed[12] = 0 // branch, not taken, Cond
	seed[25] = 1 // trap
	f.Add(seed, 1, uint64(1))
	f.Add([]byte{}, -5, uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 39), 1<<30, uint64(1<<40))

	f.Fuzz(func(t *testing.T, data []byte, n int, conds uint64) {
		var p Packed
		for _, e := range unpackFuzzEvents(data) {
			p.Append(e)
		}
		s := p.View(n) // any n: clamps, never panics
		if s.Len() > p.Len() || (n >= 0 && n <= p.Len() && s.Len() != n) {
			t.Fatalf("View(%d) of %d events has Len %d", n, p.Len(), s.Len())
		}
		got, err := drainEvents(s.Reader())
		if err != io.EOF {
			t.Fatalf("snapshot reader error: %v", err)
		}
		if len(got) != s.Len() {
			t.Fatalf("reader yielded %d events, snapshot Len is %d", len(got), s.Len())
		}
		r := s.Reader()
		if _, err := drainEvents(r); err != io.EOF {
			t.Fatalf("drain: %v", err)
		}
		r.Reset()
		if again, _ := drainEvents(r); len(again) != s.Len() {
			t.Fatalf("reset reader yielded %d events, want %d", len(again), s.Len())
		}
		if a, b := s.Checksum(), p.View(s.Len()).Checksum(); a != b {
			t.Fatalf("checksum not deterministic: %#x != %#x", a, b)
		}

		prefix := p.eventsForConds(conds)
		if prefix < 0 || prefix > p.Len() {
			t.Fatalf("eventsForConds(%d) = %d out of [0,%d]", conds, prefix, p.Len())
		}
		var seen uint64
		ps := p.View(prefix)
		for i := 0; i < prefix; i++ {
			e := ps.At(i)
			if !e.Trap && e.Branch.Class == Cond {
				seen++
			}
		}
		if seen > conds {
			t.Fatalf("prefix %d covers %d conds, budget was %d", prefix, seen, conds)
		}
		if uint64(p.Conds()) >= conds && seen != conds {
			t.Fatalf("store holds %d conds but prefix covers only %d of %d", p.Conds(), seen, conds)
		}
	})
}

// fuzzStream expands raw fuzz bytes into events, 6 bytes each: a
// metadata byte (trap, outcome and a class folded into range), an
// instruction count that is one byte wide unless the next byte's top bit
// asks for a wide one (so counts of 255 and more, which the store moves
// to its side list, appear often), and a PC and target drawn from small
// ranges, so sites repeat.
func fuzzStream(data []byte) []Event {
	var events []Event
	for ; len(data) >= 6; data = data[6:] {
		m := data[0]
		instrs := uint32(data[1])
		if data[2]&0x80 != 0 {
			instrs |= uint32(data[2]) << 8
		}
		events = append(events, Event{
			Instrs: instrs,
			Trap:   m&1 != 0,
			Branch: Branch{
				PC:     0x1000 + 4*uint32(data[3]),
				Target: uint32(data[4])<<8 | uint32(data[5]),
				Taken:  m&2 != 0,
				Class:  Class(m>>2) % Class(NumClasses),
			},
		})
	}
	return events
}

// referenceChecksum is FNV-1a (hash/fnv) over the logical columns of
// events: the length, then every instruction count, PC and target as a
// little-endian uint32, column by column, then one metadata byte per
// event (trap bit 0, outcome bit 1, class from bit 2).
func referenceChecksum(events []Event) uint64 {
	h := fnv.New64a()
	word := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	word(uint32(len(events)))
	for _, e := range events {
		word(e.Instrs)
	}
	for _, e := range events {
		word(e.Branch.PC)
	}
	for _, e := range events {
		word(e.Branch.Target)
	}
	for _, e := range events {
		m := uint8(e.Branch.Class) << 2
		if e.Trap {
			m |= 1
		}
		if e.Branch.Taken {
			m |= 2
		}
		h.Write([]byte{m})
	}
	return h.Sum64()
}

// checkSnapshot asserts that s holds exactly events: At, a Reader and
// Checksum against the reference digest.
func checkSnapshot(t *testing.T, name string, s Snapshot, events []Event) {
	t.Helper()
	if s.Len() != len(events) {
		t.Fatalf("%s: Len %d, want %d", name, s.Len(), len(events))
	}
	for i, want := range events {
		if got := s.At(i); got != want {
			t.Fatalf("%s: At(%d) = %+v, appended %+v", name, i, got, want)
		}
	}
	got, err := drainEvents(s.Reader())
	if err != io.EOF || len(got) != len(events) {
		t.Fatalf("%s: reader yielded %d events and %v", name, len(got), err)
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("%s: reader event %d = %+v, appended %+v", name, i, got[i], events[i])
		}
	}
	if got, want := s.Checksum(), referenceChecksum(events); got != want {
		t.Fatalf("%s: Checksum %#x, reference FNV %#x", name, got, want)
	}
	checkDecode(t, name, s, events)
}

// checkDecode asserts that the replay plan's walks over s agree with a
// walk over events: DecodeBranches in 7-event windows (so windows
// straddle a switch to raw columns), DecodeTally to the end and to half
// the conditional branches, and DecodeQuantum's stops.
func checkDecode(t *testing.T, name string, s Snapshot, events []Event) {
	t.Helper()
	var pcs, targets []uint32
	var outs []uint8
	var byClass [NumClasses]uint64
	var traps, taken, instrs uint64
	for _, e := range events {
		instrs += uint64(e.Instrs)
		if e.Trap {
			traps++
			continue
		}
		byClass[e.Branch.Class]++
		if e.Branch.Class != Cond {
			continue
		}
		pcs, targets = append(pcs, e.Branch.PC), append(targets, e.Branch.Target)
		var o uint8
		if e.Branch.Taken {
			o, taken = 1, taken+1
		}
		outs = append(outs, o)
	}
	gotPCs, gotTargets, gotOuts := make([]uint32, len(outs)), make([]uint32, len(outs)), make([]uint8, len(outs))
	j := 0
	for from := 0; from < len(events); from += 7 {
		j += s.DecodeBranches(from, from+7, gotPCs[j:], gotTargets[j:], gotOuts[j:])
	}
	if j != len(outs) || !slices.Equal(gotPCs, pcs) || !slices.Equal(gotTargets, targets) || !slices.Equal(gotOuts, outs) {
		t.Fatalf("%s: DecodeBranches gave %d branches, want %d, or different columns", name, j, len(outs))
	}

	var all Tally
	s.DecodeTally(&all, len(events)+5, len(outs)+1)
	gotClass, gotTraps, gotTaken := all.Counts()
	if all.Event != len(events) || all.Conds != len(outs) || all.Instructions != instrs ||
		gotClass != byClass || gotTraps != traps || gotTaken != taken {
		t.Fatalf("%s: DecodeTally = %+v %v %d %d, want %d events, %d conds, %d instructions, %v %d %d",
			name, all, gotClass, gotTraps, gotTaken, len(events), len(outs), instrs, byClass, traps, taken)
	}
	if half := len(outs) / 2; half > 0 {
		var part Tally
		s.DecodeTally(&part, len(events), half)
		if part.Conds != half || isCond(metaOf(events[part.Event-1])) != 1 {
			t.Fatalf("%s: DecodeTally to %d conds stopped at event %d with %d", name, half, part.Event, part.Conds)
		}
	}

	const quantum = 700
	type stop struct{ event, conds int }
	var want []stop
	var ran uint64
	conds := 0
	for i, e := range events {
		ran += uint64(e.Instrs)
		before := conds
		if !e.Trap && e.Branch.Class == Cond {
			conds++
		}
		if e.Trap || ran >= quantum {
			want, ran = append(want, stop{i + 1, before}), 0
		}
	}
	var got []stop
	var q Tally
	var since uint64
	for q.Event < len(events) {
		if switched, cond := s.DecodeQuantum(&q, len(events), len(outs)+1, quantum, &since); switched {
			got = append(got, stop{q.Event, q.Conds - cond})
		}
	}
	if !reflect.DeepEqual(got, want) || since != ran || q.Instructions != instrs {
		t.Fatalf("%s: DecodeQuantum stops %v (since %d), want %v (since %d)", name, got, since, want, ran)
	}
}

// metaOf is an event's metadata byte.
func metaOf(e Event) uint8 {
	m := uint8(e.Branch.Class) << metaClass
	if e.Trap {
		m |= metaTrap
	}
	if e.Branch.Taken {
		m |= metaTaken
	}
	return m
}

// FuzzPackedRoundTrip checks the dictionary-coded store against the
// events appended to it: every At(i) is the appended event, Checksum is
// the reference FNV over the logical columns, and a view of a prefix
// taken before the rest was appended is deep-equal to one taken after.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{0, 7, 0, 1, 2, 3, 2, 9, 0, 1, 2, 3, 1, 0, 0, 0, 0, 0}, 1)
	f.Add(bytes.Repeat([]byte{2, 0xff, 0x80, 5, 6, 7}, 40), 20)
	f.Add(bytes.Repeat([]byte{0, 0xff, 0, 9, 9, 9, 4, 3, 0x81, 8, 1, 2}, 200), 150)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		events := fuzzStream(data)
		cut = min(max(cut, 0), len(events))
		var p Packed
		for _, e := range events[:cut] {
			p.Append(e)
		}
		early := p.View(cut)
		for _, e := range events[cut:] {
			p.Append(e)
		}
		checkSnapshot(t, "full", p.View(p.Len()), events)
		checkSnapshot(t, "early prefix", early, events[:cut])
		if late := p.View(cut); !reflect.DeepEqual(early, late) {
			t.Fatalf("views of the first %d events differ before and after later appends", cut)
		}
		if max := 13*int64(p.Len()) + dictBytes; p.Bytes() > max {
			t.Fatalf("%d events take %d bytes, over %d", p.Len(), p.Bytes(), max)
		}
	})
}

// TestPackedSwitchesToRaw drives both switches to raw columns: a capture
// passing maxSites distinct (PC, target) pairs, with every seventh count
// escaped, and one whose counts all need escapes. Views taken before the
// switch still decode after it and stay deep-equal to views of the same
// prefix taken later.
func TestPackedSwitchesToRaw(t *testing.T) {
	sites := make([]Event, maxSites+20_000)
	for i := range sites {
		e := Event{Instrs: uint32(i % 200), Branch: Branch{PC: 4 * uint32(i), Target: uint32(i) ^ 0x5a5a, Class: Class(i % NumClasses), Taken: i%3 == 0}}
		if i%7 == 0 {
			e.Instrs = 255 + uint32(i)
		}
		if i%11 == 0 {
			e = sites[i/2] // a repeated site
		}
		sites[i] = e
	}
	dense := make([]Event, 5_000)
	for i := range dense {
		dense[i] = Event{Instrs: 255 + uint32(i%3), Branch: Branch{PC: uint32(i % 10), Class: Cond, Taken: i%2 == 0}}
	}
	for _, tc := range []struct {
		name   string
		events []Event
		cuts   []int
	}{
		{"site table full", sites, []int{0, 1_000, maxSites, len(sites) - 1_000}},
		{"dense escapes", dense, []int{10, 200, 3_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Packed
			var views []Snapshot
			n := 0
			for _, cut := range tc.cuts {
				for ; n < cut; n++ {
					p.Append(tc.events[n])
				}
				views = append(views, p.View(cut))
			}
			for ; n < len(tc.events); n++ {
				p.Append(tc.events[n])
			}
			if !p.switched || len(p.ins) == 0 || len(p.raw) == 0 {
				t.Fatalf("store did not switch part way: %d coded, %d raw events", len(p.ins), len(p.raw))
			}
			checkSnapshot(t, "full", p.View(p.Len()), tc.events)
			for k, cut := range tc.cuts {
				checkSnapshot(t, fmt.Sprintf("view of %d", cut), views[k], tc.events[:cut])
				if !reflect.DeepEqual(views[k], p.View(cut)) {
					t.Fatalf("views of the first %d events differ before and after the switch", cut)
				}
			}
			if max := 13*int64(p.Len()) + dictBytes; p.Bytes() > max {
				t.Fatalf("%d events take %d bytes, over %d", p.Len(), p.Bytes(), max)
			}
		})
	}
}
