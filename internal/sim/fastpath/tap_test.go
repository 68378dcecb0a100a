package fastpath

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"testing"

	"twolevel/internal/telemetry"
)

// checkPCIndexShape asserts the table invariants: power-of-two size, at
// most half full, and a shift that matches the size.
func checkPCIndexShape(t *testing.T, x *pcIndex) {
	t.Helper()
	size := len(x.slots)
	if size == 0 {
		if x.n != 0 {
			t.Fatalf("empty table holds %d keys", x.n)
		}
		return
	}
	if size&(size-1) != 0 {
		t.Fatalf("table size %d is not a power of two", size)
	}
	if 2*x.n > size {
		t.Fatalf("table holds %d keys in %d slots, more than half full", x.n, size)
	}
	if want := uint32(33 - bits.Len(uint(size))); x.shift != want {
		t.Fatalf("shift %d for %d slots, want %d", x.shift, size, want)
	}
	used := 0
	for _, s := range x.slots {
		if s.idx != 0 {
			used++
		}
	}
	if used != x.n {
		t.Fatalf("%d occupied slots, n = %d", used, x.n)
	}
}

// TestPCIndexCollisionsUnalignedAndZero drives PCs that share one home
// slot — PC 0 among them, some unaligned — through add: each keeps its
// own dense index, and re-adding finds it rather than inserting again.
func TestPCIndexCollisionsUnalignedAndZero(t *testing.T) {
	var x pcIndex
	if idx, added := x.add(0); idx != 0 || !added {
		t.Fatalf("add(0) = (%d, %v), want (0, true)", idx, added)
	}
	home := x.home(0)
	var colliders []uint32
	for pc := uint32(1); len(colliders) < 6; pc++ {
		if x.home(pc) == home {
			colliders = append(colliders, pc)
		}
	}
	odd := 0
	for _, pc := range colliders {
		if pc&3 != 0 {
			odd++
		}
	}
	if odd == 0 {
		t.Fatalf("colliders %#x include no unaligned PC", colliders)
	}
	keys := append([]uint32{0}, colliders...)
	for i, pc := range colliders {
		if idx, added := x.add(pc); int(idx) != i+1 || !added {
			t.Fatalf("add(%#x) = (%d, %v), want (%d, true)", pc, idx, added, i+1)
		}
	}
	for i, pc := range keys {
		if idx, added := x.add(pc); int(idx) != i || added {
			t.Errorf("re-add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, i)
		}
	}
	if x.n != len(keys) {
		t.Errorf("n = %d, want %d", x.n, len(keys))
	}
	checkPCIndexShape(t, &x)

	// An unaligned PC in the same word as a stored aligned one is a
	// different key: the probe compares all 32 bits. Fibonacci hashing
	// sends the two to different homes, so fill the slots from the
	// unaligned PC's home up to the aligned one's, making its probe walk
	// over the aligned key.
	const aligned, unaligned = uint32(0x40_0000), uint32(0x40_0003)
	var word pcIndex
	word.add(0xFFFF_FFFF) // makes the minimum-size table
	mask := uint32(len(word.slots) - 1)
	if gap := (word.home(aligned) - word.home(unaligned)) & mask; 2*(int(gap)+3) > len(word.slots) {
		t.Fatalf("homes %d slots apart: too far to fill at half load", gap)
	}
	for s := word.home(unaligned); s != word.home(aligned); s = (s + 1) & mask {
		if word.slots[s].idx != 0 {
			continue
		}
		for f := uint32(0x1000_0000); ; f += 4 {
			if word.home(f) == s {
				word.add(f)
				break
			}
		}
	}
	ia, _ := word.add(aligned)
	if iu, added := word.add(unaligned); !added || iu == ia {
		t.Fatalf("add(%#x) after %#x (index %d) = (%d, %v), want a new index", unaligned, aligned, ia, iu, added)
	}
	checkPCIndexShape(t, &word)
}

// TestPCIndexGrowth inserts 2,127 distinct PCs (three times the 709
// branch sites of the sim package's kernel trace, aligned, unaligned and
// high-bit) so the table doubles from its minimum size several times;
// every PC keeps its insertion-order index across every rehash.
func TestPCIndexGrowth(t *testing.T) {
	var x pcIndex
	var pcs []uint32
	for site := uint32(0); site < 709; site++ {
		pcs = append(pcs, 0x40_0000+4*site, 0x40_0001+4*site, 0xFFFF_FFFF-site)
	}
	sizes := map[int]bool{}
	for i, pc := range pcs {
		idx, added := x.add(pc)
		if int(idx) != i || !added {
			t.Fatalf("add(%#x) = (%d, %v), want (%d, true)", pc, idx, added, i)
		}
		sizes[len(x.slots)] = true
		if i%100 == 0 {
			checkPCIndexShape(t, &x)
		}
	}
	checkPCIndexShape(t, &x)
	if len(sizes) < 6 {
		t.Errorf("table passed through %d sizes, want at least 6 (several doublings)", len(sizes))
	}
	for i, pc := range pcs {
		if idx, added := x.add(pc); int(idx) != i || added {
			t.Fatalf("after growth re-add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, i)
		}
	}
}

// tapEvent is one resolved conditional branch fed to a Tap, or a context
// switch when sw is set.
type tapEvent struct {
	pc            uint32
	taken, ok, sw bool
}

// tapStream is a deterministic resolution stream over 709 branch sites
// with context switches sprinkled in, plus a run of branches that all
// fall in one shard partition, so the other forks skip() across whole
// interval bins.
func tapStream(n int) []tapEvent {
	rng := uint32(0x2545F491)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	var evs []tapEvent
	for i := 0; i < n; i++ {
		r := next()
		if r%97 == 0 {
			evs = append(evs, tapEvent{sw: true})
			continue
		}
		site := r >> 8 % 709
		evs = append(evs, tapEvent{pc: 0x40_0000 + 4*site, taken: r>>3&1 == 0, ok: r>>4%3 != 0})
		if i == n/2 {
			// 40 resolutions in partition 1 of 4 (pc>>2&3 == 1).
			for j := uint32(0); j < 40; j++ {
				evs = append(evs, tapEvent{pc: 0x40_0000 + 4*(4*j+1), taken: j&1 == 0, ok: j%3 == 0})
			}
		}
	}
	return evs
}

// telemetryOf materialises t's outputs through Kernel.Telemetry.
func telemetryOf(t *Tap) ([]telemetry.Sample, []uint64, []telemetry.PCStats) {
	return (&Kernel{tap: t}).Telemetry()
}

// TestTapForkAbsorbMatchesSerial is the sharded telemetry merge in
// isolation: four forks, each resolving its own PC partition and
// skipping the rest, absorbed into the parent, equal one serial Tap fed
// the whole stream — samples, switch indices and the full profile.
func TestTapForkAbsorbMatchesSerial(t *testing.T) {
	evs := tapStream(6000)
	for _, cfg := range []Config{
		{Interval: 7, TopPCs: 10_000, Warmup: 500},
		{Interval: 64, TopPCs: 8, Warmup: 1000},
		{Interval: 1},
		{TopPCs: 5},
	} {
		serial := newTap(cfg)
		for _, e := range evs {
			if e.sw {
				serial.onSwitch()
			} else {
				serial.resolve(e.pc, e.taken, e.ok)
			}
		}

		const shards = 4
		parent := newTap(cfg)
		forks := make([]*Tap, shards)
		for w := range forks {
			forks[w] = parent.fork(w)
			for _, e := range evs {
				switch {
				case e.sw:
					forks[w].onSwitch()
				case e.pc>>2&(shards-1) == uint32(w):
					forks[w].resolve(e.pc, e.taken, e.ok)
				default:
					forks[w].skip()
				}
			}
		}
		for _, f := range forks {
			parent.absorb(f)
		}

		ws, wsw, wp := telemetryOf(serial)
		gs, gsw, gp := telemetryOf(parent)
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%+v: absorbed samples differ from serial:\n got %+v\nwant %+v", cfg, gs, ws)
		}
		if !reflect.DeepEqual(gsw, wsw) {
			t.Errorf("%+v: absorbed switches %v, serial %v", cfg, gsw, wsw)
		}
		if !reflect.DeepEqual(gp, wp) {
			t.Errorf("%+v: absorbed profile differs from serial:\n got %+v\nwant %+v", cfg, gp, wp)
		}
		if cfg.TopPCs > 0 && len(wp) == 0 {
			t.Errorf("%+v: serial profile is empty", cfg)
		}
	}
}

// TestTapIntervalBins pins the cached interval edge: resolutions landing
// exactly on multiples of every open a new bin, the last bin may be
// partial, and a fork that skip()s across whole bins lands its next
// resolution in bin total/every.
func TestTapIntervalBins(t *testing.T) {
	tap := newTap(Config{Interval: 4})
	for i := 0; i < 8; i++ {
		tap.resolve(0x100, true, i%2 == 0)
	}
	if want := []uint64{4, 4}; !reflect.DeepEqual(tap.preds, want) {
		t.Fatalf("after 8 resolutions preds = %v, want %v", tap.preds, want)
	}
	tap.resolve(0x100, true, true)
	samples, _, _ := telemetryOf(tap)
	want := []telemetry.Sample{
		{Branches: 4, Predictions: 4, Correct: 2, Accuracy: 0.5},
		{Branches: 8, Predictions: 4, Correct: 2, Accuracy: 0.5},
		{Branches: 9, Predictions: 1, Correct: 1, Accuracy: 1},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples = %+v, want %+v", samples, want)
	}

	every1 := newTap(Config{Interval: 1})
	for i := 0; i < 3; i++ {
		every1.resolve(0x100, false, true)
	}
	if want := []uint64{1, 1, 1}; !reflect.DeepEqual(every1.preds, want) {
		t.Errorf("every=1 preds = %v, want %v", every1.preds, want)
	}

	fork := newTap(Config{Interval: 4}).fork(1)
	fork.resolve(0x104, true, true) // index 0, bin 0
	for i := 0; i < 9; i++ {
		fork.skip() // indices 1..9: bin 1 entirely, bin 2 partly
	}
	fork.resolve(0x104, true, false) // index 10, bin 2
	fork.skip()                      // index 11
	fork.resolve(0x104, true, true)  // index 12, bin 3 (exact multiple)
	if want := []uint64{1, 0, 1, 1}; !reflect.DeepEqual(fork.preds, want) {
		t.Errorf("fork preds = %v, want %v", fork.preds, want)
	}
	if want := []uint64{1, 0, 0, 1}; !reflect.DeepEqual(fork.correct, want) {
		t.Errorf("fork correct = %v, want %v", fork.correct, want)
	}
}

// TestTapTelemetryTieOrder pins the profile order on tied mispredict
// counts: mispredicts descending, then PC ascending, independent of the
// order PCs were first seen, with top-k truncation after sorting.
func TestTapTelemetryTieOrder(t *testing.T) {
	tap := newTap(Config{TopPCs: 3})
	// Inserted in descending PC order; 0x10, 0x20, 0x30 and 0x40 each
	// miss twice, 0x50 misses three times, 0x05 once.
	for _, pc := range []uint32{0x50, 0x40, 0x30, 0x20, 0x10, 0x05} {
		misses := 2
		switch pc {
		case 0x50:
			misses = 3
		case 0x05:
			misses = 1
		}
		for i := 0; i < misses; i++ {
			tap.resolve(pc, true, false)
		}
		tap.resolve(pc, false, true)
	}
	_, _, profile := telemetryOf(tap)
	var got []uint32
	for _, row := range profile {
		got = append(got, row.PC)
	}
	if want := []uint32{0x50, 0x10, 0x20}; !reflect.DeepEqual(got, want) {
		t.Errorf("profile PCs = %#x, want %#x", got, want)
	}
	if row := profile[1]; row.Executions != 3 || row.Taken != 2 || row.Mispredicts != 2 ||
		row.MissShare != 2.0/12 || row.TakenRate != 2.0/3 {
		t.Errorf("row for 0x10 = %+v", row)
	}
}

// FuzzPCIndex is a differential against a plain Go map: over a
// fuzzer-chosen PC sequence, add agrees with the map on membership and
// insertion-order indices, and the table stays at most half full.
func FuzzPCIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0x00, 0x00, 0x40, 0x00, 0x04, 0x00, 0x40, 0x00, 0x00, 0x00, 0x40, 0x00, 0xff, 0xff, 0xff, 0xff})
	var seq []byte
	for pc := uint32(0); pc < 300; pc++ {
		seq = binary.LittleEndian.AppendUint32(seq, pc*0x1000+pc%3)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		var x pcIndex
		ref := map[uint32]int32{}
		for len(data) > 0 {
			// A one-byte step reuses a small PC, so repeats are common.
			var pc uint32
			if data[0]&1 == 0 || len(data) < 4 {
				pc = uint32(data[0] >> 1)
				data = data[1:]
			} else {
				pc = binary.LittleEndian.Uint32(data)
				data = data[4:]
			}
			want, seen := ref[pc]
			idx, added := x.add(pc)
			if !seen {
				want = int32(len(ref))
				ref[pc] = want
			}
			if idx != want || added == seen {
				t.Fatalf("add(%#x) = (%d, %v), want (%d, %v)", pc, idx, added, want, !seen)
			}
		}
		if x.n != len(ref) {
			t.Fatalf("n = %d, map has %d", x.n, len(ref))
		}
		checkPCIndexShape(t, &x)
		for pc, want := range ref {
			if idx, added := x.add(pc); idx != want || added {
				t.Fatalf("final re-add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, want)
			}
		}
	})
}
