package flat

import (
	"encoding/binary"
	"math/bits"
	"testing"
)

// checkPCIndexShape asserts the table invariants: power-of-two size, at
// most half full, and a shift that matches the size.
func checkPCIndexShape(t *testing.T, x *PCIndex) {
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
// slot — PC 0 among them, some unaligned — through Add: each keeps its
// own dense index, and re-adding finds it rather than inserting again.
func TestPCIndexCollisionsUnalignedAndZero(t *testing.T) {
	var x PCIndex
	if idx, added := x.Add(0); idx != 0 || !added {
		t.Fatalf("Add(0) = (%d, %v), want (0, true)", idx, added)
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
		if idx, added := x.Add(pc); int(idx) != i+1 || !added {
			t.Fatalf("Add(%#x) = (%d, %v), want (%d, true)", pc, idx, added, i+1)
		}
	}
	for i, pc := range keys {
		if idx, added := x.Add(pc); int(idx) != i || added {
			t.Errorf("re-Add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, i)
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
	var word PCIndex
	word.Add(0xFFFF_FFFF) // makes the minimum-size table
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
				word.Add(f)
				break
			}
		}
	}
	ia, _ := word.Add(aligned)
	if iu, added := word.Add(unaligned); !added || iu == ia {
		t.Fatalf("Add(%#x) after %#x (index %d) = (%d, %v), want a new index", unaligned, aligned, ia, iu, added)
	}
	checkPCIndexShape(t, &word)
}

// TestPCIndexGrowth inserts 2,127 distinct PCs (three times the 709
// branch sites of the sim package's kernel trace, aligned, unaligned and
// high-bit) so the table doubles from its minimum size several times;
// every PC keeps its insertion-order index across every rehash.
func TestPCIndexGrowth(t *testing.T) {
	var x PCIndex
	var pcs []uint32
	for site := uint32(0); site < 709; site++ {
		pcs = append(pcs, 0x40_0000+4*site, 0x40_0001+4*site, 0xFFFF_FFFF-site)
	}
	sizes := map[int]bool{}
	for i, pc := range pcs {
		idx, added := x.Add(pc)
		if int(idx) != i || !added {
			t.Fatalf("Add(%#x) = (%d, %v), want (%d, true)", pc, idx, added, i)
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
		if idx, added := x.Add(pc); int(idx) != i || added {
			t.Fatalf("after growth re-Add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, i)
		}
	}
}

// FuzzPCIndex is a differential against a plain Go map: over a
// fuzzer-chosen PC sequence, Get and Add agree with the map on
// membership and insertion-order indices, and the table stays at most
// half full.
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
		var x PCIndex
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
			if got, ok := x.Get(pc); ok != seen || (seen && got != want) {
				t.Fatalf("Get(%#x) = (%d, %v), want (%d, %v)", pc, got, ok, want, seen)
			}
			idx, added := x.Add(pc)
			if !seen {
				want = int32(len(ref))
				ref[pc] = want
			}
			if idx != want || added == seen {
				t.Fatalf("Add(%#x) = (%d, %v), want (%d, %v)", pc, idx, added, want, !seen)
			}
		}
		if x.n != len(ref) {
			t.Fatalf("n = %d, map has %d", x.n, len(ref))
		}
		checkPCIndexShape(t, &x)
		for pc, want := range ref {
			if idx, added := x.Add(pc); idx != want || added {
				t.Fatalf("final re-Add(%#x) = (%d, %v), want (%d, false)", pc, idx, added, want)
			}
		}
	})
}
