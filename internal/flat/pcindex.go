package flat

import "math/bits"

// PCIndex maps a branch PC to a dense int32 index (0, 1, 2, … in
// insertion order). It is the per-event directory of the Ideal BHT and
// of the replay kernel's per-PC telemetry profile, where a Go map's
// hashing and bucket walk cost more than the prediction itself: an
// open-addressed table of power-of-two size, linear probing, never more
// than half full, so a probe is one multiply, one shift and a couple of
// adjacent 8-byte slot reads. The hash mixes the full 32-bit
// PC (Fibonacci hashing keeps the product's high bits), so neither
// word-aligned code addresses nor the unaligned PCs an uploaded trace
// may carry cluster; PC 0 is an ordinary key.
type PCIndex struct {
	slots []pcSlot
	shift uint32 // 32 - log2(len(slots))
	n     int    // keys stored
}

// pcSlot is one table cell. idx holds the dense index plus one, so the
// zero value is an empty cell and no PC value is reserved as a marker.
type pcSlot struct {
	pc  uint32
	idx int32
}

// pcIndexMinSlots is the table size on first insertion (512 bytes); it
// doubles from there.
const pcIndexMinSlots = 64

// home returns pc's preferred slot.
func (x *PCIndex) home(pc uint32) uint32 {
	return pc * 0x9E3779B1 >> x.shift
}

// probe returns the slot holding pc, or the empty slot where pc would be
// inserted. The table must be non-empty (it always has a free slot).
func (x *PCIndex) probe(pc uint32) uint32 {
	mask := uint32(len(x.slots) - 1)
	i := x.home(pc)
	for {
		s := x.slots[i]
		if s.idx == 0 || s.pc == pc {
			return i
		}
		i = (i + 1) & mask
	}
}

// Get returns pc's dense index; ok is false when pc is absent.
func (x *PCIndex) Get(pc uint32) (idx int32, ok bool) {
	if x.n == 0 {
		return 0, false
	}
	s := x.slots[x.probe(pc)]
	return s.idx - 1, s.idx != 0
}

// Clone returns an independent copy of x with the same dense indices.
func (x *PCIndex) Clone() PCIndex {
	return PCIndex{slots: append([]pcSlot(nil), x.slots...), shift: x.shift, n: x.n}
}

// Add returns pc's dense index, inserting pc with the next index (the
// number of keys before the call) when it is absent; added reports the
// insertion.
func (x *PCIndex) Add(pc uint32) (idx int32, added bool) {
	if x.n > 0 {
		i := x.probe(pc)
		if s := x.slots[i]; s.idx != 0 {
			return s.idx - 1, false
		}
		if 2*(x.n+1) <= len(x.slots) {
			return x.fill(i, pc), true
		}
	}
	x.grow()
	return x.fill(x.probe(pc), pc), true
}

// fill stores pc in empty slot i with the next dense index.
func (x *PCIndex) fill(i, pc uint32) int32 {
	x.n++
	x.slots[i] = pcSlot{pc: pc, idx: int32(x.n)}
	return int32(x.n - 1)
}

// grow doubles the table (or makes the first one) and rehashes every
// key; dense indices are unchanged.
func (x *PCIndex) grow() {
	size := 2 * len(x.slots)
	if size < pcIndexMinSlots {
		size = pcIndexMinSlots
	}
	old := x.slots
	x.slots = make([]pcSlot, size) //lint:allow hotalloc amortised doubling: one table per power-of-two growth step, not per event
	x.shift = uint32(33 - bits.Len(uint(size)))
	for _, s := range old {
		if s.idx != 0 {
			x.slots[x.probe(s.pc)] = s
		}
	}
}
