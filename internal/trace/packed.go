package trace

import "io"

// Packed is a memory-compact, append-only event store, dictionary coded:
// each event keeps one metadata byte (trap flag, outcome, class), a
// one-byte instruction count and a two-byte site id into a table of the
// distinct (PC, target) pairs in first-seen order — 4 bytes instead of
// the padded Event struct's 20 — so a benchmark's full capture stays
// resident cheaply while many replay cursors walk it. A count of 255 or
// more is stored as 255, with the count in a sparse side list in
// ascending event order. A capture that would pass 65,536 distinct pairs,
// or whose side list grows past a quarter of its events, switches once to
// raw columns: every later event stores its count, PC and target as
// three uint32s. So no input takes more than 13 bytes per event plus the
// site table and its index (dictBytes).
//
// The format is private to this package: Snapshot.At, SnapshotReader and
// the Snapshot.Decode* walks read it.
//
// Appending is not safe for concurrent use; snapshots taken with View are
// immutable and may be read from any number of goroutines, including
// while the Packed keeps growing (appends never mutate the prefix a
// snapshot covers).
//
// The per-event columns always share one capacity: growth is a single
// decision that reallocates all of them (see grow).
type Packed struct {
	meta  []uint8    // every event
	ins   []uint8    // coded events: instruction count, or escMark
	sites []uint16   // coded events: index into keys
	esc   []escape   // coded events whose count is escMark, ascending
	keys  []uint64   // site table: pc<<32 | target, first-seen order
	slots []uint32   // open-addressing index into keys: id+1, 0 = empty
	raw   []rawEvent // the events after the switch to raw columns

	// switched is set once the store has switched to raw columns: the
	// coded columns then hold exactly the events before the switch, and
	// the site index, which only appends read, is dropped.
	switched bool
	conds    int

	// budget is the conditional-branch count the appends are heading
	// for (0 when unknown); CaptureCache sets it so growth can size the
	// columns for the whole capture instead of growing blindly.
	budget uint64
	// mark and markConds are Len and Conds at the last growth: the
	// events appended since then give the current events-per-branch
	// ratio.
	mark, markConds int
}

// escape holds the instruction count of a coded event whose count does
// not fit its byte.
type escape struct{ at, instrs uint32 }

// rawEvent is an event stored after the switch to raw columns.
type rawEvent struct{ instrs, pc, target uint32 }

// Metadata bit layout: trap flag, taken flag, branch class in bits 2..4.
const (
	metaTrap  = 1 << 0
	metaTaken = 1 << 1
	metaClass = 2
)

const (
	// escMark in an event's count byte sends the count to the side list.
	escMark = 0xff
	// escSlack is how many escapes a capture takes before the quarter
	// bound applies.
	escSlack = 64
	// maxSites is the site table's capacity, what a 2-byte id addresses.
	maxSites = 1 << 16
	// minSlots is the site index's first size.
	minSlots = 64
	// dictBytes bounds the site table and its index: maxSites 8-byte
	// keys and, at a load of at most one half, 2*maxSites 4-byte slots.
	dictBytes = maxSites*8 + 2*maxSites*4
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
	if !p.switched && !p.code(e) {
		p.toRaw()
	}
	if p.switched {
		p.raw = append(p.raw, rawEvent{instrs: e.Instrs, pc: e.Branch.PC, target: e.Branch.Target})
	}
	p.meta = append(p.meta, m)
	if !e.Trap && e.Branch.Class == Cond {
		p.conds++
	}
}

// code appends e's count and site to the coded columns and reports true,
// or stores nothing and reports false when e does not fit them: its
// (PC, target) pair is new and the site table is full, or its count needs
// an escape and escapes already make up a quarter of the coded events.
func (p *Packed) code(e Event) bool {
	ins := uint8(escMark)
	if e.Instrs < escMark {
		ins = uint8(e.Instrs)
	} else if len(p.esc) >= len(p.ins)/4+escSlack {
		return false
	}
	id, ok := p.site(uint64(e.Branch.PC)<<32 | uint64(e.Branch.Target))
	if !ok {
		return false
	}
	if ins == escMark {
		p.esc = append(p.esc, escape{at: uint32(len(p.ins)), instrs: e.Instrs})
	}
	p.ins = append(p.ins, ins)
	p.sites = append(p.sites, id)
	return true
}

// site returns key's id in the site table, adding the key when it is
// new; ok is false when it is new and the table is full.
func (p *Packed) site(key uint64) (id uint16, ok bool) {
	if p.slots == nil {
		p.slots = make([]uint32, minSlots)
	}
	mask := uint64(len(p.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		s := p.slots[i]
		if s != 0 {
			if p.keys[s-1] == key {
				return uint16(s - 1), true
			}
			continue
		}
		if len(p.keys) == maxSites {
			return 0, false
		}
		if len(p.keys) == cap(p.keys) {
			p.keys = resized(p.keys, min(max(2*cap(p.keys), minSlots), maxSites))
		}
		p.keys = append(p.keys, key)
		p.slots[i] = uint32(len(p.keys))
		if 2*len(p.keys) > len(p.slots) {
			p.rehash()
		}
		return uint16(len(p.keys) - 1), true
	}
}

// rehash doubles the site index.
func (p *Packed) rehash() {
	slots := make([]uint32, 2*len(p.slots))
	mask := uint64(len(slots) - 1)
	for id, key := range p.keys {
		i := hashKey(key) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(id + 1)
	}
	p.slots = slots
}

// hashKey mixes a site key so its low bits depend on every bit of it.
func hashKey(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15
	return key ^ key>>32
}

// toRaw switches the store to raw columns from the next event on. The
// coded columns are cut to the events they hold, and the site index is
// dropped; the site table stays, for views of the coded prefix.
func (p *Packed) toRaw() {
	n := len(p.ins)
	p.ins, p.sites, p.esc = resized(p.ins, n), resized(p.sites, n), resized(p.esc, len(p.esc))
	p.slots = nil
	p.raw = make([]rawEvent, 0, cap(p.meta)-n)
	p.switched = true
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

// grow makes room for more events in every per-event column at once.
// Without a budget it grows each column as append does (by a quarter for
// large slices, leaving the copied prefix unzeroed: this is the path
// PackTrace and the pack probe take) and keeps the smallest capacity.
// With one, it estimates the events still to come from the events per
// conditional branch since the last growth (at least one each) plus a
// 1/32 margin, grows by at least an eighth, and at most quadruples the
// capacity, so an over-large budget over a short source cannot
// over-allocate.
func (p *Packed) grow() {
	n := len(p.meta)
	if p.budget <= uint64(p.conds) {
		p.meta = extend(p.meta)
		c := cap(p.meta)
		if p.switched {
			p.raw = extend(p.raw)
			c = min(c, len(p.ins)+cap(p.raw))
			p.raw = p.raw[: len(p.raw) : c-len(p.ins)]
		} else {
			p.ins, p.sites = extend(p.ins), extend(p.sites)
			c = min(c, cap(p.ins), cap(p.sites))
			p.ins, p.sites = p.ins[:n:c], p.sites[:n:c]
		}
		p.meta = p.meta[:n:c]
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

// resize moves the per-event columns to fresh arrays with room for c
// events in all (c >= Len()). Snapshots keep the old arrays.
func (p *Packed) resize(c int) {
	p.meta = resized(p.meta, c)
	if p.switched {
		p.raw = resized(p.raw, c-len(p.ins))
	} else {
		p.ins, p.sites = resized(p.ins, c), resized(p.sites, c)
	}
}

// extend grows s as append does, keeping its length.
func extend[T any](s []T) []T {
	var zero T
	return append(s, zero)[:len(s)]
}

// resized copies s into a fresh array of capacity c.
func resized[T any](s []T, c int) []T { return append(make([]T, 0, c), s...) }

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

// Bytes returns the heap footprint of the store: each column's capacity
// times its element size, the site table and its index included.
func (p *Packed) Bytes() int64 {
	const escapeBytes, rawBytes = 8, 12
	return int64(cap(p.meta)) + int64(cap(p.ins)) + 2*int64(cap(p.sites)) +
		escapeBytes*int64(cap(p.esc)) + 8*int64(cap(p.keys)) + 4*int64(cap(p.slots)) +
		rawBytes*int64(cap(p.raw))
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
		if isCond(m) != 0 {
			if seen++; seen == n {
				return i + 1
			}
		}
	}
	return p.Len()
}

// View snapshots the first n events. The snapshot stays valid and
// immutable across later appends, holds only what its events use, and
// is deep-equal to every other view of the same prefix. n is clamped to
// [0, Len()]: callers computing prefix lengths from untrusted budgets get
// the whole (or an empty) capture rather than a panic.
func (p *Packed) View(n int) Snapshot {
	n = min(max(n, 0), p.Len())
	coded := min(n, len(p.ins))
	// Ids are handed out in first-seen order, so the prefix uses exactly
	// the sites up to its largest id.
	sites := len(p.keys)
	if coded < len(p.ins) {
		sites = 0
		for _, id := range p.sites[:coded] {
			sites = max(sites, int(id)+1)
		}
	}
	return Snapshot{
		meta:  prefix(p.meta, n),
		ins:   prefix(p.ins, coded),
		sites: prefix(p.sites, coded),
		esc:   prefix(p.esc, escapesBefore(p.esc, coded)),
		keys:  prefix(p.keys, sites),
		raw:   prefix(p.raw, n-coded),
	}
}

// prefix returns the first n elements of s with no spare capacity, or nil
// when n is 0, so views of one prefix are deep-equal whatever the store
// held when they were taken.
func prefix[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n:n]
}

// escapesBefore returns how many of the escapes esc belong to events
// before event n.
func escapesBefore(esc []escape, n int) int {
	lo, hi := 0, len(esc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(esc[mid].at) < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// isCond is 1 for a conditional branch event's metadata byte, else 0.
func isCond(m uint8) int {
	if m&^metaTaken == uint8(Cond)<<metaClass {
		return 1
	}
	return 0
}

// Snapshot is an immutable view of a Packed prefix: the events before
// len(ins) are coded, the rest raw. Any number of goroutines may take
// Readers over the same snapshot.
type Snapshot struct {
	meta  []uint8
	ins   []uint8
	sites []uint16
	esc   []escape
	keys  []uint64 // the sites the coded events use
	raw   []rawEvent
}

// Len returns the number of events in the snapshot.
func (s Snapshot) Len() int { return len(s.meta) }

// Sites returns an upper bound on the distinct branch addresses in the
// snapshot: the coded events' site count plus the distinct PCs of the
// raw events.
func (s Snapshot) Sites() int {
	pcs := make(map[uint32]struct{})
	for _, r := range s.raw {
		pcs[r.pc] = struct{}{}
	}
	return len(s.keys) + len(pcs)
}

// Conds returns the number of conditional branch events in the
// snapshot (a meta-column scan, not a stored counter — snapshots are
// cheap prefix views and do not carry derived state).
func (s Snapshot) Conds() int {
	n := 0
	for _, m := range s.meta {
		n += isCond(m)
	}
	return n
}

// At decodes event i.
func (s *Snapshot) At(i int) Event {
	m := s.meta[i]
	if i >= len(s.ins) {
		r := &s.raw[i-len(s.ins)]
		return event(r.instrs, r.pc, r.target, m)
	}
	ins := uint32(s.ins[i])
	if ins == escMark {
		ins = s.esc[escapesBefore(s.esc, i)].instrs
	}
	k := s.keys[s.sites[i]]
	return event(ins, uint32(k>>32), uint32(k), m)
}

// event assembles an Event from its decoded fields.
func event(instrs, pc, target uint32, m uint8) Event {
	return Event{
		Instrs: instrs,
		Trap:   m&metaTrap != 0,
		Branch: Branch{
			PC:     pc,
			Target: target,
			Class:  Class(m >> metaClass),
			Taken:  m&metaTaken != 0,
		},
	}
}

// Reader returns a fresh replay cursor positioned at the first event.
func (s Snapshot) Reader() *SnapshotReader { return &SnapshotReader{s: s} }

// Checksum returns an FNV-1a digest over the snapshot's logical columns
// — instruction counts, PCs and targets as uint32s, then the metadata
// bytes — length-prefixed, in that fixed order, whatever the storage.
// Two snapshots of the same deterministic generator at the same budget
// always agree; resume manifests store it to detect a capture that no
// longer matches the one a checkpoint was written against.
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
	esc := s.esc
	for _, v := range s.ins {
		if v == escMark {
			word(esc[0].instrs)
			esc = esc[1:]
		} else {
			word(uint32(v))
		}
	}
	for _, r := range s.raw {
		word(r.instrs)
	}
	for _, id := range s.sites {
		word(uint32(s.keys[id] >> 32))
	}
	for _, r := range s.raw {
		word(r.pc)
	}
	for _, id := range s.sites {
		word(uint32(s.keys[id]))
	}
	for _, r := range s.raw {
		word(r.target)
	}
	for _, m := range s.meta {
		h = (h ^ uint64(m)) * prime64
	}
	return h
}

// Tally is a running count over a snapshot's events, advanced by
// Snapshot.DecodeTally and Snapshot.DecodeQuantum.
type Tally struct {
	// Event is the index of the next event to count, Conds the
	// conditional branches counted so far.
	Event, Conds int
	// Instructions is the counted events' instruction total.
	Instructions uint64
	byMeta       [256]uint64 // counted events per metadata byte
}

// Counts returns the counted events per branch class (traps excluded),
// the counted traps and the taken conditional branches among them.
func (t *Tally) Counts() (byClass [NumClasses]uint64, traps, takenCond uint64) {
	for m, n := range t.byMeta {
		if n == 0 {
			continue
		}
		if m&metaTrap != 0 {
			traps += n
			continue
		}
		cls := m >> metaClass
		if cls < NumClasses {
			byClass[cls] += n
		}
		if Class(cls) == Cond && m&metaTaken != 0 {
			takenCond += n
		}
	}
	return byClass, traps, takenCond
}

// DecodeTally counts the events of s from t.Event up to event end (at
// most Len) into t, stopping early once t.Conds reaches stopConds.
func (s *Snapshot) DecodeTally(t *Tally, end, stopConds int) {
	end = min(end, len(s.meta))
	i, j, sum, byMeta := t.Event, t.Conds, t.Instructions, &t.byMeta
	if split := min(end, len(s.ins)); i < split {
		meta, ins := s.meta[:split], s.ins[:split]
		esc := s.esc[escapesBefore(s.esc, i):]
		for ; i < len(meta) && j < stopConds; i++ {
			m := meta[i]
			v := uint64(ins[i])
			if v == escMark {
				v, esc = uint64(esc[0].instrs), esc[1:]
			}
			sum += v
			byMeta[m]++
			j += isCond(m)
		}
	}
	if base := len(s.ins); i >= base && i < end {
		meta, raw := s.meta[:end], s.raw[:end-base]
		for ; i < len(meta) && j < stopConds; i++ {
			m := meta[i]
			sum += uint64(raw[i-base].instrs)
			byMeta[m]++
			j += isCond(m)
		}
	}
	t.Event, t.Conds, t.Instructions = i, j, sum
}

// DecodeQuantum is DecodeTally under an instruction quantum: it also
// stops right after a trap, or after the event that brings *since — the
// instructions counted since the last such stop — to quantum. At such a
// stop it zeroes *since and returns true and the stopping event's
// conditional-branch count (0 or 1), which t.Conds already includes.
func (s *Snapshot) DecodeQuantum(t *Tally, end, stopConds int, quantum uint64, since *uint64) (bool, int) {
	end = min(end, len(s.meta))
	i, j, sum, byMeta := t.Event, t.Conds, t.Instructions, &t.byMeta
	ran := *since
	stop, cond := false, 0
	if split := min(end, len(s.ins)); i < split {
		meta, ins := s.meta[:split], s.ins[:split]
		esc := s.esc[escapesBefore(s.esc, i):]
		for i < len(meta) && j < stopConds {
			m := meta[i]
			v := uint64(ins[i])
			if v == escMark {
				v, esc = uint64(esc[0].instrs), esc[1:]
			}
			sum += v
			ran += v
			byMeta[m]++
			c := isCond(m)
			j += c
			i++
			if m&metaTrap != 0 || ran >= quantum {
				stop, cond = true, c
				break
			}
		}
	}
	if base := len(s.ins); !stop && i >= base && i < end {
		meta, raw := s.meta[:end], s.raw[:end-base]
		for i < len(meta) && j < stopConds {
			m := meta[i]
			v := uint64(raw[i-base].instrs)
			sum += v
			ran += v
			byMeta[m]++
			c := isCond(m)
			j += c
			i++
			if m&metaTrap != 0 || ran >= quantum {
				stop, cond = true, c
				break
			}
		}
	}
	t.Event, t.Conds, t.Instructions = i, j, sum
	if stop {
		*since = 0
		return true, cond
	}
	*since = ran
	return false, 0
}

// DecodeBranches writes the conditional branches among events [from, to)
// of s, in order, into pcs, targets and outs (1 taken, 0 not taken),
// stopping once outs is full, and returns how many it wrote. pcs and
// targets must be at least as long as outs.
func (s *Snapshot) DecodeBranches(from, to int, pcs, targets []uint32, outs []uint8) int {
	to = min(to, len(s.meta))
	j := 0
	if split := min(to, len(s.ins)); from < split {
		j = decodeCoded(s.meta[from:split], s.sites[from:split], s.keys, pcs, targets, outs)
		from = split
	}
	if base := len(s.ins); from >= base && from < to {
		j += decodeRaw(s.meta[from:to], s.raw[from-base:to-base], pcs[j:], targets[j:], outs[j:])
	}
	return j
}

// decodeCoded is DecodeBranches over coded events. Every event is written
// at the next branch index, which advances only past a conditional
// branch: no data-dependent branch in the loop. The unsigned room check
// proves every store in bounds, so the loop checks only the site-table
// gather.
func decodeCoded(meta []uint8, sites []uint16, keys []uint64, pcs, targets []uint32, outs []uint8) int {
	j := 0
	sites = sites[:len(meta)]
	pcs, targets = pcs[:len(outs)], targets[:len(outs)]
	for i, m := range meta {
		if uint(j) >= uint(len(outs)) {
			break
		}
		k := keys[sites[i]]
		pcs[j], targets[j], outs[j] = uint32(k>>32), uint32(k), m&metaTaken>>1
		j += isCond(m)
	}
	return j
}

// decodeRaw is DecodeBranches over raw events.
func decodeRaw(meta []uint8, raw []rawEvent, pcs, targets []uint32, outs []uint8) int {
	j := 0
	raw = raw[:len(meta)]
	pcs, targets = pcs[:len(outs)], targets[:len(outs)]
	for i, m := range meta {
		if uint(j) >= uint(len(outs)) {
			break
		}
		pcs[j], targets[j], outs[j] = raw[i].pc, raw[i].target, m&metaTaken>>1
		j += isCond(m)
	}
	return j
}

// SnapshotReader replays a Snapshot as a Source. Each reader carries its
// own position; readers over one snapshot are independent.
type SnapshotReader struct {
	s   Snapshot
	pos int
}

// Next implements Source.
func (r *SnapshotReader) Next() (Event, error) {
	s, i := &r.s, r.pos
	if i >= len(s.meta) {
		return Event{}, io.EOF
	}
	r.pos++
	// A coded event with an inline count decodes here; At, which does
	// not inline, takes escaped counts and raw events.
	if i < len(s.ins) && s.ins[i] != escMark {
		k := s.keys[s.sites[i]]
		return event(uint32(s.ins[i]), uint32(k>>32), uint32(k), s.meta[i]), nil
	}
	return s.At(i), nil
}

// Reset rewinds the reader to the start of the snapshot.
func (r *SnapshotReader) Reset() { r.pos = 0 }

// Snapshot returns the snapshot the reader walks.
func (r *SnapshotReader) Snapshot() Snapshot { return r.s }

// Pos returns the index of the next event Next would return.
func (r *SnapshotReader) Pos() int { return r.pos }

// Seek positions the reader so the next event is index pos, clamped to
// [0, Len()]. Flat replay kernels consume events by index through the
// Decode walks and then Seek the cursor past what they consumed, so
// interleaved interface-level reads keep working.
func (r *SnapshotReader) Seek(pos int) {
	if pos < 0 {
		pos = 0
	}
	if n := r.s.Len(); pos > n {
		pos = n
	}
	r.pos = pos
}
