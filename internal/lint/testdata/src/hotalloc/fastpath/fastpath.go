// Fixture for the hotalloc analyzer: hot functions (run*/lookup*/flush*)
// in the fastpath package must not heap-allocate inside their loops.
package fastpath

import "fmt"

type event struct{ pc uint32 }

type kernel struct {
	preds []uint64
	pcm   map[uint32]uint64
	tag   []byte
}

// sink has an interface parameter: passing a concrete value boxes it.
func sink(v any) { _ = v }

// grow is a cold helper with an unjustified allocation: calls from hot
// loops are findings citing this site.
func (k *kernel) grow() {
	k.preds = append(k.preds, 0)
}

// growJustified carries the annotation at its allocation site, which
// clears every hot caller at once.
func (k *kernel) growJustified() {
	k.preds = append(k.preds, 0) //lint:allow hotalloc amortised growth, fixture-sanctioned
}

// runReplay is hot: every allocation construct inside its per-event loop
// is a finding; the hoisted setup before the loop is not.
func (k *kernel) runReplay(pcs []uint32) int {
	scratch := make([]byte, 8) // hoisted out of the loop: clean
	correct := 0
	for i, pc := range pcs {
		buf := make([]byte, 4)                // want "make allocation"
		p := new(event)                       // want "new allocation"
		e := &event{pc: pc}                   // want "composite literal allocation"
		ps := []uint32{pc}                    // want "slice literal allocation"
		pm := map[uint32]int{pc: i}           // want "map literal allocation"
		ev := event{pc: pc}                   // clean: a struct value in a local
		evs[i] = event{pc: pc}                // clean: a struct value stored to a slice element
		pair := [2]uint32{pc, pc}             // clean: an array value
		sink(event{pc: pc})                   // want "interface boxing of argument"
		fn := func() {}                       // want "closure creation"
		k.preds = append(k.preds, uint64(pc)) // want "append"
		k.pcm[pc] = uint64(i)                 // want "map insert"
		name := string(k.tag)                 // want "conversion \(copies the data\)"
		msg := fmt.Sprintf("pc=%d", pc)       // want "fmt\.Sprintf call"
		sink(pc)                              // want "interface boxing of argument"
		var v any
		v = pc            // want "interface boxing in assignment"
		k.grow()          // want "call to grow, which allocates"
		k.growJustified() // clean: the callee's site is annotated
		k.store(i, pc)    // clean: the callee stores a value literal
		k.pcm[pc] = 0     //lint:allow hotalloc fixture-sanctioned amortised insert
		_, _, _, _, _, _, _ = buf, p, e, fn, name, msg, v
		_, _, _, _ = ps, pm, ev, pair
		correct++
	}
	_ = scratch
	return correct
}

// evs receives struct values from the loops above.
var evs []event

// store is a cold helper storing a struct value literal, which does not
// allocate: calls from hot loops are clean.
func (k *kernel) store(i int, pc uint32) {
	evs[i] = event{pc: pc}
}

// flushTap is hot by prefix: the Tap-twin flush loops are covered too.
func (k *kernel) flushTap(out []uint64) {
	for range out {
		k.preds = append(k.preds, 0) // want "append"
	}
}

// planPass is a plan builder, hot by prefix: its per-event loop must not
// allocate.
func (k *kernel) planPass(meta []uint8) {
	for _, m := range meta {
		k.preds = append(k.preds, uint64(m)) // want "append"
	}
}

// foldSamples is a telemetry fold, hot by prefix: its per-interval loop
// must not allocate either.
func (k *kernel) foldSamples(n int) [][]uint64 {
	out := make([][]uint64, n) // hoisted out of the loop: clean
	for i := range out {
		out[i] = make([]uint64, 1) // want "make allocation"
	}
	return out
}

// merge is not hot: the same constructs in a cold loop are clean.
func (k *kernel) merge(o *kernel) {
	for i := range o.preds {
		k.preds = append(k.preds, o.preds[i])
	}
}
