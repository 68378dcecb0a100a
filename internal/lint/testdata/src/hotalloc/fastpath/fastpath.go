// Fixture for the hotalloc analyzer in the fastpath package.
package fastpath

import (
	"context"
	"fmt"
)

type event struct{ pc uint32 }
type kernel struct {
	preds []uint64
	pcm   map[uint32]uint64
	tag   []byte
}

// sink has an interface parameter: passing a concrete value boxes it.
func sink(v any) { _ = v }

// grow is a cold helper whose unjustified allocation hot callers cite.
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

// Predictor mirrors the interpretive predictor interface the kernel is
// supposed to have flattened away. The hot functions below must not
// dispatch through it (context.Context alone is exempt) anywhere in
// their bodies, closures included.
type Predictor interface {
	Predict(pc uint32) bool
	Update(pc uint32, taken bool)
}

// dispatcher is a stand-in for a kernel that kept an interface value.
type dispatcher struct {
	delta [4]uint8
	state uint8
	pred  Predictor
}

// runFlat is a hot function leaking interface dispatch back into the
// per-event loop: both calls are findings.
func (k *dispatcher) runFlat(pcs []uint32, taken []bool) int {
	correct := 0
	for i, pc := range pcs {
		if k.pred.Predict(pc) == taken[i] { // want "interface method call Predictor.Predict"
			correct++
		}
		k.pred.Update(pc, taken[i]) // want "interface method call Predictor.Update"
	}
	return correct
}

// runTables is the sanctioned shape: flat array state plus the amortised
// context.Context cancellation poll.
func (k *dispatcher) runTables(ctx context.Context, meta []uint8) (int, error) {
	correct := 0
	var sinceCheck uint32
	for _, m := range meta {
		if sinceCheck++; sinceCheck >= 4096 {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return correct, err
			}
		}
		o := m & 1
		pred := k.state >> 1
		k.state = k.delta[k.state<<1|o]
		if uint8(pred) == o {
			correct++
		}
	}
	return correct, nil
}

// runShardedFixture spawns goroutines; their bodies are hot too, though
// the spawn itself sits outside any loop.
func (k *dispatcher) runShardedFixture(pcs []uint32) {
	done := make(chan struct{})
	go func() {
		for _, pc := range pcs {
			k.pred.Predict(pc) // want "interface method call Predictor.Predict"
		}
		close(done)
	}()
	<-done
}

// lookupSlot is a hot lookup helper: interface dispatch is a finding.
func (k *dispatcher) lookupSlot(pc uint32) bool {
	return k.pred.Predict(pc) // want "interface method call Predictor.Predict"
}

// flushMirror is a hot flush helper: interface dispatch is a finding.
func (k *dispatcher) flushMirror() {
	k.pred.Update(0, false) // want "interface method call Predictor.Update"
}

// planColumns is a plan builder, hot by prefix: it walks every event of
// the snapshot once per batch, so interface dispatch is a finding.
func (k *dispatcher) planColumns(meta []uint8) int {
	n := 0
	for _, m := range meta {
		if k.pred.Predict(uint32(m)) { // want "interface method call Predictor.Predict"
			n++
		}
	}
	return n
}

// foldMisses is a telemetry fold, hot by prefix: it walks a replay's
// mispredict bits, so interface dispatch is a finding.
func (k *dispatcher) foldMisses(miss []uint64) {
	for i := range miss {
		k.pred.Update(uint32(i), miss[i] != 0) // want "interface method call Predictor.Update"
	}
}

// seed is cold setup: interface dispatch outside the replay path is not
// a finding.
func (k *dispatcher) seed() {
	for pc := uint32(0); pc < 16; pc += 4 {
		k.pred.Update(pc, true)
	}
}

// writeback is cold teardown, exempt like seed.
func (k *dispatcher) writeback() {
	k.pred.Update(0, true)
}

// runConcrete calls only concrete methods: not a finding.
func (k *dispatcher) runConcrete(meta []uint8) int {
	return k.step(meta)
}

func (k *dispatcher) step(meta []uint8) int {
	return len(meta)
}
