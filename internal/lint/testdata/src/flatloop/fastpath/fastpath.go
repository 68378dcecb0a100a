// Fixture for the flatloop analyzer: the fast-path kernel's hot replay
// functions must not dispatch through interfaces (except context.Context).
package fastpath

import "context"

// Predictor mirrors the interpretive predictor interface the kernel is
// supposed to have flattened away.
type Predictor interface {
	Predict(pc uint32) bool
	Update(pc uint32, taken bool)
}

// Kernel is a stand-in for the flat-table replay kernel.
type Kernel struct {
	delta [4]uint8
	state uint8
	ctx   context.Context
	pred  Predictor
}

// runFlat is a hot function leaking interface dispatch back into the
// per-event loop: both calls are findings.
func (k *Kernel) runFlat(pcs []uint32, taken []bool) int {
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
func (k *Kernel) runTables(ctx context.Context, meta []uint8) (int, error) {
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

// runShardedFixture spawns goroutines; their bodies are hot too.
func (k *Kernel) runShardedFixture(pcs []uint32) {
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
func (k *Kernel) lookupSlot(pc uint32) bool {
	return k.pred.Predict(pc) // want "interface method call Predictor.Predict"
}

// flushMirror is a hot flush helper: interface dispatch is a finding.
func (k *Kernel) flushMirror() {
	k.pred.Update(0, false) // want "interface method call Predictor.Update"
}

// planColumns is a plan builder, hot by prefix: it walks every event of
// the snapshot once per batch, so interface dispatch is a finding.
func (k *Kernel) planColumns(meta []uint8) int {
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
func (k *Kernel) foldMisses(miss []uint64) {
	for i := range miss {
		k.pred.Update(uint32(i), miss[i] != 0) // want "interface method call Predictor.Update"
	}
}

// seed is cold setup: interface dispatch outside the replay path is not
// a finding.
func (k *Kernel) seed() {
	for pc := uint32(0); pc < 16; pc += 4 {
		k.pred.Update(pc, true)
	}
}

// writeback is cold teardown, exempt like seed.
func (k *Kernel) writeback() {
	k.pred.Update(0, true)
}

// runAllowed shows the audited escape hatch.
func (k *Kernel) runAllowed(pc uint32) bool {
	//lint:allow flatloop fixture: deliberate slow-path probe
	return k.pred.Predict(pc)
}

// runConcrete calls only concrete methods: not a finding.
func (k *Kernel) runConcrete(meta []uint8) int {
	return k.step(meta)
}

func (k *Kernel) step(meta []uint8) int {
	return len(meta)
}
