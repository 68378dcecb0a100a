// Package history implements the k-bit branch history (shift) registers of
// the first level of Two-Level Adaptive Branch Prediction.
//
// A history register records the outcomes of the most recent k branches
// (global variant) or the most recent k executions of one static branch
// (per-address variant). Taken shifts in a 1, not-taken a 0, into the
// least significant bit (§2.1).
package history

import "fmt"

// MaxBits is the widest supported history register. 30 bits covers every
// configuration in the paper (the largest is 18) with room for sweeps.
const MaxBits = 30

// Register is a k-bit branch history shift register. The zero value is not
// meaningful; construct with New.
type Register struct {
	bits  uint32 // current pattern, masked to k bits
	k     int
	mask  uint32
	fresh bool // true until the first real outcome is shifted in
}

// New returns a k-bit register initialised per §4.2: all ones, because
// taken branches outnumber not-taken branches, with the first real outcome
// smeared across the whole register when it arrives.
func New(k int) Register {
	if k < 1 || k > MaxBits {
		panic(fmt.Sprintf("history: register length %d out of range [1,%d]", k, MaxBits))
	}
	mask := uint32(1)<<k - 1
	return Register{bits: mask, k: k, mask: mask, fresh: true}
}

// Len returns k, the register length in bits.
func (r Register) Len() int { return r.k }

// Pattern returns the current k-bit history pattern, used to index a
// pattern history table.
func (r Register) Pattern() uint32 { return r.bits }

// Shift records outcome as the newest history bit. The first outcome after
// initialisation (or Reset) is extended throughout the register, per §4.2:
// "After the result of the branch which causes the branch history table
// miss is known, the result bit is extended throughout the history
// register."
func (r *Register) Shift(taken bool) {
	var bit uint32
	if taken {
		bit = 1
	}
	if r.fresh {
		r.fresh = false
		if taken {
			r.bits = r.mask
		} else {
			r.bits = 0
		}
		return
	}
	r.bits = (r.bits<<1 | bit) & r.mask
}

// ShiftRaw records outcome without first-outcome smearing. Used for
// speculative updates, where the register already holds live history.
func (r *Register) ShiftRaw(taken bool) {
	var bit uint32
	if taken {
		bit = 1
	}
	r.fresh = false
	r.bits = (r.bits<<1 | bit) & r.mask
}

// Reset reinitialises the register to the freshly-allocated state
// (all ones + smear-on-first-outcome). Used when a branch history table
// entry is reallocated or flushed on a context switch.
func (r *Register) Reset() {
	r.bits = r.mask
	r.fresh = true
}

// Set forces the register to a specific pattern (used for misprediction
// repair of speculatively-updated history, §3.1). The register is treated
// as holding live history afterwards.
func (r *Register) Set(pattern uint32) {
	r.bits = pattern & r.mask
	r.fresh = false
}

// Fresh reports whether the register still awaits its first real outcome.
func (r Register) Fresh() bool { return r.fresh }

// String renders the pattern as a k-character bit string, oldest first.
func (r Register) String() string {
	buf := make([]byte, r.k)
	for i := 0; i < r.k; i++ {
		if r.bits>>(r.k-1-i)&1 == 1 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
