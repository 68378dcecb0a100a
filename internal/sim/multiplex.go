package sim

import (
	"fmt"
	"io"

	"twolevel/internal/trace"
)

// Multiplex interleaves several trace sources at a fixed instruction
// quantum, emitting a trap event at every switch point — a *real*
// context-switch workload rather than the paper's model of flushing the
// tables of a single process (§5.1.4 approximates a switch by
// reinitialising the branch history table; multiplexing instead lets the
// processes genuinely pollute each other's predictor state).
//
// Branch addresses from each source are tagged with a per-process offset
// in the high address bits, as distinct processes' code occupies distinct
// addresses. An event that would cross the quantum boundary is held and
// delivered when its process next runs, like a process resuming where it
// stopped.
type Multiplex struct {
	sources []trace.Source
	pending []*trace.Event // per-source held event
	quantum uint64
	current int
	used    uint64
	// Switches counts the quantum expirations so far; each one reaches
	// the simulator as a trap event.
	Switches uint64
}

// NewMultiplex interleaves sources round-robin every quantum instructions
// (0 uses the paper's 500k). At least two sources are required.
func NewMultiplex(sources []trace.Source, quantum uint64) (*Multiplex, error) {
	if len(sources) < 2 {
		return nil, fmt.Errorf("sim: multiplexing needs at least two sources")
	}
	if quantum == 0 {
		quantum = DefaultCSInterval
	}
	return &Multiplex{
		sources: sources,
		pending: make([]*trace.Event, len(sources)),
		quantum: quantum,
	}, nil
}

// Next implements trace.Source. The stream ends when any process's
// source ends.
func (m *Multiplex) Next() (trace.Event, error) {
	var e trace.Event
	if held := m.pending[m.current]; held != nil {
		e, m.pending[m.current] = *held, nil
	} else {
		var err error
		e, err = m.sources[m.current].Next()
		if err == io.EOF {
			return trace.Event{}, io.EOF
		}
		if err != nil {
			return trace.Event{}, err
		}
	}
	// Quantum check: hold the event for this process's next turn unless
	// the quantum is freshly started (an oversized event must still make
	// progress).
	if m.used+uint64(e.Instrs) > m.quantum && m.used > 0 {
		held := e
		m.pending[m.current] = &held
		m.used = 0
		m.current = (m.current + 1) % len(m.sources)
		m.Switches++
		return trace.Event{Trap: true, Instrs: 0}, nil
	}
	m.used += uint64(e.Instrs)
	if !e.Trap {
		offset := uint32(m.current) << 28
		e.Branch.PC ^= offset
		e.Branch.Target ^= offset
	}
	return e, nil
}

var _ trace.Source = (*Multiplex)(nil)
