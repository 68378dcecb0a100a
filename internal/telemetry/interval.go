package telemetry

import "twolevel/internal/trace"

// Sample is one point of an interval accuracy series.
type Sample struct {
	// Branches is the cumulative resolved conditional branch count at
	// the end of the interval.
	Branches uint64 `json:"branches"`
	// Predictions is the number of branches in this interval — equal to
	// the configured interval except for a final partial sample when the
	// run's budget is not divisible by the interval.
	Predictions uint64 `json:"predictions"`
	// Correct counts correct predictions within the interval.
	Correct uint64 `json:"correct"`
	// Accuracy is Correct / Predictions.
	Accuracy float64 `json:"accuracy"`
}

// IntervalSeries is an Observer sampling prediction accuracy every N
// resolved conditional branches, producing the warm-up transient and the
// post-context-switch recovery curves that end-of-run accuracies hide.
type IntervalSeries struct {
	NopObserver
	interval uint64
	total    uint64 // resolved branches so far
	cur      Sample // counters of the open interval
	samples  []Sample
	switches []uint64
}

// NewIntervalSeries returns an observer sampling accuracy every n resolved
// conditional branches. n must be positive; 0 is clamped to 1.
func NewIntervalSeries(n uint64) *IntervalSeries {
	if n == 0 {
		n = 1
	}
	return &IntervalSeries{interval: n}
}

// Interval returns the configured sampling interval.
func (s *IntervalSeries) Interval() uint64 { return s.interval }

// OnResolve implements Observer.
func (s *IntervalSeries) OnResolve(b trace.Branch, predicted, correct bool) {
	s.total++
	s.cur.Predictions++
	if correct {
		s.cur.Correct++
	}
	if s.cur.Predictions >= s.interval {
		s.closeSample()
	}
}

// OnContextSwitch implements Observer: the resolved-branch index of every
// switch is recorded so recovery curves can be aligned to switch points.
func (s *IntervalSeries) OnContextSwitch() {
	s.switches = append(s.switches, s.total)
}

// Finish implements Observer: a final partial interval (budget not
// divisible by the interval) is flushed as a short sample.
func (s *IntervalSeries) Finish() {
	if s.cur.Predictions > 0 {
		s.closeSample()
	}
}

func (s *IntervalSeries) closeSample() {
	s.cur.Branches = s.total
	s.cur.Accuracy = float64(s.cur.Correct) / float64(s.cur.Predictions)
	s.samples = append(s.samples, s.cur)
	s.cur = Sample{}
}

// Samples returns the accuracy series collected so far.
func (s *IntervalSeries) Samples() []Sample { return s.samples }

// Switches returns the resolved-branch index at each context switch.
func (s *IntervalSeries) Switches() []uint64 { return s.switches }
