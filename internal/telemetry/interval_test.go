package telemetry_test

import (
	"reflect"
	"testing"

	"twolevel/internal/sim/fastpath"
	"twolevel/internal/telemetry"
)

// series feeds n resolutions, the first miss of them mispredicted, to a
// Tap folding an interval series every interval branches (and a profile,
// so that interval 0 still gets a Tap), with a context switch before
// each resolution index in switches, and returns its samples and switch
// marks.
func series(interval uint64, n, miss int, switches ...int) ([]telemetry.Sample, []uint64) {
	tap := fastpath.NewTap(fastpath.Config{Interval: interval, TopPCs: 1})
	for i := 0; i < n; i++ {
		for len(switches) > 0 && switches[0] == i {
			tap.Switch()
			switches = switches[1:]
		}
		tap.Resolve(0x40, i%2 == 0, i >= miss)
	}
	for range switches {
		tap.Switch()
	}
	samples, marks, _, _ := tap.Telemetry()
	return samples, marks
}

func TestIntervalSeriesExactMultiple(t *testing.T) {
	samples, _ := series(100, 200, 40) // the first 40 resolutions miss
	want := []telemetry.Sample{
		{Branches: 100, Predictions: 100, Correct: 60, Accuracy: 0.6},
		{Branches: 200, Predictions: 100, Correct: 100, Accuracy: 1},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples = %+v, want %+v", samples, want)
	}
}

func TestIntervalSeriesPartialFinalInterval(t *testing.T) {
	samples, _ := series(100, 250, 0) // budget not divisible by interval
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3 (two full + one partial)", len(samples))
	}
	if last := samples[2]; last.Predictions != 50 || last.Branches != 250 || last.Accuracy != 1 {
		t.Errorf("partial sample = %+v, want 50 branches ending at 250, all correct", last)
	}
	// An interval of 0 folds no series at all.
	if samples, marks := series(0, 250, 10, 5); samples != nil || marks != nil {
		t.Errorf("interval 0: samples %v, switch marks %v; want none", samples, marks)
	}
}

func TestIntervalSeriesSwitchMarks(t *testing.T) {
	samples, marks := series(10, 30, 0, 25, 30)
	if !reflect.DeepEqual(marks, []uint64{25, 30}) {
		t.Fatalf("switch marks = %v, want [25 30]", marks)
	}
	if len(samples) != 3 || samples[2].Branches != 30 {
		t.Errorf("samples = %+v, want three ending at 30", samples)
	}
}
