package experiments

// Dispatcher suite: every per-benchmark loop — the grid's tasks and the
// one-unit-per-benchmark experiments (table1, fig4, ext-residual,
// ext-interleave) — runs on one bounded worker pool. Reports must not
// depend on the pool's size, a cancelled Context must stop every
// experiment, and each unit must show up as a task span on a worker lane.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"twolevel/internal/span"
)

// perBenchmarkIDs are the experiments whose per-benchmark loop runs
// outside the grid, one dispatch unit per benchmark.
var perBenchmarkIDs = []string{"table1", "fig4", "ext-residual", "ext-interleave"}

func TestDispatchInlineOrderAndFailFast(t *testing.T) {
	boom := errors.New("boom")
	var order []int
	units := make([]unit, 5)
	for i := range units {
		units[i] = unit{state: fmt.Sprint(i), run: func(Options) error {
			order = append(order, i)
			if i == 2 {
				return boom
			}
			return nil
		}}
	}
	errs, started := dispatch(units, Options{Workers: 1})
	if started != 3 || fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("started %d units in order %v, want 3 in order [0 1 2] (fail fast after unit 2)", started, order)
	}
	if !errors.Is(errs[2], boom) || errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	order = nil
	errs, started = dispatch(units, Options{Workers: 1, KeepGoing: true})
	if started != len(units) || fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("KeepGoing started %d units in order %v, want all five in order", started, order)
	}
	if !errors.Is(errs[2], boom) {
		t.Fatalf("KeepGoing lost unit 2's error: %v", errs)
	}
}

func TestDispatchRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		ran := 0
		units := make([]unit, 4)
		for i := range units {
			units[i] = unit{run: func(Options) error {
				mu.Lock()
				ran++
				mu.Unlock()
				if i == 1 {
					panic("unit crash")
				}
				return nil
			}}
		}
		errs, started := dispatch(units, Options{Workers: workers, KeepGoing: true})
		var pe *PanicError
		if !errors.As(errs[1], &pe) || pe.Value != "unit crash" {
			t.Fatalf("workers=%d: errs[1] = %v, want the recovered panic", workers, errs[1])
		}
		if started != len(units) || ran != len(units) {
			t.Fatalf("workers=%d: started %d, ran %d; want all %d", workers, started, ran, len(units))
		}
	}
}

func TestPerBenchmarkExperimentsHonourCancel(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range perBenchmarkIDs {
		for _, workers := range []int{1, 4} {
			rep, err := Run(id, Options{CondBranches: 2000, Workers: workers, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s at %d workers: err = %v, want context.Canceled", id, workers, err)
			}
			if rep != nil {
				t.Errorf("%s at %d workers returned a report despite cancellation", id, workers)
			}
		}
	}
}

func TestPerBenchmarkReportsIndependentOfWorkers(t *testing.T) {
	t.Cleanup(ResetCaches)
	render := func(workers int) []byte {
		// Cold caches each time, so captures race across workers too.
		ResetCaches()
		var buf bytes.Buffer
		for _, id := range perBenchmarkIDs {
			rep, err := Run(id, Options{CondBranches: 4000, Workers: workers})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", id, workers, err)
			}
			if err := rep.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	want := render(1)
	for _, workers := range []int{2, 3, 16} {
		if got := render(workers); !bytes.Equal(got, want) {
			t.Errorf("reports at %d workers differ from 1 worker:\n%s\n---\n%s", workers, got, want)
		}
	}
}

func TestTable1TaskSpans(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	tr := span.New()
	root := tr.Root("suite")
	o := Options{CondBranches: 2000, Workers: 2, Span: root}
	if _, err := Run("table1", o); err != nil {
		t.Fatal(err)
	}
	root.End()
	recs := tr.Snapshot()
	tasks := map[uint64]span.Record{}
	for _, r := range recs {
		if r.Name == "task" {
			tasks[r.ID] = r
			if r.TID < 1 || spanAttr(r.Attrs, "worker") == "" || spanAttr(r.Attrs, "bench") == "" {
				t.Errorf("task span off a worker lane or missing attrs: tid %d %+v", r.TID, r.Attrs)
			}
		}
	}
	if len(tasks) != 9 {
		t.Fatalf("table1 emitted %d task spans, want one per benchmark (9)", len(tasks))
	}
	captures := map[uint64]int{}
	for _, r := range recs {
		if r.Name != "capture" {
			continue
		}
		task, ok := tasks[r.Parent]
		if !ok {
			t.Errorf("capture span %d is not a task's child (parent %d)", r.ID, r.Parent)
			continue
		}
		if r.TID != task.TID {
			t.Errorf("capture on lane %d, its task on lane %d", r.TID, task.TID)
		}
		captures[r.Parent]++
	}
	for id, task := range tasks {
		if captures[id] != 1 {
			t.Errorf("task %s has %d capture children, want 1", spanAttr(task.Attrs, "bench"), captures[id])
		}
	}
}
