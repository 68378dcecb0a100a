package sim

import (
	"context"
	"errors"
	"testing"

	"twolevel/internal/predictor"
	"twolevel/internal/trace"
)

// endlessSource yields alternating conditional branches forever — a
// stand-in for an unbounded interpreter stream that only a budget or a
// cancelled context can stop.
type endlessSource struct {
	n uint64
}

func (s *endlessSource) Next() (trace.Event, error) {
	s.n++
	return condEvent(0x200, s.n%2 == 0, 5), nil
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &endlessSource{}
	sink := &Telemetry{Interval: 1000}
	res, err := Run(pagA2(6), src, Options{Context: ctx, Telemetry: sink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The poll is amortised: the run must stop within one check interval.
	if src.n > 2*cancelCheckInterval {
		t.Fatalf("run consumed %d events after cancellation", src.n)
	}
	if res.Accuracy.Predictions == 0 {
		t.Fatal("cancelled run should return the partial result collected so far")
	}
	if n := len(sink.Samples); n == 0 || sink.Samples[n-1].Branches != res.Accuracy.Predictions {
		t.Fatalf("cancelled run's sink does not cover the consumed prefix: %+v", sink.Samples)
	}
}

func TestRunCancelMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &endlessSource{}
	done := make(chan struct{})
	var res Result
	var err error
	go func() {
		defer close(done)
		res, err = Run(pagA2(6), src, Options{Context: ctx})
	}()
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Accuracy.Predictions > src.n {
		t.Fatalf("partial result claims %d predictions from %d events", res.Accuracy.Predictions, src.n)
	}
}

func TestRunNilContextUnaffected(t *testing.T) {
	tr := alternatingTrace(0x100, 500)
	want, err := Run(pagA2(6), tr.Reader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(pagA2(6), tr.Reader(), Options{Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("background-context run differs from nil-context run:\n%+v\n%+v", got, want)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	<-ctx.Done()
	_, err := Run(pagA2(6), &endlessSource{}, Options{Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunManyHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &endlessSource{}
	// Only one of the two option sets carries the context: the pass is
	// shared, so cancellation aborts the whole batch.
	preds := []predictor.Predictor{pagA2(6), pagA2(8)}
	opts := []Options{{Context: ctx}, {Telemetry: &Telemetry{TopK: 1}}}
	results, err := RunMany(preds, src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(preds) {
		t.Fatalf("got %d partial results, want %d", len(results), len(preds))
	}
	if src.n > 2*cancelCheckInterval {
		t.Fatalf("batch consumed %d events after cancellation", src.n)
	}
	if prof := opts[1].Telemetry.TopMispredicted; len(prof) != 1 || prof[0].Executions != results[1].Accuracy.Predictions {
		t.Fatalf("cancelled batch's sink does not cover the consumed prefix: %+v", prof)
	}
}

func TestRunManyMatchesSerialWithContext(t *testing.T) {
	ctx := context.Background()
	events := alternatingTrace(0x300, 3000)
	preds := []predictor.Predictor{pagA2(4), pagA2(10)}
	opts := []Options{{Context: ctx}, {Context: ctx}}
	batched, err := RunMany(preds, events.Reader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int{4, 10} {
		serial, err := Run(pagA2(k), events.Reader(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if batched[i] != serial {
			t.Fatalf("predictor %d: batched run with live context differs from serial run", i)
		}
	}
}
