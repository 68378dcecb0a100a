// Package faultinject provides composable fault-injection wrappers for
// chaos-testing the simulation pipeline: trace sources that error, end
// early, stall or panic at chosen points, and source openers that fail
// transiently. Every injector is deterministic — faults fire at exact
// event counts, never randomly — so a chaos test that provokes a failure
// reproduces it on every run.
//
// The wrappers implement the interface the real pipeline reads
// (trace.Source), so they drop into any seam that accepts one: sim.Run,
// trace.CaptureCache.Capture, or the experiment harness's source hooks.
package faultinject

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"twolevel/internal/trace"
)

// ErrorAfter yields events from Src until N have been delivered, then
// returns Err on every later call — a source that tears mid-stream.
type ErrorAfter struct {
	// Src is the wrapped source.
	Src trace.Source
	// N is the number of events delivered before the fault fires.
	N uint64
	// Err is returned once the fault fires.
	Err error

	seen uint64
}

// Next implements trace.Source.
func (s *ErrorAfter) Next() (trace.Event, error) {
	if s.seen >= s.N {
		return trace.Event{}, s.Err
	}
	s.seen++
	return s.Src.Next()
}

// Truncate ends the stream with io.EOF after N events — a source that
// dies early but cleanly (a truncated trace file, an interpreter that
// halts before the budget).
type Truncate struct {
	// Src is the wrapped source.
	Src trace.Source
	// N is the number of events delivered before the early EOF.
	N uint64

	seen uint64
}

// Next implements trace.Source.
func (s *Truncate) Next() (trace.Event, error) {
	if s.seen >= s.N {
		return trace.Event{}, io.EOF
	}
	s.seen++
	return s.Src.Next()
}

// Flaky fails deterministically periodically: every Period-th event
// (1-based) returns Err instead of an event, without consuming from Src.
// The stream stays usable — callers that retry the read continue — which
// models a source with recoverable hiccups rather than a torn one.
type Flaky struct {
	// Src is the wrapped source.
	Src trace.Source
	// Period selects which calls fail: every Period-th Next returns Err.
	// Values < 2 make every call fail.
	Period uint64
	// Err is the injected failure.
	Err error

	calls uint64
}

// Next implements trace.Source.
func (s *Flaky) Next() (trace.Event, error) {
	s.calls++
	if s.Period < 2 || s.calls%s.Period == 0 {
		return trace.Event{}, s.Err
	}
	return s.Src.Next()
}

// Slow delays every Every-th event by Delay — a source that stalls, for
// exercising timeouts without wall-clock-heavy tests.
type Slow struct {
	// Src is the wrapped source.
	Src trace.Source
	// Delay is the injected stall.
	Delay time.Duration
	// Every selects which events stall (0 stalls every event).
	Every uint64

	seen uint64
}

// Next implements trace.Source.
func (s *Slow) Next() (trace.Event, error) {
	s.seen++
	if s.Every == 0 || s.seen%s.Every == 0 {
		time.Sleep(s.Delay)
	}
	return s.Src.Next()
}

// PanicSource panics after delivering N events — a buggy generator that
// crashes instead of returning an error. The grid scheduler must recover
// it into an attributed per-cell failure.
type PanicSource struct {
	// Src is the wrapped source.
	Src trace.Source
	// N is the number of events delivered before the panic.
	N uint64
	// Msg is the panic value.
	Msg string

	seen uint64
}

// Next implements trace.Source.
func (s *PanicSource) Next() (trace.Event, error) {
	if s.seen >= s.N {
		panic(s.Msg)
	}
	s.seen++
	return s.Src.Next()
}

// CtxAfter is a deterministic countdown context: the first N Err polls
// see a live context, every later poll sees context.Canceled. Amortised
// cancellation loops (sim.Run, the fastpath kernel) poll Err at a fixed
// event granularity, so CtxAfter cancels a run at an exact poll count —
// no goroutines, no timers, reproducible on every execution.
//
// Done intentionally returns nil (block forever): CtxAfter is for the
// polling hot paths, not for select-based waiters. The poll counter is
// atomic so sharded kernel workers may share one CtxAfter; the total
// poll count at which cancellation fires stays exact even though which
// worker observes it first does not.
type CtxAfter struct {
	// N is the number of Err calls that see a live context.
	N int64

	polls atomic.Int64
}

// Err implements context.Context.
func (c *CtxAfter) Err() error {
	if c.polls.Add(1) > c.N {
		return context.Canceled
	}
	return nil
}

// Polls reports how many times Err has been called.
func (c *CtxAfter) Polls() int64 { return c.polls.Load() }

// Done implements context.Context; see the type comment.
func (c *CtxAfter) Done() <-chan struct{} { return nil }

// Deadline implements context.Context.
func (c *CtxAfter) Deadline() (time.Time, bool) { return time.Time{}, false }

// Value implements context.Context.
func (c *CtxAfter) Value(key any) any { return nil }

// FlakyOpener wraps a source constructor so its first fails calls return
// err before it starts delegating — a transiently unavailable generator
// for exercising open-retry paths.
func FlakyOpener(open func() (trace.Source, error), fails int, err error) func() (trace.Source, error) {
	remaining := fails
	return func() (trace.Source, error) {
		if remaining > 0 {
			remaining--
			return nil, err
		}
		return open()
	}
}
