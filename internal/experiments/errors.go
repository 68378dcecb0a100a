// Error types for the fault-tolerant grid scheduler: every failure that
// escapes runGrid is attributed to the exact (spec, benchmark) cell it
// came from, recovered panics included.
package experiments

import (
	"fmt"
	"strings"
)

// CellError attributes one failed grid cell: which spec on which
// benchmark broke, after how many attempts, and why. It unwraps to the
// underlying cause, so errors.Is(err, context.Canceled) and friends see
// through it.
type CellError struct {
	// Spec is the row label (the spec string) of the failed cell.
	Spec string
	// Benchmark is the benchmark name of the failed cell.
	Benchmark string
	// Attempts is how many times the cell was tried: 1 when it never
	// ran alone (cancelled, or lost to a panic that escaped its task), 2
	// when it failed again run alone after its batched pass failed (see
	// RunBatch).
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("%s/%s (after %d attempts): %v", e.Spec, e.Benchmark, e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s/%s: %v", e.Spec, e.Benchmark, e.Err)
}

// Unwrap returns the underlying cause.
func (e *CellError) Unwrap() error { return e.Err }

// PanicError wraps a panic recovered from a predictor, trainer or
// source inside a grid worker, turning a crash into an attributable
// per-cell error.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// GridError aggregates every failed cell of one grid run. The partial
// grid (and, under KeepGoing, the partial report) travels back alongside
// it; this error records what is missing and why.
type GridError struct {
	// Cells lists the failed cells in dispatch order.
	Cells []*CellError
}

// Error implements error. The summary names up to four failed cells and
// counts the rest.
func (e *GridError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d grid cell(s) failed", len(e.Cells))
	for i, ce := range e.Cells {
		if i == 4 {
			fmt.Fprintf(&b, "; and %d more", len(e.Cells)-i)
			break
		}
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		b.WriteString(ce.Error())
	}
	return b.String()
}

// Unwrap exposes every cell error to errors.Is/As.
func (e *GridError) Unwrap() []error {
	out := make([]error, len(e.Cells))
	for i, ce := range e.Cells {
		out[i] = ce
	}
	return out
}
