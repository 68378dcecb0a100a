package faultinject

import (
	"errors"
	"io"
	"testing"
	"time"

	"twolevel/internal/trace"
)

// steady yields identical conditional branches forever.
type steady struct{ n uint64 }

func (s *steady) Next() (trace.Event, error) {
	s.n++
	return trace.Event{
		Instrs: 1,
		Branch: trace.Branch{PC: 0x40, Class: trace.Cond, Taken: true},
	}, nil
}

func drain(t *testing.T, src trace.Source, max int) (int, error) {
	t.Helper()
	for i := 0; i < max; i++ {
		if _, err := src.Next(); err != nil {
			return i, err
		}
	}
	return max, nil
}

func TestErrorAfter(t *testing.T) {
	boom := errors.New("boom")
	src := &ErrorAfter{Src: &steady{}, N: 10, Err: boom}
	n, err := drain(t, src, 100)
	if n != 10 || !errors.Is(err, boom) {
		t.Fatalf("got %d events, err %v; want 10 events then boom", n, err)
	}
	// The fault is sticky: later calls keep failing.
	if _, err := src.Next(); !errors.Is(err, boom) {
		t.Fatalf("second failure = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	src := &Truncate{Src: &steady{}, N: 7}
	n, err := drain(t, src, 100)
	if n != 7 || err != io.EOF {
		t.Fatalf("got %d events, err %v; want 7 then EOF", n, err)
	}
}

func TestFlakyIsRecoverable(t *testing.T) {
	hiccup := errors.New("hiccup")
	src := &Flaky{Src: &steady{}, Period: 3, Err: hiccup}
	var ok, failed int
	for i := 0; i < 9; i++ {
		if _, err := src.Next(); err != nil {
			if !errors.Is(err, hiccup) {
				t.Fatal(err)
			}
			failed++
		} else {
			ok++
		}
	}
	if ok != 6 || failed != 3 {
		t.Fatalf("ok=%d failed=%d, want 6/3", ok, failed)
	}
}

func TestSlowDelays(t *testing.T) {
	src := &Slow{Src: &steady{}, Delay: 5 * time.Millisecond, Every: 2}
	start := time.Now()
	if _, err := drain(t, src, 4); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("4 events with 2 stalls took %v, want >= 10ms", d)
	}
}

func TestPanicSource(t *testing.T) {
	src := &PanicSource{Src: &steady{}, N: 3, Msg: "injected"}
	if n, err := drain(t, src, 3); n != 3 || err != nil {
		t.Fatalf("pre-panic drain: %d, %v", n, err)
	}
	defer func() {
		if v := recover(); v != "injected" {
			t.Fatalf("recovered %v, want injected", v)
		}
	}()
	src.Next()
	t.Fatal("no panic")
}

func TestFlakyOpener(t *testing.T) {
	unavailable := errors.New("unavailable")
	opens := 0
	open := FlakyOpener(func() (trace.Source, error) {
		opens++
		return &steady{}, nil
	}, 2, unavailable)
	for i := 0; i < 2; i++ {
		if _, err := open(); !errors.Is(err, unavailable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if src, err := open(); err != nil || src == nil {
		t.Fatalf("third open: %v", err)
	}
	if opens != 1 {
		t.Fatalf("inner opener called %d times, want 1", opens)
	}
}
