package cpu

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"twolevel/internal/asm"
	"twolevel/internal/isa"
	"twolevel/internal/trace"
)

// pageWalker stores to and reloads one word on each of 200 pages from
// 1 MiB up, one conditional branch per page, then halts; as a looping
// Source every restart has 200 dirty pages for Reset to restore.
const pageWalker = `
	li r1, 0x0FF0
	lw r5, 0(r1)         ; run counter
	li r2, 200
	li r3, 0x100000
loop:
	add r4, r2, r5
	sw r4, 0(r3)
	lw r6, 0(r3)
	add r7, r7, r6
	addi r3, r3, 4096
	addi r2, r2, -1
	bcnd ne0, r2, loop
	halt
`

func TestResetZeroesTouchedPages(t *testing.T) {
	prog := asm.MustAssemble(pageWalker)
	c, err := New(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	top, middle := uint32(DefaultMemSize-4), uint32(DefaultMemSize/2)
	for _, addr := range []uint32{top, c.Reg(isa.RSP) - 4, middle} {
		if err := c.StoreWord(addr, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	for _, addr := range []uint32{top, middle} {
		if v, err := c.LoadWord(addr); err != nil || v != 0 {
			t.Errorf("word %#x after Reset = %#x (%v), want 0", addr, v, err)
		}
	}
	fresh, err := New(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, DefaultMemSize)
	copy(want[prog.Base:], prog.Image)
	if !bytes.Equal(c.mem, want) {
		t.Error("memory after Reset is not the zeroed, loaded image")
	}
	if !bytes.Equal(fresh.mem, want) {
		t.Error("a fresh CPU's memory is not the zeroed, loaded image")
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(fresh)
}

// TestCaptureSurvivesConcurrentGC captures from short-lived CPUs while
// another goroutine forces collections back to back. A CPU whose memory
// owner became unreachable while run, Reset, StoreWord or LoadWord still
// used the memory would fault or diverge from the reference capture.
func TestCaptureSurvivesConcurrentGC(t *testing.T) {
	prog := asm.MustAssemble(pageWalker)
	capture := func() (*trace.Trace, uint32) {
		c, err := New(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Collect(NewSource(c, true), 5000)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.LoadWord(0x100000) // the CPU's last use
		if err != nil {
			t.Fatal(err)
		}
		return tr, v
	}
	ref, refWord := capture()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 20; i++ {
		tr, v := capture()
		if v != refWord {
			t.Fatalf("round %d: final word %#x, want %#x", i, v, refWord)
		}
		if tr.Len() != ref.Len() {
			t.Fatalf("round %d: %d events, want %d", i, tr.Len(), ref.Len())
		}
		for j := range tr.Events {
			if tr.Events[j] != ref.Events[j] {
				t.Fatalf("round %d: event %d = %+v, want %+v", i, j, tr.Events[j], ref.Events[j])
			}
		}
	}
}
