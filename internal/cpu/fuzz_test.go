package cpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"twolevel/internal/asm"
	"twolevel/internal/isa"
	"twolevel/internal/trace"
)

// fuzzMemSize is the memory of fuzzed CPUs: 16 pages, small enough to
// compare whole after every run.
const fuzzMemSize = 1 << 16

// fuzzProgram builds a program from fuzzer bytes: code becomes the text
// segment, one little-endian word per four bytes, and data follows it.
// Each word's opcode field is folded into [0, NumOps], so most words
// decode and one opcode value in NumOps+1 stays invalid.
func fuzzProgram(code, data []byte) *asm.Program {
	code = code[:len(code)&^3]
	img := make([]byte, 0, len(code)+len(data))
	for i := 0; i < len(code); i += 4 {
		w := binary.LittleEndian.Uint32(code[i:])
		op := (w >> 26) % uint32(isa.NumOps+1)
		img = binary.LittleEndian.AppendUint32(img, op<<26|w&(1<<26-1))
	}
	img = append(img, data...)
	img = img[:len(img)&^3]
	return &asm.Program{Base: asm.DefaultBase, Image: img, TextEnd: asm.DefaultBase + uint32(len(code))}
}

// errEventless stands in for the looping source's refusal to restart a
// program that produced no events.
var errEventless = errors.New("eventless run")

// stepEvents is the oracle for Source.Next: a plain Step loop that
// restarts the program as a looping Source does, until it has n events
// or an error.
func stepEvents(c *CPU, n int) ([]trace.Event, error) {
	var (
		evs     []trace.Event
		runs    uint32
		thisRun int
	)
	for len(evs) < n {
		if c.Halted() {
			if thisRun == 0 {
				return evs, errEventless
			}
			runs++
			c.Reset()
			if err := c.StoreWord(RunCounterAddr, runs); err != nil {
				return evs, err
			}
			thisRun = 0
		}
		ev, emitted, err := c.Step()
		if err != nil {
			return evs, err
		}
		if emitted {
			evs = append(evs, ev)
			thisRun++
		}
	}
	return evs, nil
}

// sourceEvents pulls up to n events from a looping Source over c.
func sourceEvents(c *CPU, n int) ([]trace.Event, error) {
	src := NewSource(c, true)
	var evs []trace.Event
	for len(evs) < n {
		ev, err := src.Next()
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// FuzzCPU runs fuzzer-chosen instruction words and data under a bounded
// event budget (every control transfer emits an event, so the budget
// bounds the instructions too). Nothing may panic; a Step loop and
// Source.Next must agree; and Reset must restore memory byte for byte.
func FuzzCPU(f *testing.F) {
	seeds := []string{
		// Stores across pages, a loop, a call and a trap.
		`li r1, 0x0FF0
		lw r2, 0(r1)
		addi r2, r2, 3
		sw r2, -4(sp)
		sb r2, -5(sp)
		li r3, 0x8000
		sw r2, 0(r3)
	loop:
		addi r2, r2, -1
		sw r2, 4(r3)
		bcnd gt0, r2, loop
		bsr fn
		trap 1
		halt
	fn:
		rts`,
		// A load past memory and a store into text.
		"li r1, 0x7FFFFFF0\nlw r2, 0(r1)\nhalt\n",
		"la r1, here\nhere: sw r1, 0(r1)\nhalt\n",
		// An eventless run.
		"nop\nhalt\n",
	}
	for _, src := range seeds {
		p := asm.MustAssemble(src)
		f.Add(p.Image[:p.TextEnd-p.Base], p.Image[p.TextEnd-p.Base:])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, code, data []byte) {
		if len(code) > 256 || len(data) > 1024 {
			return
		}
		prog := fuzzProgram(code, data)
		const budget = 256
		a, err := New(prog, fuzzMemSize)
		if err != nil {
			t.Fatal(err)
		}
		a.EnableProfile()
		b, err := New(prog, fuzzMemSize)
		if err != nil {
			t.Fatal(err)
		}
		stepEvs, stepErr := stepEvents(a, budget)
		srcEvs, srcErr := sourceEvents(b, budget)

		switch {
		case errors.Is(stepErr, errEventless):
			if srcErr == nil || !strings.Contains(srcErr.Error(), "refusing to loop") {
				t.Fatalf("Step loop ran an eventless program; Source.Next returned %v", srcErr)
			}
		case (stepErr == nil) != (srcErr == nil) || stepErr != nil && stepErr.Error() != srcErr.Error():
			t.Fatalf("errors differ: Step loop %v, Source.Next %v", stepErr, srcErr)
		}
		if len(stepEvs) != len(srcEvs) {
			t.Fatalf("%d events from the Step loop, %d from Source.Next", len(stepEvs), len(srcEvs))
		}
		for i := range stepEvs {
			if stepEvs[i] != srcEvs[i] {
				t.Fatalf("event %d: Step loop %+v, Source.Next %+v", i, stepEvs[i], srcEvs[i])
			}
		}
		if a.Instret() != b.Instret() || a.PC() != b.PC() || a.regs != b.regs {
			t.Fatalf("state differs: Step loop instret %d pc %#x regs %v; Source.Next instret %d pc %#x regs %v",
				a.Instret(), a.PC(), a.regs, b.Instret(), b.PC(), b.regs)
		}
		var retired uint64
		for _, n := range a.Profile() {
			retired += n
		}
		if retired != a.Instret() {
			t.Fatalf("profile counts %d instructions, instret %d", retired, a.Instret())
		}

		fresh, err := New(prog, fuzzMemSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*CPU{a, b} {
			c.Reset()
			if !bytes.Equal(c.mem, fresh.mem) {
				t.Fatal("memory after Reset differs from a fresh CPU's")
			}
			if c.regs != fresh.regs || c.PC() != fresh.PC() || c.Halted() {
				t.Fatal("registers or pc after Reset differ from a fresh CPU's")
			}
		}
	})
}

func TestMisalignedTextRejected(t *testing.T) {
	img := make([]byte, 16)
	for _, p := range []*asm.Program{
		{Base: 0x1002, Image: img, TextEnd: 0x1006}, // unaligned base
		{Base: 0x1000, Image: img, TextEnd: 0x1006}, // unaligned text end
		{Base: 0x1000, Image: img, TextEnd: 0x1014}, // text past the image
		{Base: 0x1000, Image: img, TextEnd: 0x0FFC}, // text end below base
	} {
		if _, err := New(p, fuzzMemSize); err == nil {
			t.Errorf("program base %#x text end %#x accepted", p.Base, p.TextEnd)
		}
	}
}

func TestResetRestoresWrittenPages(t *testing.T) {
	// Each store form writes a page of its own, so Reset must track every
	// one of them. Memory ends in a partial page holding the stack top.
	const memSize = 6<<pageShift + 32
	prog := asm.MustAssemble(`
		li r1, 0x0FF0        ; the run counter word, page 0
		li r2, 0x5A5AA5A5
		sw r2, 0(r1)
		sb r2, 3(r1)
		la r3, data          ; the program's own data, page 1
		sw r2, 0(r3)
		sb r2, 5(r3)
		li r4, 0x2FFC        ; SW alone: the last word of page 2
		sw r2, 0(r4)
		li r4, 0x3001        ; SB alone: page 3
		sb r2, 0(r4)
		sw r2, -4(sp)        ; the last word below the stack top
		sb r2, -5(sp)
		sw r2, 12(sp)        ; the last word of memory
		halt
	data:
		.word 7, 8
	`)
	c, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	// StoreWord alone: the run counter and page 4.
	for _, addr := range []uint32{RunCounterAddr, 0x4800} {
		if err := c.StoreWord(addr, 9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	for i := range c.mem {
		if c.mem[i] != fresh.mem[i] {
			t.Fatalf("after Reset byte %#x = %#x, fresh CPU has %#x", i, c.mem[i], fresh.mem[i])
		}
	}
	if w, _ := c.LoadWord(prog.Labels["data"]); w != 7 {
		t.Fatalf("data word after Reset = %d, want the image's 7", w)
	}
	if c.dirty[0] != 0 {
		t.Fatalf("dirty bitmap %#x not cleared by Reset", c.dirty[0])
	}
}
