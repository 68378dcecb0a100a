// Package cpu implements the instruction-level simulator that generates
// branch traces — the stand-in for the paper's Motorola 88100 simulator.
//
// The CPU executes an assembled Program from package asm. Control-transfer
// instructions and traps produce trace events carrying the number of
// instructions retired since the previous event, which is all the
// branch-prediction simulator needs. Step (one instruction), Run (many,
// events discarded) and Source.Next (up to the next event) all drive one
// execution core that runs until an event, HALT, a fault or an
// instruction limit. Reset restores only the memory pages written since
// the previous reset.
//
// Memory is an anonymous mapping where the platform has one (see
// region): the address space is the full memory size, but only the
// pages a program touches are resident.
//
// Semantics notes:
//   - r0 is hardwired to zero; writes to it are discarded.
//   - ANDI/ORI/XORI zero-extend their 16-bit immediate (so la/li can
//     compose addresses); arithmetic immediates sign-extend.
//   - DIV/REM by zero yield zero (a real machine would trap; the
//     benchmark programs never divide by zero).
//   - Stores into the text segment are an error: the trace generator
//     does not support self-modifying code, and the check catches
//     program-generator bugs early.
//   - On Reset the stack pointer is initialised to the top of memory.
package cpu

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"twolevel/internal/asm"
	"twolevel/internal/isa"
	"twolevel/internal/trace"
)

// constructions counts CPU instantiations process-wide. Interpreter
// execution is the most expensive stage of the experiment harness, so the
// trace-capture layer is judged by how few of these it allows; tests and
// the benchmark baseline read the counter through Constructions.
var constructions atomic.Uint64

// Constructions returns the number of CPUs constructed by this process.
func Constructions() uint64 { return constructions.Load() }

// DefaultMemSize is the default memory size (4 MiB).
const DefaultMemSize = 1 << 22

// RunCounterAddr is a reserved word below the default program base. The
// looping trace Source stores the restart count there, letting benchmark
// programs vary their behaviour across restarts (they fold the counter
// into their data-generation seeds).
const RunCounterAddr = 0x0FF0

// pageShift sizes the pages Reset tracks (4 KiB): every store marks its
// page dirty, and Reset restores only the marked pages.
const pageShift = 12

// undecodable marks an icache slot whose word does not decode. The
// decode error is raised when the program reaches the slot, not at New.
const undecodable = isa.Op(0xFF)

// CPU is one processor executing one program.
type CPU struct {
	prog *asm.Program
	// mem is region.mem. The region owns the memory, and on unix
	// unmaps it once the CPU is unreachable.
	mem     []byte
	region  *region
	regs    [isa.NumRegs]uint32
	pc      uint32
	halted  bool
	instret uint64

	textStart, textEnd uint32
	icache             []isa.Inst

	// dirty holds one bit per memory page written since the last Reset.
	dirty []uint64

	sinceEvent uint32

	// profile counts retired instructions per opcode when profiling is
	// enabled (nil otherwise: the common case pays nothing).
	profile []uint64
}

// EnableProfile turns on per-opcode retirement counting.
func (c *CPU) EnableProfile() {
	if c.profile == nil {
		c.profile = make([]uint64, isa.NumOps)
	}
}

// Profile returns the per-opcode retirement counts (nil when profiling
// was never enabled). Index with isa.Op values.
func (c *CPU) Profile() []uint64 { return c.profile }

// New creates a CPU with memSize bytes of memory (DefaultMemSize if 0)
// loaded with prog, ready to run.
func New(prog *asm.Program, memSize int) (*CPU, error) {
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	if memSize%4 != 0 || memSize < 4096 {
		return nil, fmt.Errorf("cpu: memory size %d must be a multiple of 4 and at least 4096", memSize)
	}
	end := int64(prog.Base) + int64(len(prog.Image))
	if end > int64(memSize) {
		return nil, fmt.Errorf("cpu: program [%#x,%#x) exceeds memory size %#x", prog.Base, end, memSize)
	}
	if prog.Base%4 != 0 || prog.TextEnd < prog.Base || int64(prog.TextEnd) > end || prog.TextEnd%4 != 0 {
		return nil, fmt.Errorf("cpu: text [%#x,%#x) is not a word-aligned part of the program [%#x,%#x)", prog.Base, prog.TextEnd, prog.Base, end)
	}
	region, err := newRegion(memSize)
	if err != nil {
		return nil, err
	}
	constructions.Add(1)
	pages := (memSize + 1<<pageShift - 1) >> pageShift
	c := &CPU{
		prog:      prog,
		mem:       region.mem,
		region:    region,
		textStart: prog.Base,
		textEnd:   prog.TextEnd,
		icache:    make([]isa.Inst, (prog.TextEnd-prog.Base)/4),
		dirty:     make([]uint64, (pages+63)/64),
	}
	copy(c.mem[prog.Base:], prog.Image)
	c.predecode(c.textStart, c.textEnd)
	c.restart()
	return c, nil
}

// Reset reloads the program image, clears registers and restarts at the
// entry point. Only the pages written since the last reset are restored;
// the rest still hold their load-time contents. The stack pointer is set
// to the top of memory.
func (c *CPU) Reset() {
	for w, set := range c.dirty {
		for set != 0 {
			c.restorePage(w<<6 + bits.TrailingZeros64(set))
			set &= set - 1
		}
		c.dirty[w] = 0
	}
	c.restart()
}

// restorePage returns one page to its load-time contents: zeroes,
// overlaid with the part of the program image that falls inside it.
func (c *CPU) restorePage(page int) {
	lo := page << pageShift
	hi := min(lo+1<<pageShift, len(c.mem))
	clear(c.mem[lo:hi])
	base := int(c.prog.Base)
	if from, to := max(lo, base), min(hi, base+len(c.prog.Image)); from < to {
		copy(c.mem[from:to], c.prog.Image[from-base:to-base])
	}
	c.predecode(uint32(lo), uint32(hi))
}

// predecode refreshes the icache slots of the text words in [lo,hi)
// (lo word-aligned) from memory. New decodes the whole text once;
// StoreWord and Reset refresh what they overwrite, so the cache always
// matches memory (programs themselves cannot store into text).
func (c *CPU) predecode(lo, hi uint32) {
	lo, hi = max(lo, c.textStart), min(hi, c.textEnd)
	for pc := lo; pc < hi; pc += 4 {
		in, err := isa.Decode(binary.LittleEndian.Uint32(c.mem[pc:]))
		if err != nil {
			in = isa.Inst{Op: undecodable}
		}
		c.icache[(pc-c.textStart)/4] = in
	}
}

// markDirty records a write to the page holding addr.
func (c *CPU) markDirty(addr uint32) {
	page := addr >> pageShift
	c.dirty[page>>6] |= 1 << (page & 63)
}

// restart clears the registers and execution state and points the CPU
// at the entry point.
func (c *CPU) restart() {
	c.regs = [isa.NumRegs]uint32{}
	c.regs[isa.RSP] = uint32(len(c.mem) - 16)
	c.pc = c.prog.Entry()
	c.halted = false
	c.sinceEvent = 0
}

// Halted reports whether the program has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Instret returns the number of instructions retired since New.
func (c *CPU) Instret() uint64 { return c.instret }

// Reg returns the value of register r.
func (c *CPU) Reg(r int) uint32 { return c.regs[r] }

// SetReg sets register r (writes to r0 are discarded, as in hardware).
func (c *CPU) SetReg(r int, v uint32) {
	if r != isa.R0 {
		c.regs[r] = v
	}
}

// StoreWord writes a word to memory, bypassing the text-segment check
// (used by the harness, e.g. for the run counter).
func (c *CPU) StoreWord(addr, v uint32) error {
	if addr%4 != 0 || int64(addr)+4 > int64(len(c.mem)) {
		return fmt.Errorf("cpu: StoreWord address %#x invalid", addr)
	}
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	c.markDirty(addr)
	c.predecode(addr, addr+4)
	return nil
}

// LoadWord reads a word from memory.
func (c *CPU) LoadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 || int64(addr)+4 > int64(len(c.mem)) {
		return 0, fmt.Errorf("cpu: LoadWord address %#x invalid", addr)
	}
	v := binary.LittleEndian.Uint32(c.mem[addr:])
	runtime.KeepAlive(c)
	return v, nil
}

// Fault constructors keep error formatting out of the execution loop.

func pcFault(pc, textStart, textEnd uint32) error {
	if pc < textStart || pc >= textEnd {
		return fmt.Errorf("cpu: pc %#x outside text [%#x,%#x)", pc, textStart, textEnd)
	}
	return fmt.Errorf("cpu: unaligned pc %#x", pc)
}

func memFault(what string, addr, pc uint32) error {
	return fmt.Errorf("cpu: %s at %#x (pc %#x)", what, addr, pc)
}

func textStoreFault(addr, pc uint32) error {
	return fmt.Errorf("cpu: store into text segment at %#x (self-modifying code is unsupported) (pc %#x)", addr, pc)
}

func f32(v uint32) float32    { return math.Float32frombits(v) }
func bits32(f float32) uint32 { return math.Float32bits(f) }

// Step executes one instruction. If the instruction generates a trace
// event (a branch or a trap) it is returned with emitted true. After HALT
// (or on a halted CPU) Step returns emitted false and no error.
func (c *CPU) Step() (ev trace.Event, emitted bool, err error) {
	ev, emitted, err = c.run(1)
	runtime.KeepAlive(c)
	return ev, emitted, err
}

// run is the execution core behind Step, Run and Source.Next. It
// executes instructions until one emits a trace event (returned with
// emitted true), HALT retires, an instruction faults, or limit
// instructions have retired (0 = no limit). pc and the count of
// instructions retired by this call live in locals; every exit writes
// them back through retire or emit.
//
// An instruction that faults during execution counts as retired (instret,
// sinceEvent and the profile include it) but leaves pc on it; a fetch
// fault retires nothing.
//
// run reaches memory through a local copy of c.mem, which does not keep
// the mapping alive: every caller holds c with runtime.KeepAlive until
// run returns.
func (c *CPU) run(limit uint64) (trace.Event, bool, error) {
	if c.halted {
		return trace.Event{}, false, nil
	}
	if limit == 0 {
		limit = math.MaxUint64
	}
	var (
		r         = &c.regs
		mem       = c.mem
		icache    = c.icache
		textStart = c.textStart
		pc        = c.pc
		n         uint64 // instructions retired by this call
	)
	for {
		off := pc - textStart
		idx := off >> 2
		if idx >= uint32(len(icache)) || off&3 != 0 {
			c.retire(pc, n)
			return trace.Event{}, false, pcFault(pc, textStart, c.textEnd)
		}
		in := &icache[idx]
		if in.Op == undecodable {
			c.retire(pc, n)
			_, err := isa.Decode(binary.LittleEndian.Uint32(mem[pc:]))
			return trace.Event{}, false, fmt.Errorf("cpu: at pc %#x: %v", pc, err)
		}
		n++
		if c.profile != nil {
			c.profile[in.Op]++
		}
		// Decoded register fields are below 32; the masks only spare the
		// bounds checks.
		rs1 := r[in.Rs1&31]
		rs2 := r[in.Rs2&31]
		rd := &r[in.Rd&31]

		switch in.Op {
		case isa.ADD:
			*rd = rs1 + rs2
		case isa.SUB:
			*rd = rs1 - rs2
		case isa.MUL:
			*rd = rs1 * rs2
		case isa.DIV:
			if rs2 == 0 {
				*rd = 0
			} else if int32(rs1) == math.MinInt32 && int32(rs2) == -1 {
				*rd = rs1 // overflow wraps
			} else {
				*rd = uint32(int32(rs1) / int32(rs2))
			}
		case isa.REM:
			if rs2 == 0 || int32(rs1) == math.MinInt32 && int32(rs2) == -1 {
				*rd = 0
			} else {
				*rd = uint32(int32(rs1) % int32(rs2))
			}
		case isa.AND:
			*rd = rs1 & rs2
		case isa.OR:
			*rd = rs1 | rs2
		case isa.XOR:
			*rd = rs1 ^ rs2
		case isa.SLL:
			*rd = rs1 << (rs2 & 31)
		case isa.SRL:
			*rd = rs1 >> (rs2 & 31)
		case isa.SRA:
			*rd = uint32(int32(rs1) >> (rs2 & 31))
		case isa.SLT:
			*rd = b2u(int32(rs1) < int32(rs2))
		case isa.SLTU:
			*rd = b2u(rs1 < rs2)
		case isa.FADD:
			*rd = bits32(f32(rs1) + f32(rs2))
		case isa.FSUB:
			*rd = bits32(f32(rs1) - f32(rs2))
		case isa.FMUL:
			*rd = bits32(f32(rs1) * f32(rs2))
		case isa.FDIV:
			*rd = bits32(f32(rs1) / f32(rs2))
		case isa.FCMP:
			a, b := f32(rs1), f32(rs2)
			switch {
			case a < b:
				*rd = 0xFFFFFFFF // -1
			case a > b:
				*rd = 1
			default:
				*rd = 0 // equal or unordered
			}
		case isa.CVTIF:
			*rd = bits32(float32(int32(rs1)))
		case isa.CVTFI:
			// Compare in float64: float32(MaxInt32) rounds UP to 2^31, so a
			// float32 comparison would let 2^31 through to an out-of-range
			// (implementation-defined) conversion.
			f := float64(f32(rs1))
			if f != f || f >= 1<<31 || f < -(1<<31) {
				*rd = 0
			} else {
				*rd = uint32(int32(f))
			}

		case isa.ADDI:
			*rd = rs1 + uint32(in.Imm)
		case isa.ANDI:
			*rd = rs1 & uint32(uint16(in.Imm))
		case isa.ORI:
			*rd = rs1 | uint32(uint16(in.Imm))
		case isa.XORI:
			*rd = rs1 ^ uint32(uint16(in.Imm))
		case isa.SLLI:
			*rd = rs1 << (uint32(in.Imm) & 31)
		case isa.SRLI:
			*rd = rs1 >> (uint32(in.Imm) & 31)
		case isa.SRAI:
			*rd = uint32(int32(rs1) >> (uint32(in.Imm) & 31))
		case isa.SLTI:
			*rd = b2u(int32(rs1) < in.Imm)
		case isa.LUI:
			*rd = uint32(uint16(in.Imm)) << 16
		case isa.LW:
			a := rs1 + uint32(in.Imm)
			if uint64(a)+4 > uint64(len(mem)) {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("load beyond memory", a, pc)
			}
			if a&3 != 0 {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("unaligned word load", a, pc)
			}
			*rd = binary.LittleEndian.Uint32(mem[a:])
		case isa.LB:
			a := rs1 + uint32(in.Imm)
			if uint64(a) >= uint64(len(mem)) {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("load beyond memory", a, pc)
			}
			*rd = uint32(mem[a])
		case isa.SW:
			a := rs1 + uint32(in.Imm)
			if uint64(a)+4 > uint64(len(mem)) {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("store beyond memory", a, pc)
			}
			if a+4 > textStart && a < c.textEnd {
				c.retire(pc, n)
				return trace.Event{}, false, textStoreFault(a, pc)
			}
			if a&3 != 0 {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("unaligned word store", a, pc)
			}
			binary.LittleEndian.PutUint32(mem[a:], *rd)
			c.markDirty(a)
		case isa.SB:
			a := rs1 + uint32(in.Imm)
			if uint64(a) >= uint64(len(mem)) {
				c.retire(pc, n)
				return trace.Event{}, false, memFault("store beyond memory", a, pc)
			}
			if a+1 > textStart && a < c.textEnd {
				c.retire(pc, n)
				return trace.Event{}, false, textStoreFault(a, pc)
			}
			mem[a] = byte(*rd)
			c.markDirty(a)

		case isa.BCND:
			target := pc + uint32(in.Imm)*4
			next := pc + 4
			taken := in.Cond.Holds(rs1)
			if taken {
				next = target
			}
			return c.emit(n, next, trace.Branch{PC: pc, Target: target, Class: trace.Cond, Taken: taken}), true, nil
		case isa.BR:
			target := pc + uint32(in.Imm)*4
			return c.emit(n, target, trace.Branch{PC: pc, Target: target, Class: trace.Uncond, Taken: true}), true, nil
		case isa.BSR:
			target := pc + uint32(in.Imm)*4
			r[isa.RLink] = pc + 4
			return c.emit(n, target, trace.Branch{PC: pc, Target: target, Class: trace.Call, Taken: true}), true, nil
		case isa.JMP:
			class := trace.Indirect
			if in.Rs1 == isa.RLink {
				class = trace.Return
			}
			return c.emit(n, rs1, trace.Branch{PC: pc, Target: rs1, Class: class, Taken: true}), true, nil
		case isa.JSR:
			r[isa.RLink] = pc + 4
			return c.emit(n, rs1, trace.Branch{PC: pc, Target: rs1, Class: trace.Call, Taken: true}), true, nil
		case isa.TRAP:
			ev := c.emit(n, pc+4, trace.Branch{})
			ev.Trap = true
			return ev, true, nil

		case isa.HALT:
			c.halted = true
			c.retire(pc, n)
			return trace.Event{}, false, nil
		default:
			c.retire(pc, n)
			return trace.Event{}, false, fmt.Errorf("cpu: unimplemented opcode %v at pc %#x", in.Op, pc)
		}
		r[isa.R0] = 0
		pc += 4
		if n == limit {
			c.retire(pc, n)
			return trace.Event{}, false, nil
		}
	}
}

// retire writes the execution core's state back after n instructions
// that emitted no event, leaving the CPU at pc.
func (c *CPU) retire(pc uint32, n uint64) {
	c.pc = pc
	c.instret += n
	c.sinceEvent += uint32(n)
}

// emit is retire for an exit on an event: the event carries the
// instructions retired since the previous one, and the CPU continues at
// next.
func (c *CPU) emit(n uint64, next uint32, br trace.Branch) trace.Event {
	ev := trace.Event{Instrs: c.sinceEvent + uint32(n), Branch: br}
	c.pc = next
	c.instret += n
	c.sinceEvent = 0
	return ev
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run executes until the program halts or maxInstrs instructions retire
// (0 = no limit), discarding events. It returns the number of
// instructions retired by this call.
func (c *CPU) Run(maxInstrs uint64) (uint64, error) {
	start := c.instret
	for !c.halted {
		var limit uint64
		if maxInstrs > 0 {
			done := c.instret - start
			if done >= maxInstrs {
				break
			}
			limit = maxInstrs - done
		}
		_, _, err := c.run(limit)
		runtime.KeepAlive(c)
		if err != nil {
			return c.instret - start, err
		}
	}
	return c.instret - start, nil
}

// Source adapts a CPU into a trace.Source. With Loop set, the program is
// restarted when it halts: memory and registers are reset and the restart
// count is stored at RunCounterAddr so programs can vary their data
// across runs. A program that halts without producing any event cannot
// loop meaningfully; Next reports an error in that case.
type Source struct {
	cpu           *CPU
	loop          bool
	runs          uint32
	events        uint64
	eventsAtReset uint64
}

// NewSource wraps cpu. loop selects restart-on-halt.
func NewSource(cpu *CPU, loop bool) *Source {
	return &Source{cpu: cpu, loop: loop}
}

// Runs returns the number of program restarts so far.
func (s *Source) Runs() uint32 { return s.runs }

// Next implements trace.Source.
func (s *Source) Next() (trace.Event, error) {
	for {
		if s.cpu.Halted() {
			if !s.loop {
				return trace.Event{}, io.EOF
			}
			if s.events == s.eventsAtReset {
				return trace.Event{}, fmt.Errorf("cpu: program produced no events in a full run; refusing to loop")
			}
			s.runs++
			s.cpu.Reset()
			if err := s.cpu.StoreWord(RunCounterAddr, s.runs); err != nil {
				return trace.Event{}, err
			}
			s.eventsAtReset = s.events
		}
		ev, emitted, err := s.cpu.run(0)
		runtime.KeepAlive(s.cpu)
		if err != nil {
			return trace.Event{}, err
		}
		if emitted {
			s.events++
			return ev, nil
		}
	}
}
