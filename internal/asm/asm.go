// Package asm implements a two-pass assembler for the ISA in package isa.
//
// Syntax, one statement per line:
//
//	; comment           # comment
//	label:              (may share a line with an instruction)
//	.org 0x1000         set the load/assembly origin (once, before code)
//	.word v, v, ...     emit literal words (numbers or label references)
//	.space n            reserve n zeroed bytes (n multiple of 4)
//
//	add  rd, rs1, rs2   (and all R-type arithmetic)
//	addi rd, rs1, imm   (and all I-type arithmetic)
//	lui  rd, imm
//	lw   rd, imm(rs1)   sw rd, imm(rs1)   lb/sb likewise
//	bcnd cond, rs1, target
//	br   target         bsr target
//	jmp  rs              jsr rs
//	trap imm            halt
//
// Pseudo-instructions: li rd, imm32 (addi or lui+ori), la rd, label
// (lui+ori), mv rd, rs (addi rd, rs, 0), rts (jmp ra), nop.
//
// Registers are r0..r31; zero, sp and ra alias r0, r30 and r31.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"twolevel/internal/isa"
)

// DefaultBase is the load address used when no .org directive appears.
const DefaultBase = 0x1000

// Program is an assembled memory image.
type Program struct {
	// Base is the load address of the first byte of Image.
	Base uint32
	// Image is the little-endian byte image (text and data).
	Image []byte
	// Labels maps label names to absolute addresses.
	Labels map[string]uint32
	// TextEnd is the address one past the last instruction emitted
	// before the first data directive; the CPU uses it to detect stores
	// into code.
	TextEnd uint32
}

// Entry returns the program's entry point (its base address).
func (p *Program) Entry() uint32 { return p.Base }

// Size returns the image size in bytes.
func (p *Program) Size() int { return len(p.Image) }

// stmtKind says what a statement emits.
type stmtKind uint8

const (
	stmtInst  stmtKind = iota // one instruction word
	stmtWord                  // a .word value list
	stmtSpace                 // a .space block of zero bytes
)

// fixup says how pass 2 patches an instruction from its target.
type fixup uint8

const (
	fixBranch fixup = iota // word displacement from the instruction to target
	fixHi                  // upper half of the target label's address (la)
	fixLo                  // lower half of the target label's address (la)
)

type statement struct {
	line int // 1-based source line
	kind stmtKind
	fix  fixup
	inst isa.Inst
	// arg is an instruction's target (a label, or a number for
	// branches; resolved in pass 2, ignored when empty) or the raw value
	// list of a .word.
	arg string
	// size is the number of bytes the statement emits.
	size uint32
}

type assembler struct {
	base    uint32
	baseSet bool
	pc      uint32
	stmts   []statement
	labels  map[string]uint32
	textEnd uint32
	sawData bool
}

// Assemble assembles source into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		labels: make(map[string]uint32, strings.Count(src, ":")),
		stmts:  make([]statement, 0, strings.Count(src, "\n")+1),
	}
	// Pass 1: parse, size, collect labels.
	for line, rest := 1, src; ; line++ {
		raw, next, more := strings.Cut(rest, "\n")
		if err := a.parseLine(line, raw); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v (%q)", line, err, strings.TrimSpace(raw))
		}
		if !more {
			break
		}
		rest = next
	}
	if !a.baseSet {
		a.base = DefaultBase
	}
	if !a.sawData {
		a.textEnd = a.base + a.pc
	}
	// Pass 2: resolve and encode.
	image := make([]byte, a.pc)
	off := uint32(0)
	for i := range a.stmts {
		st := &a.stmts[i]
		switch st.kind {
		case stmtInst:
			in := st.inst
			if st.arg != "" {
				switch st.fix {
				case fixHi:
					addr, err := a.resolve(st.arg)
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					in.Imm = int32(int16(addr >> 16))
				case fixLo:
					addr, err := a.resolve(st.arg)
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					in.Imm = int32(int16(addr))
				default:
					addr, err := a.resolveValue(st.arg)
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					here := a.base + off
					if (int64(addr)-int64(here))%4 != 0 {
						return nil, fmt.Errorf("asm: line %d: branch target %#x not word-aligned", st.line, addr)
					}
					in.Imm = int32((int64(addr) - int64(here)) / 4)
				}
			}
			w, err := isa.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
			}
			binary.LittleEndian.PutUint32(image[off:], w)
		case stmtWord:
			at := off
			for rest, more := st.arg, true; more; {
				var v string
				v, rest, more = strings.Cut(rest, ",")
				val, err := a.resolveValue(strings.TrimSpace(v))
				if err != nil {
					return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
				}
				binary.LittleEndian.PutUint32(image[at:], val)
				at += 4
			}
		}
		off += st.size
	}
	return &Program{Base: a.base, Image: image, Labels: a.labels, TextEnd: a.textEnd}, nil
}

// MustAssemble is Assemble that panics on error, for generated programs
// whose well-formedness is a code invariant.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) resolve(label string) (uint32, error) {
	if addr, ok := a.labels[label]; ok {
		return addr, nil
	}
	return 0, fmt.Errorf("undefined label %q", label)
}

func (a *assembler) resolveValue(v string) (uint32, error) {
	if n, ok := number(v); ok {
		return uint32(n), nil
	}
	return a.resolve(v)
}

func (a *assembler) parseLine(line int, raw string) error {
	s := raw
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			break
		}
		name := strings.TrimSpace(s[:colon])
		if !validLabel(name) {
			return fmt.Errorf("invalid label %q", name)
		}
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		if !a.baseSet {
			a.base = DefaultBase
			a.baseSet = true
		}
		a.labels[name] = a.base + a.pc
		s = strings.TrimSpace(s[colon+1:])
	}
	if s == "" {
		return nil
	}
	mnemonic, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(mnemonic, ".") {
		return a.directive(line, mnemonic, rest)
	}
	if !a.baseSet {
		a.base = DefaultBase
		a.baseSet = true
	}
	return a.instruction(line, mnemonic, rest)
}

func (a *assembler) directive(line int, name, rest string) error {
	switch name {
	case ".org":
		if a.baseSet {
			return fmt.Errorf(".org must appear once, before any code")
		}
		n, err := parseNum(rest)
		if err != nil {
			return fmt.Errorf(".org: %v", err)
		}
		if n%4 != 0 || n < 0 {
			return fmt.Errorf(".org address %d must be non-negative and word-aligned", n)
		}
		a.base = uint32(n)
		a.baseSet = true
		return nil
	case ".word":
		a.markData()
		if strings.TrimSpace(rest) == "" {
			return fmt.Errorf(".word needs at least one value")
		}
		size := uint32(4 * (strings.Count(rest, ",") + 1))
		a.stmts = append(a.stmts, statement{line: line, kind: stmtWord, arg: rest, size: size})
		a.pc += size
		return nil
	case ".space":
		a.markData()
		n, err := parseNum(rest)
		if err != nil {
			return fmt.Errorf(".space: %v", err)
		}
		if n <= 0 || n%4 != 0 {
			return fmt.Errorf(".space size %d must be a positive multiple of 4", n)
		}
		a.stmts = append(a.stmts, statement{line: line, kind: stmtSpace, size: uint32(n)})
		a.pc += uint32(n)
		return nil
	default:
		return fmt.Errorf("unknown directive %q", name)
	}
}

// markData records the start of the data segment at first data directive.
func (a *assembler) markData() {
	if !a.baseSet {
		a.base = DefaultBase
		a.baseSet = true
	}
	if !a.sawData {
		a.sawData = true
		a.textEnd = a.base + a.pc
	}
}

// emit appends one instruction; target, when not empty, is patched into
// it in pass 2 as a branch displacement.
func (a *assembler) emit(line int, in isa.Inst, target string) {
	a.emitFix(line, in, fixBranch, target)
}

// emitFix is emit with the fixup given.
func (a *assembler) emitFix(line int, in isa.Inst, fix fixup, target string) {
	a.stmts = append(a.stmts, statement{line: line, kind: stmtInst, fix: fix, inst: in, arg: target, size: 4})
	a.pc += 4
}

func (a *assembler) instruction(line int, mnemonic, rest string) error {
	ops := splitOperands(rest)
	// Pseudo-instructions first.
	switch mnemonic {
	case "nop":
		if ops.n != 0 {
			return fmt.Errorf("nop takes no operands")
		}
		a.emit(line, isa.Inst{Op: isa.ADDI}, "")
		return nil
	case "rts":
		if ops.n != 0 {
			return fmt.Errorf("rts takes no operands")
		}
		a.emit(line, isa.Inst{Op: isa.JMP, Rs1: isa.RLink}, "")
		return nil
	case "mv":
		if ops.n != 2 {
			return fmt.Errorf("mv wants 2 operands")
		}
		rd, err := parseReg(ops.v[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(ops.v[1])
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs}, "")
		return nil
	case "li":
		if ops.n != 2 {
			return fmt.Errorf("li wants 2 operands")
		}
		rd, err := parseReg(ops.v[0])
		if err != nil {
			return err
		}
		v64, err := parseNum(ops.v[1])
		if err != nil {
			return err
		}
		v := uint32(v64)
		if int64(int32(v)) != v64 && v64 != int64(v) {
			return fmt.Errorf("li value %d out of 32-bit range", v64)
		}
		if sv := int32(v); sv >= -(1<<15) && sv < 1<<15 {
			a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: sv}, "")
			return nil
		}
		a.emit(line, isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(int16(v >> 16))}, "")
		a.emit(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: int32(int16(v))}, "")
		return nil
	case "la":
		if ops.n != 2 {
			return fmt.Errorf("la wants 2 operands")
		}
		rd, err := parseReg(ops.v[0])
		if err != nil {
			return err
		}
		if !validLabel(ops.v[1]) {
			return fmt.Errorf("la wants a label, got %q", ops.v[1])
		}
		// Always two instructions so pass-1 sizing is deterministic;
		// pass 2 patches in the halves of the label's address.
		a.emitFix(line, isa.Inst{Op: isa.LUI, Rd: rd}, fixHi, ops.v[1])
		a.emitFix(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd}, fixLo, ops.v[1])
		return nil
	}

	op, err := isa.ParseOp(mnemonic)
	if err != nil {
		return err
	}
	in := isa.Inst{Op: op}
	switch op {
	case isa.JMP, isa.JSR:
		if ops.n != 1 {
			return fmt.Errorf("%s wants 1 operand", op)
		}
		in.Rs1, err = parseReg(ops.v[0])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.BR, isa.BSR:
		if ops.n != 1 {
			return fmt.Errorf("%s wants 1 operand", op)
		}
		a.emit(line, in, ops.v[0])
		return nil
	case isa.BCND:
		if ops.n != 3 {
			return fmt.Errorf("bcnd wants cond, reg, target")
		}
		in.Cond, err = isa.ParseCond(ops.v[0])
		if err != nil {
			return err
		}
		in.Rs1, err = parseReg(ops.v[1])
		if err != nil {
			return err
		}
		a.emit(line, in, ops.v[2])
		return nil
	case isa.LW, isa.SW, isa.LB, isa.SB:
		if ops.n != 2 {
			return fmt.Errorf("%s wants reg, imm(reg)", op)
		}
		in.Rd, err = parseReg(ops.v[0])
		if err != nil {
			return err
		}
		in.Imm, in.Rs1, err = parseMem(ops.v[1])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.LUI:
		if ops.n != 2 {
			return fmt.Errorf("lui wants reg, imm")
		}
		in.Rd, err = parseReg(ops.v[0])
		if err != nil {
			return err
		}
		in.Imm, err = parseImm(ops.v[1])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.TRAP:
		if ops.n != 1 {
			return fmt.Errorf("trap wants a code")
		}
		in.Imm, err = parseImm(ops.v[0])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.HALT:
		if ops.n != 0 {
			return fmt.Errorf("halt takes no operands")
		}
		a.emit(line, in, "")
		return nil
	}
	switch op.Format() {
	case isa.FormatR:
		if ops.n != 3 {
			return fmt.Errorf("%s wants rd, rs1, rs2", op)
		}
		if in.Rd, err = parseReg(ops.v[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(ops.v[1]); err != nil {
			return err
		}
		if in.Rs2, err = parseReg(ops.v[2]); err != nil {
			return err
		}
	case isa.FormatI:
		if ops.n != 3 {
			return fmt.Errorf("%s wants rd, rs1, imm", op)
		}
		if in.Rd, err = parseReg(ops.v[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(ops.v[1]); err != nil {
			return err
		}
		if in.Imm, err = parseImm(ops.v[2]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled format for %s", op)
	}
	a.emit(line, in, "")
	return nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Register names and mnemonics could collide; forbid rN forms.
	_, isReg := register(s)
	return !isReg
}

// operands is an instruction's comma-separated operand list, split
// without allocating. n counts every operand, including any beyond the
// three an instruction can take; v holds the first three, trimmed.
type operands struct {
	n int
	v [3]string
}

func splitOperands(s string) operands {
	var ops operands
	if strings.TrimSpace(s) == "" {
		return ops
	}
	for more := true; more; ops.n++ {
		var part string
		part, s, more = strings.Cut(s, ",")
		if ops.n < len(ops.v) {
			ops.v[ops.n] = strings.TrimSpace(part)
		}
	}
	return ops
}

func parseReg(s string) (uint8, error) {
	if r, ok := register(s); ok {
		return r, nil
	}
	return 0, fmt.Errorf("invalid register %q", s)
}

// register parses a register name: zero, sp, ra, or r followed by a
// decimal number below isa.NumRegs with an optional sign (the forms
// strconv.Atoi accepts).
func register(s string) (uint8, bool) {
	switch s {
	case "zero":
		return isa.R0, true
	case "sp":
		return isa.RSP, true
	case "ra":
		return isa.RLink, true
	}
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	d := s[1:]
	neg := d[0] == '-'
	if d[0] == '+' || neg {
		d = d[1:]
	}
	n, ok := digits(d, 10, isa.NumRegs-1)
	if !ok || neg && n != 0 {
		return 0, false
	}
	return uint8(n), true
}

// digits parses a non-empty string of digits in base (10 or 16) whose
// value is at most max.
func digits(s string, base, max uint64) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d uint64
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		if v = v*base + d; v > max {
			return 0, false
		}
	}
	return v, true
}

func parseNum(s string) (int64, error) {
	if n, ok := number(s); ok {
		return n, nil
	}
	s = strings.TrimSpace(s)
	return 0, fmt.Errorf("invalid number %q", strings.TrimPrefix(s, "-"))
}

// number parses an optionally negative decimal or 0x-prefixed
// hexadecimal number of at most 32 bits.
func number(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	base := uint64(10)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base, s = 16, s[2:]
	}
	v, ok := digits(s, base, math.MaxUint32)
	if !ok {
		return 0, false
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, true
}

func parseImm(s string) (int32, error) {
	n, err := parseNum(s)
	if err != nil {
		return 0, err
	}
	if n < -(1<<15) || n > 1<<15-1 {
		return 0, fmt.Errorf("immediate %d out of 16-bit range", n)
	}
	return int32(n), nil
}

// parseMem parses "imm(reg)".
func parseMem(s string) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("invalid memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	imm := int32(0)
	if immStr != "" {
		v, err := parseImm(immStr)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	reg, err := parseReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}
