// Package isa defines the instruction set of the trace-generation CPU: a
// small 32-bit RISC in the spirit of the Motorola 88100 the paper used
// for its instruction-level simulation.
//
// The ISA is deliberately minimal but complete enough to express real
// programs: integer and float32 arithmetic, loads/stores, BCND-style
// conditional branches testing one register against zero (eq0, ne0, gt0,
// lt0, ge0, le0 — the 88100's condition forms), direct and indirect
// jumps, subroutine call/return, and traps.
//
// Encoding: 32-bit fixed width, opcode in bits [31:26].
//
//	R-type: op rd rs1 rs2          (register arithmetic, JMP/JSR)
//	I-type: op rd rs1 imm16        (immediates, loads/stores, LUI, TRAP)
//	B-type: op cond rs1 disp16     (BCND; displacement in words from pc)
//	J-type: op disp26              (BR/BSR; displacement in words from pc)
package isa

import "fmt"

// Register conventions. R0 is hardwired to zero; RLink receives return
// addresses from BSR/JSR; RSP is the stack pointer by software convention.
const (
	R0    = 0
	RSP   = 30
	RLink = 31
	// NumRegs is the register file size.
	NumRegs = 32
)

// Op is an opcode.
type Op uint8

// Opcodes.
const (
	// R-type integer.
	ADD Op = iota
	SUB
	MUL
	DIV // signed; division by zero yields 0, like a trap handler would
	REM
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT  // rd = (rs1 < rs2) signed
	SLTU // rd = (rs1 < rs2) unsigned
	// R-type float32 (registers hold the bit pattern).
	FADD
	FSUB
	FMUL
	FDIV
	FCMP  // rd = -1/0/+1 comparing rs1,rs2 as float32
	CVTIF // rd = float32(int32(rs1))
	CVTFI // rd = int32(float32(rs1))
	// R-type control.
	JMP // pc = rs1 (indirect jump; jmp RLink is a return)
	JSR // RLink = pc+4; pc = rs1 (indirect call)
	// I-type.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LUI // rd = imm16 << 16
	LW  // rd = mem32[rs1+imm]
	SW  // mem32[rs1+imm] = rd
	LB  // rd = zero-extended mem8[rs1+imm]
	SB  // mem8[rs1+imm] = low byte of rd
	// B-type.
	BCND
	// J-type.
	BR  // pc += 4*disp
	BSR // RLink = pc+4; pc += 4*disp
	// Misc (I-type shaped).
	TRAP // operating-system trap; imm is the trap code
	HALT

	numOps
)

// Cond is a BCND condition testing one register against zero.
type Cond uint8

// BCND conditions (the 88100 set).
const (
	EQ0 Cond = iota
	NE0
	GT0
	LT0
	GE0
	LE0

	numConds
)

var condNames = [numConds]string{"eq0", "ne0", "gt0", "lt0", "ge0", "le0"}

// String returns the assembler mnemonic of the condition.
func (c Cond) String() string {
	if c < numConds {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// ParseCond parses a condition mnemonic.
func ParseCond(s string) (Cond, error) {
	for i, n := range condNames {
		if n == s {
			return Cond(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown condition %q", s)
}

// Holds reports whether the condition holds for register value v.
func (c Cond) Holds(v uint32) bool {
	s := int32(v)
	switch c {
	case EQ0:
		return s == 0
	case NE0:
		return s != 0
	case GT0:
		return s > 0
	case LT0:
		return s < 0
	case GE0:
		return s >= 0
	case LE0:
		return s <= 0
	default:
		return false
	}
}

// Format describes an opcode's encoding format.
type Format uint8

// Encoding formats.
const (
	FormatR Format = iota
	FormatI
	FormatB
	FormatJ
)

type opInfo struct {
	name   string
	format Format
}

var opTable = [numOps]opInfo{
	ADD: {"add", FormatR}, SUB: {"sub", FormatR}, MUL: {"mul", FormatR},
	DIV: {"div", FormatR}, REM: {"rem", FormatR}, AND: {"and", FormatR},
	OR: {"or", FormatR}, XOR: {"xor", FormatR}, SLL: {"sll", FormatR},
	SRL: {"srl", FormatR}, SRA: {"sra", FormatR}, SLT: {"slt", FormatR},
	SLTU: {"sltu", FormatR},
	FADD: {"fadd", FormatR}, FSUB: {"fsub", FormatR}, FMUL: {"fmul", FormatR},
	FDIV: {"fdiv", FormatR}, FCMP: {"fcmp", FormatR},
	CVTIF: {"cvtif", FormatR}, CVTFI: {"cvtfi", FormatR},
	JMP: {"jmp", FormatR}, JSR: {"jsr", FormatR},
	ADDI: {"addi", FormatI}, ANDI: {"andi", FormatI}, ORI: {"ori", FormatI},
	XORI: {"xori", FormatI}, SLLI: {"slli", FormatI}, SRLI: {"srli", FormatI},
	SRAI: {"srai", FormatI}, SLTI: {"slti", FormatI}, LUI: {"lui", FormatI},
	LW: {"lw", FormatI}, SW: {"sw", FormatI}, LB: {"lb", FormatI}, SB: {"sb", FormatI},
	BCND: {"bcnd", FormatB},
	BR:   {"br", FormatJ}, BSR: {"bsr", FormatJ},
	TRAP: {"trap", FormatI}, HALT: {"halt", FormatI},
}

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// String returns the assembler mnemonic.
func (o Op) String() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Format returns the opcode's encoding format.
func (o Op) Format() Format {
	if !o.Valid() {
		return FormatI
	}
	return opTable[o].format
}

// opByName indexes opTable by mnemonic for ParseOp.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for o := Op(0); o < numOps; o++ {
		m[opTable[o].name] = o
	}
	return m
}()

// ParseOp parses an opcode mnemonic.
func ParseOp(s string) (Op, error) {
	if o, ok := opByName[s]; ok {
		return o, nil
	}
	return 0, fmt.Errorf("isa: unknown mnemonic %q", s)
}

// IsBranch reports whether the opcode transfers control.
func (o Op) IsBranch() bool {
	switch o {
	case BCND, BR, BSR, JMP, JSR:
		return true
	}
	return false
}

// Inst is a decoded instruction.
type Inst struct {
	Op   Op
	Rd   uint8 // destination (R/I); source register for SW/SB
	Rs1  uint8
	Rs2  uint8
	Cond Cond  // BCND only
	Imm  int32 // sign-extended imm16 (I/B) or disp26 (J), in words for branches
}

const (
	immMin, immMax   = -(1 << 15), 1<<15 - 1
	dispMin, dispMax = -(1 << 25), 1<<25 - 1
)

// Encode packs the instruction into its 32-bit word.
func Encode(in Inst) (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %v", in)
	}
	w := uint32(in.Op) << 26
	switch in.Op.Format() {
	case FormatR:
		w |= uint32(in.Rd)<<21 | uint32(in.Rs1)<<16 | uint32(in.Rs2)<<11
	case FormatI:
		if in.Imm < immMin || in.Imm > immMax {
			return 0, fmt.Errorf("isa: immediate %d out of 16-bit range", in.Imm)
		}
		w |= uint32(in.Rd)<<21 | uint32(in.Rs1)<<16 | uint32(uint16(in.Imm))
	case FormatB:
		if in.Cond >= numConds {
			return 0, fmt.Errorf("isa: invalid condition %d", in.Cond)
		}
		if in.Imm < immMin || in.Imm > immMax {
			return 0, fmt.Errorf("isa: branch displacement %d out of range", in.Imm)
		}
		w |= uint32(in.Cond)<<21 | uint32(in.Rs1)<<16 | uint32(uint16(in.Imm))
	case FormatJ:
		if in.Imm < dispMin || in.Imm > dispMax {
			return 0, fmt.Errorf("isa: jump displacement %d out of range", in.Imm)
		}
		w |= uint32(in.Imm) & (1<<26 - 1)
	}
	return w, nil
}

// Decode unpacks a 32-bit instruction word.
func Decode(w uint32) (Inst, error) {
	op := Op(w >> 26)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d in word %#08x", op, w)
	}
	in := Inst{Op: op}
	switch op.Format() {
	case FormatR:
		in.Rd = uint8(w >> 21 & 31)
		in.Rs1 = uint8(w >> 16 & 31)
		in.Rs2 = uint8(w >> 11 & 31)
	case FormatI:
		in.Rd = uint8(w >> 21 & 31)
		in.Rs1 = uint8(w >> 16 & 31)
		in.Imm = int32(int16(w))
	case FormatB:
		in.Cond = Cond(w >> 21 & 31)
		if in.Cond >= numConds {
			return Inst{}, fmt.Errorf("isa: invalid condition %d in word %#08x", in.Cond, w)
		}
		in.Rs1 = uint8(w >> 16 & 31)
		in.Imm = int32(int16(w))
	case FormatJ:
		in.Imm = int32(w<<6) >> 6
	}
	return in, nil
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op.Format() {
	case FormatR:
		switch in.Op {
		case JMP:
			return fmt.Sprintf("jmp r%d", in.Rs1)
		case JSR:
			return fmt.Sprintf("jsr r%d", in.Rs1)
		}
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case FormatI:
		switch in.Op {
		case LW, LB:
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
		case SW, SB:
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
		case LUI:
			return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
		case TRAP:
			return fmt.Sprintf("trap %d", in.Imm)
		case HALT:
			return "halt"
		}
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case FormatB:
		return fmt.Sprintf("bcnd %s, r%d, %d", in.Cond, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
}
