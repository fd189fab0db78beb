// Package isa defines the instruction set of the fastflip architectural
// simulator: a 64-bit, register-based ISA with sixteen integer and sixteen
// floating-point architectural registers and word-addressed memory.
//
// The ISA plays the role that x86-64 plays for gem5-Approxilyzer in the
// FastFlip paper: it is the level of abstraction at which single-event-upset
// bitflips are injected. Every instruction names at most one destination
// register and two source registers; the per-opcode table row (Info, Sem)
// reports which operands exist and in which register file they live, which
// is what the error-site enumerator uses to find injectable bits, and
// states what the opcode computes, which is what both simulators execute.
package isa

import (
	"fmt"
	"math"
)

// NumRegs is the number of registers in each register file (integer and
// float). Register operands are always in [0, NumRegs).
const NumRegs = 16

// Op is an opcode of the simulated ISA.
type Op uint8

// Opcodes. The set is deliberately RISC-like: three-operand ALU ops,
// immediate forms, explicit loads/stores, compare-and-branch, and direct
// calls. FEXP/FLN/FSQRT stand in for libm calls made by the original
// benchmarks (see DESIGN.md).
const (
	NOP Op = iota
	HALT

	// Integer ALU, register forms: Rd <- Ra op Rb.
	ADD
	SUB
	MUL
	DIV // signed; Rb == 0 crashes (division error)
	REM // signed; Rb == 0 crashes (division error)
	AND
	OR
	XOR
	SHL // shift amount masked to 6 bits
	SHR // logical
	SRA // arithmetic
	SLT // Rd <- (int64(Ra) < int64(Rb)) ? 1 : 0
	SLTU

	// Integer ALU, immediate forms: Rd <- Ra op Imm.
	ADDI
	MULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI
	SRAI

	// Register moves and unary ops.
	MOV // Rd <- Ra
	NOT // Rd <- ^Ra
	NEG // Rd <- -Ra
	LI  // Rd <- Imm

	// 32-bit arithmetic for hash/codec kernels. Results are masked to the
	// low 32 bits; sources are assumed to carry 32-bit values.
	ADD32  // Rd <- (Ra + Rb) & 0xffffffff
	ROTR32 // Rd <- rotate-right-32(Ra, Imm)
	NOT32  // Rd <- ^Ra & 0xffffffff

	// Floating point, register forms: Fd <- Fa op Fb.
	FADD
	FSUB
	FMUL
	FDIV
	FMIN
	FMAX

	// Floating point, unary: Fd <- op Fa.
	FSQRT
	FNEG
	FABS
	FEXP // e**Fa; stands in for a libm call
	FLN  // natural log; stands in for a libm call
	FMOV

	FLI // Fd <- float64frombits(Imm)

	// Conversions and raw bit moves between register files.
	ITOF  // Fd <- float64(int64(Ra))
	FTOI  // Rd <- int64(trunc(Fa)); NaN/overflow yields minInt64 like x86
	FBITS // Rd <- bits(Fa)
	BITSF // Fd <- frombits(Ra)

	// Memory. Addresses are word indices: addr = Ra (base) + Imm.
	LD  // Rd <- Mem[Ra+Imm]
	ST  // Mem[Rb+Imm] <- Ra (Ra is the value, Rb the base)
	FLD // Fd <- frombits(Mem[Ra+Imm])
	FST // Mem[Rb+Imm] <- bits(Fa)

	// Control flow. In an unlinked function, Imm is a function-local
	// instruction index for branches/jumps and a callee index for CALL;
	// the linker rewrites both to absolute PCs.
	JMP
	BEQ // branch if int64(Ra) == int64(Rb)
	BNE
	BLT // signed
	BLE
	BGT
	BGE
	FBEQ // branch if Fa == Fb (quiet on NaN: comparison is simply false)
	FBNE
	FBLT
	FBLE
	CALL
	RET

	// Analysis markers. These are metadata for the resiliency analysis and
	// carry no architectural state; they are never error sites.
	SECBEG // Imm = static section ID
	SECEND // Imm = static section ID
	ROIBEG // start of the region of interest
	ROIEND // end of the region of interest

	// Hardening support (internal/harden). TRAP is the detector's mismatch
	// sink: it halts the machine with a distinguishable crash kind so a
	// fired detector is classified as Detected rather than SDC. The
	// absolute-address memory ops move register bits to/from the reserved
	// scratch slots the hardener appends beyond the program's declared
	// memory, where no base register can be assumed intact.
	TRAP
	LDA  // Rd <- Mem[Imm]
	STA  // Mem[Imm] <- Ra
	FLDA // Fd <- frombits(Mem[Imm])
	FSTA // Mem[Imm] <- bits(Fa)

	numOps // sentinel; keep last
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// RegClass says which register file an operand lives in.
type RegClass uint8

const (
	RegNone RegClass = iota // operand absent
	RegInt
	RegFloat
)

// ImmKind says how an instruction's immediate is interpreted.
type ImmKind uint8

const (
	ImmNone   ImmKind = iota
	ImmInt            // plain integer immediate
	ImmFloat          // float64 bits
	ImmTarget         // branch/jump target (local index, then absolute PC)
	ImmCallee         // callee (function index, then absolute entry PC)
	ImmSec            // static section ID
	ImmOffset         // memory word offset
)

// OpInfo is an opcode's row in the ISA table: its operand shape, used by
// the printer, the assembler and the error-site enumerator (which derives
// injectable register operands from Dst/SrcA/SrcB), and its semantics,
// which both interpreters in internal/vm execute and internal/maskelide
// reasons about. Every defined opcode has exactly one of Kernel, Cond, or
// Mem; the rest — NOP, HALT, TRAP, JMP, CALL, RET and the analysis
// markers — are control ops the interpreters implement themselves.
type OpInfo struct {
	Name string
	Dst  RegClass // class of the Rd field, RegNone if unused
	SrcA RegClass // class of the Ra field
	SrcB RegClass // class of the Rb field
	Imm  ImmKind

	// Kernel computes Rd from the raw bits of Ra and Rb and the
	// immediate; a source the op does not have is passed a value the
	// kernel ignores. Float operands and results are float64 bit
	// patterns.
	Kernel func(a, b uint64, imm int64) uint64
	// DivZero marks a kernel that must not run when Rb is zero: the
	// instruction crashes with a division error instead.
	DivZero bool
	// Cond is a conditional branch's decision on the raw bits of Ra and
	// Rb: true transfers control to Imm, false falls through.
	Cond func(a, b uint64) bool
	// Mem marks a memory op. The address comes from the operand shape: a
	// load (Dst set) reads Mem[Ra+Imm] into Rd, a store writes Ra to
	// Mem[Rb+Imm]; an op without the base operand (SrcA for a load, SrcB
	// for a store) addresses Mem[Imm] absolutely.
	Mem bool
}

// IsBranch reports whether op is a conditional branch: two successors,
// Imm and the next instruction.
func (op Op) IsBranch() bool { return infos[op].Cond != nil }

// Sem returns op's table row by reference, for hot paths such as the
// interpreters' dispatch. Unlike Info it does not panic: an undefined
// opcode yields the zero row (no Name, no semantics).
func Sem(op Op) *OpInfo { return &infos[op] }

func fl(x uint64) float64   { return math.Float64frombits(x) }
func bits(v float64) uint64 { return math.Float64bits(v) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ftoi converts like x86 CVTTSD2SI: truncate toward zero; NaN and values
// outside the int64 range produce the "integer indefinite" value minInt64.
func ftoi(v float64) uint64 {
	if math.IsNaN(v) || v >= math.MaxInt64 || v < math.MinInt64 {
		return 1 << 63
	}
	return uint64(int64(v))
}

// infos spans every uint8 so an interpreter can index it with any
// fetched opcode; undefined opcodes have the zero row.
var infos = [256]OpInfo{
	NOP:  {Name: "nop"},
	HALT: {Name: "halt"},

	ADD: {Name: "add", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a + b }},
	SUB: {Name: "sub", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a - b }},
	MUL: {Name: "mul", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a * b }},
	DIV: {Name: "div", Dst: RegInt, SrcA: RegInt, SrcB: RegInt, DivZero: true,
		Kernel: func(a, b uint64, _ int64) uint64 { return uint64(int64(a) / int64(b)) }},
	REM: {Name: "rem", Dst: RegInt, SrcA: RegInt, SrcB: RegInt, DivZero: true,
		Kernel: func(a, b uint64, _ int64) uint64 { return uint64(int64(a) % int64(b)) }},
	AND: {Name: "and", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a & b }},
	OR: {Name: "or", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a | b }},
	XOR: {Name: "xor", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a ^ b }},
	SHL: {Name: "shl", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a << (b & 63) }},
	SHR: {Name: "shr", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return a >> (b & 63) }},
	SRA: {Name: "sra", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	SLT: {Name: "slt", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return b2u(int64(a) < int64(b)) }},
	SLTU: {Name: "sltu", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return b2u(a < b) }},

	ADDI: {Name: "addi", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a + uint64(imm) }},
	MULI: {Name: "muli", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a * uint64(imm) }},
	ANDI: {Name: "andi", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a & uint64(imm) }},
	ORI: {Name: "ori", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a | uint64(imm) }},
	XORI: {Name: "xori", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a ^ uint64(imm) }},
	SHLI: {Name: "shli", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a << (uint64(imm) & 63) }},
	SHRI: {Name: "shri", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return a >> (uint64(imm) & 63) }},
	SRAI: {Name: "srai", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 { return uint64(int64(a) >> (uint64(imm) & 63)) }},

	MOV: {Name: "mov", Dst: RegInt, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return a }},
	NOT: {Name: "not", Dst: RegInt, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return ^a }},
	NEG: {Name: "neg", Dst: RegInt, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return -a }},
	LI: {Name: "li", Dst: RegInt, Imm: ImmInt,
		Kernel: func(_, _ uint64, imm int64) uint64 { return uint64(imm) }},

	ADD32: {Name: "add32", Dst: RegInt, SrcA: RegInt, SrcB: RegInt,
		Kernel: func(a, b uint64, _ int64) uint64 { return (a + b) & 0xffffffff }},
	ROTR32: {Name: "rotr32", Dst: RegInt, SrcA: RegInt, Imm: ImmInt,
		Kernel: func(a, _ uint64, imm int64) uint64 {
			x, s := uint32(a), uint(imm)&31
			return uint64(x>>s | x<<(32-s))
		}},
	NOT32: {Name: "not32", Dst: RegInt, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return ^a & 0xffffffff }},

	FADD: {Name: "fadd", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(fl(a) + fl(b)) }},
	FSUB: {Name: "fsub", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(fl(a) - fl(b)) }},
	FMUL: {Name: "fmul", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(fl(a) * fl(b)) }},
	FDIV: {Name: "fdiv", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(fl(a) / fl(b)) }},
	FMIN: {Name: "fmin", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(math.Min(fl(a), fl(b))) }},
	FMAX: {Name: "fmax", Dst: RegFloat, SrcA: RegFloat, SrcB: RegFloat,
		Kernel: func(a, b uint64, _ int64) uint64 { return bits(math.Max(fl(a), fl(b))) }},

	FSQRT: {Name: "fsqrt", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(math.Sqrt(fl(a))) }},
	FNEG: {Name: "fneg", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(-fl(a)) }},
	FABS: {Name: "fabs", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(math.Abs(fl(a))) }},
	FEXP: {Name: "fexp", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(math.Exp(fl(a))) }},
	FLN: {Name: "fln", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(math.Log(fl(a))) }},
	FMOV: {Name: "fmov", Dst: RegFloat, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return a }},

	FLI: {Name: "fli", Dst: RegFloat, Imm: ImmFloat,
		Kernel: func(_, _ uint64, imm int64) uint64 { return uint64(imm) }},

	ITOF: {Name: "itof", Dst: RegFloat, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return bits(float64(int64(a))) }},
	FTOI: {Name: "ftoi", Dst: RegInt, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return ftoi(fl(a)) }},
	FBITS: {Name: "fbits", Dst: RegInt, SrcA: RegFloat,
		Kernel: func(a, _ uint64, _ int64) uint64 { return a }},
	BITSF: {Name: "bitsf", Dst: RegFloat, SrcA: RegInt,
		Kernel: func(a, _ uint64, _ int64) uint64 { return a }},

	LD:  {Name: "ld", Dst: RegInt, SrcA: RegInt, Imm: ImmOffset, Mem: true},
	ST:  {Name: "st", SrcA: RegInt, SrcB: RegInt, Imm: ImmOffset, Mem: true},
	FLD: {Name: "fld", Dst: RegFloat, SrcA: RegInt, Imm: ImmOffset, Mem: true},
	FST: {Name: "fst", SrcA: RegFloat, SrcB: RegInt, Imm: ImmOffset, Mem: true},

	JMP: {Name: "jmp", Imm: ImmTarget},
	BEQ: {Name: "beq", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return a == b }},
	BNE: {Name: "bne", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return a != b }},
	BLT: {Name: "blt", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return int64(a) < int64(b) }},
	BLE: {Name: "ble", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return int64(a) <= int64(b) }},
	BGT: {Name: "bgt", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return int64(a) > int64(b) }},
	BGE: {Name: "bge", SrcA: RegInt, SrcB: RegInt, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return int64(a) >= int64(b) }},
	FBEQ: {Name: "fbeq", SrcA: RegFloat, SrcB: RegFloat, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return fl(a) == fl(b) }},
	FBNE: {Name: "fbne", SrcA: RegFloat, SrcB: RegFloat, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return fl(a) != fl(b) }},
	FBLT: {Name: "fblt", SrcA: RegFloat, SrcB: RegFloat, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return fl(a) < fl(b) }},
	FBLE: {Name: "fble", SrcA: RegFloat, SrcB: RegFloat, Imm: ImmTarget,
		Cond: func(a, b uint64) bool { return fl(a) <= fl(b) }},
	CALL: {Name: "call", Imm: ImmCallee},
	RET:  {Name: "ret"},

	SECBEG: {Name: "secbeg", Imm: ImmSec},
	SECEND: {Name: "secend", Imm: ImmSec},
	ROIBEG: {Name: "roibeg"},
	ROIEND: {Name: "roiend"},

	TRAP: {Name: "trap"},
	LDA:  {Name: "lda", Dst: RegInt, Imm: ImmOffset, Mem: true},
	STA:  {Name: "sta", SrcA: RegInt, Imm: ImmOffset, Mem: true},
	FLDA: {Name: "flda", Dst: RegFloat, Imm: ImmOffset, Mem: true},
	FSTA: {Name: "fsta", SrcA: RegFloat, Imm: ImmOffset, Mem: true},
}

// Info returns the static metadata for op. It panics on an undefined opcode,
// which indicates a corrupted instruction stream rather than a recoverable
// condition.
func Info(op Op) OpInfo { return *row(op) }

// row is Info by reference, for callers on hot paths.
func row(op Op) *OpInfo {
	if !Valid(op) {
		panic(fmt.Sprintf("isa: undefined opcode %d", op))
	}
	return &infos[op]
}

// Valid reports whether op is a defined opcode.
func Valid(op Op) bool { return infos[op].Name != "" }

func (op Op) String() string {
	if !Valid(op) {
		return fmt.Sprintf("op(%d)", op)
	}
	return infos[op].Name
}

// OpByName returns the opcode with the given mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

var byName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < numOps; op++ {
		if infos[op].Name != "" {
			m[infos[op].Name] = op
		}
	}
	return m
}()
