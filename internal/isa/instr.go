package isa

import (
	"fmt"
	"math"
	"strings"
)

// Instr is one instruction. The interpretation of the register fields and
// the immediate is given by Info(Op). Instructions are plain values; a
// program is a []Instr.
type Instr struct {
	Op  Op
	Rd  uint8 // destination register (see Info(Op).Dst)
	Ra  uint8 // first source register
	Rb  uint8 // second source register
	Imm int64 // immediate; float64 bits when Info(Op).Imm == ImmFloat
}

// FloatImm returns the immediate interpreted as a float64.
func (in Instr) FloatImm() float64 { return math.Float64frombits(uint64(in.Imm)) }

// OperandRole identifies one register operand of an instruction for error
// injection: the paper's model flips a bit in a source register just before
// the instruction reads it, or in the destination register just after the
// instruction writes it.
type OperandRole uint8

const (
	OperandDst OperandRole = iota
	OperandSrcA
	OperandSrcB
)

func (r OperandRole) String() string {
	switch r {
	case OperandDst:
		return "dst"
	case OperandSrcA:
		return "srcA"
	case OperandSrcB:
		return "srcB"
	}
	return fmt.Sprintf("operand(%d)", uint8(r))
}

// Operand describes one injectable register operand of an instruction.
type Operand struct {
	Role  OperandRole
	Class RegClass
	Reg   uint8
}

// Operands appends the injectable register operands of in to dst and
// returns the extended slice. Marker and control metadata instructions have
// none; a store has two source operands (value and base address) and no
// destination.
func (in Instr) Operands(dst []Operand) []Operand {
	info := row(in.Op)
	if info.SrcA != RegNone {
		dst = append(dst, Operand{Role: OperandSrcA, Class: info.SrcA, Reg: in.Ra})
	}
	if info.SrcB != RegNone {
		dst = append(dst, Operand{Role: OperandSrcB, Class: info.SrcB, Reg: in.Rb})
	}
	if info.Dst != RegNone {
		dst = append(dst, Operand{Role: OperandDst, Class: info.Dst, Reg: in.Rd})
	}
	return dst
}

// NumOperands returns len(in.Operands(nil)) without building the slice:
// the number of injectable register operands of in.
func (in Instr) NumOperands() int {
	info := row(in.Op)
	n := 0
	for _, c := range [...]RegClass{info.SrcA, info.SrcB, info.Dst} {
		if c != RegNone {
			n++
		}
	}
	return n
}

// String renders the instruction in assembler syntax, e.g.
// "fadd f1, f2, f3" or "ld r4, r2, 16". Branch targets print as raw
// immediates; the disassembler in internal/asm prints symbolic labels.
func (in Instr) String() string {
	info := row(in.Op)
	var b strings.Builder
	b.WriteString(info.Name)
	sep := " "
	reg := func(class RegClass, n uint8) {
		b.WriteString(sep)
		sep = ", "
		if class == RegFloat {
			fmt.Fprintf(&b, "f%d", n)
		} else {
			fmt.Fprintf(&b, "r%d", n)
		}
	}
	if info.Dst != RegNone {
		reg(info.Dst, in.Rd)
	}
	if info.SrcA != RegNone {
		reg(info.SrcA, in.Ra)
	}
	if info.SrcB != RegNone {
		reg(info.SrcB, in.Rb)
	}
	switch info.Imm {
	case ImmNone:
	case ImmFloat:
		b.WriteString(sep)
		fmt.Fprintf(&b, "%g", in.FloatImm())
	default:
		b.WriteString(sep)
		fmt.Fprintf(&b, "%d", in.Imm)
	}
	return b.String()
}
