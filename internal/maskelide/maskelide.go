// Package maskelide is Tier A of the experiment-elision stack: a
// backward bit-level liveness analysis over linked programs that proves
// whole bit-ranges of an instruction's register operands dead — flipping
// them cannot change any future memory write, any control-flow decision,
// or any crash/timeout behavior, so the experiment's outcome is the
// clean run's outcome (Masked) without executing it.
//
// The lattice is a bitmask per (register file, register): bit b set means
// "bit b of this register may be observed later". Observation points are
// exactly what the outcome comparator reads: memory words (so a store's
// value operand is fully live), addresses (a flipped base register can
// crash out of bounds, so base operands are fully live), branch and
// division operands (control flow and crash determinism), and nothing
// else — registers themselves are never compared at section or program
// end, so liveness at HALT is empty.
//
// Transfer functions exploit the ISA's bit structure: a carry chain only
// propagates upward (ADD/SUB/MUL need source bits no higher than the
// highest live destination bit), logical ops are bit-parallel, immediate
// AND/OR absorb (ANDI only needs source bits its mask keeps, ORI only
// bits its mask does not force), shifts translate the live mask, and the
// 32-bit ops (ADD32/ROTR32/NOT32) never observe the upper source half.
// Float arithmetic is treated conservatively (any live destination bit
// makes sources fully live) because rounding mixes all input bits; only
// the exact bit movers FMOV/FBITS/BITSF transfer masks precisely.
//
// The analysis is interprocedural over the linked supergraph: a CALL
// flows into the callee's entry and a RET into every return point of the
// function's callers (context-insensitive, hence an over-approximation
// of liveness — sound for elision, which only acts on dead bits).
package maskelide

import (
	"math/bits"

	"fastflip/internal/isa"
	"fastflip/internal/prog"
)

// regState is one program point's liveness: a 64-bit mask per register,
// per file (index 0 integer, 1 float).
type regState [2][16]uint64

const (
	fileInt   = 0
	fileFloat = 1
)

// allLive is the top mask: every bit of a register observable.
const allLive = ^uint64(0)

func fileOf(class isa.RegClass) int {
	if class == isa.RegFloat {
		return fileFloat
	}
	return fileInt
}

// Masks holds the fixpoint result for one linked program.
type Masks struct {
	liveIn  []regState // before the instruction (source flips)
	liveOut []regState // after the instruction (destination flips)
}

// Analyze runs the backward bit-liveness fixpoint over l and returns the
// per-pc masks. Cost is linear in code size times the (small) number of
// worklist revisits; results are immutable and safe to share across
// goroutines.
func Analyze(l *prog.Linked) *Masks {
	n := len(l.Code)
	m := &Masks{
		liveIn:  make([]regState, n),
		liveOut: make([]regState, n),
	}
	if n == 0 {
		return m
	}

	succs, retOpen := successors(l)
	preds := make([][]int32, n)
	for pc, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], int32(pc))
		}
	}

	// Worklist over predecessors: start from every pc (masks only grow,
	// so order affects speed, not the result). Reverse order converges in
	// few sweeps on straight-line kernels.
	inList := make([]bool, n)
	work := make([]int32, 0, n)
	for pc := n - 1; pc >= 0; pc-- {
		work = append(work, int32(pc))
		inList[pc] = true
	}
	for len(work) > 0 {
		pc := int(work[len(work)-1])
		work = work[:len(work)-1]
		inList[pc] = false

		var out regState
		if retOpen[pc] {
			// RET of a function with no known call site: assume every
			// register observable at the unknown return point.
			for f := range out {
				for r := range out[f] {
					out[f][r] = allLive
				}
			}
		}
		for _, s := range succs[pc] {
			or(&out, &m.liveIn[s])
		}
		in := transfer(l.Code[pc], &out)
		if m.liveOut[pc] != out || m.liveIn[pc] != in {
			m.liveOut[pc] = out
			m.liveIn[pc] = in
			for _, p := range preds[pc] {
				if !inList[p] {
					inList[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return m
}

// successors builds the supergraph successor lists. retOpen[pc] marks a
// RET whose function has no recorded call site (its continuation is
// unknown, so liveness there is top).
func successors(l *prog.Linked) (succs [][]int32, retOpen []bool) {
	n := len(l.Code)
	succs = make([][]int32, n)
	retOpen = make([]bool, n)

	// Map a pc to its function index via the contiguous layout.
	fnOf := make([]int, n)
	for i, start := range l.FuncStarts {
		end := n
		for _, other := range l.FuncStarts {
			if other > start && other < end {
				end = other
			}
		}
		for pc := start; pc < end; pc++ {
			fnOf[pc] = i
		}
	}
	entryFn := make(map[int]int, len(l.FuncStarts))
	for i, start := range l.FuncStarts {
		entryFn[start] = i
	}
	// Return points of each function: pc+1 of every CALL targeting it.
	retTo := make([][]int32, len(l.FuncStarts))
	for pc, in := range l.Code {
		if in.Op == isa.CALL && pc+1 < n {
			if fi, ok := entryFn[int(in.Imm)]; ok {
				retTo[fi] = append(retTo[fi], int32(pc+1))
			}
		}
	}

	for pc, in := range l.Code {
		switch in.Op {
		case isa.HALT, isa.TRAP:
			// No successors: nothing observes registers after halt, and a
			// trap crashes the machine before any compare happens.
		case isa.JMP:
			succs[pc] = []int32{int32(in.Imm)}
		case isa.CALL:
			succs[pc] = []int32{int32(in.Imm)}
		case isa.RET:
			fi := fnOf[pc]
			if len(retTo[fi]) == 0 {
				retOpen[pc] = true
			} else {
				succs[pc] = retTo[fi]
			}
		default:
			if in.Op.IsBranch() {
				succs[pc] = []int32{int32(in.Imm)}
			}
			if pc+1 < n {
				succs[pc] = append(succs[pc], int32(pc+1))
			}
		}
	}
	return succs, retOpen
}

func or(dst, src *regState) {
	for f := range dst {
		for r := range dst[f] {
			dst[f][r] |= src[f][r]
		}
	}
}

// upTo widens a mask downward for carry-propagating ops: a source bit can
// only influence destination bits at its position or above, so every
// source bit up to the highest live destination bit is needed.
func upTo(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	return (1 << bits.Len64(m)) - 1
}

// transfer computes liveIn = use(in, out) ∪ (out minus the destination's
// kill) for one instruction.
func transfer(in isa.Instr, out *regState) regState {
	st := *out
	info := isa.Sem(in.Op)

	// The destination write defines all 64 bits: kill before use so an
	// instruction reading and writing the same register keeps its uses.
	var ld uint64
	if info.Dst != isa.RegNone {
		f := fileOf(info.Dst)
		ld = st[f][in.Rd]
		st[f][in.Rd] = 0
	}

	ua, ub := useMasks(in, ld)
	if info.SrcA != isa.RegNone {
		st[fileOf(info.SrcA)][in.Ra] |= ua
	}
	if info.SrcB != isa.RegNone {
		st[fileOf(info.SrcB)][in.Rb] |= ub
	}
	return st
}

// useMasks returns which bits of Ra/Rb the instruction can observe, given
// the live-out mask ld of its destination (0 for ops without one).
func useMasks(in isa.Instr, ld uint64) (ua, ub uint64) {
	condAll := func() uint64 {
		if ld != 0 {
			return allLive
		}
		return 0
	}
	switch in.Op {
	// Carry chains propagate strictly upward.
	case isa.ADD, isa.SUB, isa.MUL:
		u := upTo(ld)
		return u, u
	case isa.ADDI, isa.MULI, isa.NEG:
		return upTo(ld), 0

	// Division: a flipped divisor can become zero (or stop being zero),
	// which changes crash behavior — every divisor bit is live even when
	// the quotient is dead. The dividend only matters for the result.
	case isa.DIV, isa.REM:
		return condAll(), allLive

	// Bit-parallel logical ops.
	case isa.AND, isa.OR, isa.XOR:
		return ld, ld
	case isa.XORI, isa.MOV, isa.NOT:
		return ld, 0

	// Immediate absorption: ANDI drops source bits its mask clears, ORI
	// drops source bits its mask forces to one.
	case isa.ANDI:
		return ld & uint64(in.Imm), 0
	case isa.ORI:
		return ld &^ uint64(in.Imm), 0

	// Immediate shifts translate the live mask; SRAI additionally reads
	// the sign bit whenever a smeared position is live.
	case isa.SHLI:
		return ld >> (uint(in.Imm) & 63), 0
	case isa.SHRI:
		return ld << (uint(in.Imm) & 63), 0
	case isa.SRAI:
		s := uint(in.Imm) & 63
		u := ld << s
		if ld>>(64-s) != 0 {
			u |= 1 << 63
		}
		return u, 0

	// Register-amount shifts: only the low six amount bits are decoded;
	// the shifted source is unpredictable statically.
	case isa.SHL, isa.SHR, isa.SRA:
		if ld == 0 {
			return 0, 0
		}
		return allLive, 0x3f

	// Comparisons define bits 1..63 as constant zero.
	case isa.SLT, isa.SLTU:
		if ld&1 == 0 {
			return 0, 0
		}
		return allLive, allLive

	case isa.LI, isa.FLI:
		return 0, 0

	// 32-bit ops never observe the upper source half.
	case isa.ADD32:
		u := upTo(ld&0xffffffff) & 0xffffffff
		return u, u
	case isa.ROTR32:
		u := uint64(bits.RotateLeft32(uint32(ld), int(uint(in.Imm)&31)))
		return u, 0
	case isa.NOT32:
		return ld & 0xffffffff, 0

	// Exact bit movers between files.
	case isa.FMOV, isa.FBITS, isa.BITSF:
		return ld, 0
	}
	// Memory ops and branches observe their register operands completely:
	// a base address can crash out of bounds, a stored value lands in
	// compared memory, and a branch decides control flow. Every other
	// kernel — float arithmetic and conversions, where rounding mixes all
	// input bits — makes its sources fully live when any result bit is.
	// (FNEG/FABS could be exact, but their operands are usually consumed
	// by arithmetic anyway.) Operands an op lacks are never applied by
	// transfer.
	switch info := isa.Sem(in.Op); {
	case info.Mem || info.Cond != nil:
		return allLive, allLive
	case info.Kernel != nil:
		u := condAll()
		return u, u
	}
	return 0, 0
}

// LiveIn returns the live mask of (class, reg) just before pc executes —
// the mask governing source-operand flips, which persist in the register
// file beyond the instruction itself.
func (m *Masks) LiveIn(pc int, class isa.RegClass, reg uint8) uint64 {
	return m.liveIn[pc][fileOf(class)][reg]
}

// LiveOut returns the live mask of (class, reg) just after pc executed —
// the mask governing destination-operand flips.
func (m *Masks) LiveOut(pc int, class isa.RegClass, reg uint8) uint64 {
	return m.liveOut[pc][fileOf(class)][reg]
}

// SiteElidable reports whether a Width-bit burst starting at Bit in the
// given operand of the instruction at pc is provably masked: every bit of
// the burst is dead at the flip's observation point, so the faulty run is
// architecturally indistinguishable from the clean run.
func (m *Masks) SiteElidable(pc int, op isa.Operand, bit, width uint8) bool {
	if m == nil || pc < 0 || pc >= len(m.liveIn) {
		return false
	}
	if width < 1 {
		width = 1
	}
	var burst uint64
	if width >= 64 {
		burst = allLive
	} else {
		burst = ((uint64(1) << width) - 1) << bit
	}
	var live uint64
	if op.Role == isa.OperandDst {
		live = m.LiveOut(pc, op.Class, op.Reg)
	} else {
		live = m.LiveIn(pc, op.Class, op.Reg)
	}
	return live&burst == 0
}

// DeadSites counts the elidable (operand, bit) single-bit sites at pc —
// a cheap static census used by tests and diagnostics.
func (m *Masks) DeadSites(code []isa.Instr, pc int) int {
	var ops []isa.Operand
	ops = code[pc].Operands(ops)
	n := 0
	for _, op := range ops {
		for bit := 0; bit < 64; bit++ {
			if m.SiteElidable(pc, op, uint8(bit), 1) {
				n++
			}
		}
	}
	return n
}
