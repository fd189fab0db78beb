// Lockstep batch replay: Tier B of the experiment-elision stack.
//
// A Batch advances K faulty replicas that share one clean prefix. All
// replicas fork from the same positioned machine, so while their control
// flow agrees they share one PC, one dynamic counter, and one call stack;
// only the register files differ (structure-of-arrays, one slice per
// architectural register) and the memory words some replica has written
// (one column of K values per such word, over the shared read-only base
// memory). Each opcode is fetched and decoded once per batch and applied
// to every active replica, amortizing dispatch.
//
// A replica leaves the lockstep set when its execution stops matching the
// group's: a private crash (division by zero, out-of-bounds access from a
// flipped base register) freezes it as Crashed exactly as a scalar Step
// would have, and a branch that decides differently from the group
// detaches it Running at its own target. The batch as a whole stops
// *before* anything the scalar experiment driver must observe itself —
// SECEND and HALT events, a shared PC out of bounds, the MaxDyn timeout,
// call-stack crashes — so a replica materialized out of the batch and
// finished on a scalar Machine passes through the exact same state
// sequence as an unbatched run: batching changes wall-clock, never
// outcomes.
package vm

import "fastflip/internal/isa"

// Batch is K replicas advancing in lockstep from a shared fork point. A
// Batch is reusable: Reset re-forks it, recycling every buffer.
type Batch struct {
	code []isa.Instr
	base *Machine // fork-point machine; its memory is the shared base, never written

	n       int
	r       [isa.NumRegs][]uint64 // r[reg][replica]
	f       [isa.NumRegs][]uint64
	regBack []uint64 // backing store of r and f

	// Memory is laid out like the register files: mem[addr] is nil until
	// some replica stores to word addr, then a column of n values seeded
	// from base.Mem[addr], so a replica that never wrote the word still
	// reads the base value through it. touched lists the addresses that
	// have a column; columns are carved from chunks kept across Resets.
	mem     [][]uint64
	touched []uint64
	chunks  [][]uint64
	chunk   int // chunks[chunk] is the one being carved
	used    int // words of chunks[chunk] already handed out

	// Shared state of the lockstep set.
	active []int
	pc     int
	dyn    uint64
	maxDyn uint64
	stack  []int

	// Frozen state of detached replicas.
	detached []bool
	status   []Status
	crashk   []CrashKind
	pcs      []int
	dyns     []uint64
	stacks   [][]int

	steps uint64 // lockstep dispatches executed
}

// colChunk is the size in words of one column-storage chunk.
const colChunk = 4096

// NewBatch forks n replicas off the positioned machine base. The base must
// be Running; it is not mutated (reads go through it, writes go to the
// replica memory columns).
func NewBatch(base *Machine, n int) *Batch { return new(Batch).Reset(base, n) }

// Reset re-forks b as n replicas off base, exactly as NewBatch would, but
// reusing b's buffers. It returns b.
func (b *Batch) Reset(base *Machine, n int) *Batch {
	b.code, b.base, b.n = base.Code, base, n

	b.regBack = grow(b.regBack, 2*isa.NumRegs*n)
	for reg := 0; reg < isa.NumRegs; reg++ {
		b.r[reg] = b.regBack[2*reg*n : (2*reg+1)*n]
		b.f[reg] = b.regBack[(2*reg+1)*n : (2*reg+2)*n]
		for k := 0; k < n; k++ {
			b.r[reg][k] = base.R[reg]
			b.f[reg][k] = base.F[reg]
		}
	}

	for _, addr := range b.touched {
		b.mem[addr] = nil
	}
	b.touched = b.touched[:0]
	b.mem = grow(b.mem, len(base.Mem))
	b.chunk, b.used = 0, 0

	b.active = grow(b.active, n)
	for k := range b.active {
		b.active[k] = k
	}
	b.pc, b.dyn, b.maxDyn = base.PC, base.Dyn, base.MaxDyn
	b.stack = append(b.stack[:0], base.Stack...)

	b.detached = grow(b.detached, n)
	clear(b.detached)
	b.status = grow(b.status, n)
	b.crashk = grow(b.crashk, n)
	b.pcs = grow(b.pcs, n)
	b.dyns = grow(b.dyns, n)
	b.stacks = grow(b.stacks, n)
	b.steps = 0
	return b
}

// grow returns s resized to length n, keeping its backing array (and so
// the elements up to its capacity) when it is large enough.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Replicas returns the batch width K.
func (b *Batch) Replicas() int { return b.n }

// Steps returns the number of lockstep dispatches executed so far — each
// one would have cost len(active) scalar Step calls.
func (b *Batch) Steps() uint64 { return b.steps }

// ActiveCount returns how many replicas are still in the lockstep set.
func (b *Batch) ActiveCount() int { return len(b.active) }

// FlipInt flips one bit of replica k's integer register reg.
func (b *Batch) FlipInt(k, reg int, bit uint) { b.r[reg][k] ^= 1 << bit }

// FlipFloat flips one bit of replica k's float register reg.
func (b *Batch) FlipFloat(k, reg int, bit uint) { b.f[reg][k] ^= 1 << bit }

// load reads replica k's view of memory word addr.
func (b *Batch) load(k int, addr uint64) uint64 {
	if col := b.mem[addr]; col != nil {
		return col[k]
	}
	return b.base.Mem[addr]
}

// store writes v to replica k's view of memory word addr.
func (b *Batch) store(k int, addr, v uint64) {
	col := b.mem[addr]
	if col == nil {
		col = b.column(addr)
	}
	col[k] = v
}

// column gives word addr its replica column, every entry holding the base
// value, carved from the current chunk.
func (b *Batch) column(addr uint64) []uint64 {
	for b.chunk < len(b.chunks) && b.used+b.n > len(b.chunks[b.chunk]) {
		b.chunk++
		b.used = 0
	}
	if b.chunk == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, max(colChunk, b.n)))
	}
	col := b.chunks[b.chunk][b.used : b.used+b.n : b.used+b.n]
	b.used += b.n
	v := b.base.Mem[addr]
	for k := range col {
		col[k] = v
	}
	b.mem[addr] = col
	b.touched = append(b.touched, addr)
	return col
}

// detach freezes replica k out of the lockstep set at the given pc with
// the current (already advanced) dynamic counter.
func (b *Batch) detach(k, pc int, st Status, ck CrashKind) {
	b.detached[k] = true
	b.status[k] = st
	b.crashk[k] = ck
	b.pcs[k] = pc
	b.dyns[k] = b.dyn
	b.stacks[k] = append(b.stacks[k][:0], b.stack...)
}

// regs returns the per-replica column of register r of class c. An absent
// operand (RegNone) reads an integer column the op ignores.
func (b *Batch) regs(c isa.RegClass, r uint8) []uint64 {
	if c == isa.RegFloat {
		return b.f[r&regMask]
	}
	return b.r[r&regMask]
}

// Step executes one instruction in lockstep across the active set. It
// returns false — leaving all shared state untouched — when the batch must
// stop and hand its replicas to a scalar finisher: the active set is
// empty, or the next instruction is one the experiment driver has to
// observe on a real Machine (SECEND/HALT events, PC out of bounds, the
// MaxDyn timeout, a call-stack crash, a TRAP, an undefined opcode).
func (b *Batch) Step() bool {
	if len(b.active) == 0 {
		return false
	}
	if b.pc < 0 || b.pc >= len(b.code) {
		return false
	}
	if b.maxDyn > 0 && b.dyn >= b.maxDyn {
		return false
	}
	in := b.code[b.pc]
	s := isa.Sem(in.Op)
	next := b.pc + 1
	x := execOf[in.Op]
	switch x {
	case xIntKernel, xFloatKernel, xKernel, xIntBranch, xFloatBranch,
		xLoad, xLoadAbs, xStore, xStoreAbs:
		// Table semantics, applied per replica below.
	case xNop, xSecBeg, xROIBeg, xROIEnd:
		// Markers carry no architectural effect; their events only
		// matter to the scalar driver at batch boundaries.
	case xJmp:
		next = int(in.Imm)
	case xCall:
		if len(b.stack) >= maxCallDepth {
			return false
		}
		b.stack = append(b.stack, next)
		next = int(in.Imm)
	case xRet:
		if len(b.stack) == 0 {
			return false
		}
		next = b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
	default:
		// SECEND and HALT raise events, TRAP a detector crash, and an
		// undefined opcode CrashBadInstr: each is for the scalar
		// finisher to observe on a real Machine.
		return false
	}

	b.dyn++
	b.steps++
	switch x {
	case xIntKernel, xFloatKernel, xKernel:
		b.kernel(s, in)
	case xIntBranch, xFloatBranch:
		next = b.branch(s, in, next)
	case xLoad, xLoadAbs, xStore, xStoreAbs:
		b.memory(x, s, in)
	}
	b.pc = next
	return true
}

// kernel applies the op's kernel to every active replica. A replica whose
// divisor is zero under a DivZero op detaches Crashed, as a scalar Step
// would crash.
//
// Replicas mostly agree on an instruction's inputs — each differs from the
// lead only where its flip has propagated — and kernels are pure, so a
// replica with the lead's inputs takes the lead's result without a call.
// (DIV and REM, which can detach replicas, are rare enough to call per
// replica.)
func (b *Batch) kernel(s *isa.OpInfo, in isa.Instr) {
	rd := b.regs(s.Dst, in.Rd)
	ra, rb := b.regs(s.SrcA, in.Ra), b.regs(s.SrcB, in.Rb)
	kern, imm := s.Kernel, in.Imm
	if s.DivZero {
		keep := b.active[:0]
		for _, k := range b.active {
			if rb[k] == 0 {
				b.detach(k, b.pc, Crashed, CrashDivZero)
				continue
			}
			rd[k] = kern(ra[k], rb[k], imm)
			keep = append(keep, k)
		}
		b.active = keep
		return
	}
	lead := b.active[0]
	la, lb := ra[lead], rb[lead]
	lr := kern(la, lb, imm)
	for _, k := range b.active {
		if a, bv := ra[k], rb[k]; a != la || bv != lb {
			rd[k] = kern(a, bv, imm)
		} else {
			rd[k] = lr
		}
	}
}

// memory performs a load or store for every active replica through the
// replica memory columns. A replica whose address falls out of bounds
// detaches Crashed.
func (b *Batch) memory(x exec, s *isa.OpInfo, in isa.Instr) {
	load := x == xLoad || x == xLoadAbs
	val, baseReg := b.regs(s.SrcA, in.Ra), in.Rb
	if load {
		val, baseReg = b.regs(s.Dst, in.Rd), in.Ra
	}
	var base []uint64 // nil for the absolute forms
	limit := uint64(len(b.base.Mem))
	if x == xLoad || x == xStore {
		base, limit = b.r[baseReg], b.base.memLimit()
	}
	keep := b.active[:0]
	for _, k := range b.active {
		addr := uint64(in.Imm)
		if base != nil {
			addr += base[k]
		}
		if addr >= limit {
			b.detach(k, b.pc, Crashed, CrashMemOOB)
			continue
		}
		if load {
			val[k] = b.load(k, addr)
		} else {
			b.store(k, addr, val[k])
		}
		keep = append(keep, k)
	}
	b.active = keep
}

// branch partitions the active set by branch decision: the subset agreeing
// with the first active replica stays in lockstep, the rest detach Running
// at their own targets (the branch itself already executed for them).
func (b *Batch) branch(s *isa.OpInfo, in isa.Instr, fallthru int) int {
	ra, rb := b.regs(s.SrcA, in.Ra), b.regs(s.SrcB, in.Rb)
	lead := b.active[0]
	la, lb := ra[lead], rb[lead]
	groupTaken := s.Cond(la, lb)
	keep := b.active[:0]
	for _, k := range b.active {
		t := groupTaken
		if ra[k] != la || rb[k] != lb {
			t = s.Cond(ra[k], rb[k])
		}
		if t == groupTaken {
			keep = append(keep, k)
			continue
		}
		tgt := fallthru
		if t {
			tgt = int(in.Imm)
		}
		b.detach(k, tgt, Running, CrashNone)
	}
	b.active = keep
	if groupTaken {
		return int(in.Imm)
	}
	return fallthru
}

// Run advances the batch until Step refuses — all replicas detached or a
// shared stop condition reached.
func (b *Batch) Run() {
	for b.Step() {
	}
}

// MaterializeInto writes replica k's architectural state onto m, which
// must currently mirror the batch's fork point (same memory as the base
// machine). Only the touched words where the replica differs from the base
// are written, through the journal when m is journaling, so the caller can
// revert the materialization with UndoJournal exactly like a scalar
// experiment fork.
func (b *Batch) MaterializeInto(k int, m *Machine) {
	for reg := 0; reg < isa.NumRegs; reg++ {
		m.R[reg] = b.r[reg][k]
		m.F[reg] = b.f[reg][k]
	}
	if b.detached[k] {
		m.PC = b.pcs[k]
		m.Dyn = b.dyns[k]
		m.Stack = append(m.Stack[:0], b.stacks[k]...)
		m.Status = b.status[k]
		m.Crash = b.crashk[k]
	} else {
		m.PC = b.pc
		m.Dyn = b.dyn
		m.Stack = append(m.Stack[:0], b.stack...)
		m.Status = Running
		m.Crash = CrashNone
	}
	for _, addr := range b.touched {
		v := b.mem[addr][k]
		if v == b.base.Mem[addr] {
			continue
		}
		if m.journaling {
			m.recordWrite(addr)
		}
		m.Mem[addr] = v
	}
}
