// Lockstep batch replay: Tier B of the experiment-elision stack.
//
// A Batch advances K faulty replicas that share one clean prefix. All
// replicas fork from the same positioned machine, so while their control
// flow agrees they share one PC, one dynamic counter, and one call stack;
// only register values and the memory words some replica has written can
// differ. Each opcode is fetched and decoded once per batch and applied to
// the active set.
//
// Most of the time the replicas differ in only a few places: a flip's
// corruption stays in a handful of registers and words. So each register
// (and each memory word the batch writes) is held either as one value
// shared by every active replica or as a column of per-replica values.
// An instruction whose inputs are all shared runs once, in O(1); only an
// instruction that reads a column loops over the active replicas, and a
// column whose results all agree settles back into a shared value.
//
// A replica leaves the lockstep set when its execution stops matching the
// group's: a private crash (division by zero, out-of-bounds access from a
// flipped base register) freezes it as Crashed exactly as a scalar Step
// would have, and a branch that decides differently from the group
// detaches it Running at its own target. A detached replica's registers
// and the memory words it sees stop changing. The batch as a whole stops
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
	code  []op
	base  *Machine // fork-point machine; its memory is the shared base, never written
	limit uint64   // exclusive bound of register-addressed loads and stores

	n int

	// Registers, indexed by register slot. While shared[s] holds, every
	// active replica's value is val[s]; otherwise col[s][k] is replica
	// k's (col[s] is one n-wide stretch of regBack). A detached replica's
	// registers are its own column entries, which only it writes. The
	// noReg slot of absent operands stays shared at zero and has no
	// column.
	shared  [numSlots]bool
	val     [numSlots]uint64
	col     [numSlots][]uint64
	regBack []uint64

	// Memory: mem[addr] is nil until the batch stores to word addr. A
	// word every replica sees with the same value holds it as a one-word
	// slice; any other written word holds a column of n values, seeded
	// with what each replica saw before. A shared store makes the word
	// one-word (a column keeps its capacity to regrow) only while no
	// replica has detached, so a detached replica's view never changes.
	// touched lists each written address once; words are carved from
	// chunks kept across Resets.
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
// batch's own memory words).
func NewBatch(base *Machine, n int) *Batch { return new(Batch).Reset(base, n) }

// Reset re-forks b as n replicas off base, exactly as NewBatch would, but
// reusing b's buffers. It returns b.
func (b *Batch) Reset(base *Machine, n int) *Batch {
	b.code, b.base, b.limit, b.n = base.code, base, base.memLimit(), n

	b.regBack = grow(b.regBack, noReg*n)
	for s := 0; s < noReg; s++ {
		b.col[s] = b.regBack[s*n : (s+1)*n : (s+1)*n]
	}
	for s := range b.shared {
		b.shared[s] = true
	}
	copy(b.val[:isa.NumRegs], base.R[:])
	copy(b.val[isa.NumRegs:], base.F[:])
	b.val[noReg] = 0

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

// Detached reports whether replica k has left the lockstep set.
func (b *Batch) Detached(k int) bool { return b.detached[k] }

// Dyn returns the lockstep set's dynamic counter: the instructions every
// active replica has executed.
func (b *Batch) Dyn() uint64 { return b.dyn }

// Touched returns the addresses the batch has written, each once. A word
// outside it holds the base machine's value for every replica. The slice
// is the batch's own and must not be modified.
func (b *Batch) Touched() []uint64 { return b.touched }

// SecEndNext reports whether the batch stopped in front of a SECEND that
// every active replica would execute next, and its section. It takes the
// scalar RunToEvent's view of the next instruction: no replica is active,
// the MaxDyn timeout is due or the PC is out of bounds, and the answer is
// no; otherwise the opcode decides. When it says yes, a survivor finished
// on a scalar Machine raises EvSecEnd for sec at dynamic count Dyn()+1.
func (b *Batch) SecEndNext() (sec int, ok bool) {
	switch {
	case len(b.active) == 0,
		b.maxDyn > 0 && b.dyn >= b.maxDyn,
		uint(b.pc) >= uint(len(b.code)),
		b.code[b.pc].x != xSecEnd:
		return 0, false
	}
	return int(b.code[b.pc].imm), true
}

// FlipInt flips one bit of replica k's integer register reg.
func (b *Batch) FlipInt(k, reg int, bit uint) { b.flip(k, reg, bit) }

// FlipFloat flips one bit of replica k's float register reg.
func (b *Batch) FlipFloat(k, reg int, bit uint) { b.flip(k, isa.NumRegs+reg, bit) }

// SetWord sets replica k's memory word addr to v: a per-replica change of
// the fork state, like a flip, but in memory. It is valid only before the
// batch's first Step. The word becomes a column in which every replica
// SetWord has not set keeps the base value.
func (b *Batch) SetWord(k int, addr, v uint64) {
	if b.steps != 0 {
		panic("vm: Batch.SetWord after the batch has stepped")
	}
	b.memColumn(addr)[k] = v
}

// flip flips one bit of replica k's register in slot s, first giving a
// shared register a column if k is active.
func (b *Batch) flip(k, s int, bit uint) {
	if b.shared[s] && !b.detached[k] {
		v, c := b.val[s], b.col[s]
		for _, j := range b.active {
			c[j] = v
		}
		b.shared[s] = false
	}
	b.col[s][k] ^= 1 << bit
}

// view returns register slot s as a slice and an index mask: replica k's
// value is v[k&mask]. A shared register is its one value (mask 0), so a
// loop over the active set reads shared and column operands alike.
func (b *Batch) view(s uint8) (v []uint64, mask int) {
	if b.shared[s] {
		return b.val[s : s+1], 0
	}
	return b.col[s], -1
}

// settle finishes a loop that wrote col[s] for every active replica: the
// register is shared again if the loop found every result equal to v.
func (b *Batch) settle(s uint8, same bool, v uint64) {
	b.shared[s] = same
	b.val[s] = v
}

// carve hands out w words of column storage from the current chunk.
func (b *Batch) carve(w int) []uint64 {
	for b.chunk < len(b.chunks) && b.used+w > len(b.chunks[b.chunk]) {
		b.chunk++
		b.used = 0
	}
	if b.chunk == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, max(colChunk, w)))
	}
	c := b.chunks[b.chunk][b.used : b.used+w : b.used+w]
	b.used += w
	return c
}

// Word returns the value of memory word addr that every replica sees,
// detached or not, and whether they all see the same one; if not, the
// word is a column and Read gives each replica's value.
func (b *Batch) Word(addr uint64) (uint64, bool) {
	switch c := b.mem[addr]; {
	case c == nil:
		return b.base.Mem[addr], true
	case len(c) == 1:
		return c[0], true
	}
	return 0, false
}

// Read returns replica k's view of memory word addr.
func (b *Batch) Read(k int, addr uint64) uint64 {
	switch c := b.mem[addr]; len(c) {
	case 0:
		return b.base.Mem[addr]
	case 1:
		return c[0]
	default:
		return c[k]
	}
}

// memColumn returns word addr's column, giving the word one seeded with
// what every replica sees if it has none. A word that settled from a
// column regrows in place.
func (b *Batch) memColumn(addr uint64) []uint64 {
	c := b.mem[addr]
	if len(c) == b.n {
		return c
	}
	v, _ := b.Word(addr)
	switch {
	case c == nil:
		b.touched = append(b.touched, addr)
		c = b.carve(b.n)
	case cap(c) >= b.n:
		c = c[:b.n]
	default:
		c = b.carve(b.n)
	}
	for k := range c {
		c[k] = v
	}
	b.mem[addr] = c
	return c
}

// detach freezes replica k out of the lockstep set at the given pc with
// the current (already advanced) dynamic counter. Its shared registers
// are copied into its column entries, which hold its registers from now
// on.
func (b *Batch) detach(k, pc int, st Status, ck CrashKind) {
	b.detached[k] = true
	b.status[k] = st
	b.crashk[k] = ck
	b.pcs[k] = pc
	b.dyns[k] = b.dyn
	b.stacks[k] = append(b.stacks[k][:0], b.stack...)
	for s := 0; s < noReg; s++ {
		if b.shared[s] {
			b.col[s][k] = b.val[s]
		}
	}
}

// detachAll detaches every active replica Crashed with kind ck at the
// current pc: a crash whose inputs all replicas share.
func (b *Batch) detachAll(ck CrashKind) {
	for _, k := range b.active {
		b.detach(k, b.pc, Crashed, ck)
	}
	b.active = b.active[:0]
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
	o := &b.code[b.pc]
	next := b.pc + 1
	switch o.x {
	case xIntKernel, xFloatKernel, xKernel, xIntBranch, xFloatBranch,
		xLoad, xLoadAbs, xStore, xStoreAbs:
		// Table semantics, applied to the active set below.
	case xNop, xSecBeg, xROIBeg, xROIEnd:
		// Markers carry no architectural effect; their events only
		// matter to the scalar driver at batch boundaries.
	case xJmp:
		next = int(o.imm)
	case xCall:
		if len(b.stack) >= maxCallDepth {
			return false
		}
		b.stack = append(b.stack, next)
		next = int(o.imm)
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
	switch o.x {
	case xIntKernel, xFloatKernel, xKernel:
		b.kernel(o)
	case xIntBranch, xFloatBranch:
		next = b.branch(o, next)
	case xLoad, xLoadAbs:
		b.load(o)
	case xStore, xStoreAbs:
		b.store(o)
	}
	b.pc = next
	return true
}

// kernel applies the op's kernel to the active set. A replica whose
// divisor is zero under a DivZero op detaches Crashed, as a scalar Step
// would crash, keeping its destination register's old value.
//
// With both sources shared the kernel runs once. Otherwise replicas still
// mostly agree on the inputs — each differs from the lead only where its
// flip has propagated — and kernels are pure, so a replica with the lead's
// inputs takes the lead's result without a call. (DIV and REM, which can
// detach replicas, are rare enough to call per replica.)
func (b *Batch) kernel(o *op) {
	if b.shared[o.ra] && b.shared[o.rb] {
		x, y := b.val[o.ra], b.val[o.rb]
		if o.divZero && y == 0 {
			b.detachAll(CrashDivZero)
			return
		}
		b.shared[o.rd], b.val[o.rd] = true, o.kern(x, y, o.imm)
		return
	}
	ra, ma := b.view(o.ra)
	rb, mb := b.view(o.rb)
	rd, kern, imm := b.col[o.rd], o.kern, o.imm
	if o.divZero {
		keep := b.active[:0]
		same, first := true, uint64(0)
		for _, k := range b.active {
			y := rb[k&mb]
			if y == 0 {
				b.detach(k, b.pc, Crashed, CrashDivZero)
				continue
			}
			r := kern(ra[k&ma], y, imm)
			rd[k] = r
			if len(keep) == 0 {
				first = r
			}
			same = same && r == first
			keep = append(keep, k)
		}
		if len(keep) > 0 {
			b.settle(o.rd, same, first)
		}
		b.active = keep
		return
	}
	lead := b.active[0]
	la, lb := ra[lead&ma], rb[lead&mb]
	lr := kern(la, lb, imm)
	same := true
	for _, k := range b.active {
		r := lr
		if x, y := ra[k&ma], rb[k&mb]; x != la || y != lb {
			r = kern(x, y, imm)
			same = same && r == lr
		}
		rd[k] = r
	}
	b.settle(o.rd, same, lr)
}

// address returns the base register of a memory op (the shared noReg
// slot, reading zero, for the absolute forms) and the address bound.
func (b *Batch) address(o *op) (base uint8, limit uint64) {
	switch o.x {
	case xLoad:
		return o.ra, b.limit
	case xStore:
		return o.rb, b.limit
	}
	return noReg, uint64(len(b.base.Mem))
}

// load performs a load for the active set. A replica whose address falls
// out of bounds detaches Crashed, keeping its destination register.
func (b *Batch) load(o *op) {
	base, limit := b.address(o)
	rd := b.col[o.rd]
	if b.shared[base] {
		addr := b.val[base] + uint64(o.imm)
		if addr >= limit {
			b.detachAll(CrashMemOOB)
			return
		}
		if v, ok := b.Word(addr); ok {
			b.shared[o.rd], b.val[o.rd] = true, v
			return
		}
		c := b.mem[addr]
		first := c[b.active[0]]
		same := true
		for _, k := range b.active {
			rd[k] = c[k]
			same = same && c[k] == first
		}
		b.settle(o.rd, same, first)
		return
	}
	bases := b.col[base]
	keep := b.active[:0]
	same, first := true, uint64(0)
	for _, k := range b.active {
		addr := bases[k] + uint64(o.imm)
		if addr >= limit {
			b.detach(k, b.pc, Crashed, CrashMemOOB)
			continue
		}
		v := b.Read(k, addr)
		rd[k] = v
		if len(keep) == 0 {
			first = v
		}
		same = same && v == first
		keep = append(keep, k)
	}
	if len(keep) > 0 {
		b.settle(o.rd, same, first)
	}
	b.active = keep
}

// store performs a store for the active set. A replica whose address
// falls out of bounds detaches Crashed.
func (b *Batch) store(o *op) {
	base, limit := b.address(o)
	vals, mv := b.view(o.ra)
	if b.shared[base] {
		addr := b.val[base] + uint64(o.imm)
		if addr >= limit {
			b.detachAll(CrashMemOOB)
			return
		}
		if mv == 0 && len(b.active) == b.n {
			// Every replica stores the same value: one word holds it,
			// and a column settles back into its first word.
			c := b.mem[addr]
			if c == nil {
				c = b.carve(1)
				b.touched = append(b.touched, addr)
			}
			c[0] = vals[0]
			b.mem[addr] = c[:1]
			return
		}
		c := b.memColumn(addr)
		for _, k := range b.active {
			c[k] = vals[k&mv]
		}
		return
	}
	bases := b.col[base]
	keep := b.active[:0]
	for _, k := range b.active {
		addr := bases[k] + uint64(o.imm)
		if addr >= limit {
			b.detach(k, b.pc, Crashed, CrashMemOOB)
			continue
		}
		b.memColumn(addr)[k] = vals[k&mv]
		keep = append(keep, k)
	}
	b.active = keep
}

// branch partitions the active set by branch decision: the subset agreeing
// with the first active replica stays in lockstep, the rest detach Running
// at their own targets (the branch itself already executed for them).
func (b *Batch) branch(o *op, fallthru int) int {
	target := int(o.imm)
	if b.shared[o.ra] && b.shared[o.rb] {
		if o.cond(b.val[o.ra], b.val[o.rb]) {
			return target
		}
		return fallthru
	}
	ra, ma := b.view(o.ra)
	rb, mb := b.view(o.rb)
	lead := b.active[0]
	la, lb := ra[lead&ma], rb[lead&mb]
	groupTaken := o.cond(la, lb)
	keep := b.active[:0]
	for _, k := range b.active {
		t := groupTaken
		if x, y := ra[k&ma], rb[k&mb]; x != la || y != lb {
			t = o.cond(x, y)
		}
		if t == groupTaken {
			keep = append(keep, k)
			continue
		}
		tgt := fallthru
		if t {
			tgt = target
		}
		b.detach(k, tgt, Running, CrashNone)
	}
	b.active = keep
	if groupTaken {
		return target
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
	detached := b.detached[k]
	for s := 0; s < noReg; s++ {
		v := b.col[s][k]
		if b.shared[s] && !detached {
			v = b.val[s]
		}
		m.setReg(uint8(s), v)
	}
	if detached {
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
		v := b.Read(k, addr)
		if v == b.base.Mem[addr] {
			continue
		}
		if m.journaling {
			m.recordWrite(addr)
		}
		m.Mem[addr] = v
	}
}
