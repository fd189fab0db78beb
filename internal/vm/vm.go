// Package vm implements the architectural simulator for the fastflip ISA.
//
// The Machine is a deterministic interpreter with the architectural state
// the error model cares about: integer and floating-point register files,
// word-addressed memory, a call stack, and a dynamic instruction counter.
// It detects the paper's "detected" outcome classes natively: crashes
// (invalid memory access, division error, bad control flow) and timeouts
// (dynamic instruction count exceeding a limit). Checkpoint/restore via
// Clone supports both per-section injection and fast re-execution, and an
// optional write journal (BeginJournal) lets a forked execution be
// reverted to its fork point by undoing only the memory words it touched.
package vm

import (
	"fmt"
	"math"

	"fastflip/internal/isa"
)

// Status is the execution state of a Machine.
type Status uint8

const (
	Running Status = iota
	Halted
	Crashed
	TimedOut
)

func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Halted:
		return "halted"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed out"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// CrashKind classifies why a Machine crashed. All crashes are "detected"
// outcomes in the paper's taxonomy: the OS or runtime observes them.
type CrashKind uint8

const (
	CrashNone CrashKind = iota
	CrashMemOOB
	CrashDivZero
	CrashPCOOB
	CrashStackOverflow
	CrashStackUnderflow
	CrashBadInstr
	// CrashTrap is a hardening detector firing: a TRAP instruction reached
	// after a duplicate-and-compare mismatch (internal/harden). Appended at
	// the end so earlier kinds keep their encoded values.
	CrashTrap
)

func (k CrashKind) String() string {
	switch k {
	case CrashNone:
		return "none"
	case CrashMemOOB:
		return "memory access out of bounds"
	case CrashDivZero:
		return "division by zero"
	case CrashPCOOB:
		return "program counter out of bounds"
	case CrashStackOverflow:
		return "call stack overflow"
	case CrashStackUnderflow:
		return "return with empty call stack"
	case CrashBadInstr:
		return "undefined instruction"
	case CrashTrap:
		return "detector trap"
	}
	return fmt.Sprintf("crash(%d)", uint8(k))
}

// EventKind is what Step reports to its driver.
type EventKind uint8

const (
	EvNone EventKind = iota
	EvHalt
	EvCrash
	EvTimeout
	EvSecBeg
	EvSecEnd
	EvROIBeg
	EvROIEnd
)

// Event is the result of executing one instruction.
type Event struct {
	Kind EventKind
	Sec  int // section static ID for EvSecBeg/EvSecEnd
}

// maxCallDepth bounds the call stack; exceeding it is a crash (the
// simulated analogue of a stack overflow caused by a corrupted branch).
const maxCallDepth = 1024

// Machine is one simulated CPU plus memory.
type Machine struct {
	code []op // the linked program, pre-decoded once by New and shared by clones

	R [isa.NumRegs]uint64 // integer registers
	F [isa.NumRegs]uint64 // float registers, stored as raw bits so bitflips are uniform

	Mem   []uint64
	PC    int
	Stack []int // return addresses

	Dyn    uint64 // number of executed instructions
	MaxDyn uint64 // timeout threshold; 0 disables the check

	// MemLimit, when nonzero, bounds the register-addressed loads and
	// stores (LD/ST/FLD/FST) below len(Mem); the absolute-addressed
	// detector ops (LDA/STA/FLDA/FSTA) always address all of Mem. Hardened
	// programs carve their spill slots out of the space above the limit so
	// a fault-deflected address crashes exactly where the original program
	// would have, instead of silently landing in a slot.
	MemLimit int

	Status Status
	Crash  CrashKind

	// Write journal (BeginJournal): an undo log of overwritten memory
	// words, so a forked execution can be reverted to its fork point
	// without copying all of Mem.
	journal    []memWrite
	journaling bool
	overflowed bool
}

// memWrite is one journaled memory write: the word's value before the
// write. The pre-images suffice to undo the run in reverse, and the
// addresses alone suffice to redo it into another machine.
type memWrite struct {
	addr uint64
	prev uint64
}

// New returns a machine for the linked code with memWords words of zeroed
// memory, positioned at the entry point. It pre-decodes the code once;
// clones and restores share the decoded form.
func New(code []isa.Instr, entry int, memWords int) *Machine {
	return &Machine{
		code: decode(code),
		Mem:  make([]uint64, memWords),
		PC:   entry,
	}
}

// Clone returns a deep copy of the machine. The decoded program is shared
// (it is immutable); memory and the call stack are copied.
// The clone starts with no journal regardless of m's journaling state.
func (m *Machine) Clone() *Machine {
	c := *m
	c.Mem = make([]uint64, len(m.Mem))
	copy(c.Mem, m.Mem)
	c.Stack = make([]int, len(m.Stack))
	copy(c.Stack, m.Stack)
	c.journal, c.journaling, c.overflowed = nil, false, false
	return &c
}

// RestoreFrom overwrites m's state from src without allocating when the
// memory sizes match. The decoded program is shared. Any journal m was
// keeping is reset: a full restore supersedes it.
func (m *Machine) RestoreFrom(src *Machine) {
	mem, stack, journal := m.Mem, m.Stack, m.journal
	*m = *src
	if len(mem) == len(src.Mem) {
		copy(mem, src.Mem)
		m.Mem = mem
	} else {
		m.Mem = make([]uint64, len(src.Mem))
		copy(m.Mem, src.Mem)
	}
	m.Stack = append(stack[:0], src.Stack...)
	m.journal, m.journaling, m.overflowed = journal[:0], false, false
}

// CopyScalarsFrom copies every piece of architectural state except memory
// from src: registers, PC, call stack, counters, and status. Combined with
// UndoJournal (or ReplayJournalInto on the source side) it restores a fork
// to its fork point without touching untouched memory.
func (m *Machine) CopyScalarsFrom(src *Machine) {
	m.R = src.R
	m.F = src.F
	m.PC = src.PC
	m.Stack = append(m.Stack[:0], src.Stack...)
	m.Dyn = src.Dyn
	m.MaxDyn = src.MaxDyn
	m.Status = src.Status
	m.Crash = src.Crash
}

// journalCap bounds the journal: past this many entries an undo walk costs
// more than a flat memory copy, so journaling turns itself off and the
// caller falls back to RestoreFrom.
func (m *Machine) journalCap() int {
	if c := len(m.Mem) / 4; c > 64 {
		return c
	}
	return 64
}

// BeginJournal resets the journal and starts recording the pre-image of
// every memory write, so the run from this point can be undone by
// UndoJournal or replayed into a sibling by ReplayJournalInto.
func (m *Machine) BeginJournal() {
	m.journal = m.journal[:0]
	m.journaling = true
	m.overflowed = false
}

// EndJournal stops recording without reverting anything.
func (m *Machine) EndJournal() { m.journaling = false }

// JournalOverflowed reports whether the journal hit its size bound since
// BeginJournal; if so Undo/Replay refuse and the caller must full-restore.
func (m *Machine) JournalOverflowed() bool { return m.overflowed }

// JournalLen returns the number of journal entries since BeginJournal.
// An address appears once per write, so it can repeat.
func (m *Machine) JournalLen() int { return len(m.journal) }

// JournalAddr returns the word address of journal entry i. Together with
// the current memory they tell a reader exactly where m can differ from
// its state at BeginJournal, unless the journal overflowed.
func (m *Machine) JournalAddr(i int) uint64 { return m.journal[i].addr }

// UndoJournal reverts the journaled memory writes newest-first and stops
// journaling, returning false (with memory untouched) if the journal
// overflowed and the undo log is incomplete.
func (m *Machine) UndoJournal() bool {
	m.journaling = false
	if m.overflowed {
		return false
	}
	for i := len(m.journal) - 1; i >= 0; i-- {
		w := m.journal[i]
		m.Mem[w.addr] = w.prev
	}
	m.journal = m.journal[:0]
	return true
}

// ReplayJournalInto copies m's current value of every journaled address
// into dst.Mem, bringing a dst that matched m at BeginJournal up to date
// without a full memory copy. Returns false if the journal overflowed (dst
// is untouched; the caller must full-restore).
func (m *Machine) ReplayJournalInto(dst *Machine) bool {
	if m.overflowed {
		return false
	}
	for _, w := range m.journal {
		dst.Mem[w.addr] = m.Mem[w.addr]
	}
	return true
}

// recordWrite journals the pre-image of Mem[addr], disabling the journal
// at its size bound.
func (m *Machine) recordWrite(addr uint64) {
	if len(m.journal) >= m.journalCap() {
		m.journaling = false
		m.overflowed = true
		return
	}
	m.journal = append(m.journal, memWrite{addr: addr, prev: m.Mem[addr]})
}

// store writes memory word addr, journaling its pre-image when a journal
// is active.
func (m *Machine) store(addr, v uint64) {
	if m.journaling {
		m.recordWrite(addr)
	}
	m.Mem[addr] = v
}

// memLimit returns the exclusive address bound of the register-addressed
// memory ops.
func (m *Machine) memLimit() uint64 {
	if m.MemLimit > 0 && m.MemLimit <= len(m.Mem) {
		return uint64(m.MemLimit)
	}
	return uint64(len(m.Mem))
}

// Fl returns float register f as a float64.
func (m *Machine) Fl(f int) float64 { return math.Float64frombits(m.F[f]) }

// SetFl sets float register f from a float64.
func (m *Machine) SetFl(f int, v float64) { m.F[f] = math.Float64bits(v) }

// FlipInt flips one bit of an integer register.
func (m *Machine) FlipInt(reg int, bit uint) { m.R[reg] ^= 1 << bit }

// FlipFloat flips one bit of a float register.
func (m *Machine) FlipFloat(reg int, bit uint) { m.F[reg] ^= 1 << bit }

// crash stops the machine at pc after dyn instructions with crash kind k.
func (m *Machine) crash(pc int, dyn uint64, k CrashKind) Event {
	m.PC, m.Dyn = pc, dyn
	m.Status = Crashed
	m.Crash = k
	return Event{Kind: EvCrash}
}

// exec is the interpreters' dispatch code for an opcode, derived once from
// the isa table: one code per semantic form, and one per control op the
// interpreters implement themselves. Dense codes dispatch through a jump
// table, and splitting kernels and branches by register file lets the
// common all-integer and all-float forms read registers without a class
// test.
type exec uint8

const (
	xBad         exec = iota // undefined opcode
	xIntKernel               // kernel over integer registers only
	xFloatKernel             // kernel over float registers only
	xKernel                  // kernel mixing the files (conversions, bit moves)
	xIntBranch
	xFloatBranch
	xLoad     // Rd <- Mem[Ra+Imm]
	xLoadAbs  // Rd <- Mem[Imm]
	xStore    // Mem[Rb+Imm] <- Ra
	xStoreAbs // Mem[Imm] <- Ra
	xNop
	xHalt
	xTrap
	xJmp
	xCall
	xRet
	xSecBeg
	xSecEnd
	xROIBeg
	xROIEnd
)

// Register slots name an operand's register across both files: integer
// register r is slot r, float register r is slot NumRegs+r, and an absent
// operand is slot noReg. The scalar engine reads a slot's register number
// as slot&regMask (so an absent operand reads r0, which its kernel
// ignores); the batch engine indexes its register state by slot.
const (
	regMask  = isa.NumRegs - 1
	noReg    = 2 * isa.NumRegs
	numSlots = noReg + 1
)

// op is one pre-decoded instruction: the dispatch code, the operands
// resolved to register slots, the immediate, and the semantics of the
// opcode's isa row. Both engines execute this form; decode builds it once
// per linked program.
type op struct {
	x          exec
	rd, ra, rb uint8 // register slots
	divZero    bool
	imm        int64
	kern       func(a, b uint64, imm int64) uint64
	cond       func(a, b uint64) bool
}

// decode pre-decodes a linked program.
func decode(code []isa.Instr) []op {
	ops := make([]op, len(code))
	for pc, in := range code {
		s := isa.Sem(in.Op)
		ops[pc] = op{
			x:       execOf[in.Op],
			rd:      slot(s.Dst, in.Rd),
			ra:      slot(s.SrcA, in.Ra),
			rb:      slot(s.SrcB, in.Rb),
			divZero: s.DivZero,
			imm:     in.Imm,
			kern:    s.Kernel,
			cond:    s.Cond,
		}
	}
	return ops
}

// slot returns the register slot of operand field r of class c.
func slot(c isa.RegClass, r uint8) uint8 {
	switch c {
	case isa.RegInt:
		return r & regMask
	case isa.RegFloat:
		return isa.NumRegs + r&regMask
	}
	return noReg
}

var execOf = func() (t [256]exec) {
	control := map[isa.Op]exec{
		isa.NOP: xNop, isa.HALT: xHalt, isa.TRAP: xTrap,
		isa.JMP: xJmp, isa.CALL: xCall, isa.RET: xRet,
		isa.SECBEG: xSecBeg, isa.SECEND: xSecEnd,
		isa.ROIBEG: xROIBeg, isa.ROIEND: xROIEnd,
	}
	for i := range t {
		op := isa.Op(i)
		s := isa.Sem(op)
		load := s.Dst != isa.RegNone
		switch {
		case s.Kernel != nil && onlyClass(s, isa.RegInt):
			t[i] = xIntKernel
		case s.Kernel != nil && onlyClass(s, isa.RegFloat):
			t[i] = xFloatKernel
		case s.Kernel != nil:
			t[i] = xKernel
		case s.Cond != nil && s.SrcA == isa.RegFloat:
			t[i] = xFloatBranch
		case s.Cond != nil:
			t[i] = xIntBranch
		case s.Mem && load && s.SrcA != isa.RegNone:
			t[i] = xLoad
		case s.Mem && load:
			t[i] = xLoadAbs
		case s.Mem && s.SrcB != isa.RegNone:
			t[i] = xStore
		case s.Mem:
			t[i] = xStoreAbs
		default:
			t[i] = control[op]
		}
	}
	return t
}()

// onlyClass reports whether every register operand s has is of class c.
func onlyClass(s *isa.OpInfo, c isa.RegClass) bool {
	for _, o := range []isa.RegClass{s.Dst, s.SrcA, s.SrcB} {
		if o != c && o != isa.RegNone {
			return false
		}
	}
	return true
}

// NoStop is the RunToEvent stop index that never comes: the machine runs
// until an instruction raises an event.
const NoStop = ^uint64(0)

// Step executes one instruction and reports the resulting event. Calling
// Step on a non-running machine returns the terminal event again without
// executing anything.
func (m *Machine) Step() Event { return m.RunToEvent(m.Dyn + 1) }

// Run executes until the machine leaves the Running state and returns the
// terminal event.
func (m *Machine) Run() Event {
	for {
		switch ev := m.RunToEvent(NoStop); ev.Kind {
		case EvHalt, EvCrash, EvTimeout:
			return ev
		}
	}
}

// RunUntilDyn executes until the dynamic instruction counter reaches n, so
// the next Step would execute dynamic instruction index n. It returns early
// with the terminal event if execution ends first, otherwise an EvNone.
func (m *Machine) RunUntilDyn(n uint64) Event {
	for {
		switch ev := m.RunToEvent(n); ev.Kind {
		case EvNone, EvHalt, EvCrash, EvTimeout:
			return ev
		}
	}
}

// RunToEvent executes until an instruction raises an event — a marker or
// a terminal event — and returns it, or returns EvNone once Dyn reaches
// stop, before executing dynamic instruction index stop. A machine already
// at or past stop executes nothing; otherwise a non-running machine
// returns its terminal event again. Before each instruction, a PC out of
// bounds crashes the machine even when the MaxDyn timeout is also due.
func (m *Machine) RunToEvent(stop uint64) Event {
	if m.Dyn >= stop {
		return Event{}
	}
	switch m.Status {
	case Halted:
		return Event{Kind: EvHalt}
	case Crashed:
		return Event{Kind: EvCrash}
	case TimedOut:
		return Event{Kind: EvTimeout}
	}
	code := m.code
	pc, dyn := m.PC, m.Dyn
	end := stop
	if m.MaxDyn > 0 && m.MaxDyn < end {
		end = m.MaxDyn
	}
	for {
		if dyn >= end {
			switch {
			case dyn >= stop:
				m.PC, m.Dyn = pc, dyn
				return Event{}
			case uint(pc) >= uint(len(code)):
				return m.crash(pc, dyn, CrashPCOOB)
			}
			m.PC, m.Dyn = pc, dyn
			m.Status = TimedOut
			return Event{Kind: EvTimeout}
		}
		if uint(pc) >= uint(len(code)) {
			return m.crash(pc, dyn, CrashPCOOB)
		}
		o := &code[pc]
		dyn++
		next := pc + 1
		switch o.x {
		case xIntKernel:
			b := m.R[o.rb&regMask]
			if o.divZero && b == 0 {
				return m.crash(pc, dyn, CrashDivZero)
			}
			m.R[o.rd&regMask] = o.kern(m.R[o.ra&regMask], b, o.imm)
		case xFloatKernel:
			m.F[o.rd&regMask] = o.kern(m.F[o.ra&regMask], m.F[o.rb&regMask], o.imm)
		case xKernel:
			b := m.reg(o.rb)
			if o.divZero && b == 0 {
				return m.crash(pc, dyn, CrashDivZero)
			}
			m.setReg(o.rd, o.kern(m.reg(o.ra), b, o.imm))
		case xIntBranch:
			if o.cond(m.R[o.ra&regMask], m.R[o.rb&regMask]) {
				next = int(o.imm)
			}
		case xFloatBranch:
			if o.cond(m.F[o.ra&regMask], m.F[o.rb&regMask]) {
				next = int(o.imm)
			}
		case xLoad:
			addr := m.R[o.ra&regMask] + uint64(o.imm)
			if addr >= m.memLimit() {
				return m.crash(pc, dyn, CrashMemOOB)
			}
			m.setReg(o.rd, m.Mem[addr])
		case xLoadAbs:
			addr := uint64(o.imm)
			if addr >= uint64(len(m.Mem)) {
				return m.crash(pc, dyn, CrashMemOOB)
			}
			m.setReg(o.rd, m.Mem[addr])
		case xStore:
			addr := m.R[o.rb&regMask] + uint64(o.imm)
			if addr >= m.memLimit() {
				return m.crash(pc, dyn, CrashMemOOB)
			}
			m.store(addr, m.reg(o.ra))
		case xStoreAbs:
			addr := uint64(o.imm)
			if addr >= uint64(len(m.Mem)) {
				return m.crash(pc, dyn, CrashMemOOB)
			}
			m.store(addr, m.reg(o.ra))
		case xNop:
		case xHalt:
			m.PC, m.Dyn = next, dyn
			m.Status = Halted
			return Event{Kind: EvHalt}
		case xTrap:
			return m.crash(pc, dyn, CrashTrap)
		case xJmp:
			next = int(o.imm)
		case xCall:
			if len(m.Stack) >= maxCallDepth {
				return m.crash(pc, dyn, CrashStackOverflow)
			}
			m.Stack = append(m.Stack, next)
			next = int(o.imm)
		case xRet:
			if len(m.Stack) == 0 {
				return m.crash(pc, dyn, CrashStackUnderflow)
			}
			next = m.Stack[len(m.Stack)-1]
			m.Stack = m.Stack[:len(m.Stack)-1]
		case xSecBeg:
			m.PC, m.Dyn = next, dyn
			return Event{Kind: EvSecBeg, Sec: int(o.imm)}
		case xSecEnd:
			m.PC, m.Dyn = next, dyn
			return Event{Kind: EvSecEnd, Sec: int(o.imm)}
		case xROIBeg:
			m.PC, m.Dyn = next, dyn
			return Event{Kind: EvROIBeg}
		case xROIEnd:
			m.PC, m.Dyn = next, dyn
			return Event{Kind: EvROIEnd}
		default:
			return m.crash(pc, dyn, CrashBadInstr)
		}
		pc = next
	}
}

// reg reads the register in slot s; an absent operand reads r0, which the
// op ignores.
func (m *Machine) reg(s uint8) uint64 {
	if s&isa.NumRegs != 0 {
		return m.F[s&regMask]
	}
	return m.R[s&regMask]
}

// setReg writes the register in slot s, which must not be noReg.
func (m *Machine) setReg(s uint8, v uint64) {
	if s&isa.NumRegs != 0 {
		m.F[s&regMask] = v
	} else {
		m.R[s&regMask] = v
	}
}
