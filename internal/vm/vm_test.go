package vm

import (
	"math"
	"testing"

	"fastflip/internal/isa"
)

// run executes a fresh machine over the instruction sequence (a HALT is
// appended) and returns it.
func run(t *testing.T, code []isa.Instr, setup func(*Machine)) *Machine {
	t.Helper()
	code = append(append([]isa.Instr(nil), code...), isa.Instr{Op: isa.HALT})
	m := New(code, 0, 64)
	if setup != nil {
		setup(m)
	}
	ev := m.Run()
	if ev.Kind != EvHalt {
		t.Fatalf("terminal event = %v (status %v, crash %v)", ev.Kind, m.Status, m.Crash)
	}
	return m
}

func TestIntegerALU(t *testing.T) {
	tests := []struct {
		name string
		op   isa.Op
		a, b uint64
		want uint64
	}{
		{"add", isa.ADD, 7, 5, 12},
		{"add wraps", isa.ADD, math.MaxUint64, 1, 0},
		{"sub", isa.SUB, 5, 7, ^uint64(1)},
		{"mul", isa.MUL, 6, 7, 42},
		{"div signed", isa.DIV, ^uint64(19), 6, ^uint64(2)},
		{"rem signed", isa.REM, ^uint64(19), 6, ^uint64(1)},
		{"and", isa.AND, 0b1100, 0b1010, 0b1000},
		{"or", isa.OR, 0b1100, 0b1010, 0b1110},
		{"xor", isa.XOR, 0b1100, 0b1010, 0b0110},
		{"shl", isa.SHL, 1, 4, 16},
		{"shl masks amount", isa.SHL, 1, 64, 1},
		{"shr logical", isa.SHR, 1 << 63, 63, 1},
		{"sra keeps sign", isa.SRA, ^uint64(7), 2, ^uint64(1)},
		{"slt true", isa.SLT, ^uint64(0), 0, 1},
		{"slt false", isa.SLT, 1, 0, 0},
		{"sltu unsigned", isa.SLTU, ^uint64(0), 0, 0},
		{"add32 masks", isa.ADD32, 0xffffffff, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := run(t, []isa.Instr{{Op: tt.op, Rd: 3, Ra: 1, Rb: 2}}, func(m *Machine) {
				m.R[1], m.R[2] = tt.a, tt.b
			})
			if m.R[3] != tt.want {
				t.Errorf("%v(%d, %d) = %d, want %d", tt.op, int64(tt.a), int64(tt.b), m.R[3], tt.want)
			}
		})
	}
}

func TestImmediateALU(t *testing.T) {
	tests := []struct {
		op   isa.Op
		a    uint64
		imm  int64
		want uint64
	}{
		{isa.ADDI, 10, -3, 7},
		{isa.MULI, 6, 9, 54},
		{isa.ANDI, 0xff, 0x0f, 0x0f},
		{isa.ORI, 0xf0, 0x0f, 0xff},
		{isa.XORI, 0xff, 0x0f, 0xf0},
		{isa.SHLI, 3, 2, 12},
		{isa.SHRI, 0xf0, 4, 0x0f},
		{isa.SRAI, ^uint64(15), 2, ^uint64(3)}, // -16 >> 2 == -4
	}
	for _, tt := range tests {
		m := run(t, []isa.Instr{{Op: tt.op, Rd: 2, Ra: 1, Imm: tt.imm}}, func(m *Machine) {
			m.R[1] = tt.a
		})
		if m.R[2] != tt.want {
			t.Errorf("%v(%d, %d) = %d, want %d", tt.op, tt.a, tt.imm, m.R[2], tt.want)
		}
	}
}

func TestUnaryAndMoves(t *testing.T) {
	m := run(t, []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 0x0ff0},
		{Op: isa.MOV, Rd: 2, Ra: 1},
		{Op: isa.NOT, Rd: 3, Ra: 1},
		{Op: isa.NEG, Rd: 4, Ra: 1},
		{Op: isa.NOT32, Rd: 5, Ra: 1},
		{Op: isa.ROTR32, Rd: 6, Ra: 1, Imm: 4},
	}, nil)
	if m.R[2] != 0x0ff0 {
		t.Errorf("mov = %x", m.R[2])
	}
	if m.R[3] != ^uint64(0x0ff0) {
		t.Errorf("not = %x", m.R[3])
	}
	if m.R[4] != ^uint64(0x0ff0)+1 {
		t.Errorf("neg = %x", m.R[4])
	}
	if m.R[5] != 0xfffff00f {
		t.Errorf("not32 = %x", m.R[5])
	}
	if m.R[6] != 0x00000ff0>>4 {
		t.Errorf("rotr32 = %x", m.R[6])
	}
}

func TestFloatOps(t *testing.T) {
	tests := []struct {
		name string
		op   isa.Op
		a, b float64
		want float64
	}{
		{"fadd", isa.FADD, 1.5, 2.25, 3.75},
		{"fsub", isa.FSUB, 1.5, 2.25, -0.75},
		{"fmul", isa.FMUL, 1.5, 2.0, 3.0},
		{"fdiv", isa.FDIV, 3.0, 2.0, 1.5},
		{"fmin", isa.FMIN, 3.0, 2.0, 2.0},
		{"fmax", isa.FMAX, 3.0, 2.0, 3.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := run(t, []isa.Instr{{Op: tt.op, Rd: 3, Ra: 1, Rb: 2}}, func(m *Machine) {
				m.SetFl(1, tt.a)
				m.SetFl(2, tt.b)
			})
			if got := m.Fl(3); got != tt.want {
				t.Errorf("%v(%v, %v) = %v, want %v", tt.op, tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestFloatUnary(t *testing.T) {
	tests := []struct {
		op   isa.Op
		a    float64
		want float64
	}{
		{isa.FSQRT, 9, 3},
		{isa.FNEG, 2.5, -2.5},
		{isa.FABS, -2.5, 2.5},
		{isa.FEXP, 0, 1},
		{isa.FLN, 1, 0},
		{isa.FMOV, 7.25, 7.25},
	}
	for _, tt := range tests {
		m := run(t, []isa.Instr{{Op: tt.op, Rd: 2, Ra: 1}}, func(m *Machine) {
			m.SetFl(1, tt.a)
		})
		if got := m.Fl(2); got != tt.want {
			t.Errorf("%v(%v) = %v, want %v", tt.op, tt.a, got, tt.want)
		}
	}
}

func TestFloatDivByZeroIsQuietInf(t *testing.T) {
	// IEEE semantics: float division by zero yields ±Inf, not a crash —
	// the analysis treats Inf in outputs as a *detected* malformed output.
	m := run(t, []isa.Instr{{Op: isa.FDIV, Rd: 2, Ra: 1, Rb: 0}}, func(m *Machine) {
		m.SetFl(1, 1)
		m.SetFl(0, 0)
	})
	if !math.IsInf(m.Fl(2), 1) {
		t.Errorf("1/0 = %v, want +Inf", m.Fl(2))
	}
}

func TestConversions(t *testing.T) {
	m := run(t, []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: -7},
		{Op: isa.ITOF, Rd: 1, Ra: 1},
		{Op: isa.FTOI, Rd: 2, Ra: 1},
		{Op: isa.FBITS, Rd: 3, Ra: 1},
		{Op: isa.BITSF, Rd: 2, Ra: 3},
	}, nil)
	if m.Fl(1) != -7 {
		t.Errorf("itof = %v", m.Fl(1))
	}
	if int64(m.R[2]) != -7 {
		t.Errorf("ftoi = %d", int64(m.R[2]))
	}
	if m.R[3] != math.Float64bits(-7) {
		t.Errorf("fbits = %x", m.R[3])
	}
	if m.Fl(2) != -7 {
		t.Errorf("bitsf = %v", m.Fl(2))
	}
}

func TestFTOITruncatesAndSaturates(t *testing.T) {
	for _, tt := range []struct {
		in   float64
		want uint64
	}{
		{2.9, 2},
		{-2.9, ^uint64(1)},
		{math.NaN(), 1 << 63},
		{math.Inf(1), 1 << 63},
		{1e300, 1 << 63},
	} {
		m := run(t, []isa.Instr{{Op: isa.FTOI, Rd: 1, Ra: 0}}, func(m *Machine) {
			m.SetFl(0, tt.in)
		})
		if m.R[1] != tt.want {
			t.Errorf("ftoi(%v) = %x, want %x", tt.in, m.R[1], tt.want)
		}
	}
}

func TestMemory(t *testing.T) {
	m := run(t, []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 5},  // base
		{Op: isa.LI, Rd: 2, Imm: 99}, // value
		{Op: isa.ST, Ra: 2, Rb: 1, Imm: 3},
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 3},
	}, nil)
	if m.Mem[8] != 99 || m.R[3] != 99 {
		t.Errorf("mem[8] = %d, loaded %d", m.Mem[8], m.R[3])
	}
}

func TestFloatMemory(t *testing.T) {
	m := run(t, []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 2},
		{Op: isa.FLI, Rd: 0, Imm: int64(math.Float64bits(6.5))},
		{Op: isa.FST, Ra: 0, Rb: 1, Imm: 1},
		{Op: isa.FLD, Rd: 1, Ra: 1, Imm: 1},
	}, nil)
	if m.Fl(1) != 6.5 {
		t.Errorf("fld round-trip = %v", m.Fl(1))
	}
}

func TestBranches(t *testing.T) {
	// Each branch jumps over an instruction that would set r3.
	tests := []struct {
		op    isa.Op
		a, b  int64
		taken bool
	}{
		{isa.BEQ, 4, 4, true},
		{isa.BEQ, 4, 5, false},
		{isa.BNE, 4, 5, true},
		{isa.BLT, -1, 0, true},
		{isa.BLT, 0, -1, false},
		{isa.BLE, 3, 3, true},
		{isa.BGT, 4, 3, true},
		{isa.BGE, 3, 4, false},
	}
	for _, tt := range tests {
		m := run(t, []isa.Instr{
			{Op: tt.op, Ra: 1, Rb: 2, Imm: 2},
			{Op: isa.LI, Rd: 3, Imm: 1},
		}, func(m *Machine) {
			m.R[1], m.R[2] = uint64(tt.a), uint64(tt.b)
		})
		if got := m.R[3] == 0; got != tt.taken {
			t.Errorf("%v(%d, %d) taken = %v, want %v", tt.op, tt.a, tt.b, got, tt.taken)
		}
	}
}

func TestFloatBranchesQuietOnNaN(t *testing.T) {
	nan := math.NaN()
	for _, op := range []isa.Op{isa.FBEQ, isa.FBLT, isa.FBLE} {
		m := run(t, []isa.Instr{
			{Op: op, Ra: 1, Rb: 2, Imm: 2},
			{Op: isa.LI, Rd: 3, Imm: 1},
		}, func(m *Machine) {
			m.SetFl(1, nan)
			m.SetFl(2, 1)
		})
		if m.R[3] != 1 {
			t.Errorf("%v with NaN was taken", op)
		}
	}
}

func TestCallRet(t *testing.T) {
	m := run(t, []isa.Instr{
		{Op: isa.CALL, Imm: 3},
		{Op: isa.LI, Rd: 2, Imm: 2}, // after return
		{Op: isa.HALT},
		{Op: isa.LI, Rd: 1, Imm: 1}, // callee
		{Op: isa.RET},
	}, nil)
	if m.R[1] != 1 || m.R[2] != 2 {
		t.Errorf("call/ret state r1=%d r2=%d", m.R[1], m.R[2])
	}
}

func TestCrashes(t *testing.T) {
	tests := []struct {
		name string
		code []isa.Instr
		want CrashKind
	}{
		{"load out of bounds", []isa.Instr{
			{Op: isa.LI, Rd: 1, Imm: 1 << 40},
			{Op: isa.LD, Rd: 2, Ra: 1},
		}, CrashMemOOB},
		{"store negative address", []isa.Instr{
			{Op: isa.LI, Rd: 1, Imm: -1},
			{Op: isa.ST, Ra: 2, Rb: 1},
		}, CrashMemOOB},
		{"integer division by zero", []isa.Instr{
			{Op: isa.LI, Rd: 1, Imm: 3},
			{Op: isa.DIV, Rd: 2, Ra: 1, Rb: 3},
		}, CrashDivZero},
		{"jump out of program", []isa.Instr{
			{Op: isa.JMP, Imm: 1 << 30},
		}, CrashPCOOB},
		{"return with empty stack", []isa.Instr{
			{Op: isa.RET},
		}, CrashStackUnderflow},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := New(tt.code, 0, 16)
			ev := m.Run()
			if ev.Kind != EvCrash || m.Crash != tt.want {
				t.Errorf("event %v crash %v, want crash %v", ev.Kind, m.Crash, tt.want)
			}
		})
	}
}

func TestCallStackOverflowCrashes(t *testing.T) {
	// A function that calls itself forever must hit the depth limit.
	m := New([]isa.Instr{{Op: isa.CALL, Imm: 0}}, 0, 16)
	ev := m.Run()
	if ev.Kind != EvCrash || m.Crash != CrashStackOverflow {
		t.Errorf("event %v crash %v", ev.Kind, m.Crash)
	}
}

func TestTimeout(t *testing.T) {
	m := New([]isa.Instr{{Op: isa.JMP, Imm: 0}}, 0, 16)
	m.MaxDyn = 100
	ev := m.Run()
	if ev.Kind != EvTimeout || m.Status != TimedOut {
		t.Errorf("event %v status %v", ev.Kind, m.Status)
	}
	if m.Dyn != 100 {
		t.Errorf("executed %d instructions, want 100", m.Dyn)
	}
}

func TestMarkersEmitEvents(t *testing.T) {
	m := New([]isa.Instr{
		{Op: isa.ROIBEG},
		{Op: isa.SECBEG, Imm: 7},
		{Op: isa.SECEND, Imm: 7},
		{Op: isa.ROIEND},
		{Op: isa.HALT},
	}, 0, 16)
	want := []Event{
		{Kind: EvROIBeg},
		{Kind: EvSecBeg, Sec: 7},
		{Kind: EvSecEnd, Sec: 7},
		{Kind: EvROIEnd},
		{Kind: EvHalt},
	}
	for i, w := range want {
		if ev := m.Step(); ev != w {
			t.Errorf("step %d event = %+v, want %+v", i, ev, w)
		}
	}
}

func TestTerminalStepIsSticky(t *testing.T) {
	m := New([]isa.Instr{{Op: isa.HALT}}, 0, 16)
	m.Run()
	dyn := m.Dyn
	for i := 0; i < 3; i++ {
		if ev := m.Step(); ev.Kind != EvHalt {
			t.Fatalf("step after halt = %v", ev.Kind)
		}
	}
	if m.Dyn != dyn {
		t.Error("halted machine kept counting instructions")
	}
}

func TestCloneAndRestoreIsolation(t *testing.T) {
	m := New([]isa.Instr{{Op: isa.HALT}}, 0, 16)
	m.R[1] = 42
	m.Mem[3] = 7
	m.Stack = append(m.Stack, 5)

	c := m.Clone()
	c.R[1] = 1
	c.Mem[3] = 1
	c.Stack[0] = 1
	if m.R[1] != 42 || m.Mem[3] != 7 || m.Stack[0] != 5 {
		t.Error("Clone shares state with the original")
	}

	var dst Machine
	dst.Mem = make([]uint64, 16)
	dst.RestoreFrom(m)
	if dst.R[1] != 42 || dst.Mem[3] != 7 || len(dst.Stack) != 1 || dst.Stack[0] != 5 {
		t.Errorf("RestoreFrom lost state: %+v", dst)
	}
	dst.Mem[3] = 9
	if m.Mem[3] != 7 {
		t.Error("RestoreFrom aliases memory")
	}
}

func TestFlipBits(t *testing.T) {
	m := New(nil, 0, 1)
	m.FlipInt(2, 7)
	if m.R[2] != 1<<7 {
		t.Errorf("FlipInt: %x", m.R[2])
	}
	m.FlipInt(2, 7)
	if m.R[2] != 0 {
		t.Error("FlipInt is not an involution")
	}
	m.SetFl(1, 1.0)
	bits := m.F[1]
	m.FlipFloat(1, 63)
	if m.Fl(1) != -1.0 {
		t.Errorf("sign flip: %v", m.Fl(1))
	}
	m.FlipFloat(1, 63)
	if m.F[1] != bits {
		t.Error("FlipFloat is not an involution")
	}
}

func TestRunUntilDyn(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 1},
		{Op: isa.LI, Rd: 2, Imm: 2},
		{Op: isa.LI, Rd: 3, Imm: 3},
		{Op: isa.HALT},
	}
	m := New(code, 0, 1)
	if ev := m.RunUntilDyn(2); ev.Kind != EvNone {
		t.Fatalf("early termination: %v", ev.Kind)
	}
	if m.R[2] != 2 || m.R[3] != 0 {
		t.Errorf("state after 2 steps: r2=%d r3=%d", m.R[2], m.R[3])
	}
	if ev := m.RunUntilDyn(100); ev.Kind != EvHalt {
		t.Errorf("expected halt, got %v", ev.Kind)
	}
}

func TestStatusAndCrashStrings(t *testing.T) {
	for s := Running; s <= TimedOut; s++ {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
	for k := CrashNone; k <= CrashBadInstr; k++ {
		if k.String() == "" {
			t.Errorf("crash %d has empty string", k)
		}
	}
}

func TestJournalUndoRevertsMemory(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 7},
		{Op: isa.ST, Ra: 1, Rb: 0, Imm: 3}, // Mem[3] = 7
		{Op: isa.ST, Ra: 1, Rb: 0, Imm: 5}, // Mem[5] = 7
		{Op: isa.ST, Ra: 0, Rb: 0, Imm: 3}, // Mem[3] = r0 (second write, same word)
		{Op: isa.HALT},
	}
	m := New(code, 0, 16)
	m.Mem[3], m.Mem[5] = 100, 200
	snap := m.Clone()

	m.BeginJournal()
	m.Run()
	if m.Mem[3] != 0 || m.Mem[5] != 7 {
		t.Fatalf("run state: mem[3]=%d mem[5]=%d", m.Mem[3], m.Mem[5])
	}
	if !m.UndoJournal() {
		t.Fatal("UndoJournal reported overflow on a short run")
	}
	m.CopyScalarsFrom(snap)
	for i, want := range snap.Mem {
		if m.Mem[i] != want {
			t.Errorf("mem[%d] = %d after undo, want %d", i, m.Mem[i], want)
		}
	}
	if m.Dyn != snap.Dyn || m.PC != snap.PC || m.Status != snap.Status {
		t.Errorf("scalars not reverted: dyn=%d pc=%d status=%v", m.Dyn, m.PC, m.Status)
	}
}

func TestJournalReplayInto(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 9},
		{Op: isa.ST, Ra: 1, Rb: 0, Imm: 2},
		{Op: isa.ST, Ra: 1, Rb: 0, Imm: 8},
		{Op: isa.HALT},
	}
	m := New(code, 0, 16)
	sibling := m.Clone()
	m.BeginJournal()
	m.Run()
	if !m.ReplayJournalInto(sibling) {
		t.Fatal("ReplayJournalInto reported overflow")
	}
	sibling.CopyScalarsFrom(m)
	for i := range m.Mem {
		if sibling.Mem[i] != m.Mem[i] {
			t.Errorf("mem[%d]: sibling %d, source %d", i, sibling.Mem[i], m.Mem[i])
		}
	}
}

func TestJournalOverflowFallsBack(t *testing.T) {
	// A tight store loop overruns the journal bound (len(Mem)/4 min 64);
	// Undo must refuse and leave memory as the run left it.
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 1},
		{Op: isa.ADD, Rd: 2, Ra: 2, Rb: 1},  // r2++
		{Op: isa.ST, Ra: 2, Rb: 0, Imm: 0},  // Mem[0] = r2
		{Op: isa.BLT, Ra: 2, Rb: 3, Imm: 1}, // loop while r2 < r3
		{Op: isa.HALT},
	}
	m := New(code, 0, 16)
	m.R[3] = 1000
	snap := m.Clone()
	m.BeginJournal()
	m.Run()
	if !m.JournalOverflowed() {
		t.Fatal("journal did not overflow after 1000 stores")
	}
	if m.UndoJournal() {
		t.Fatal("UndoJournal succeeded despite overflow")
	}
	if m.ReplayJournalInto(snap) {
		t.Fatal("ReplayJournalInto succeeded despite overflow")
	}
	m.RestoreFrom(snap) // the documented fallback
	if m.Mem[0] != 0 || m.Dyn != 0 {
		t.Errorf("fallback restore failed: mem[0]=%d dyn=%d", m.Mem[0], m.Dyn)
	}
	// The journal is reusable after the full restore.
	m.BeginJournal()
	if m.JournalOverflowed() {
		t.Error("overflow flag survived BeginJournal")
	}
}

func TestCloneDropsJournal(t *testing.T) {
	m := New([]isa.Instr{{Op: isa.HALT}}, 0, 16)
	m.BeginJournal()
	c := m.Clone()
	if c.journaling || len(c.journal) != 0 {
		t.Error("Clone inherited an active journal")
	}
}

func BenchmarkStepALU(b *testing.B) {
	code := []isa.Instr{
		{Op: isa.ADD, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.JMP, Imm: 0},
	}
	m := New(code, 0, 1)
	m.R[2] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkRun runs batchProg to its halt on a scalar machine restored
// from the entry state each iteration: the run loop over a mix of
// kernels, branches, a call and memory ops.
func BenchmarkRun(b *testing.B) {
	l := batchProg(b)
	entry := New(l.Code, l.Entry, 32)
	m := entry.Clone()
	steps := 0
	for i := 0; i < b.N; i++ {
		m.RestoreFrom(entry)
		if ev := m.Run(); ev.Kind != EvHalt {
			b.Fatalf("run ended with %v", ev.Kind)
		}
		steps += int(m.Dyn)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

func BenchmarkRestoreFrom(b *testing.B) {
	src := New(nil, 0, 4096)
	dst := New(nil, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.RestoreFrom(src)
	}
}
