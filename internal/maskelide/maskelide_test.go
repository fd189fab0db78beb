package maskelide

import (
	"testing"
	"testing/quick"

	"fastflip/internal/isa"
	"fastflip/internal/prog"
	"fastflip/internal/qcheck"
	"fastflip/internal/vm"
)

func link(t testing.TB, fns ...*prog.Function) *prog.Linked {
	t.Helper()
	p := prog.New()
	for _, fn := range fns {
		p.MustAdd(fn)
	}
	l, err := p.Link(fns[0].Name)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return l
}

func pcOf(t testing.TB, l *prog.Linked, op isa.Op, nth int) int {
	t.Helper()
	seen := 0
	for pc, in := range l.Code {
		if in.Op == op {
			if seen == nth {
				return pc
			}
			seen++
		}
	}
	t.Fatalf("no %dth %v in code", nth, op)
	return -1
}

// TestTruncatingStore: v is masked to its low byte before the store, so
// bits 8..63 of the producer's destination are dead while 0..7 stay live.
func TestTruncatingStore(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 0)
	b.Li(2, 0x12345)
	b.Andi(3, 2, 0xff) // only low byte survives
	b.St(3, 1, 4)
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	li := pcOf(t, l, isa.LI, 1) // the 0x12345 load into r2
	// Destination flips of r2 at the LI: only low 8 bits observable.
	if got := m.LiveOut(li, isa.RegInt, 2); got != 0xff {
		t.Fatalf("liveOut(r2 at LI) = %#x, want 0xff", got)
	}
	dst := isa.Operand{Role: isa.OperandDst, Class: isa.RegInt, Reg: 2}
	if !m.SiteElidable(li, dst, 8, 1) || !m.SiteElidable(li, dst, 63, 1) {
		t.Fatal("high dst bits of truncated value should be elidable")
	}
	if m.SiteElidable(li, dst, 7, 1) {
		t.Fatal("kept low bit must not be elidable")
	}
	// A burst straddling the boundary is not elidable.
	if m.SiteElidable(li, dst, 7, 2) {
		t.Fatal("burst covering a live bit must not be elidable")
	}
	if !m.SiteElidable(li, dst, 8, 4) {
		t.Fatal("all-dead burst should be elidable")
	}
	// The store's value operand is fully live.
	st := pcOf(t, l, isa.ST, 0)
	val := isa.Operand{Role: isa.OperandSrcA, Class: isa.RegInt, Reg: 3}
	if m.SiteElidable(st, val, 63, 1) {
		t.Fatal("store value bits are never elidable")
	}
	// The store's base register is fully live (address crash determinism).
	base := isa.Operand{Role: isa.OperandSrcB, Class: isa.RegInt, Reg: 1}
	if m.SiteElidable(st, base, 63, 1) {
		t.Fatal("store base bits are never elidable")
	}
}

// TestOrAbsorption: ORI with a mask forces those bits to one, so the
// source's forced bits are dead.
func TestOrAbsorption(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 0)
	b.Li(2, 7)
	b.Ori(3, 2, 0xf0)
	b.St(3, 1, 0)
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	li := pcOf(t, l, isa.LI, 1)
	if got := m.LiveOut(li, isa.RegInt, 2); got != ^uint64(0xf0) {
		t.Fatalf("liveOut(r2) = %#x, want %#x", got, ^uint64(0xf0))
	}
}

// TestAdd32KillsUpperHalf: the 32-bit add never observes the upper source
// half, and defines the upper destination half as zero.
func TestAdd32KillsUpperHalf(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 0)
	b.Li(2, 123)
	b.Li(3, 456)
	b.Add32(4, 2, 3)
	b.St(4, 1, 0)
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	add := pcOf(t, l, isa.ADD32, 0)
	src := isa.Operand{Role: isa.OperandSrcA, Class: isa.RegInt, Reg: 2}
	if !m.SiteElidable(add, src, 32, 32) {
		t.Fatal("upper source half of ADD32 should be elidable")
	}
	if m.SiteElidable(add, src, 31, 1) {
		t.Fatal("low source half of ADD32 must not be elidable")
	}
}

// TestDivisorAlwaysLive: even when the quotient is dead, a divisor flip
// can toggle the divide-by-zero crash, so it is never elidable.
func TestDivisorAlwaysLive(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 10)
	b.Li(2, 3)
	b.Div(3, 1, 2) // r3 never stored: quotient dead
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	div := pcOf(t, l, isa.DIV, 0)
	divisor := isa.Operand{Role: isa.OperandSrcB, Class: isa.RegInt, Reg: 2}
	if m.SiteElidable(div, divisor, 0, 1) {
		t.Fatal("divisor bits must never be elidable")
	}
	// The dividend only feeds the dead quotient.
	dividend := isa.Operand{Role: isa.OperandSrcA, Class: isa.RegInt, Reg: 1}
	if !m.SiteElidable(div, dividend, 0, 1) {
		t.Fatal("dividend of a dead quotient should be elidable")
	}
	// And the dead destination is fully elidable.
	dst := isa.Operand{Role: isa.OperandDst, Class: isa.RegInt, Reg: 3}
	if !m.SiteElidable(div, dst, 0, 64) {
		t.Fatal("dead quotient destination should be elidable")
	}
}

// TestBranchOperandsLive: branch sources decide control flow and are
// always fully live.
func TestBranchOperandsLive(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 0)
	b.Li(2, 5)
	b.Beq(1, 2, "done")
	b.Li(3, 1)
	b.Label("done")
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	beq := pcOf(t, l, isa.BEQ, 0)
	for _, op := range []isa.Operand{
		{Role: isa.OperandSrcA, Class: isa.RegInt, Reg: 1},
		{Role: isa.OperandSrcB, Class: isa.RegInt, Reg: 2},
	} {
		if m.SiteElidable(beq, op, 0, 1) || m.SiteElidable(beq, op, 63, 1) {
			t.Fatalf("branch operand r%d should be fully live", op.Reg)
		}
	}
}

// TestInterproceduralDeadTail: a value computed in a callee and never
// observed by any caller is dead across the RET.
func TestInterproceduralDeadTail(t *testing.T) {
	main := prog.NewFunc("main")
	main.Li(1, 0)
	main.Call("leaf")
	main.Li(2, 9)
	main.St(2, 1, 0)
	main.Halt()

	leaf := prog.NewFunc("leaf")
	leaf.Li(5, 0xdead) // r5 never read after the call returns
	leaf.Ret()

	l := link(t, main.MustBuild(), leaf.MustBuild())
	m := Analyze(l)

	li := pcOf(t, l, isa.LI, 2) // the 0xdead load inside leaf
	if l.Code[li].Imm != 0xdead {
		t.Fatalf("wrong LI found: %+v", l.Code[li])
	}
	dst := isa.Operand{Role: isa.OperandDst, Class: isa.RegInt, Reg: 5}
	if !m.SiteElidable(li, dst, 0, 64) {
		t.Fatal("callee-local dead value should be elidable across RET")
	}
}

// TestShiftTranslation: SHRI moves the live window up; bits shifted out
// below it are dead.
func TestShiftTranslation(t *testing.T) {
	b := prog.NewFunc("main")
	b.Li(1, 0)
	b.Li(2, 0xabcd)
	b.Shri(3, 2, 8) // r3 = r2 >> 8
	b.Andi(3, 3, 1) // keep only bit 0 of the shifted value = bit 8 of r2
	b.St(3, 1, 0)
	b.Halt()
	l := link(t, b.MustBuild())
	m := Analyze(l)

	li := pcOf(t, l, isa.LI, 1)
	if got := m.LiveOut(li, isa.RegInt, 2); got != 1<<8 {
		t.Fatalf("liveOut(r2) = %#x, want %#x", got, uint64(1)<<8)
	}
}

// buildDiffProg is a small multi-feature program with provably-dead bits
// for the differential test: masked chains, 32-bit ops, a call, a loop.
func buildDiffProg() *prog.Linked {
	main := prog.NewFunc("main")
	main.Li(1, 0) // base pointer
	main.Li(2, 0) // i = 0
	main.Li(3, 5) // n = 5
	main.Label("loop")
	main.Li(4, 0x1234567)
	main.Add(4, 4, 2)       // mix i in
	main.Andi(5, 4, 0xffff) // truncate
	main.Ori(5, 5, 0x10000) // absorb
	main.Call("hash")
	main.St(6, 1, 8) // store hash result
	main.St(5, 1, 0)
	main.Addi(2, 2, 1)
	main.Blt(2, 3, "loop")
	main.Halt()

	hash := prog.NewFunc("hash")
	hash.Rotr32(6, 5, 7)
	hash.Not32(6, 6)
	hash.Add32(6, 6, 5)
	hash.Ret()

	p := prog.New()
	p.MustAdd(main.MustBuild())
	p.MustAdd(hash.MustBuild())
	l, err := p.Link("main")
	if err != nil {
		panic(err)
	}
	return l
}

// TestDifferentialDeadBits flips every bit the analysis proves dead, at
// its dynamic position, and requires the run to be architecturally
// indistinguishable from the clean run (same final memory, same event).
func TestDifferentialDeadBits(t *testing.T) {
	l := buildDiffProg()
	masks := Analyze(l)

	const memWords = 16
	clean := vm.New(l.Code, l.Entry, memWords)
	cleanEv := clean.Run()
	if cleanEv.Kind != vm.EvHalt {
		t.Fatalf("clean run ended with %v", cleanEv.Kind)
	}

	// Walk the clean execution once, recording (dyn, pc).
	type step struct {
		dyn uint64
		pc  int
	}
	var steps []step
	w := vm.New(l.Code, l.Entry, memWords)
	for {
		if w.PC < 0 || w.PC >= len(l.Code) {
			break
		}
		steps = append(steps, step{w.Dyn, w.PC})
		if ev := w.Step(); ev.Kind == vm.EvHalt || ev.Kind == vm.EvCrash || ev.Kind == vm.EvTimeout {
			break
		}
	}

	flips := 0
	var ops []isa.Operand
	for _, s := range steps {
		in := l.Code[s.pc]
		ops = in.Operands(ops[:0])
		for _, op := range ops {
			for bit := uint8(0); bit < 64; bit++ {
				if !masks.SiteElidable(s.pc, op, bit, 1) {
					continue
				}
				flips++
				m := vm.New(l.Code, l.Entry, memWords)
				if ev := m.RunUntilDyn(s.dyn); ev.Kind != vm.EvNone {
					t.Fatalf("replay to dyn %d: %v", s.dyn, ev.Kind)
				}
				if op.Role == isa.OperandDst {
					if ev := m.Step(); ev.Kind != vm.EvNone {
						t.Fatalf("step at dyn %d: %v", s.dyn, ev.Kind)
					}
				}
				if op.Class == isa.RegFloat {
					m.FlipFloat(int(op.Reg), uint(bit))
				} else {
					m.FlipInt(int(op.Reg), uint(bit))
				}
				ev := m.Run()
				if ev.Kind != cleanEv.Kind {
					t.Fatalf("dyn %d pc %d %v r%d bit %d: event %v != clean %v",
						s.dyn, s.pc, op.Role, op.Reg, bit, ev.Kind, cleanEv.Kind)
				}
				for a := range m.Mem {
					if m.Mem[a] != clean.Mem[a] {
						t.Fatalf("dyn %d pc %d %v r%d bit %d: mem[%d] %#x != clean %#x",
							s.dyn, s.pc, op.Role, op.Reg, bit, a, m.Mem[a], clean.Mem[a])
					}
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("differential test exercised zero elidable sites")
	}
	t.Logf("verified %d provably-dead single-bit flips", flips)
}

// TestUseMasksSoundForKernels checks the transfer functions against the
// isa table's semantics: for every op with a kernel, flipping any bit of
// Ra outside useMasks's ua, or of Rb outside ub, must leave the live bits
// kernel(a, b, imm) & ld unchanged. Live-out masks are drawn dense,
// shifted and single-bit so the partial-liveness arms are exercised.
func TestUseMasksSoundForKernels(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		s := isa.Sem(op)
		if s.Kernel == nil {
			continue
		}
		prop := func(a, b, ldBits uint64, shape, sh uint8, imm int64) bool {
			ld := ldBits
			switch shape % 3 {
			case 1:
				ld >>= sh % 64
			case 2:
				ld = 1 << (sh % 64)
			}
			if s.DivZero && b == 0 {
				return true // the instruction crashes; no result to compare
			}
			ua, ub := useMasks(isa.Instr{Op: op, Imm: imm}, ld)
			want := s.Kernel(a, b, imm) & ld
			for bit := 0; bit < 64; bit++ {
				m := uint64(1) << bit
				if ua&m == 0 && s.Kernel(a^m, b, imm)&ld != want {
					t.Logf("%v: a=%#x b=%#x imm=%d ld=%#x: dead a bit %d changes live result bits", op, a, b, imm, ld, bit)
					return false
				}
				if ub&m == 0 && !(s.DivZero && b^m == 0) && s.Kernel(a, b^m, imm)&ld != want {
					t.Logf("%v: a=%#x b=%#x imm=%d ld=%#x: dead b bit %d changes live result bits", op, a, b, imm, ld, bit)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, qcheck.Config(t, 300)); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func BenchmarkMaskAnalysis(b *testing.B) {
	l := buildDiffProg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(l)
	}
}
