package vm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/prog"
)

// batchProg exercises every detach path: loops (branch divergence), a
// call, integer and float arithmetic, loads/stores with computed
// addresses, and a division whose divisor a flip can zero.
func batchProg(t testing.TB) *prog.Linked {
	main := prog.NewFunc("main")
	main.Li(1, 0) // base
	main.Li(2, 0) // i
	main.Li(3, 6) // n
	main.Li(7, 3) // divisor
	main.Label("loop")
	main.Li(4, 0x9e3779b9)
	main.Add(4, 4, 2)
	main.Div(5, 4, 7)
	main.Call("mix")
	main.St(6, 1, 2)
	main.Ld(8, 1, 2)
	main.Itof(9, 8)
	main.Fsqrt(9, 9)
	main.Fst(9, 1, 3)
	main.Addi(2, 2, 1)
	main.Blt(2, 3, "loop")
	main.Halt()

	mix := prog.NewFunc("mix")
	mix.Rotr32(6, 5, 5)
	mix.Add32(6, 6, 4)
	mix.Andi(6, 6, 0x7fffffff)
	mix.Ret()

	p := prog.New()
	p.MustAdd(main.MustBuild())
	p.MustAdd(mix.MustBuild())
	l, err := p.Link("main")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return l
}

type flipSpec struct {
	float bool
	reg   int
	bit   uint
}

// scalarGroundTruth runs one flipped replica on a scalar Machine from the
// fork point to termination and returns its final state.
func scalarGroundTruth(fork *Machine, fl flipSpec) *Machine {
	m := fork.Clone()
	if fl.float {
		m.FlipFloat(fl.reg, fl.bit)
	} else {
		m.FlipInt(fl.reg, fl.bit)
	}
	m.Run()
	return m
}

// TestBatchMatchesScalar forks a batch of randomly flipped replicas at
// several dynamic positions and checks every replica, materialized and
// finished on a scalar machine, against an unbatched scalar run:
// identical status, crash kind, dynamic count, registers, and memory. One
// Batch is re-forked with Reset across forks of different widths and
// memory sizes, so a reused Batch must behave exactly like a fresh one.
func TestBatchMatchesScalar(t *testing.T) {
	l := batchProg(t)
	rng := rand.New(rand.NewSource(7))

	clean := New(l.Code, l.Entry, 32)
	if ev := clean.Run(); ev.Kind != EvHalt {
		t.Fatalf("clean run: %v", ev.Kind)
	}
	total := clean.Dyn

	b := new(Batch)
	for i, forkAt := range []uint64{0, 3, 9, 17, total - 2, 9} {
		memWords := []int{32, 12, 48, 32, 16, 32}[i]
		K := []int{24, 5, 40, 1, 24, 13}[i]
		fork := New(l.Code, l.Entry, memWords)
		fork.MaxDyn = 10 * total
		if ev := fork.RunUntilDyn(forkAt); ev.Kind != EvNone {
			t.Fatalf("fork replay to %d: %v", forkAt, ev.Kind)
		}

		flips := make([]flipSpec, K)
		for k := range flips {
			flips[k] = flipSpec{
				float: rng.Intn(4) == 0,
				reg:   1 + rng.Intn(9),
				bit:   uint(rng.Intn(64)),
			}
		}

		b.Reset(fork, K)
		for k, fl := range flips {
			if fl.float {
				b.FlipFloat(k, fl.reg, fl.bit)
			} else {
				b.FlipInt(k, fl.reg, fl.bit)
			}
		}
		b.Run()

		scratch := fork.Clone()
		for k, fl := range flips {
			want := scalarGroundTruth(fork, fl)

			scratch.BeginJournal()
			b.MaterializeInto(k, scratch)
			got := scratch.Clone()
			got.Run()

			if got.Status != want.Status || got.Crash != want.Crash {
				t.Fatalf("fork %d replica %d (%+v): status %v/%v, want %v/%v",
					forkAt, k, fl, got.Status, got.Crash, want.Status, want.Crash)
			}
			if got.Dyn != want.Dyn {
				t.Fatalf("fork %d replica %d (%+v): dyn %d, want %d", forkAt, k, fl, got.Dyn, want.Dyn)
			}
			if got.R != want.R || got.F != want.F {
				t.Fatalf("fork %d replica %d (%+v): register files differ", forkAt, k, fl)
			}
			for a := range got.Mem {
				if got.Mem[a] != want.Mem[a] {
					t.Fatalf("fork %d replica %d (%+v): mem[%d] = %#x, want %#x",
						forkAt, k, fl, a, got.Mem[a], want.Mem[a])
				}
			}

			// The journal must revert the materialization so the scratch
			// machine can host the next replica.
			if scratch.UndoJournal() {
				scratch.CopyScalarsFrom(fork)
			} else {
				scratch.RestoreFrom(fork)
			}
			for a := range scratch.Mem {
				if scratch.Mem[a] != fork.Mem[a] {
					t.Fatalf("fork %d replica %d: journal revert left mem[%d] dirty", forkAt, k, a)
				}
			}
		}
	}
}

// sameState reports whether two machines hold identical architectural
// state: memory, registers, PC, call stack, counters and status.
func sameState(a, b *Machine) bool {
	return slices.Equal(a.Mem, b.Mem) && a.R == b.R && a.F == b.F &&
		a.PC == b.PC && slices.Equal(a.Stack, b.Stack) && a.Dyn == b.Dyn &&
		a.MaxDyn == b.MaxDyn && a.Status == b.Status && a.Crash == b.Crash
}

// overlayFork links code, runs it for prefix instructions on a memWords
// machine with mem preset, and returns the positioned fork.
func overlayFork(t *testing.T, build func(*prog.B), memWords int, mem map[int]uint64, prefix uint64) *Machine {
	t.Helper()
	main := prog.NewFunc("main")
	build(main)
	p := prog.New()
	p.MustAdd(main.MustBuild())
	l, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	m := New(l.Code, l.Entry, memWords)
	for a, v := range mem {
		m.Mem[a] = v
	}
	if ev := m.RunUntilDyn(prefix); ev.Kind != EvNone {
		t.Fatalf("prefix: %v", ev.Kind)
	}
	return m
}

// TestBatchPrivateStoreKeepsBaseForOthers: one replica stores through a
// flipped base register to a word no other replica touches; every other
// replica must still load that word's base value.
func TestBatchPrivateStoreKeepsBaseForOthers(t *testing.T) {
	fork := overlayFork(t, func(f *prog.B) {
		f.Li(1, 0)  // store base
		f.Li(2, 7)  // stored value
		f.Li(4, 16) // load base
		f.St(2, 1, 0)
		f.Ld(3, 4, 0)
		f.Halt()
	}, 32, map[int]uint64{0: 0x55, 16: 0xabc}, 3)
	const K = 4
	b := NewBatch(fork, K)
	b.FlipInt(0, 1, 4) // replica 0 stores to word 16 instead of word 0
	b.Run()
	for k := 0; k < K; k++ {
		m := fork.Clone()
		b.MaterializeInto(k, m)
		want0, want16, wantR3 := uint64(7), uint64(0xabc), uint64(0xabc)
		if k == 0 {
			want0, want16, wantR3 = 0x55, 7, 7
		}
		if m.Mem[0] != want0 || m.Mem[16] != want16 || m.R[3] != wantR3 {
			t.Errorf("replica %d: mem[0]=%#x mem[16]=%#x r3=%#x, want %#x %#x %#x",
				k, m.Mem[0], m.Mem[16], m.R[3], want0, want16, wantR3)
		}
	}
}

// TestBatchStoreBackOfBaseValueIsNotJournaled: a replica that stores the
// base value back materializes with no journal entry, one that stores a
// different value with exactly one, and UndoJournal restores the machine
// to its fork state either way.
func TestBatchStoreBackOfBaseValueIsNotJournaled(t *testing.T) {
	fork := overlayFork(t, func(f *prog.B) {
		f.Li(1, 0)
		f.Li(2, 0x55) // mem[0] already holds it
		f.St(2, 1, 0)
		f.Halt()
	}, 8, map[int]uint64{0: 0x55}, 2)
	b := NewBatch(fork, 2)
	b.FlipInt(1, 2, 0) // replica 1 stores 0x54
	b.Run()
	for k, wantJournal := range []int{0, 1} {
		m := fork.Clone()
		m.BeginJournal()
		b.MaterializeInto(k, m)
		if len(m.journal) != wantJournal {
			t.Errorf("replica %d: %d journal entries, want %d", k, len(m.journal), wantJournal)
		}
		if !m.UndoJournal() {
			t.Fatalf("replica %d: journal overflowed", k)
		}
		m.CopyScalarsFrom(fork)
		if !sameState(m, fork) {
			t.Errorf("replica %d: undo did not restore the fork state", k)
		}
	}
}

// TestBatchMaterializeOntoItsBase mirrors the injection engine, which
// materializes every replica onto the batch's own base machine, finishes
// it there and undoes it: that cycle for replica j must leave replica
// j+1's materialization unchanged.
func TestBatchMaterializeOntoItsBase(t *testing.T) {
	l := batchProg(t)
	rng := rand.New(rand.NewSource(3))
	fork := New(l.Code, l.Entry, 32)
	fork.MaxDyn = 1000
	if ev := fork.RunUntilDyn(9); ev.Kind != EvNone {
		t.Fatalf("fork replay: %v", ev.Kind)
	}
	pristine := fork.Clone()

	const K = 24
	flips := make([]flipSpec, K)
	b := NewBatch(fork, K)
	for k := range flips {
		flips[k] = flipSpec{reg: 1 + rng.Intn(9), bit: uint(rng.Intn(8))}
		b.FlipInt(k, flips[k].reg, flips[k].bit)
	}
	b.Run()
	want := make([]*Machine, K)
	for k := range want {
		want[k] = pristine.Clone()
		b.MaterializeInto(k, want[k])
	}

	for k, fl := range flips {
		fork.BeginJournal()
		b.MaterializeInto(k, fork)
		if !sameState(fork, want[k]) {
			t.Fatalf("replica %d: materialized onto the base differs from onto a copy", k)
		}
		fork.Run()
		if g := scalarGroundTruth(pristine, fl); !sameState(fork, g) {
			t.Fatalf("replica %d (%+v): finished state differs from the scalar run", k, fl)
		}
		if fork.UndoJournal() {
			fork.CopyScalarsFrom(pristine)
		} else {
			fork.RestoreFrom(pristine)
		}
		if !sameState(fork, pristine) {
			t.Fatalf("replica %d: undo left the base dirty", k)
		}
	}
}

// TestBatchStopsBeforeEvents ensures a batch never consumes SECEND or
// HALT: the scalar finisher must observe those events itself.
func TestBatchStopsBeforeEvents(t *testing.T) {
	b := prog.NewFunc("main")
	b.RoiBeg()
	b.SecBeg(0)
	b.Li(1, 1)
	b.Addi(1, 1, 2)
	b.SecEnd(0)
	b.RoiEnd()
	b.Halt()
	p := prog.New()
	p.MustAdd(b.MustBuild())
	l, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	fork := New(l.Code, l.Entry, 8)
	batch := NewBatch(fork, 3)
	batch.Run()
	if got := l.Code[batch.pc].Op; got != isa.SECEND {
		t.Fatalf("batch stopped at %v, want SECEND", got)
	}
	m := fork.Clone()
	batch.MaterializeInto(0, m)
	if ev := m.Step(); ev.Kind != EvSecEnd {
		t.Fatalf("materialized step = %v, want EvSecEnd", ev.Kind)
	}
}

// TestBatchStepMatchesScalarPerOpcode checks every opcode the batch
// executes — each valid opcode outside its stop-before set — against the
// scalar interpreter. From random register files and memory, K replicas
// with random flips take one Batch.Step, and each must reach the state one
// scalar Step of the same flipped machine reaches: registers, memory, PC,
// dynamic count, call stack, status and crash kind. One Batch is
// re-forked with Reset for every trial, at varying widths.
func TestBatchStepMatchesScalarPerOpcode(t *testing.T) {
	const (
		memWords = 64
		codeLen  = 8
		trials   = 40
	)
	widths := []int{16, 5, 23, 1, 16, 11}
	b := new(Batch)
	rng := rand.New(rand.NewSource(11))
	// value favors the edges the semantics branch on: zero divisors,
	// addresses just inside and outside memory, small negatives, floats.
	value := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(memWords + 8))
		case 2:
			return uint64(-rng.Int63n(4))
		case 3:
			return math.Float64bits(rng.NormFloat64() * 100)
		}
		return rng.Uint64()
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		switch op {
		case isa.SECEND, isa.HALT, isa.TRAP:
			continue // the batch stops before these
		}
		for trial := 0; trial < trials; trial++ {
			in := isa.Instr{
				Op:  op,
				Rd:  uint8(rng.Intn(isa.NumRegs)),
				Ra:  uint8(rng.Intn(isa.NumRegs)),
				Rb:  uint8(rng.Intn(isa.NumRegs)),
				Imm: int64(value()),
			}
			switch isa.Info(op).Imm {
			case isa.ImmTarget, isa.ImmCallee:
				in.Imm = rng.Int63n(codeLen)
			case isa.ImmOffset:
				in.Imm = rng.Int63n(memWords + 8)
			}
			code := make([]isa.Instr, codeLen)
			code[0] = in
			fork := New(code, 0, memWords)
			if trial%2 == 1 {
				fork.MemLimit = memWords - 16
			}
			for r := 0; r < isa.NumRegs; r++ {
				fork.R[r], fork.F[r] = value(), value()
			}
			for a := range fork.Mem {
				fork.Mem[a] = value()
			}
			fork.Stack = []int{rng.Intn(codeLen)}
			fork.Dyn = uint64(rng.Intn(100))

			K := widths[trial%len(widths)]
			b.Reset(fork, K)
			flips := make([]flipSpec, K)
			for k := range flips {
				flips[k] = flipSpec{float: rng.Intn(2) == 0, reg: rng.Intn(isa.NumRegs), bit: uint(rng.Intn(64))}
				if flips[k].float {
					b.FlipFloat(k, flips[k].reg, flips[k].bit)
				} else {
					b.FlipInt(k, flips[k].reg, flips[k].bit)
				}
			}
			if !b.Step() {
				t.Fatalf("%v: batch refused to step", in)
			}
			for k, fl := range flips {
				want := fork.Clone()
				if fl.float {
					want.FlipFloat(fl.reg, fl.bit)
				} else {
					want.FlipInt(fl.reg, fl.bit)
				}
				want.Step()
				got := fork.Clone()
				b.MaterializeInto(k, got)
				switch {
				case got.R != want.R || got.F != want.F:
					t.Fatalf("%v replica %d (%+v): registers differ", in, k, fl)
				case !slices.Equal(got.Mem, want.Mem):
					t.Fatalf("%v replica %d (%+v): memory differs", in, k, fl)
				case got.PC != want.PC || got.Dyn != want.Dyn || !slices.Equal(got.Stack, want.Stack):
					t.Fatalf("%v replica %d (%+v): pc/dyn/stack %d/%d/%v, want %d/%d/%v",
						in, k, fl, got.PC, got.Dyn, got.Stack, want.PC, want.Dyn, want.Stack)
				case got.Status != want.Status || got.Crash != want.Crash:
					t.Fatalf("%v replica %d (%+v): status %v/%v, want %v/%v",
						in, k, fl, got.Status, got.Crash, want.Status, want.Crash)
				}
			}
		}
	}
}

// TestBatchStopsOnUndefinedOpcode: the batch must not step over an opcode
// the ISA does not define; the scalar finisher raises CrashBadInstr.
func TestBatchStopsOnUndefinedOpcode(t *testing.T) {
	code := []isa.Instr{{Op: isa.Op(isa.NumOps)}, {Op: isa.HALT}}
	fork := New(code, 0, 4)
	b := NewBatch(fork, 2)
	if b.Step() {
		t.Fatal("batch stepped over an undefined opcode")
	}
	m := fork.Clone()
	b.MaterializeInto(0, m)
	if ev := m.Step(); ev.Kind != EvCrash || m.Crash != CrashBadInstr {
		t.Fatalf("scalar finisher: %v/%v, want crash %v", ev.Kind, m.Crash, CrashBadInstr)
	}
}

// storeProg writes a words-long buffer from address 0, each word the
// loop index plus r4: a flip of r4 corrupts every stored word without
// changing control flow, so all replicas stay in lockstep and write the
// whole buffer, as fft's replicas do.
func storeProg(t testing.TB, words int64) *prog.Linked {
	main := prog.NewFunc("main")
	main.Li(1, 0)      // i, also the address
	main.Li(3, words)  // n
	main.Li(4, 0x1234) // addend, the flip target
	main.Label("loop")
	main.Add(5, 4, 1)
	main.St(5, 1, 0)
	main.Addi(1, 1, 1)
	main.Blt(1, 3, "loop")
	main.Halt()
	p := prog.New()
	p.MustAdd(main.MustBuild())
	l, err := p.Link("main")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return l
}

// BenchmarkBatchStep runs one batch per iteration through a reused Batch,
// as the injection engine does. The k cases flip the divisor r7, so every
// replica computes its own quotients, mixes and stored words, all in
// lockstep; the shared cases flip r12, which the loop never reads, so
// every step's inputs are shared by the whole batch. The store cases also materialize
// every replica onto a journaling fork and undo it, so they measure the
// whole memory-column path on a 12 KiB buffer.
func BenchmarkBatchStep(b *testing.B) {
	l := batchProg(b)
	fork := New(l.Code, l.Entry, 32)
	fork.RunUntilDyn(4) // past the prologue that sets r7
	for _, c := range []struct {
		name       string
		reg, width int
	}{{"k1", 7, 1}, {"k8", 7, 8}, {"k32", 7, 32}, {"shared/k8", 12, 8}, {"shared/k32", 12, 32}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			bt := new(Batch)
			steps := 0
			for i := 0; i < b.N; i++ {
				bt.Reset(fork, c.width)
				for k := 0; k < c.width; k++ {
					bt.FlipInt(k, c.reg, uint(k%64))
				}
				bt.Run()
				steps += int(bt.Steps())
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}

	const words = 1536
	sl := storeProg(b, words)
	sfork := New(sl.Code, sl.Entry, 4*words)
	sfork.RunUntilDyn(3)
	for _, width := range []int{8, 32} {
		b.Run(fmt.Sprintf("store/k%d", width), func(b *testing.B) {
			b.ReportAllocs()
			bt := new(Batch)
			em := sfork.Clone()
			for i := 0; i < b.N; i++ {
				bt.Reset(em, width)
				for k := 0; k < width; k++ {
					bt.FlipInt(k, 4, uint(k%64))
				}
				bt.Run()
				for k := 0; k < width; k++ {
					em.BeginJournal()
					bt.MaterializeInto(k, em)
					if !em.UndoJournal() {
						b.Fatal("journal overflowed")
					}
					em.CopyScalarsFrom(sfork)
				}
			}
		})
	}
}

// checkReplica materializes replica k onto a copy of fork and checks it
// against a scalar machine that took the same flip at the fork: run to the
// replica's dynamic count if it is still running, else to termination.
func checkReplica(t *testing.T, fork *Machine, b *Batch, k int, flip func(*Machine)) *Machine {
	t.Helper()
	got := fork.Clone()
	b.MaterializeInto(k, got)
	want := fork.Clone()
	flip(want)
	if got.Status == Running {
		want.RunUntilDyn(got.Dyn)
	} else {
		want.Run()
	}
	if !sameState(got, want) {
		t.Fatalf("replica %d: materialized %v/%v pc %d dyn %d r=%v mem=%v, scalar %v/%v pc %d dyn %d r=%v mem=%v",
			k, got.Status, got.Crash, got.PC, got.Dyn, got.R, got.Mem,
			want.Status, want.Crash, want.PC, want.Dyn, want.R, want.Mem)
	}
	return got
}

// TestBatchDetachedReplicaKeepsItsState: replicas that leave the lockstep
// set — one crashing on a zero divisor, one on an out-of-bounds load, one
// branching away — keep the registers and memory they had when they left,
// although the group goes on to rewrite a shared register and to store
// shared values over a word every replica shared before. The crashing
// replicas also keep the old shared value of the destination register.
func TestBatchDetachedReplicaKeepsItsState(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.LI, Rd: 1, Imm: 0},          // 0: store base
		{Op: isa.LI, Rd: 2, Imm: 5},          // 1: stored value
		{Op: isa.LI, Rd: 7, Imm: 1},          // 2: divisor
		{Op: isa.LI, Rd: 5, Imm: 77},         // 3: DIV destination
		{Op: isa.LI, Rd: 6, Imm: 33},         // 4: LD destination
		{Op: isa.LI, Rd: 8, Imm: 2},          // 5: LD base
		{Op: isa.ST, Ra: 2, Rb: 1, Imm: 0},   // 6: shared store, no replica detached yet
		{Op: isa.DIV, Rd: 5, Ra: 2, Rb: 7},   // 7: replica 1 divides by zero
		{Op: isa.LD, Rd: 6, Ra: 8, Imm: 0},   // 8: replica 2 loads out of bounds
		{Op: isa.BNE, Ra: 4, Rb: 3, Imm: 14}, // 9: replica 3 branches away
		{Op: isa.LI, Rd: 2, Imm: 9},          // 10: shared register write
		{Op: isa.ST, Ra: 2, Rb: 1, Imm: 0},   // 11: shared store over a shared word
		{Op: isa.ST, Ra: 2, Rb: 1, Imm: 1},   // 12: shared store to a fresh word
		{Op: isa.HALT},                       // 13
		{Op: isa.HALT},                       // 14
	}
	fork := New(code, 0, 8)
	fork.Mem[1], fork.Mem[2] = 0x11, 0x22
	if ev := fork.RunUntilDyn(6); ev.Kind != EvNone {
		t.Fatalf("prefix: %v", ev.Kind)
	}
	flips := []func(*Machine){
		func(m *Machine) { m.FlipInt(10, 3) }, // a register nobody reads
		func(m *Machine) { m.FlipInt(7, 0) },  // divisor 1 -> 0
		func(m *Machine) { m.FlipInt(8, 40) }, // load base far out of bounds
		func(m *Machine) { m.FlipInt(4, 3) },  // branch decides the other way
		func(m *Machine) {},
	}
	b := NewBatch(fork, len(flips))
	b.FlipInt(0, 10, 3)
	b.FlipInt(1, 7, 0)
	b.FlipInt(2, 8, 40)
	b.FlipInt(3, 4, 3)
	b.Run()
	if b.pc != 13 || b.ActiveCount() != 2 {
		t.Fatalf("batch stopped at pc %d with %d active, want 13 with 2", b.pc, b.ActiveCount())
	}
	checkReplica(t, fork, b, 0, flips[0])
	if m := checkReplica(t, fork, b, 1, flips[1]); m.Crash != CrashDivZero || m.R[5] != 77 || m.Mem[0] != 5 {
		t.Errorf("divide-by-zero replica: crash %v r5 %d mem[0] %d, want %v 77 5", m.Crash, m.R[5], m.Mem[0], CrashDivZero)
	}
	if m := checkReplica(t, fork, b, 2, flips[2]); m.Crash != CrashMemOOB || m.R[6] != 33 || m.R[5] != 5 {
		t.Errorf("out-of-bounds replica: crash %v r6 %d r5 %d, want %v 33 5", m.Crash, m.R[6], m.R[5], CrashMemOOB)
	}
	if m := checkReplica(t, fork, b, 3, flips[3]); m.PC != 14 || m.R[2] != 5 || m.Mem[0] != 5 || m.Mem[1] != 0x11 {
		t.Errorf("branched-away replica: pc %d r2 %d mem[0] %d mem[1] %#x, want 14 5 5 0x11", m.PC, m.R[2], m.Mem[0], m.Mem[1])
	}
	if m := checkReplica(t, fork, b, 4, flips[4]); m.R[2] != 9 || m.Mem[0] != 9 || m.Mem[1] != 9 {
		t.Errorf("lockstep replica: r2 %d mem[0] %d mem[1] %d, want 9 9 9", m.R[2], m.Mem[0], m.Mem[1])
	}
}

// TestBatchSharedDivisorZeroCrashesAll: a zero divisor every replica
// shares crashes the whole active set at once, each keeping the old
// value of the destination register.
func TestBatchSharedDivisorZeroCrashesAll(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.REM, Rd: 5, Ra: 2, Rb: 7},
		{Op: isa.HALT},
	}
	fork := New(code, 0, 4)
	fork.R[2], fork.R[5] = 12, 77
	b := NewBatch(fork, 3)
	b.FlipInt(1, 2, 1)
	if !b.Step() || b.ActiveCount() != 0 {
		t.Fatalf("step: %d replicas still active, want 0", b.ActiveCount())
	}
	for k := 0; k < 3; k++ {
		flip := func(m *Machine) {}
		if k == 1 {
			flip = func(m *Machine) { m.FlipInt(2, 1) }
		}
		if m := checkReplica(t, fork, b, k, flip); m.Crash != CrashDivZero || m.R[5] != 77 {
			t.Errorf("replica %d: crash %v r5 %d, want %v 77", k, m.Crash, m.R[5], CrashDivZero)
		}
	}
}

// TestBatchRegisterReconverges: flips confined to bits an ANDI clears make
// the destination's per-replica results agree, so the register is shared
// again; every replica's materialized state still matches its scalar run.
func TestBatchRegisterReconverges(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.ANDI, Rd: 3, Ra: 4, Imm: 0xff00},
		{Op: isa.ADD, Rd: 5, Ra: 3, Rb: 3},
		{Op: isa.ST, Ra: 5, Rb: 0, Imm: 2},
		{Op: isa.HALT},
	}
	fork := New(code, 0, 4)
	fork.R[4] = 0x1234
	const K = 6
	b := NewBatch(fork, K)
	for k := 1; k < K; k++ {
		b.FlipInt(k, 4, uint(k%8))
	}
	if b.shared[4] {
		t.Fatal("flipped register r4 still shared")
	}
	if !b.Step() {
		t.Fatal("batch refused to step")
	}
	if !b.shared[3] || b.val[3] != 0x1200 {
		t.Fatalf("r3 after ANDI: shared %v value %#x, want shared 0x1200", b.shared[3], b.val[3])
	}
	b.Run()
	if !b.shared[5] || len(b.mem[2]) != 1 {
		t.Errorf("r5 shared %v, mem[2] held in %d words; want shared and one word", b.shared[5], len(b.mem[2]))
	}
	for k := 0; k < K; k++ {
		checkReplica(t, fork, b, k, func(m *Machine) {
			if k > 0 {
				m.FlipInt(4, uint(k%8))
			}
		})
	}
}

// TestBatchMemoryWordSettles: a word every replica stores the same value
// to settles from a column back into one word, and a later per-replica
// store regrows the column seeded with that value, which a replica that
// detached in between keeps seeing.
func TestBatchMemoryWordSettles(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.ADD, Rd: 5, Ra: 4, Rb: 0},  // 0: r5 differs per replica
		{Op: isa.ST, Ra: 5, Rb: 0, Imm: 2},  // 1: mem[2] becomes a column
		{Op: isa.ST, Ra: 0, Rb: 0, Imm: 2},  // 2: every replica stores zero
		{Op: isa.BNE, Ra: 7, Rb: 6, Imm: 6}, // 3: replica 3 branches away
		{Op: isa.ST, Ra: 5, Rb: 0, Imm: 2},  // 4: mem[2] a column again
		{Op: isa.HALT},                      // 5
		{Op: isa.HALT},                      // 6
	}
	fork := New(code, 0, 4)
	fork.R[4], fork.R[6], fork.R[7] = 0x40, 9, 9
	fork.Mem[2] = 0x77
	const K = 4
	b := NewBatch(fork, K)
	for k := 1; k < K; k++ {
		b.FlipInt(k, 4, uint(k))
	}
	b.FlipInt(K-1, 7, 0)
	b.Step()
	b.Step()
	if len(b.mem[2]) != K {
		t.Fatalf("mem[2] after a per-replica store: %d words, want %d", len(b.mem[2]), K)
	}
	b.Step()
	if len(b.mem[2]) != 1 {
		t.Fatalf("mem[2] after a shared store: %d words, want 1", len(b.mem[2]))
	}
	used := b.used
	b.Run()
	if b.pc != 5 || b.ActiveCount() != K-1 || b.used != used {
		t.Fatalf("batch at pc %d, %d active, %d words carved after settling; want 5, %d, none",
			b.pc, b.ActiveCount(), b.used-used, K-1)
	}
	for k := 0; k < K; k++ {
		m := checkReplica(t, fork, b, k, func(m *Machine) {
			if k > 0 {
				m.FlipInt(4, uint(k))
			}
			if k == K-1 {
				m.FlipInt(7, 0)
			}
		})
		want := m.R[5]
		if k == K-1 {
			want = 0
		}
		if m.Mem[2] != want {
			t.Errorf("replica %d: mem[2] = %#x, want %#x", k, m.Mem[2], want)
		}
	}
}

// TestBatchFlipDetachedReplica: a flip aimed at a replica that has
// already detached, as a destination flip after a divergent site
// instruction is, lands in that replica's register snapshot.
func TestBatchFlipDetachedReplica(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.BEQ, Ra: 1, Rb: 2, Imm: 3},
		{Op: isa.NOP},
		{Op: isa.HALT},
		{Op: isa.HALT},
	}
	fork := New(code, 0, 4)
	fork.R[1], fork.R[2] = 4, 4
	fork.F[3] = math.Float64bits(1.5)
	b := NewBatch(fork, 3)
	b.FlipInt(0, 1, 0) // the lead falls through; the others detach at 3
	if !b.Step() || b.ActiveCount() != 1 {
		t.Fatalf("step: %d active, want 1", b.ActiveCount())
	}
	b.FlipInt(2, 6, 5)
	b.FlipFloat(2, 3, 63)
	b.FlipFloat(0, 3, 1)
	b.Run()
	checkReplica(t, fork, b, 0, func(m *Machine) {
		m.FlipInt(1, 0)
		m.Step()
		m.FlipFloat(3, 1)
	})
	checkReplica(t, fork, b, 1, func(m *Machine) {})
	m := checkReplica(t, fork, b, 2, func(m *Machine) {
		m.Step()
		m.FlipInt(6, 5)
		m.FlipFloat(3, 63)
	})
	if m.PC != 3 || m.R[6] != 1<<5 || m.Fl(3) != -1.5 {
		t.Errorf("replica 2: pc %d r6 %#x f3 %v, want 3 0x20 -1.5", m.PC, m.R[6], m.Fl(3))
	}
}
