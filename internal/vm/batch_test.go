package vm

import (
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
// identical status, crash kind, dynamic count, registers, and memory.
func TestBatchMatchesScalar(t *testing.T) {
	l := batchProg(t)
	const memWords = 32
	rng := rand.New(rand.NewSource(7))

	clean := New(l.Code, l.Entry, memWords)
	if ev := clean.Run(); ev.Kind != EvHalt {
		t.Fatalf("clean run: %v", ev.Kind)
	}
	total := clean.Dyn

	for _, forkAt := range []uint64{0, 3, 9, 17, total - 2} {
		fork := New(l.Code, l.Entry, memWords)
		fork.MaxDyn = 10 * total
		if ev := fork.RunUntilDyn(forkAt); ev.Kind != EvNone {
			t.Fatalf("fork replay to %d: %v", forkAt, ev.Kind)
		}

		const K = 24
		flips := make([]flipSpec, K)
		for k := range flips {
			flips[k] = flipSpec{
				float: rng.Intn(4) == 0,
				reg:   1 + rng.Intn(9),
				bit:   uint(rng.Intn(64)),
			}
		}

		b := NewBatch(fork, K)
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
// dynamic count, call stack, status and crash kind.
func TestBatchStepMatchesScalarPerOpcode(t *testing.T) {
	const (
		memWords = 64
		codeLen  = 8
		K        = 16
		trials   = 40
	)
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

			b := NewBatch(fork, K)
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

func BenchmarkBatchStep(b *testing.B) {
	l := batchProg(b)
	const memWords = 32
	fork := New(l.Code, l.Entry, memWords)
	clean := New(l.Code, l.Entry, memWords)
	clean.Run()
	for _, width := range []int{1, 8, 32} {
		name := map[int]string{1: "k1", 8: "k8", 32: "k32"}[width]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				bt := NewBatch(fork, width)
				for k := 0; k < width; k++ {
					bt.FlipInt(k, 4, uint(k%64))
				}
				bt.Run()
				steps += int(bt.Steps())
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}
