package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastflip/internal/isa"
	"fastflip/internal/qcheck"
)

// exec1 runs a single instruction on fresh state and returns the machine.
func exec1(in isa.Instr, setup func(*Machine)) *Machine {
	m := New([]isa.Instr{in, {Op: isa.HALT}}, 0, 8)
	if setup != nil {
		setup(m)
	}
	m.Run()
	return m
}

// Property: ADD32 results always fit in 32 bits and equal mod-2^32 sums.
func TestADD32InvariantQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		m := exec1(isa.Instr{Op: isa.ADD32, Rd: 3, Ra: 1, Rb: 2}, func(m *Machine) {
			m.R[1], m.R[2] = a, b
		})
		got := m.R[3]
		return got <= 0xffffffff && uint32(got) == uint32(a)+uint32(b)
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// Property: ROTR32 by n then by 32-n restores a 32-bit value.
func TestROTR32InverseQuick(t *testing.T) {
	f := func(v uint32, nRaw uint8) bool {
		n := int64(nRaw%31 + 1) // 1..31 so the inverse is also 1..31
		m := New([]isa.Instr{
			{Op: isa.ROTR32, Rd: 1, Ra: 1, Imm: n},
			{Op: isa.ROTR32, Rd: 1, Ra: 1, Imm: 32 - n},
			{Op: isa.HALT},
		}, 0, 1)
		m.R[1] = uint64(v)
		m.Run()
		return m.R[1] == uint64(v)
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// Property: MOV/NOT are involutive in the expected ways.
func TestNotInvolutionQuick(t *testing.T) {
	f := func(v uint64) bool {
		m := New([]isa.Instr{
			{Op: isa.NOT, Rd: 1, Ra: 1},
			{Op: isa.NOT, Rd: 1, Ra: 1},
			{Op: isa.HALT},
		}, 0, 1)
		m.R[1] = v
		m.Run()
		return m.R[1] == v
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// Property: a store followed by a load round-trips any word through any
// in-bounds address.
func TestMemRoundTripQuick(t *testing.T) {
	f := func(v uint64, addrRaw uint8) bool {
		addr := int64(addrRaw % 8)
		m := New([]isa.Instr{
			{Op: isa.ST, Ra: 1, Rb: 0, Imm: addr},
			{Op: isa.LD, Rd: 2, Ra: 0, Imm: addr},
			{Op: isa.HALT},
		}, 0, 8)
		m.R[1] = v
		m.Run()
		return m.R[2] == v && m.Mem[addr] == v
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// Property: Clone + RestoreFrom is the identity on architectural state.
func TestCloneRestoreIdentityQuick(t *testing.T) {
	f := func(r1, f1, mem0 uint64, pc uint8) bool {
		src := New(make([]isa.Instr, 16), int(pc%16), 4)
		src.R[1], src.F[1], src.Mem[0] = r1, f1, mem0
		src.Stack = append(src.Stack, int(pc))
		dst := New(nil, 0, 4)
		dst.RestoreFrom(src.Clone())
		return dst.R[1] == r1 && dst.F[1] == f1 && dst.Mem[0] == mem0 &&
			dst.PC == src.PC && len(dst.Stack) == 1 && dst.Stack[0] == int(pc)
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// Property: bitflip injection is always an involution on registers.
func TestFlipInvolutionQuick(t *testing.T) {
	f := func(v uint64, reg, bit uint8) bool {
		m := New(nil, 0, 1)
		r := int(reg % isa.NumRegs)
		b := uint(bit % 64)
		m.R[r] = v
		m.FlipInt(r, b)
		changed := m.R[r] != v
		m.FlipInt(r, b)
		return changed && m.R[r] == v
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

// randomProgram returns a short program of random instructions over four
// registers and eight memory words, on a machine with random registers and
// memory. Jump, branch and call targets reach two past the end, so runs
// also end in PC-out-of-bounds crashes; maxDyn bounds every run.
func randomProgram(rng *rand.Rand, maxDyn uint64) *Machine {
	const memWords = 8
	code := make([]isa.Instr, 4+rng.Intn(12))
	for pc := range code {
		in := isa.Instr{
			Op: isa.Op(rng.Intn(isa.NumOps)),
			Rd: uint8(rng.Intn(4)), Ra: uint8(rng.Intn(4)), Rb: uint8(rng.Intn(4)),
			Imm: int64(rng.Intn(7)) - 1,
		}
		switch isa.Info(in.Op).Imm {
		case isa.ImmTarget, isa.ImmCallee:
			in.Imm = int64(rng.Intn(len(code) + 2))
		case isa.ImmOffset:
			in.Imm = int64(rng.Intn(memWords + 2))
		}
		code[pc] = in
	}
	m := New(code, 0, memWords)
	for r := 0; r < 4; r++ {
		m.R[r] = uint64(rng.Intn(memWords + 2))
		m.F[r] = uint64(rng.Intn(3))
	}
	for a := range m.Mem {
		m.Mem[a] = uint64(rng.Intn(memWords + 2))
	}
	m.MaxDyn = maxDyn
	return m
}

// stepTo is RunToEvent as a Step-by-Step loop: the reference the run
// loop must match.
func stepTo(m *Machine, stop uint64) Event {
	for m.Dyn < stop {
		if ev := m.Step(); ev.Kind != EvNone {
			return ev
		}
	}
	return Event{}
}

// isTerminal reports whether ev ends a run.
func isTerminal(ev Event) bool {
	return ev.Kind == EvHalt || ev.Kind == EvCrash || ev.Kind == EvTimeout
}

// Property: Run, RunUntilDyn and RunToEvent reach the same events and
// the same state as a Step-by-Step run of a random program, including at
// the boundaries: a stop index equal to MaxDyn, a stop at or below Dyn,
// a PC out of bounds exactly at the stop index (no crash yet) and at the
// MaxDyn timeout (the crash wins).
func TestRunLoopsMatchStepQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxDyn := uint64(1 + rng.Intn(60))
		base := randomProgram(rng, maxDyn)

		got, want := base.Clone(), base.Clone()
		ev := got.Run()
		wantEv := stepTo(want, NoStop)
		for !isTerminal(wantEv) {
			wantEv = stepTo(want, NoStop)
		}
		if ev != wantEv || !sameState(got, want) {
			t.Logf("seed %d: Run = %+v at pc %d dyn %d, Step loop %+v at pc %d dyn %d",
				seed, ev, got.PC, got.Dyn, wantEv, want.PC, want.Dyn)
			return false
		}

		// Drive RunToEvent and RunUntilDyn with random stops past the end
		// of the run; each call must match the Step loop's.
		got, want = base.Clone(), base.Clone()
		if rng.Intn(4) == 0 {
			got.MaxDyn, want.MaxDyn = 0, 0
		}
		for calls := 0; calls < 40; calls++ {
			var stop uint64
			switch rng.Intn(5) {
			case 0:
				stop = maxDyn
			case 1:
				stop = want.Dyn - min(want.Dyn, uint64(rng.Intn(3)))
			default:
				stop = want.Dyn + uint64(rng.Intn(12))
			}
			var ev, wantEv Event
			if rng.Intn(2) == 0 {
				ev, wantEv = got.RunToEvent(stop), stepTo(want, stop)
			} else {
				ev = got.RunUntilDyn(stop)
				for wantEv = stepTo(want, stop); wantEv.Kind != EvNone && !isTerminal(wantEv); {
					wantEv = stepTo(want, stop)
				}
			}
			if ev != wantEv || !sameState(got, want) {
				t.Logf("seed %d call %d stop %d: got %+v at pc %d dyn %d %v, Step loop %+v at pc %d dyn %d %v",
					seed, calls, stop, ev, got.PC, got.Dyn, got.Status, wantEv, want.PC, want.Dyn, want.Status)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcheck.Config(t, 2000)); err != nil {
		t.Error(err)
	}
}

// TestRunLoopBoundaries pins the stop and timeout boundaries the property
// above samples.
func TestRunLoopBoundaries(t *testing.T) {
	loop := []isa.Instr{{Op: isa.NOP}, {Op: isa.JMP, Imm: 0}}
	m := New(loop, 0, 1)
	m.MaxDyn = 5
	if ev := m.RunToEvent(5); ev.Kind != EvNone || m.Dyn != 5 || m.Status != Running {
		t.Errorf("stop at MaxDyn: %v dyn %d %v, want none at 5, running", ev.Kind, m.Dyn, m.Status)
	}
	if ev := m.RunUntilDyn(3); ev.Kind != EvNone || m.Dyn != 5 {
		t.Errorf("RunUntilDyn below Dyn: %v dyn %d, want none at 5", ev.Kind, m.Dyn)
	}
	if ev := m.RunToEvent(NoStop); ev.Kind != EvTimeout || m.Dyn != 5 {
		t.Errorf("past MaxDyn: %v dyn %d, want timeout at 5", ev.Kind, m.Dyn)
	}
	if ev := m.RunUntilDyn(5); ev.Kind != EvNone {
		t.Errorf("RunUntilDyn(Dyn) on a timed-out machine: %v, want none", ev.Kind)
	}

	escape := []isa.Instr{{Op: isa.NOP}, {Op: isa.JMP, Imm: 9}}
	m = New(escape, 0, 1)
	if ev := m.RunUntilDyn(2); ev.Kind != EvNone || m.PC != 9 || m.Status != Running {
		t.Errorf("PC out of bounds at the stop: %v pc %d %v, want none at pc 9, running", ev.Kind, m.PC, m.Status)
	}
	if ev := m.Step(); ev.Kind != EvCrash || m.Crash != CrashPCOOB || m.Dyn != 2 {
		t.Errorf("step past the stop: %v %v dyn %d, want a PC crash at 2", ev.Kind, m.Crash, m.Dyn)
	}

	m = New(escape, 0, 1)
	m.MaxDyn = 2
	if ev := m.Run(); ev.Kind != EvCrash || m.Crash != CrashPCOOB || m.Dyn != 2 {
		t.Errorf("PC out of bounds at MaxDyn: %v %v dyn %d, want a PC crash at 2", ev.Kind, m.Crash, m.Dyn)
	}
}

// Property: on random programs, every replica of a batch of randomly
// flipped replicas, materialized when the batch stops and finished on a
// scalar machine, ends in the state its own scalar run reaches. Random
// programs mix shared and per-replica registers and memory words far
// more than the hand-written batch tests do.
func TestBatchMatchesScalarQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fork := randomProgram(rng, uint64(1+rng.Intn(60)))
		if fork.RunUntilDyn(uint64(rng.Intn(4))); fork.Status != Running {
			return true
		}
		flips := make([]func(*Machine), 1+rng.Intn(20))
		b := NewBatch(fork, len(flips))
		for k := range flips {
			reg, bit := rng.Intn(4), uint(rng.Intn(4))
			switch rng.Intn(3) {
			case 0:
				flips[k] = func(*Machine) {}
			case 1:
				b.FlipInt(k, reg, bit)
				flips[k] = func(m *Machine) { m.FlipInt(reg, bit) }
			default:
				b.FlipFloat(k, reg, bit)
				flips[k] = func(m *Machine) { m.FlipFloat(reg, bit) }
			}
		}
		b.Run()
		for k, flip := range flips {
			got := fork.Clone()
			b.MaterializeInto(k, got)
			got.Run()
			want := fork.Clone()
			flip(want)
			want.Run()
			if !sameState(got, want) {
				t.Logf("seed %d replica %d of %d: batch-finished %v/%v dyn %d, scalar %v/%v dyn %d",
					seed, k, len(flips), got.Status, got.Crash, got.Dyn, want.Status, want.Crash, want.Dyn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcheck.Config(t, 3000)); err != nil {
		t.Error(err)
	}
}

// Property: on random programs, a replica whose memory words SetWord
// seeded at the fork, materialized when the batch stops and finished on a
// scalar machine, ends with the event, dynamic count and state of a scalar
// machine with the same words poked. Replicas seed zero to three words,
// some of them twice, so columns mix seeded and base values.
func TestBatchSetWordMatchesScalarQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fork := randomProgram(rng, uint64(1+rng.Intn(60)))
		if fork.RunUntilDyn(uint64(rng.Intn(4))); fork.Status != Running {
			return true
		}
		type poke struct{ addr, v uint64 }
		pokes := make([][]poke, 1+rng.Intn(20))
		b := NewBatch(fork, len(pokes))
		for k := range pokes {
			for n := rng.Intn(4); n > 0; n-- {
				p := poke{uint64(rng.Intn(len(fork.Mem))), uint64(rng.Intn(len(fork.Mem) + 2))}
				b.SetWord(k, p.addr, p.v)
				pokes[k] = append(pokes[k], p)
			}
		}
		b.Run()
		for k := range pokes {
			got := fork.Clone()
			b.MaterializeInto(k, got)
			ev := got.Run()
			want := fork.Clone()
			for _, p := range pokes[k] {
				want.Mem[p.addr] = p.v
			}
			wantEv := want.Run()
			if ev != wantEv || !sameState(got, want) {
				t.Logf("seed %d replica %d of %d: batch-finished %v %v/%v dyn %d, scalar %v %v/%v dyn %d",
					seed, k, len(pokes), ev.Kind, got.Status, got.Crash, got.Dyn, wantEv.Kind, want.Status, want.Crash, want.Dyn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcheck.Config(t, 3000)); err != nil {
		t.Error(err)
	}
}

// Property: on random programs, a batch's stop query agrees with the
// scalar engine. Each survivor, materialized when the batch stops and run
// to its next event on a scalar machine, raises EvSecEnd at dynamic count
// Dyn()+1 exactly when SecEndNext reports a SECEND, and for the section
// it reports. The timeout and PC checks that take precedence over the
// opcode are reached too: maxDyn is small, and branch targets run past
// the end of the code.
func TestBatchSecEndNextQuick(t *testing.T) {
	secEnds, others := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fork := randomProgram(rng, uint64(1+rng.Intn(30)))
		if fork.RunUntilDyn(uint64(rng.Intn(4))); fork.Status != Running {
			return true
		}
		b := NewBatch(fork, 1+rng.Intn(8))
		for k := 0; k < b.Replicas(); k++ {
			if rng.Intn(2) == 0 {
				b.FlipInt(k, rng.Intn(4), uint(rng.Intn(4)))
			}
		}
		b.Run()
		sec, ok := b.SecEndNext()
		for k := 0; k < b.Replicas(); k++ {
			if b.Detached(k) {
				continue
			}
			m := fork.Clone()
			b.MaterializeInto(k, m)
			ev := m.RunToEvent(NoStop)
			atSecEnd := ev.Kind == EvSecEnd && m.Dyn == b.Dyn()+1
			if ok != atSecEnd || ok && ev.Sec != sec {
				t.Logf("seed %d replica %d: query %d %v, scalar %v sec %d at dyn %d (batch dyn %d)",
					seed, k, sec, ok, ev.Kind, ev.Sec, m.Dyn, b.Dyn())
				return false
			}
		}
		if ok {
			secEnds++
		} else if b.ActiveCount() > 0 {
			others++
		}
		return true
	}
	if err := quick.Check(f, qcheck.Config(t, 3000)); err != nil {
		t.Error(err)
	}
	t.Logf("%d stops in front of a SECEND, %d other stops with survivors", secEnds, others)
}
