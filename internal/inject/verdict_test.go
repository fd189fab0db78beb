package inject

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// Memory of verdictProg: x and two zero flags in, outputs y (float) and
// yi (int) overlapping at word 4, live-only words z and w, then scratch.
const (
	vpX, vpFlagA, vpFlagB = 0, 1, 2
	vpY, vpYI             = 3, 4
	vpZ, vpW              = 6, 7
)

// verdictProg builds one section whose experiments reach each case the
// section verdict must get right:
//   - flag a, corrupted, escapes to SECEND 1, another section's end;
//   - flag b, corrupted, spins until the section timeout;
//   - w starts at its exit value, is overwritten, then rewritten, so it
//     enters the cursor's D after any chunk starts, then leaves it again;
//   - z is written last, through base register r4, so it is in D at every
//     fork, and a flipped r4 leaves it unwritten;
//   - x is 1.5, so flipping bit 62 of it makes a NaN;
//   - outputs y and yi overlap, with different kinds.
func verdictProg() *spec.Program {
	p := prog.New()
	f := prog.NewFunc("main")
	f.RoiBeg()
	f.SecBeg(0)
	f.Li(9, 0)
	f.Li(7, 7)
	f.Fld(0, 9, vpX)
	f.Ld(1, 9, vpFlagA)
	f.Ld(3, 9, vpFlagB)
	f.Li(2, 0)
	f.Beq(1, 2, "a")
	f.SecEnd(1)
	f.Halt()
	f.Label("a")
	f.Beq(3, 2, "b")
	f.Label("spin")
	f.Jmp("spin")
	f.Label("b")
	f.Li(6, 3)
	f.St(6, 9, vpW) // w := 3
	f.Fmul(1, 0, 0)
	f.Fst(1, 9, vpY) // y[0] = x*x
	f.Fadd(2, 1, 0)
	f.Fst(2, 9, vpY+1) // y[1] = yi[0] = x*x + x
	f.Ftoi(5, 2)
	f.St(5, 9, vpYI+1) // yi[1]
	f.St(7, 9, vpW)    // w := 7 again
	f.Li(4, vpZ)
	f.St(7, 4, 0) // z := 7
	f.SecEnd(0)
	f.RoiEnd()
	f.Halt()
	p.MustAdd(f.MustBuild())
	linked, err := p.Link("main")
	if err != nil {
		panic(err)
	}
	y := spec.Buffer{Name: "y", Addr: vpY, Len: 2, Kind: spec.Float}
	yi := spec.Buffer{Name: "yi", Addr: vpYI, Len: 2, Kind: spec.Int}
	return &spec.Program{
		Name: "verdict", Linked: linked, MemWords: 16,
		Init: func(m *vm.Machine) {
			m.Mem[vpX] = math.Float64bits(1.5)
			m.Mem[vpW] = 7
		},
		Sections: []spec.Section{{ID: 0, Name: "s", Instances: []spec.InstanceIO{{
			Inputs:  []spec.Buffer{{Name: "in", Addr: vpX, Len: 3, Kind: spec.Int}},
			Outputs: []spec.Buffer{y, yi},
			Live:    []spec.Buffer{{Name: "zw", Addr: vpZ, Len: 2, Kind: spec.Int}, y},
		}}}},
		FinalOutputs: []spec.Buffer{y, yi},
	}
}

func recordProg(t *testing.T, p *spec.Program) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkAgainstReference holds every section verdict reached while t runs
// to referenceVerdict.
func checkAgainstReference(t *testing.T) {
	t.Cleanup(SetVerdictCheck(func(inst *trace.Instance, m *vm.Machine, got metrics.Outcome) {
		if want := referenceVerdict(inst, m); !sameOutcome(got, want) {
			t.Errorf("machine at dyn %d: verdict %+v, reference %+v", m.Dyn, got, want)
		}
	}))
}

// classAt returns the index of the class whose pilot is site.
func classAt(t *testing.T, classes []*sites.Class, site sites.Site) int {
	t.Helper()
	for i, c := range classes {
		p := c.PilotSite()
		if p.Dyn == site.Dyn && p.Operand == site.Operand && p.Bit == site.Bit {
			return i
		}
	}
	t.Fatalf("no class at %+v", site)
	return -1
}

// TestVerdictTargetedCases runs every single-bit experiment of
// verdictProg batched and scalar, on one and two workers, holds every
// verdict to the reference, and pins the outcome of each case the program
// was built for.
func TestVerdictTargetedCases(t *testing.T) {
	checkAgainstReference(t)
	tr := recordProg(t, verdictProg())
	inst := tr.Instances[0]
	classes := sites.ForInstance(tr, inst, sites.Options{})

	var first []metrics.Outcome
	var batched []bool
	for _, cfg := range []struct {
		workers int
		noBatch bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		inj := &Injector{T: tr, Workers: cfg.workers, NoBatch: cfg.noBatch}
		inBatch := make([]bool, len(classes))
		outs, _, _ := inj.RunSectionResume(context.Background(), inst, classes, false, CampaignHooks{
			Record: func(i int, _ metrics.Outcome, _ *metrics.Outcome, cost Stats) { inBatch[i] = cost.BatchExperiments > 0 },
		})
		if first == nil {
			first, batched = outs, inBatch
			continue
		}
		for i := range outs {
			if !sameOutcome(outs[i], first[i]) {
				t.Errorf("%+v: class %d: %+v, first config %+v", cfg, i, outs[i], first[i])
			}
		}
	}

	conservative := func(o metrics.Outcome) bool {
		return o.Kind == metrics.SDC && len(o.Magnitudes) == 2 && math.IsInf(o.Magnitudes[0], 1)
	}
	for _, tc := range []struct {
		name    string
		site    sites.Site
		want    func(metrics.Outcome) bool
		batched bool
	}{
		{"escape to another section's SECEND", siteAt(t, tr, isa.BEQ, 0, isa.OperandSrcA, 5), conservative, true},
		{"spin to the timeout", siteAt(t, tr, isa.BEQ, 1, isa.OperandSrcA, 5), func(o metrics.Outcome) bool {
			return o.Kind == metrics.Detected && o.Reason == metrics.DetectTimeout
		}, true},
		{"z left unwritten", siteAt(t, tr, isa.ST, 3, isa.OperandSrcB, 3), conservative, false},
		{"NaN into y", siteAt(t, tr, isa.FMUL, 0, isa.OperandSrcA, 62), func(o metrics.Outcome) bool {
			return o.Kind == metrics.Detected && o.Reason == metrics.DetectBadOutput
		}, true},
		{"small change to y", siteAt(t, tr, isa.FMUL, 0, isa.OperandSrcA, 1), func(o metrics.Outcome) bool {
			return o.Kind == metrics.SDC && o.Magnitudes[0] > 0 && o.Magnitudes[1] > 0 && !math.IsInf(o.Magnitudes[0], 0)
		}, true},
	} {
		i := classAt(t, classes, tc.site)
		if !tc.want(first[i]) {
			t.Errorf("%s: outcome %+v", tc.name, first[i])
		}
		if tc.batched && !batched[i] {
			t.Errorf("%s: did not run batched", tc.name)
		}
	}

	// A word that enters D after the chunk starts: w equals its exit value
	// when the cursor starts, and the cursor passes w := 3. The later
	// experiments deflect the final w := 7 into scratch memory, so w keeps
	// the value only the cursor wrote, on the scalar path and in a batch.
	pick := []*sites.Class{
		classes[classAt(t, classes, siteAt(t, tr, isa.FLD, 0, isa.OperandDst, 0))],
		classes[classAt(t, classes, siteAt(t, tr, isa.ST, 2, isa.OperandSrcB, 3))],
		classes[classAt(t, classes, siteAt(t, tr, isa.ST, 2, isa.OperandSrcB, 2))],
	}
	for _, group := range [][]*sites.Class{pick[:2], pick} {
		outs, stats := (&Injector{T: tr, Workers: 1}).RunSection(context.Background(), inst, group)
		for i, o := range outs[1:] {
			if !conservative(o) {
				t.Errorf("w rewritten by the cursor, %d classes, deflected store %d: %+v", len(group), i, o)
			}
		}
		if len(group) == 3 && stats.BatchExperiments != 2 {
			t.Errorf("%d experiments ran batched, want the 2 deflected stores", stats.BatchExperiments)
		}
	}
}

// TestBatchStopsClassifiedInPlace drives vm.Batch by hand from a cursor
// fork of verdictProg: survivors stopped in front of the instance's own
// SECEND get the reference verdict from shareBatch and survivor, with the
// NaN in a word every survivor shares and in a column word; a batch that
// escaped to another section's SECEND or spins to MaxDyn reports no stop
// at the instance's SECEND.
func TestBatchStopsClassifiedInPlace(t *testing.T) {
	tr := recordProg(t, verdictProg())
	inst := tr.Instances[0]
	fork := func(site sites.Site) (*vm.Machine, *cursorDiff) {
		seed, _ := tr.ReplaySeed(site.Dyn)
		cur := seed.Clone()
		if ev := cur.RunUntilDyn(site.Dyn); ev.Kind != vm.EvNone {
			t.Fatalf("clean run to dyn %d: %v", site.Dyn, ev.Kind)
		}
		em := cur.Clone()
		em.MaxDyn = sectionLimit(inst)
		return em, newRoles(inst).cursor(cur)
	}

	fmul := siteAt(t, tr, isa.FMUL, 0, isa.OperandSrcA, 0)
	for _, tc := range []struct {
		name   string
		bits   []uint
		shared bool // y[0] is one word every survivor sees
		kinds  []metrics.OutcomeKind
	}{
		{"NaN in a shared word", []uint{62, 62}, true, []metrics.OutcomeKind{metrics.Detected, metrics.Detected}},
		{"NaN in a column word", []uint{62, 1}, false, []metrics.OutcomeKind{metrics.Detected, metrics.SDC}},
	} {
		em, cd := fork(fmul)
		b := vm.NewBatch(em, len(tc.bits))
		for k, bit := range tc.bits {
			b.FlipFloat(k, 0, bit)
		}
		b.Run()
		if sec, ok := b.SecEndNext(); !ok || sec != inst.Sec {
			t.Fatalf("%s: batch stop %d %v, want the instance's SECEND", tc.name, sec, ok)
		}
		if _, shared := b.Word(vpY); shared != tc.shared {
			t.Errorf("%s: y[0] shared %v, want %v", tc.name, shared, tc.shared)
		}
		cd.shareBatch(b)
		for k := range tc.bits {
			got := cd.survivor(b, k, em)
			m := em.Clone()
			b.MaterializeInto(k, m)
			ev := m.RunToEvent(vm.NoStop)
			if ev.Kind != vm.EvSecEnd || ev.Sec != inst.Sec || m.Dyn != b.Dyn()+1 {
				t.Fatalf("%s: replica %d finished with %v sec %d at dyn %d, want SECEND %d at %d",
					tc.name, k, ev.Kind, ev.Sec, m.Dyn, inst.Sec, b.Dyn()+1)
			}
			if want := referenceVerdict(inst, m); !sameOutcome(got, want) || got.Kind != tc.kinds[k] {
				t.Errorf("%s: replica %d: in-batch %+v, reference %+v, want kind %v", tc.name, k, got, want, tc.kinds[k])
			}
		}
	}

	for _, tc := range []struct {
		name string
		site sites.Site
		want vm.EventKind
	}{
		{"another section's SECEND", siteAt(t, tr, isa.BEQ, 0, isa.OperandSrcA, 0), vm.EvSecEnd},
		{"MaxDyn", siteAt(t, tr, isa.BEQ, 1, isa.OperandSrcA, 0), vm.EvTimeout},
	} {
		em, _ := fork(tc.site)
		b := vm.NewBatch(em, 2)
		b.FlipInt(0, int(tc.site.Operand.Reg), 3)
		b.FlipInt(1, int(tc.site.Operand.Reg), 7)
		b.Run()
		if b.ActiveCount() != 2 {
			t.Fatalf("%s: %d survivors, want 2", tc.name, b.ActiveCount())
		}
		sec, ok := b.SecEndNext()
		if ok && sec == inst.Sec {
			t.Errorf("%s: batch reports the instance's own SECEND", tc.name)
		}
		m := em.Clone()
		b.MaterializeInto(0, m)
		if ev := m.RunToEvent(vm.NoStop); ev.Kind != tc.want || ok != (ev.Kind == vm.EvSecEnd) || (ok && ev.Sec != sec) {
			t.Errorf("%s: scalar finish %v sec %d, batch stop %d %v", tc.name, ev.Kind, ev.Sec, sec, ok)
		}
	}
}

// checkDiffSet fails t unless D is exactly the compared words where cur
// differs from the exit, with a consistent position index.
func checkDiffSet(t *testing.T, cd *cursorDiff, cur *vm.Machine) {
	t.Helper()
	var want []int
	for _, a := range cd.words {
		if cur.Mem[a] != cd.exit[a] {
			want = append(want, a)
		}
	}
	got := slices.Clone(cd.d)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("dyn %d: D = %v, want %v", cur.Dyn, got, want)
	}
	n := 0
	for i, p := range cd.at {
		if p == 0 {
			continue
		}
		n++
		if int(p) > len(cd.d) || cd.d[p-1] != cd.lo+i {
			t.Fatalf("dyn %d: index of word %d is %d, D = %v", cur.Dyn, cd.lo+i, p, cd.d)
		}
	}
	if n != len(cd.d) {
		t.Fatalf("dyn %d: %d indexed words, %d in D", cur.Dyn, n, len(cd.d))
	}
}

// TestCursorDiffTracksCursor advances a clean cursor through an instance
// in random strides, as the campaign does, and checks D after every
// advance: words must leave D when the cursor writes their exit value and
// re-enter it when overwritten, and an advance whose journal overflowed
// must rebuild D.
func TestCursorDiffTracksCursor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        *spec.Program
		maxStep  int
		overflow bool // some advance must overflow the cursor's journal
		leave    bool // some word must leave D
	}{
		{"verdict", verdictProg(), 3, false, true},
		{"overflow", overflowProg(200), 400, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := recordProg(t, tc.p)
			inst := tr.Instances[0]
			rng := rand.New(rand.NewSource(1))
			overflowed, left := false, false
			for round := 0; round < 20; round++ {
				start := inst.BegDyn + 1 + uint64(rng.Intn(int(inst.Len())))
				seed, _ := tr.ReplaySeed(start)
				cur := seed.Clone()
				cur.RunUntilDyn(start)
				cd := newRoles(inst).cursor(cur)
				checkDiffSet(t, cd, cur)
				for cur.Dyn < inst.EndDyn {
					before := slices.Clone(cd.d)
					cur.BeginJournal()
					cur.RunUntilDyn(min(cur.Dyn+1+uint64(rng.Intn(tc.maxStep)), inst.EndDyn))
					cd.advance(cur)
					overflowed = overflowed || cur.JournalOverflowed()
					cur.EndJournal()
					checkDiffSet(t, cd, cur)
					for _, a := range before {
						left = left || !slices.Contains(cd.d, a)
					}
				}
			}
			if tc.overflow && !overflowed {
				t.Error("no advance overflowed the cursor's journal")
			}
			if tc.leave && !left {
				t.Error("no word left D")
			}
		})
	}
}

// TestJournalOverflowVerdicts holds to the reference the verdicts of
// campaigns whose experiments overflow their journal (a flipped loop bound
// outruns the journal cap, see TestJournalOverflowMidRangeDoesNotPoisonCursor)
// and, with 200 iterations, whose cursor overflows its journal advancing
// between two pilots.
func TestJournalOverflowVerdicts(t *testing.T) {
	checkAgainstReference(t)
	for _, iters := range []int64{64, 200} {
		tr := recordProg(t, overflowProg(iters))
		inst := tr.Instances[0]
		classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
		if iters == 200 {
			// A 4-word memory's journal holds 64 writes.
			most, order := 0, DynOrder(classes)
			for j := 1; j < len(order); j++ {
				stores := 0
				for d := classes[order[j-1]].Pilot(); d < classes[order[j]].Pilot(); d++ {
					if tr.Prog.Linked.Code[tr.PCs[d]].Op == isa.FST {
						stores++
					}
				}
				most = max(most, stores)
			}
			if most <= 64 {
				t.Fatalf("the cursor writes at most %d words between pilots; its journal never overflows", most)
			}
		}
		for _, noBatch := range []bool{false, true} {
			inj := &Injector{T: tr, Workers: 1, NoBatch: noBatch}
			got, _ := inj.RunSection(context.Background(), inst, classes)
			m := tr.Start.Clone()
			for i, c := range classes {
				if want, _, _ := inj.Section(m, inst, c.PilotSite(), false); !sameOutcome(got[i], want) {
					t.Errorf("iters %d no-batch %v class %d: campaign %+v, per-site %+v", iters, noBatch, i, got[i], want)
				}
			}
		}
	}
}

// TestVerdictWordByWord corrupts each memory word of a hand-made instance
// in turn with values that exercise every branch of the per-word rule
// (NaN and Inf into a finite float, finite into NaN, a signed zero, large
// and negative integers) and holds the verdict, scanning every word and
// reading D, to the reference. Outputs overlap, with different kinds.
func TestVerdictWordByWord(t *testing.T) {
	buf := func(addr, n int, k spec.BufKind) spec.Buffer { return spec.Buffer{Addr: addr, Len: n, Kind: k} }
	inst := &trace.Instance{
		IO: spec.InstanceIO{
			Outputs: []spec.Buffer{buf(2, 6, spec.Float), buf(5, 5, spec.Int), buf(6, 2, spec.Float)},
			Live:    []spec.Buffer{buf(0, 14, spec.Int)},
		},
		Exit: vm.New(nil, 0, 16),
	}
	exit := inst.Exit.Mem
	for a := range exit {
		exit[a] = math.Float64bits(float64(a) + 0.5)
	}
	exit[3] = math.Float64bits(math.NaN())
	exit[4] = math.Float64bits(0)
	exit[9] = ^uint64(0) // -1 as an integer
	values := []uint64{
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e300), 1, 1 << 63, ^uint64(0) >> 1,
	}
	all := newRoles(inst).cursor(nil)
	for a := range exit {
		for _, v := range values {
			for _, second := range []int{-1, 3, 6} {
				m := inst.Exit.Clone()
				m.Mem[a] = v
				if second >= 0 && second != a {
					m.Mem[second] ^= 1 << 51
				}
				want := referenceVerdict(inst, m)
				what := fmt.Sprintf("word %d = %#x, second %d", a, v, second)
				if got := all.verdict(m); !sameOutcome(got, want) {
					t.Errorf("%s: scanning verdict %+v, reference %+v", what, got, want)
				}
				// A cursor sitting at m's state has D = every differing
				// word, and a fork of it that wrote nothing is judged
				// from D alone.
				if got := newRoles(inst).cursor(m).verdict(m); !sameOutcome(got, want) {
					t.Errorf("%s: verdict from D %+v, reference %+v", what, got, want)
				}
			}
		}
	}
}
