package inject

import (
	"context"
	"reflect"
	"testing"

	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// overflowProg builds a program whose single section runs a store loop:
// every iteration writes memory, so a bit flip that inflates the loop
// bound makes the faulty run journal far more writes than the journal cap
// before the section timeout trips. The nominal iteration count is sized
// so the clean section stays well under the cap but the 5x timeout budget
// allows hundreds of faulty iterations.
func overflowProg(iters int64) *spec.Program {
	p := prog.New()

	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Call("fill")
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())

	fill := prog.NewFunc("fill")
	fill.Li(1, 0)
	fill.Fld(0, 1, 0) // f0 = x
	fill.Li(1, 2)     // scratch pointer
	fill.Li(2, 0)     // i
	fill.Li(3, iters) // loop bound: the adversarial flip target
	fill.Label("loop")
	fill.Fst(0, 1, 0) // one journaled write per iteration
	fill.Addi(2, 2, 1)
	fill.Blt(2, 3, "loop")
	fill.Li(1, 1)
	fill.Fst(0, 1, 0) // y = f0
	fill.Ret()
	p.MustAdd(fill.MustBuild())

	linked, err := p.Link("main")
	if err != nil {
		panic(err)
	}
	x := spec.Buffer{Name: "x", Addr: 0, Len: 1, Kind: spec.Float}
	y := spec.Buffer{Name: "y", Addr: 1, Len: 1, Kind: spec.Float}
	return &spec.Program{
		Name: "overflow", Linked: linked, MemWords: 4,
		Init: func(m *vm.Machine) { m.Mem[0] = 0x3FF0000000000000 }, // x = 1.0
		Sections: []spec.Section{{ID: 0, Name: "fill", Instances: []spec.InstanceIO{
			{Inputs: []spec.Buffer{x}, Outputs: []spec.Buffer{y}, Live: []spec.Buffer{x, y}},
		}}},
		FinalOutputs: []spec.Buffer{y},
	}
}

// TestJournalOverflowMidRangeDoesNotPoisonCursor is the regression test
// for journal-overflow poisoning: when a flip inflates the loop bound and
// the faulty run overflows the write journal, UndoJournal refuses and the
// engine must full-restore the experiment machine from the clean cursor —
// not leave it carrying faulty memory into the rest of the worker's range.
// The cursor engine's outcomes over the whole campaign must therefore be
// bit-identical to per-site Section experiments, which rebuild every
// experiment from a checkpoint and cannot be poisoned by construction.
func TestJournalOverflowMidRangeDoesNotPoisonCursor(t *testing.T) {
	p := overflowProg(64)
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	inst := tr.Instances[0]
	classes := sites.ForInstance(tr, inst, sites.Options{Prune: true, Width: 1})
	if len(classes) < 8 {
		t.Fatalf("fixture too small: %d classes", len(classes))
	}

	// The test is vacuous unless some experiment actually overflows the
	// journal mid-range. Replicate the engine's fork (clean replay, then
	// flip and run under a journal) to prove the fixture forces it.
	overflowAt := -1
	for i, c := range classes {
		site := c.PilotSite()
		seed, _ := tr.ReplaySeed(site.Dyn)
		m := seed.Clone()
		m.MaxDyn = sectionLimit(inst)
		if ev := m.RunUntilDyn(site.Dyn); ev.Kind != vm.EvNone {
			t.Fatalf("clean replay to dyn %d ended with %v", site.Dyn, ev.Kind)
		}
		m.BeginJournal()
		if _, err := applyFlip(m, site); err != nil {
			t.Fatal(err)
		}
	run:
		for {
			switch ev := m.Step(); ev.Kind {
			case vm.EvSecEnd, vm.EvHalt, vm.EvCrash, vm.EvTimeout:
				break run
			}
		}
		if m.JournalOverflowed() {
			overflowAt = i
			break
		}
		m.EndJournal()
	}
	if overflowAt < 0 {
		t.Fatal("no experiment overflows the journal; the fixture lost its adversarial flip")
	}
	if overflowAt == len(classes)-1 {
		t.Fatal("the overflowing experiment is the last one; nothing after it can detect poisoning")
	}

	inj := &Injector{T: tr, Workers: 1}
	got, gotStats := inj.RunSection(context.Background(), inst, classes)
	var wantSim uint64
	m := tr.Start.Clone()
	for i, c := range classes {
		want, _, cost := inj.Section(m, inst, c.PilotSite(), false)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("class %d: cursor engine %+v, per-site replay %+v", i, got[i], want)
		}
		wantSim += cost
	}
	if gotStats.Experiments != len(classes) || gotStats.SimInstrs != wantSim {
		t.Errorf("accounted cost diverged: cursor {exp %d, sim %d}, per-site replay {exp %d, sim %d}",
			gotStats.Experiments, gotStats.SimInstrs, len(classes), wantSim)
	}
}
