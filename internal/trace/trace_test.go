package trace

import (
	"math"
	"testing"

	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
)

func record(t *testing.T) *Trace {
	t.Helper()
	tr, err := Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecordBasics(t *testing.T) {
	tr := record(t)
	if got := math.Float64frombits(tr.Final.Mem[testprog.AddrZ]); got != testprog.WantZ() {
		t.Errorf("z = %v, want %v", got, testprog.WantZ())
	}
	if len(tr.Instances) != 2 {
		t.Fatalf("instances = %d", len(tr.Instances))
	}
	if uint64(len(tr.PCs)) != tr.TotalDyn {
		t.Errorf("PCs length %d != TotalDyn %d", len(tr.PCs), tr.TotalDyn)
	}
	if tr.ROIBeg != 0 || tr.ROIEnd != tr.TotalDyn-2 {
		t.Errorf("ROI = [%d, %d] of %d", tr.ROIBeg, tr.ROIEnd, tr.TotalDyn)
	}
}

func TestInstanceGeometry(t *testing.T) {
	tr := record(t)
	s0, s1 := tr.Instances[0], tr.Instances[1]
	if s0.Sec != 0 || s1.Sec != 1 || s0.Occur != 0 || s1.Occur != 0 {
		t.Fatalf("instance identities: %+v %+v", s0, s1)
	}
	if s0.EndDyn <= s0.BegDyn || s1.BegDyn <= s0.EndDyn {
		t.Errorf("instances out of order: s0 [%d,%d] s1 [%d,%d]", s0.BegDyn, s0.EndDyn, s1.BegDyn, s1.EndDyn)
	}
	// The entry checkpoint is positioned right after SECBEG.
	if s0.Entry.Dyn != s0.BegDyn+1 {
		t.Errorf("entry checkpoint at dyn %d, want %d", s0.Entry.Dyn, s0.BegDyn+1)
	}
	if s0.Exit.Dyn != s0.EndDyn+1 {
		t.Errorf("exit checkpoint at dyn %d, want %d", s0.Exit.Dyn, s0.EndDyn+1)
	}
	// Exit state of scale holds y.
	if got := math.Float64frombits(s0.Exit.Mem[testprog.AddrY]); got != testprog.WantY() {
		t.Errorf("y at s0 exit = %v, want %v", got, testprog.WantY())
	}
	// Contains matches the open interval.
	if s0.Contains(s0.BegDyn) || s0.Contains(s0.EndDyn) {
		t.Error("Contains includes the markers")
	}
	if !s0.Contains(s0.BegDyn + 1) {
		t.Error("Contains excludes the first interior instruction")
	}
}

func TestInstanceFuncs(t *testing.T) {
	tr := record(t)
	name := func(inst *Instance) map[string]bool {
		names := map[string]bool{}
		for fi := range inst.Funcs {
			names[tr.Prog.Linked.FuncNames[fi]] = true
		}
		return names
	}
	if n := name(tr.Instances[0]); !n["scale"] || n["square"] {
		t.Errorf("s0 funcs = %v", n)
	}
	if n := name(tr.Instances[1]); !n["square"] || n["scale"] {
		t.Errorf("s1 funcs = %v", n)
	}
	// Both contain main (the CALL instruction lives there).
	if n := name(tr.Instances[0]); !n["main"] {
		t.Errorf("s0 misses main: %v", n)
	}
}

func TestInstanceAtAndUntested(t *testing.T) {
	tr := record(t)
	inside := tr.Instances[0].BegDyn + 1
	if got := tr.InstanceAt(inside); got != tr.Instances[0] {
		t.Errorf("InstanceAt(%d) = %v", inside, got)
	}
	if got := tr.InstanceAt(tr.Instances[0].EndDyn); got != nil {
		t.Error("InstanceAt on a marker returned an instance")
	}
}

func TestNearestCheckpoint(t *testing.T) {
	tr := record(t)
	s1 := tr.Instances[1]
	m := tr.NearestCheckpoint(s1.BegDyn + 2)
	if m != s1.Entry {
		t.Errorf("nearest checkpoint for inside s1 = dyn %d, want entry %d", m.Dyn, s1.Entry.Dyn)
	}
	if got := tr.NearestCheckpointDyn(s1.BegDyn + 2); got != s1.BegDyn+1 {
		t.Errorf("NearestCheckpointDyn = %d", got)
	}
	if m := tr.NearestCheckpoint(0); m != tr.Start {
		t.Error("checkpoint before any section should be Start")
	}
}

func TestInstanceAtBoundaries(t *testing.T) {
	tr := record(t)
	// Marker indices and instance edges.
	for _, inst := range tr.Instances {
		if got := tr.InstanceAt(inst.BegDyn); got != nil {
			t.Errorf("InstanceAt(BegDyn %d) = section %d, want nil", inst.BegDyn, got.Sec)
		}
		if got := tr.InstanceAt(inst.EndDyn); got != nil {
			t.Errorf("InstanceAt(EndDyn %d) = section %d, want nil", inst.EndDyn, got.Sec)
		}
		if got := tr.InstanceAt(inst.BegDyn + 1); got != inst {
			t.Errorf("InstanceAt(%d) missed its instance", inst.BegDyn+1)
		}
		if got := tr.InstanceAt(inst.EndDyn - 1); got != inst {
			t.Errorf("InstanceAt(%d) missed its instance", inst.EndDyn-1)
		}
	}
	// The gap between the two instances belongs to no section.
	s0, s1 := tr.Instances[0], tr.Instances[1]
	for d := s0.EndDyn; d <= s1.BegDyn; d++ {
		if got := tr.InstanceAt(d); got != nil {
			t.Errorf("InstanceAt(%d) in the gap = section %d", d, got.Sec)
		}
	}
	// Exhaustive agreement with the linear scan it replaced.
	linear := func(d uint64) *Instance {
		for _, inst := range tr.Instances {
			if inst.Contains(d) {
				return inst
			}
		}
		return nil
	}
	for d := uint64(0); d <= tr.TotalDyn; d++ {
		if got, want := tr.InstanceAt(d), linear(d); got != want {
			t.Fatalf("InstanceAt(%d) = %v, linear scan = %v", d, got, want)
		}
	}
}

func TestDenseCheckpointsSeedReplay(t *testing.T) {
	tr, err := RecordWith(testprog.Pipeline(), Options{CheckpointInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.cps) <= 1+2*len(tr.Instances) {
		t.Fatal("no dense checkpoints recorded at interval 2")
	}
	for d := tr.ROIBeg; d < tr.ROIEnd; d++ {
		seed, dyn := tr.ReplaySeed(d)
		if dyn > d || seed.Dyn != dyn {
			t.Fatalf("ReplaySeed(%d) = dyn %d (machine at %d)", d, dyn, seed.Dyn)
		}
		// Replaying the seed forward must reproduce the clean state.
		got := seed.Clone()
		got.RunUntilDyn(d)
		want := tr.Start.Clone()
		want.RunUntilDyn(d)
		if got.PC != want.PC || got.R != want.R || got.F != want.F {
			t.Fatalf("replay from seed diverged at dyn %d", d)
		}
		for i := range want.Mem {
			if got.Mem[i] != want.Mem[i] {
				t.Fatalf("replay from seed: mem[%d] differs at dyn %d", i, d)
			}
		}
	}
}

func TestDenseCheckpointCompaction(t *testing.T) {
	tr, err := RecordWith(testprog.Pipeline(), Options{CheckpointInterval: 1, MaxCheckpoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	denseCount := len(tr.cps) - 1 - 2*len(tr.Instances)
	if denseCount > 4 {
		t.Errorf("compaction kept %d dense checkpoints, cap 4", denseCount)
	}
	if denseCount == 0 {
		t.Error("compaction dropped every dense checkpoint")
	}
}

func TestCostAnchorIgnoresDenseCheckpoints(t *testing.T) {
	sparse, err := RecordWith(testprog.Pipeline(), Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := RecordWith(testprog.Pipeline(), Options{CheckpointInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	for d := uint64(0); d < sparse.TotalDyn; d++ {
		if s, g := sparse.NearestCheckpointDyn(d), dense.NearestCheckpointDyn(d); s != g {
			t.Fatalf("cost anchor moved with checkpoint density at dyn %d: %d vs %d", d, s, g)
		}
	}
	// But the replay seed does get closer.
	mid := (sparse.Instances[1].BegDyn + sparse.Instances[1].EndDyn) / 2
	if _, dyn := dense.ReplaySeed(mid); dyn != mid {
		t.Errorf("interval-1 replay seed for dyn %d is %d", mid, dyn)
	}
}

func TestCodeKeyChangesWithBody(t *testing.T) {
	tr1 := record(t)
	tr2, err := Record(testprog.PipelineModified())
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CodeKey(tr1.Instances[0]) != tr2.CodeKey(tr2.Instances[0]) {
		t.Error("scale section's code key changed although scale did not")
	}
	if tr1.CodeKey(tr1.Instances[1]) == tr2.CodeKey(tr2.Instances[1]) {
		t.Error("square section's code key did not change")
	}
}

func TestRecordRejectsBadMarkers(t *testing.T) {
	build := func(emit func(f *prog.B)) *spec.Program {
		p := prog.New()
		f := prog.NewFunc("main")
		emit(f)
		f.Halt()
		p.MustAdd(f.MustBuild())
		linked, err := p.Link("main")
		if err != nil {
			t.Fatal(err)
		}
		io := spec.InstanceIO{}
		return &spec.Program{
			Name: "bad", Linked: linked, MemWords: 4,
			Sections:     []spec.Section{{ID: 0, Name: "s", Instances: []spec.InstanceIO{io}}},
			FinalOutputs: []spec.Buffer{{Name: "o", Addr: 0, Len: 1}},
		}
	}
	cases := map[string]func(f *prog.B){
		"missing ROI": func(f *prog.B) {
			f.SecBeg(0)
			f.SecEnd(0)
		},
		"nested sections": func(f *prog.B) {
			f.RoiBeg()
			f.SecBeg(0)
			f.SecBeg(0)
			f.SecEnd(0)
			f.SecEnd(0)
			f.RoiEnd()
		},
		"unclosed section": func(f *prog.B) {
			f.RoiBeg()
			f.SecBeg(0)
			f.RoiEnd()
		},
		"mismatched end": func(f *prog.B) {
			f.RoiBeg()
			f.SecBeg(0)
			f.SecEnd(1)
			f.RoiEnd()
		},
		"undeclared section id": func(f *prog.B) {
			f.RoiBeg()
			f.SecBeg(7)
			f.SecEnd(7)
			f.RoiEnd()
		},
		"too many instances": func(f *prog.B) {
			f.RoiBeg()
			f.SecBeg(0)
			f.SecEnd(0)
			f.SecBeg(0)
			f.SecEnd(0)
			f.RoiEnd()
		},
	}
	for name, emit := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Record(build(emit)); err == nil {
				t.Error("Record accepted a malformed program")
			}
		})
	}
}

func TestRecordRejectsCrashingProgram(t *testing.T) {
	p := prog.New()
	f := prog.NewFunc("main")
	f.RoiBeg()
	f.Li(1, 1000)
	f.Ld(2, 1, 0) // out of bounds for MemWords = 4
	f.RoiEnd()
	f.Halt()
	p.MustAdd(f.MustBuild())
	linked, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.Program{
		Name: "crash", Linked: linked, MemWords: 4,
		Sections:     []spec.Section{{ID: 0, Name: "s", Instances: []spec.InstanceIO{{}}}},
		FinalOutputs: []spec.Buffer{{Name: "o", Addr: 0, Len: 1}},
	}
	if _, err := Record(sp); err == nil {
		t.Error("Record accepted a crashing clean run")
	}
}
