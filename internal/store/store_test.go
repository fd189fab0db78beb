package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

func recorded(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustKey(t *testing.T, tr *trace.Trace, inst *trace.Instance) Key {
	t.Helper()
	k, err := KeyFor(tr, inst)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyForDeterministic(t *testing.T) {
	tr1, tr2 := recorded(t), recorded(t)
	for i := range tr1.Instances {
		if mustKey(t, tr1, tr1.Instances[i]) != mustKey(t, tr2, tr2.Instances[i]) {
			t.Errorf("instance %d keys differ across identical traces", i)
		}
	}
}

func TestKeyForDistinguishesInstances(t *testing.T) {
	tr := recorded(t)
	if mustKey(t, tr, tr.Instances[0]) == mustKey(t, tr, tr.Instances[1]) {
		t.Error("different sections share a key")
	}
}

func TestKeyForTracksCodeChange(t *testing.T) {
	tr1 := recorded(t)
	tr2, err := trace.Record(testprog.PipelineModified())
	if err != nil {
		t.Fatal(err)
	}
	if mustKey(t, tr1, tr1.Instances[0]) != mustKey(t, tr2, tr2.Instances[0]) {
		t.Error("unmodified section's key changed")
	}
	if mustKey(t, tr1, tr1.Instances[1]) == mustKey(t, tr2, tr2.Instances[1]) {
		t.Error("modified section's key unchanged")
	}
}

func TestKeyForTracksInputChange(t *testing.T) {
	p2 := testprog.Pipeline()
	baseInit := p2.Init
	p2.Init = func(m *vm.Machine) {
		baseInit(m)
		m.Mem[testprog.AddrX] = math.Float64bits(2.5) // different input
	}
	tr1 := recorded(t)
	tr2, err := trace.Record(p2)
	if err != nil {
		t.Fatal(err)
	}
	if mustKey(t, tr1, tr1.Instances[0]) == mustKey(t, tr2, tr2.Instances[0]) {
		t.Error("input change did not change the first section's key")
	}
	// The downstream section's input (y) also changed, so its key must too.
	if mustKey(t, tr1, tr1.Instances[1]) == mustKey(t, tr2, tr2.Instances[1]) {
		t.Error("downstream input change did not change the second section's key")
	}
}

func TestKeyForRejectsOutOfRangeBuffer(t *testing.T) {
	tr := recorded(t)
	inst := tr.Instances[0]
	// Clone the instance and declare a malformed input buffer whose
	// Addr+Len wraps past the machine memory (the panic a bounds-checked
	// keyFor must turn into an error).
	bad := *inst
	bad.IO.Inputs = append([]spec.Buffer{}, inst.IO.Inputs...)
	bad.IO.Inputs[0].Addr = int(^uint(0)>>1) - 5 // maxint-5
	bad.IO.Inputs[0].Len = 10                    // Addr+Len wraps negative
	if _, err := KeyFor(tr, &bad); err == nil {
		t.Error("KeyFor accepted an overflowing buffer declaration")
	}
	bad = *inst
	bad.IO.Inputs = append([]spec.Buffer{}, inst.IO.Inputs...)
	bad.IO.Inputs[0].Len = len(inst.Entry.Mem) + 1
	if _, err := KeyFor(tr, &bad); err == nil {
		t.Error("KeyFor accepted a buffer past the end of memory")
	}
	bad = *inst
	bad.IO.Outputs = append([]spec.Buffer{}, inst.IO.Outputs...)
	bad.IO.Outputs[0].Len = -1
	if _, err := KeyForStrict(tr, &bad); err == nil {
		t.Error("KeyForStrict accepted a negative-length output buffer")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	key := Key{1, 2, 3}
	s.Put(key, &Section{
		Outcomes: map[sites.ClassKey]Outcome{
			{Static: prog.StaticID{Func: "f", Local: 3}, Role: isa.OperandDst, Bit: 17}: {
				Kind:       metrics.SDC,
				Magnitudes: []float64{1.5, math.Inf(1)}, // Inf must survive
			},
			{Static: prog.StaticID{Func: "f", Local: 4}, Role: isa.OperandSrcA, Bit: 2}: {
				Kind:   metrics.Detected,
				Reason: metrics.DetectTimeout,
			},
		},
		Amp:       [][]float64{{3.25, 0}},
		SimInstrs: 12345,
	})
	s.AdjustedTargets[TargetKey{Epsilon: 0.01, Target: 0.9}] = 0.925
	s.ModsSinceAdjust = 2

	path := filepath.Join(t.TempDir(), "store.ffs")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := got.Lookup(key)
	if sec == nil {
		t.Fatal("section missing after round trip")
	}
	out := sec.Outcomes[sites.ClassKey{Static: prog.StaticID{Func: "f", Local: 3}, Role: isa.OperandDst, Bit: 17}]
	if out.Kind != metrics.SDC || out.Magnitudes[0] != 1.5 || !math.IsInf(out.Magnitudes[1], 1) {
		t.Errorf("outcome mangled: %+v", out)
	}
	if sec.Amp[0][0] != 3.25 || sec.SimInstrs != 12345 {
		t.Errorf("section metadata mangled: %+v", sec)
	}
	if got.AdjustedTargets[TargetKey{Epsilon: 0.01, Target: 0.9}] != 0.925 {
		t.Error("adjusted targets lost")
	}
	if got.ModsSinceAdjust != 2 {
		t.Error("m_adj lost")
	}
}

func TestSaveAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.ffs")
	s1 := New()
	s1.Put(Key{1}, &Section{SimInstrs: 1})
	if err := s1.Save(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	s2.Put(Key{1}, &Section{SimInstrs: 1})
	s2.Put(Key{2}, &Section{SimInstrs: 2})
	if err := s2.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sections) != 2 {
		t.Errorf("overwritten store has %d sections, want 2", len(got.Sections))
	}
	// No temp files may be left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store.ffs" {
		t.Errorf("directory not clean after save: %v", entries)
	}
}

func TestSaveFailureLeavesExistingStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.ffs")
	s := New()
	s.Put(Key{7}, &Section{SimInstrs: 7})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// Saving into a directory that doesn't exist must fail without
	// touching the original file.
	if err := s.Save(filepath.Join(dir, "missing", "store.ffs")); err == nil {
		t.Fatal("expected error saving into a missing directory")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lookup(Key{7}) == nil {
		t.Error("original store damaged by failed save")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ffs")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestOutcomeConversions(t *testing.T) {
	m := metrics.Outcome{Kind: metrics.SDC, Magnitudes: []float64{0.5}}
	if got := FromMetrics(m).ToMetrics(); got.Kind != m.Kind || got.Magnitudes[0] != 0.5 {
		t.Errorf("round trip = %+v", got)
	}
}
