package sites

import (
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/maskelide"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

func recorded(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCountMatchesManualEnumeration(t *testing.T) {
	tr := recorded(t)
	want := 0
	for d := tr.ROIBeg + 1; d < tr.ROIEnd; d++ {
		in := tr.Prog.Linked.Code[tr.PCs[d]]
		want += len(in.Operands(nil)) * BitsPerOperand
	}
	if got := Count(tr, Options{}); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got := CountRange(tr, tr.ROIBeg+1, tr.ROIEnd, Options{}); got != want {
		t.Errorf("CountRange over ROI = %d, want %d", got, want)
	}
}

func TestGlobalClassesPartitionSites(t *testing.T) {
	tr := recorded(t)
	classes := Global(tr, Options{Prune: true})
	covered := 0
	seen := map[ClassKey]bool{}
	for _, c := range classes {
		if seen[c.Key] {
			t.Errorf("duplicate class key %v", c.Key)
		}
		seen[c.Key] = true
		covered += c.Size()
		for i := 1; i < len(c.Members); i++ {
			if c.Members[i] <= c.Members[i-1] {
				t.Errorf("members of %v not ascending", c.Key)
			}
		}
	}
	// Classes group (static, role, bit); the member count times one bit
	// each must cover every site exactly once.
	if covered != Count(tr, Options{}) {
		t.Errorf("classes cover %d sites, want %d", covered, Count(tr, Options{}))
	}
}

func TestNoPruningGivesSingletons(t *testing.T) {
	tr := recorded(t)
	classes := Global(tr, Options{})
	if len(classes) != Count(tr, Options{}) {
		t.Errorf("unpruned classes = %d, want %d", len(classes), Count(tr, Options{}))
	}
	for _, c := range classes {
		if c.Size() != 1 {
			t.Fatalf("class %v has %d members", c.Key, c.Size())
		}
	}
}

func TestForInstanceStaysInside(t *testing.T) {
	tr := recorded(t)
	for _, inst := range tr.Instances {
		for _, c := range ForInstance(tr, inst, Options{Prune: true}) {
			for _, d := range c.Members {
				if !inst.Contains(d) {
					t.Errorf("class %v member %d outside instance [%d,%d]",
						c.Key, d, inst.BegDyn, inst.EndDyn)
				}
			}
		}
	}
}

func TestSectionSitesPlusUntestedEqualTotal(t *testing.T) {
	tr := recorded(t)
	inSections := 0
	for _, inst := range tr.Instances {
		inSections += CountRange(tr, inst.BegDyn+1, inst.EndDyn, Options{})
	}
	_, untested := Untested(tr, Options{})
	if inSections+untested != Count(tr, Options{}) {
		t.Errorf("%d in sections + %d untested != %d total", inSections, untested, Count(tr, Options{}))
	}
	// The fixture's main contains only markers and CALLs between sections,
	// none of which carry register operands, so nothing is untested here.
	// (Benchmarks with outer loops, e.g. LUD, do have untested sites.)
	if untested != 0 {
		t.Errorf("fixture has %d untested sites, want 0", untested)
	}
}

func TestPilotIsAMember(t *testing.T) {
	tr := recorded(t)
	for _, c := range Global(tr, Options{Prune: true}) {
		pilot := c.Pilot()
		found := false
		for _, d := range c.Members {
			if d == pilot {
				found = true
			}
		}
		if !found {
			t.Fatalf("pilot %d not in members of %v", pilot, c.Key)
		}
	}
}

func TestClassOrderingDeterministic(t *testing.T) {
	tr := recorded(t)
	a := Global(tr, Options{Prune: true})
	b := Global(tr, Options{Prune: true})
	if len(a) != len(b) {
		t.Fatal("nondeterministic class count")
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("class %d differs between enumerations", i)
		}
	}
}

func TestMarkersHaveNoSites(t *testing.T) {
	tr := recorded(t)
	for _, c := range Global(tr, Options{Prune: true}) {
		for _, d := range c.Members {
			op := tr.Prog.Linked.Code[tr.PCs[d]].Op
			if op.String() == "secbeg" || op.String() == "secend" ||
				op.String() == "roibeg" || op.String() == "roiend" {
				t.Fatalf("marker instruction %v has error sites", op)
			}
		}
	}
}

// BenchmarkClassify measures classification on the fixture's whole ROI,
// pruned and unpruned, and on every benchmark's section instances the way
// an analysis enumerates them (pruned, with mask elision).
func BenchmarkClassify(b *testing.B) {
	run := func(b *testing.B, classify func() int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if classify() == 0 {
				b.Fatal("no classes")
			}
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"pipeline", Options{Prune: true}}, {"pipeline-unpruned", Options{}}} {
		b.Run(tc.name, func(b *testing.B) {
			tr, err := trace.Record(testprog.Pipeline())
			if err != nil {
				b.Fatal(err)
			}
			run(b, func() int { return len(Global(tr, tc.opts)) })
		})
	}
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			tr, err := trace.Record(bench.MustBuild(name, bench.None))
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Prune: true, Masks: maskelide.Analyze(tr.Prog.Linked)}
			run(b, func() int {
				n := 0
				for _, inst := range tr.Instances {
					n += len(ForInstance(tr, inst, opts))
				}
				return n
			})
		})
	}
}
