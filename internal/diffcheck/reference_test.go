package diffcheck

import (
	"testing"

	"fastflip/internal/core"
)

// TestReferenceCoRunAndResume covers the parts of the reference engine
// the engines matrix does not reach: its co-run path, its Record hook
// (a WAL-backed campaign) and its Skip handling (resuming that campaign,
// which recovers every experiment). Each run's section and end-to-end
// outcomes must equal the production engine's class for class.
func TestReferenceCoRunAndResume(t *testing.T) {
	g := Generate(44, FamilyMixed)
	p, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	run := func(ref, resume bool) *core.Result {
		cfg := baseConfig()
		cfg.CoRunBaseline = true
		if ref {
			cfg.Elide = false
			cfg.SectionInjector = Reference{}
			cfg.WALDir, cfg.Resume = walDir, resume
		}
		r, err := core.NewAnalyzer(cfg).Analyze(p)
		if err != nil {
			t.Fatalf("reference=%v resume=%v: %v", ref, resume, err)
		}
		return r
	}
	cur := run(false, false)
	if cos := cur.ClassOutcomes(); len(cos) == 0 || cos[0].Fin == nil {
		t.Fatal("co-run campaign produced no end-to-end outcomes; the comparison is vacuous")
	}
	ref := run(true, false)
	if v := compareOutcomes(InvEngines, g, nil, ref, cur, "reference", "cursor"); v != nil {
		t.Fatal(v)
	}
	resumed := run(true, true)
	if got, want := resumed.ResumedExperiments(), ref.FFInject.Experiments; got != want {
		t.Fatalf("resume recovered %d experiments, want all %d", got, want)
	}
	if rerun := resumed.FFInject.Experiments - resumed.ResumedExperiments(); rerun != 0 {
		t.Fatalf("reference engine re-ran %d skipped experiments", rerun)
	}
	if v := compareOutcomes(InvEngines, g, nil, resumed, cur, "resumed reference", "cursor"); v != nil {
		t.Fatal(v)
	}
}
