package core

import (
	"reflect"
	"testing"

	"fastflip/internal/bench"
)

// TestElisionMatchesExhaustive is the elision tiers' correctness claim on
// a real benchmark: fft-small with static masking and lockstep batching
// (the default) must be byte-identical — every per-class outcome and the
// aggregate outcome statistics — to the exhaustive scalar configuration
// that simulates every experiment individually. Only the accounted-cost
// fields shift: an elided experiment is charged its clean prefix alone.
// CI runs this under -race as the elide-vs-exhaustive equivalence gate.
func TestElisionMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("two full injection campaigns")
	}

	run := func(elide bool) (*Result, *Summary) {
		cfg := DefaultConfig()
		cfg.Elide = elide
		cfg.NoBatch = !elide // exhaustive = scalar forks, no tiers at all
		a := NewAnalyzer(cfg)
		r, err := a.Analyze(bench.MustBuild("fft", bench.Small))
		if err != nil {
			t.Fatalf("elide=%v: %v", elide, err)
		}
		return r, r.Summarize(cfg.Epsilon, nil)
	}

	tiered, tieredSum := run(true)
	exhaustive, exhaustiveSum := run(false)

	if tieredSum.ElidedExperiments == 0 {
		t.Fatal("masking tier elided nothing on fft-small; the comparison is vacuous")
	}
	if tieredSum.BatchedExperiments == 0 {
		t.Fatal("no experiments ran in lockstep batches; the comparison is vacuous")
	}

	if len(tiered.ffClasses) != len(exhaustive.ffClasses) {
		t.Fatalf("class count: tiered %d, exhaustive %d", len(tiered.ffClasses), len(exhaustive.ffClasses))
	}
	for i := range tiered.ffClasses {
		a, b := tiered.ffClasses[i], exhaustive.ffClasses[i]
		if a.class.Key != b.class.Key || a.inst != b.inst {
			t.Fatalf("class %d identity differs: %+v vs %+v", i, a.class.Key, b.class.Key)
		}
		if !reflect.DeepEqual(a.out, b.out) {
			t.Errorf("class %d (%v inst %d): tiered outcome %+v, exhaustive outcome %+v",
				i, a.class.Key, a.inst, a.out, b.out)
		}
	}
	if tieredSum.Outcomes != exhaustiveSum.Outcomes {
		t.Errorf("outcome stats differ:\ntiered:     %+v\nexhaustive: %+v",
			tieredSum.Outcomes, exhaustiveSum.Outcomes)
	}

	for _, s := range []*Summary{tieredSum, exhaustiveSum} {
		requireRun(t, s, 0)
		s.Telemetry = Telemetry{}
		// Accounted cost differs by design: elided experiments are
		// charged cleanEnd − checkpoint, executed ones add the faulty
		// suffix. Everything outcome-shaped must still match.
		s.FFSimInstrs = 0
		s.ElidedExperiments, s.ElidedSimInstrs = 0, 0
	}
	if !reflect.DeepEqual(tieredSum, exhaustiveSum) {
		t.Errorf("summaries differ:\ntiered:     %+v\nexhaustive: %+v", tieredSum, exhaustiveSum)
	}
}
