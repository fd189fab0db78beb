package core_test

import (
	"reflect"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/diffcheck"
	"fastflip/internal/inject"
)

// TestCursorEngineMatchesLegacy runs fft-small through the production
// engine and through the oracles' reference engine (diffcheck.Reference:
// every experiment replayed from a section-boundary checkpoint on a scalar
// machine) and asserts the two are observationally identical: the same
// per-class section outcomes and the same SDC numbers and accounted costs
// in the Summary. The production engine's baseline campaign, which has no
// injection seam, is checked experiment by experiment against per-site
// Monolithic replays. Elision is off in both runs, so accounted costs
// compare exactly; only telemetry may differ.
func TestCursorEngineMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaign")
	}

	run := func(ref bool) (*core.Analyzer, *core.Result, *core.Summary) {
		cfg := core.DefaultConfig()
		cfg.Elide = false
		if ref {
			cfg.CheckpointInterval = -1
			cfg.SectionInjector = diffcheck.Reference{}
		}
		a := core.NewAnalyzer(cfg)
		r, err := a.Analyze(bench.MustBuild("fft", bench.Small))
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		return a, r, r.Summarize(cfg.Epsilon, nil)
	}

	_, refR, refSum := run(true)
	a, curR, curSum := run(false)

	want, got := refR.ClassOutcomes(), curR.ClassOutcomes()
	if len(want) != len(got) {
		t.Fatalf("ff class count: reference %d, cursor %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Key != got[i].Key || want[i].Inst != got[i].Inst {
			t.Fatalf("ff class %d identity differs: %+v vs %+v", i, want[i].Key, got[i].Key)
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("ff class %d (%v inst %d): reference outcome %+v, cursor outcome %+v",
				i, want[i].Key, want[i].Inst, want[i], got[i])
		}
	}

	a.RunBaseline(curR)
	classes, outs := curR.BaselineClasses()
	inj := &inject.Injector{T: curR.Trace}
	m := curR.Trace.Start.Clone()
	var sim uint64
	for i, c := range classes {
		out, cost := inj.Monolithic(m, c.PilotSite())
		if !reflect.DeepEqual(out, outs[i]) {
			t.Errorf("baseline class %d (%v): per-site outcome %+v, cursor outcome %+v", i, c.Key, out, outs[i])
		}
		sim += cost
	}
	if sim != curR.BaseInject.SimInstrs {
		t.Errorf("baseline accounted cost: per-site %d, cursor %d", sim, curR.BaseInject.SimInstrs)
	}

	// The accounted cost model is engine-independent; the work split,
	// batching (the reference has no batch tier) and wall times are not.
	// Clear telemetry and the whole summaries must match, SDC numbers
	// included.
	for _, s := range []*core.Summary{refSum, curSum} {
		if err := s.CheckRun(0); err != nil {
			t.Fatal(err)
		}
	}
	refSum.Telemetry, curSum.Telemetry = core.Telemetry{}, core.Telemetry{}
	if !reflect.DeepEqual(refSum, curSum) {
		t.Errorf("summaries differ:\nreference: %+v\ncursor:    %+v", refSum, curSum)
	}

	// Sanity: the cursor engine must actually replay less clean prefix
	// than it bills for (that is the point of the rebuild).
	if curR.FFInject.CleanInstrs+curR.FFInject.FaultyInstrs >= curR.FFInject.SimInstrs {
		t.Errorf("cursor engine work %d+%d not below accounted cost %d",
			curR.FFInject.CleanInstrs, curR.FFInject.FaultyInstrs, curR.FFInject.SimInstrs)
	}
}
