package core_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/prog"
	"fastflip/internal/store"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

func fixtureConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = 2
	return cfg
}

func TestAnalyzeFixture(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if r.InjectedInstances != 2 || r.ReusedInstances != 0 {
		t.Errorf("first analysis: injected %d reused %d", r.InjectedInstances, r.ReusedInstances)
	}
	if r.SiteCount == 0 || r.FFInject.Experiments == 0 {
		t.Errorf("no work recorded: %+v", r.FFInject)
	}
	if r.TotalCost == 0 || len(r.Costs) == 0 {
		t.Error("empty cost model")
	}
	if len(r.Spec.Final) != 1 {
		t.Fatalf("spec outputs = %d", len(r.Spec.Final))
	}
	spec := r.FormatSpec(0)
	if !strings.Contains(spec, "scale") || !strings.Contains(spec, "square") {
		t.Errorf("FormatSpec = %q", spec)
	}
}

func TestAnalyzeReusesIdenticalProgram(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	if _, err := a.Analyze(testprog.Pipeline()); err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedInstances != 2 || r2.InjectedInstances != 0 {
		t.Errorf("identical re-analysis: reused %d injected %d", r2.ReusedInstances, r2.InjectedInstances)
	}
	if r2.FFInject.SimInstrs != 0 {
		t.Errorf("reused analysis still simulated %d instructions", r2.FFInject.SimInstrs)
	}
}

func TestAnalyzeReusesAcrossModification(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r1, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	a.NoteModification()
	r2, err := a.Analyze(testprog.PipelineModified())
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedInstances != 1 || r2.InjectedInstances != 1 {
		t.Errorf("modified analysis: reused %d injected %d, want 1/1", r2.ReusedInstances, r2.InjectedInstances)
	}
	if r2.FFInject.SimInstrs >= r1.FFInject.SimInstrs {
		t.Errorf("modified analysis cost %d not below original %d", r2.FFInject.SimInstrs, r1.FFInject.SimInstrs)
	}
	if a.Store.ModsSinceAdjust != 1 {
		t.Errorf("m_adj = %d, want 1", a.Store.ModsSinceAdjust)
	}
}

func TestStorePersistenceAcrossAnalyzers(t *testing.T) {
	a1 := core.NewAnalyzer(fixtureConfig())
	if _, err := a1.Analyze(testprog.Pipeline()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sections.ffs")
	if err := a1.Store.Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a2 := &core.Analyzer{Cfg: fixtureConfig(), Store: st}
	r, err := a2.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if r.ReusedInstances != 2 {
		t.Errorf("reused %d instances from a loaded store, want 2", r.ReusedInstances)
	}
}

func TestEvaluateFixture(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Evaluate(r, 0, false); err == nil {
		t.Fatal("Evaluate without baseline results did not fail")
	}
	a.RunBaseline(r)
	evals, err := a.Evaluate(r, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(a.Cfg.Targets) {
		t.Fatalf("evals = %d", len(evals))
	}
	for _, ev := range evals {
		if ev.Achieved < ev.Target-ev.ErrRange-0.05 {
			t.Errorf("target %.2f achieved only %.4f", ev.Target, ev.Achieved)
		}
		if ev.FF == nil || ev.Base == nil {
			t.Fatal("missing selections")
		}
		if ev.FFCostFrac < 0 || ev.FFCostFrac > 1 || ev.BaseCostFrac < 0 || ev.BaseCostFrac > 1 {
			t.Errorf("cost fractions out of range: %+v", ev)
		}
	}
	// Higher targets cannot get cheaper.
	for i := 1; i < len(evals); i++ {
		if evals[i].FFCostFrac < evals[i-1].FFCostFrac {
			t.Errorf("cost decreased from target %.2f to %.2f", evals[i-1].Target, evals[i].Target)
		}
	}
}

func TestEvaluateStoresAndReusesAdjustedTargets(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r)
	evals, err := a.Evaluate(r, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evals {
		key := store.TargetKey{Epsilon: 0, Target: ev.Target}
		stored, ok := a.Store.AdjustedTargets[key]
		if !ok {
			t.Fatalf("no stored adjusted target for %.2f", ev.Target)
		}
		if stored != ev.Adjusted {
			t.Errorf("stored %v != evaluated %v", stored, ev.Adjusted)
		}
	}

	// A modified version within P_adj must reuse the stored adjustment.
	a.NoteModification()
	r2, err := a.Analyze(testprog.PipelineModified())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r2)
	evals2, err := a.Evaluate(r2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evals2 {
		if ev.Adjusted != evals[i].Adjusted {
			t.Errorf("modified version recomputed adjustment: %v vs %v", ev.Adjusted, evals[i].Adjusted)
		}
	}
}

func TestEvaluatePAdjForcesReadjustment(t *testing.T) {
	cfg := fixtureConfig()
	cfg.PAdj = 1 // re-adjust after every modification
	a := core.NewAnalyzer(cfg)
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r)
	if _, err := a.Evaluate(r, 0, false); err != nil {
		t.Fatal(err)
	}
	a.NoteModification()
	r2, err := a.Analyze(testprog.PipelineModified())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r2)
	// With m_adj >= P_adj the stored targets are stale; Evaluate must
	// recompute them from the fresh baseline (no error, fresh values).
	if _, err := a.Evaluate(r2, 0, true); err != nil {
		t.Fatal(err)
	}
}

func TestBadCountsConsistency(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r)
	ff0 := r.FFBadCounts(0)
	ffBig := r.FFBadCounts(1e18)
	if ff0.Total == 0 {
		t.Error("no SDC-bad sites at eps = 0")
	}
	if ffBig.Total > ff0.Total {
		t.Error("raising eps increased the bad count")
	}
	base0 := r.BaseBadCounts(0)
	if base0.Total == 0 {
		t.Error("baseline found no SDC-bad sites")
	}
	for id, n := range ff0.PerStatic {
		if n < 0 {
			t.Errorf("negative count for %v", id)
		}
		if _, ok := r.Costs[id]; !ok {
			t.Errorf("bad static %v missing from the cost model", id)
		}
	}
}

// The default cost of a static instruction is its number of dynamic
// instances in the region of interest; instructions without register
// operands are not priced. LUD's loops give most instructions many.
func TestCostModelCountsDynamicInstances(t *testing.T) {
	tr, err := trace.Record(bench.MustBuild("lud", bench.None))
	if err != nil {
		t.Fatal(err)
	}
	want := map[prog.StaticID]int{}
	total := 0
	for d := tr.ROIBeg + 1; d < tr.ROIEnd; d++ {
		if tr.Prog.Linked.Code[tr.PCs[d]].NumOperands() > 0 {
			want[tr.StaticIDOfDyn(d)]++
			total++
		}
	}
	costs, got := core.CostModel(tr, nil)
	if got != total || !reflect.DeepEqual(costs, want) {
		t.Errorf("cost model: total %d over %d instructions, want %d over %d", got, len(costs), total, len(want))
	}
	halve := func(_ prog.StaticID, n int) int { return n / 2 }
	halved, got := core.CostModel(tr, halve)
	for id, n := range want {
		want[id] = n / 2
	}
	if !reflect.DeepEqual(halved, want) {
		t.Errorf("custom cost model disagrees with halving every count")
	}
	sum := 0
	for _, c := range halved {
		sum += c
	}
	if got != sum {
		t.Errorf("custom total %d, want %d", got, sum)
	}
}

func TestItemsNormalized(t *testing.T) {
	a := core.NewAnalyzer(fixtureConfig())
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	items := r.Items(r.FFBadCounts(0))
	sum := 0.0
	cost := 0
	for _, it := range items {
		sum += it.Value
		cost += it.Cost
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("item values sum to %v, want 1", sum)
	}
	if cost != r.TotalCost {
		t.Errorf("item costs sum to %d, want %d", cost, r.TotalCost)
	}
}

func TestAdjustTargetsDisabled(t *testing.T) {
	cfg := fixtureConfig()
	cfg.AdjustTargets = false
	a := core.NewAnalyzer(cfg)
	r, err := a.Analyze(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r)
	evals, err := a.Evaluate(r, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evals {
		if ev.Adjusted != ev.Target {
			t.Errorf("adjustment applied although disabled: %v vs %v", ev.Adjusted, ev.Target)
		}
	}
	if len(a.Store.AdjustedTargets) != 0 {
		t.Error("disabled adjustment still wrote to the store")
	}
}
