// Benchmarks that regenerate every table and figure of the FastFlip paper
// (see DESIGN.md's experiment index) plus ablations of the design choices.
//
// The evaluation suite (all five benchmarks, three versions each, FastFlip
// and the monolithic baseline) is computed once and shared by the table
// benchmarks; per-stage benchmarks measure the individual analyses. Run
// with:
//
//	go test -bench=. -benchmem
package fastflip_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fastflip"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/knap"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/tables"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// --- shared evaluation suite (computed once) ---

var (
	suiteOnce sync.Once
	suiteVal  *tables.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *tables.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = tables.RunSuite(tables.DefaultOptions())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// reportSuiteCosts attaches the headline Table 3 metrics to a benchmark.
func reportSuiteCosts(b *testing.B, s *tables.Suite) {
	var ffMod, baseMod float64
	for _, run := range s.Runs {
		if run.Variant == bench.None {
			continue
		}
		ffMod += float64(run.R.FFCost())
		baseMod += float64(run.R.BaseCost())
	}
	if ffMod > 0 {
		b.ReportMetric(baseMod/ffMod, "agg-speedup")
	}
}

// BenchmarkTable1 regenerates the benchmark inventory (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.Table1()
	}
	sink(b, out)
	var totalSites float64
	for _, name := range fastflip.Benchmarks() {
		totalSites += float64(s.Get(name, bench.None).R.SiteCount)
	}
	b.ReportMetric(totalSites, "error-sites")
}

// BenchmarkTable2 regenerates the ε = 0 utility comparison (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.Table2()
	}
	sink(b, out)
	// Worst loss of value across all versions and targets at v_trgt.
	worst := 0.0
	for _, run := range s.Runs {
		for _, ev := range run.EvalsStrict {
			if loss := ev.Target - ev.Achieved; loss > worst {
				worst = loss
			}
		}
	}
	b.ReportMetric(worst, "max-value-loss")
}

// BenchmarkTable3 regenerates the analysis cost comparison (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.Table3()
	}
	sink(b, out)
	reportSuiteCosts(b, s)
}

// BenchmarkTable4 regenerates the Campipe no-adjustment comparison
// (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.Table4()
	}
	sink(b, out)
	// The masking effect: achieved value without adjustment at 0.90.
	if run := s.Get("campipe", bench.None); run != nil {
		b.ReportMetric(run.EvalsNoAdjust[0].Achieved, "campipe-unadjusted")
	}
}

// BenchmarkEpsilon regenerates the §6.4 comparison (ε = 0.01).
func BenchmarkEpsilon(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = s.Table64()
	}
	sink(b, out)
}

// BenchmarkFigure1 regenerates the LUD target sweep (paper Figure 1).
func BenchmarkFigure1(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.Figure1("lud")
		if err != nil {
			b.Fatal(err)
		}
	}
	sink(b, out)
}

// BenchmarkEq2 regenerates the symbolic end-to-end specification (§3.1).
func BenchmarkEq2(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.Eq2("lud")
		if err != nil {
			b.Fatal(err)
		}
	}
	sink(b, out)
}

// --- per-stage benchmarks ---

// BenchmarkFastFlipAnalyze measures FastFlip's first (no-reuse) analysis.
func BenchmarkFastFlipAnalyze(b *testing.B) {
	for _, name := range fastflip.Benchmarks() {
		b.Run(name, func(b *testing.B) {
			p := bench.MustBuild(name, bench.None)
			var sim uint64
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer(core.DefaultConfig())
				r, err := a.Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
				sim = r.FFCost()
			}
			b.ReportMetric(float64(sim), "sim-instrs")
		})
	}
}

// BenchmarkBaselineAnalyze measures the monolithic baseline.
func BenchmarkBaselineAnalyze(b *testing.B) {
	for _, name := range fastflip.Benchmarks() {
		b.Run(name, func(b *testing.B) {
			p := bench.MustBuild(name, bench.None)
			var sim uint64
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer(core.DefaultConfig())
				r, err := a.Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
				a.RunBaseline(r)
				sim = r.BaseCost()
			}
			b.ReportMetric(float64(sim), "sim-instrs")
		})
	}
}

// seededAnalyzers caches, per benchmark, an analyzer whose store already
// holds the original version's per-section results.
var (
	seededMu  sync.Mutex
	seededMap = map[string]*core.Analyzer{}
)

func seededAnalyzer(b *testing.B, name string) *core.Analyzer {
	b.Helper()
	seededMu.Lock()
	defer seededMu.Unlock()
	if a, ok := seededMap[name]; ok {
		return a
	}
	a := core.NewAnalyzer(core.DefaultConfig())
	if _, err := a.Analyze(bench.MustBuild(name, bench.None)); err != nil {
		b.Fatal(err)
	}
	seededMap[name] = a
	return a
}

// BenchmarkIncremental measures FastFlip's re-analysis of modified
// versions against a store seeded with the original version — the paper's
// headline scenario.
func BenchmarkIncremental(b *testing.B) {
	for _, name := range fastflip.Benchmarks() {
		for _, variant := range []bench.Variant{bench.Small, bench.Large} {
			b.Run(name+"-"+string(variant), func(b *testing.B) {
				seeded := seededAnalyzer(b, name)
				p := bench.MustBuild(name, variant)
				b.ResetTimer()
				var r *core.Result
				for i := 0; i < b.N; i++ {
					// Each iteration replays against a snapshot of the
					// original version's store, so every measured run is
					// a genuine first re-analysis.
					a := &core.Analyzer{Cfg: seeded.Cfg, Store: seeded.Store.Clone()}
					var err error
					r, err = a.Analyze(p)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.FFCost()), "sim-instrs")
				b.ReportMetric(float64(r.ReusedInstances), "reused-sections")
			})
		}
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationPruning compares injection effort with and without
// equivalence-class pruning on SHA2, whose looped sections (64 schedule
// steps, 64 compression rounds) give classes many dynamic members.
// Straight-line sections (BScholes) have singleton classes and gain
// nothing — pruning pays off exactly where loops repeat instructions.
func BenchmarkAblationPruning(b *testing.B) {
	for _, prune := range []bool{true, false} {
		label := "pruned"
		if !prune {
			label = "exhaustive"
		}
		b.Run(label, func(b *testing.B) {
			p := bench.MustBuild("sha2", bench.None)
			cfg := core.DefaultConfig()
			cfg.Prune = prune
			var r *core.Result
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer(cfg)
				var err error
				r, err = a.Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.FFInject.Experiments), "experiments")
			b.ReportMetric(float64(r.FFCost()), "sim-instrs")
		})
	}
}

// BenchmarkAblationPruneScope quantifies the pruning-scope asymmetry on
// FFT: the baseline prunes globally, FastFlip per section instance (§6.2).
func BenchmarkAblationPruneScope(b *testing.B) {
	p := bench.MustBuild("fft", bench.None)
	tr, err := trace.Record(p)
	if err != nil {
		b.Fatal(err)
	}
	var global, perSection int
	for i := 0; i < b.N; i++ {
		global = len(sites.Global(tr, sites.Options{Prune: true}))
		perSection = 0
		for _, inst := range tr.Instances {
			perSection += len(sites.ForInstance(tr, inst, sites.Options{Prune: true}))
		}
	}
	b.ReportMetric(float64(global), "global-pilots")
	b.ReportMetric(float64(perSection), "per-section-pilots")
	b.ReportMetric(float64(perSection)/float64(global), "pilot-inflation")
}

// BenchmarkAblationSensSamples measures sensitivity estimation at
// different sample counts and reports the estimated amplification drift.
func BenchmarkAblationSensSamples(b *testing.B) {
	p := bench.MustBuild("lud", bench.None)
	tr, err := trace.Record(p)
	if err != nil {
		b.Fatal(err)
	}
	inst := tr.Instances[1] // BDIV#0: two inputs, one output
	for _, samples := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%dsamples", samples), func(b *testing.B) {
			cfg := sens.DefaultConfig()
			cfg.Samples = samples
			var k float64
			for i := 0; i < b.N; i++ {
				amp, _ := sens.Analyze(tr, inst, cfg)
				k = amp.K[0][1]
			}
			b.ReportMetric(float64(samples), "samples")
			b.ReportMetric(k, "K-diag-input")
		})
	}
}

// BenchmarkAblationBurstWidth runs the SHA2 analysis under widening
// multi-bit burst error models (§4.8) and reports the SDC-bad fraction.
func BenchmarkAblationBurstWidth(b *testing.B) {
	p := bench.MustBuild("sha2", bench.None)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.BurstWidth = width
			var badFrac float64
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer(cfg)
				r, err := a.Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
				st := r.FFOutcomeStats(0)
				badFrac = float64(st.SDCBad+st.Untested) / float64(st.Total())
			}
			b.ReportMetric(badFrac, "sdc-bad-fraction")
		})
	}
}

// BenchmarkAblationGreedy compares the knapsack DP against the value
// density greedy heuristic on LUD's real value/cost data.
func BenchmarkAblationGreedy(b *testing.B) {
	s := sharedSuite(b)
	run := s.Get("lud", bench.None)
	items := run.R.Items(run.R.FFBadCounts(0))
	const target = 0.90
	b.Run("dp", func(b *testing.B) {
		var cost int
		for i := 0; i < b.N; i++ {
			solver := knap.New(items)
			sel, err := solver.MinCostFor(target)
			if err != nil {
				b.Fatal(err)
			}
			cost = sel.Cost
		}
		b.ReportMetric(float64(cost), "protect-cost")
	})
	b.Run("greedy", func(b *testing.B) {
		var cost int
		for i := 0; i < b.N; i++ {
			cost = knap.Greedy(items, target).Cost
		}
		b.ReportMetric(float64(cost), "protect-cost")
	})
}

// knapItems caches, per benchmark, the knapsack items of the original
// version's cold analysis at ε = 0.
var (
	knapItemsMu  sync.Mutex
	knapItemsMap = map[string][]knap.Item{}
)

func knapItems(b *testing.B, name string) []knap.Item {
	b.Helper()
	knapItemsMu.Lock()
	defer knapItemsMu.Unlock()
	if items, ok := knapItemsMap[name]; ok {
		return items
	}
	r, err := core.NewAnalyzer(core.DefaultConfig()).Analyze(bench.MustBuild(name, bench.None))
	if err != nil {
		b.Fatal(err)
	}
	items := r.Items(r.FFBadCounts(0))
	knapItemsMap[name] = items
	return items
}

// BenchmarkKnapNew measures building the knapsack DP table over each
// original's item set.
func BenchmarkKnapNew(b *testing.B) {
	for _, name := range fastflip.Benchmarks() {
		b.Run(name, func(b *testing.B) {
			items := knapItems(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			var s *knap.Solver
			for i := 0; i < b.N; i++ {
				s = knap.New(items)
			}
			b.ReportMetric(float64(len(items)), "items")
			b.ReportMetric(float64(s.TotalCost()), "total-cost")
		})
	}
}

// --- replay engine microbenchmarks ---

// BenchmarkInjectSection runs one section's full injection campaign with
// and without the lockstep batch tier. Outcomes are identical; the tiers
// differ in dispatch cost and allocations (run with -benchmem). Campipe's
// sections compare the most words (768 output and 4,352 live-only), so
// its case shows the cost of classifying each experiment.
func BenchmarkInjectSection(b *testing.B) {
	for _, name := range []string{"fft", "campipe"} {
		p := bench.MustBuild(name, bench.None)
		tr, err := trace.Record(p)
		if err != nil {
			b.Fatal(err)
		}
		inst := tr.Instances[len(tr.Instances)/2]
		classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
		for _, noBatch := range []bool{false, true} {
			tier := "batch"
			if noBatch {
				tier = "scalar"
			}
			b.Run(name+"/"+tier, func(b *testing.B) {
				inj := &inject.Injector{T: tr, NoBatch: noBatch}
				b.ReportAllocs()
				b.ResetTimer()
				var stats inject.Stats
				for i := 0; i < b.N; i++ {
					_, stats = inj.RunSection(context.Background(), inst, classes)
				}
				b.ReportMetric(float64(stats.SimInstrs), "accounted-instrs")
				b.ReportMetric(float64(stats.CleanInstrs), "clean-instrs")
				b.ReportMetric(float64(stats.FaultyInstrs), "faulty-instrs")
			})
		}
	}
}

// BenchmarkRestore compares reverting a machine after a bounded run via
// journal undo (delta restore) against a full state copy. The run itself
// happens with the timer stopped, so the figures isolate the revert.
// Campipe has the largest memory image (5k words), where the delta restore
// pays off most.
func BenchmarkRestore(b *testing.B) {
	p := bench.MustBuild("campipe", bench.None)
	tr, err := trace.Record(p)
	if err != nil {
		b.Fatal(err)
	}
	const span = 64 // dynamic instructions executed before each revert
	b.Run("journal", func(b *testing.B) {
		base := tr.Start.Clone()
		m := base.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m.BeginJournal()
			if ev := m.RunUntilDyn(base.Dyn + span); ev.Kind != vm.EvNone {
				b.Fatal(ev.Kind)
			}
			b.StartTimer()
			if !m.UndoJournal() {
				b.Fatal("journal overflow")
			}
			m.CopyScalarsFrom(base)
		}
	})
	b.Run("full", func(b *testing.B) {
		base := tr.Start.Clone()
		m := base.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if ev := m.RunUntilDyn(base.Dyn + span); ev.Kind != vm.EvNone {
				b.Fatal(ev.Kind)
			}
			b.StartTimer()
			m.RestoreFrom(base)
		}
	})
}

var benchSink string

// sink defeats dead-code elimination of rendered tables.
func sink(b *testing.B, s string) {
	if s == "" {
		b.Fatal("empty artifact")
	}
	benchSink = s
}
