package sens_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/diffcheck"
	"fastflip/internal/sens"
	"fastflip/internal/trace"
)

// checkInstances holds the batched estimator to the scalar reference on
// every instance of tr: bit-identical K and identical Stats.
func checkInstances(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	cfg := sens.DefaultConfig()
	for i, inst := range tr.Instances {
		amp, stats := sens.Analyze(tr, inst, cfg)
		ref, refStats := sens.AnalyzeReference(tr, inst, cfg)
		if stats != refStats {
			t.Errorf("%s instance %d: stats %+v, scalar %+v", name, i, stats, refStats)
		}
		for oi := range ref.K {
			for ii := range ref.K[oi] {
				if math.Float64bits(amp.K[oi][ii]) != math.Float64bits(ref.K[oi][ii]) {
					t.Errorf("%s instance %d: K[%d][%d] = %v, scalar %v", name, i, oi, ii, amp.K[oi][ii], ref.K[oi][ii])
				}
			}
		}
	}
}

// TestBatchedSensMatchesReference is the equivalence gate of batched
// sampling: every instance of the five benchmarks in each version, and of
// generated pipelines of both families over a fixed seed range.
func TestBatchedSensMatchesReference(t *testing.T) {
	for _, name := range bench.Names() {
		for _, v := range []bench.Variant{bench.None, bench.Small, bench.Large} {
			tr, err := trace.Record(bench.MustBuild(name, v))
			if err != nil {
				t.Fatal(err)
			}
			checkInstances(t, fmt.Sprintf("%s/%s", name, v), tr)
		}
	}
	for _, fam := range []diffcheck.Family{diffcheck.FamilySound, diffcheck.FamilyMixed} {
		for seed := uint64(1); seed <= 40; seed++ {
			p, err := diffcheck.Generate(seed, fam).Program()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(p)
			if err != nil {
				t.Fatal(err)
			}
			checkInstances(t, fmt.Sprintf("%v/%d", fam, seed), tr)
		}
	}
}

// TestBatchedSensConcurrent runs estimations on several goroutines at
// once, as concurrent analyses do: samplers are reused, and no two
// estimations may share one.
func TestBatchedSensConcurrent(t *testing.T) {
	tr, err := trace.Record(bench.MustBuild("lud", bench.None))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sens.DefaultConfig()
	want := make([]*sens.Amplification, len(tr.Instances))
	for i, inst := range tr.Instances {
		want[i], _ = sens.AnalyzeReference(tr, inst, cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range tr.Instances {
				i := (n + g) % len(tr.Instances)
				amp, _ := sens.Analyze(tr, tr.Instances[i], cfg)
				if !slices.EqualFunc(amp.K, want[i].K, slices.Equal[[]float64]) {
					t.Errorf("goroutine %d instance %d: K %v, scalar %v", g, i, amp.K, want[i].K)
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkStats sens.Stats

// BenchmarkSensAnalyze estimates every instance of a benchmark's
// original version per iteration, batched and with the scalar reference.
// sha2 is left out: its sections are Discrete and run no samples.
func BenchmarkSensAnalyze(b *testing.B) {
	estimators := []struct {
		name string
		fn   func(*trace.Trace, *trace.Instance, sens.Config) (*sens.Amplification, sens.Stats)
	}{{"batch", sens.Analyze}, {"reference", sens.AnalyzeReference}}
	for _, name := range []string{"fft", "campipe", "lud"} {
		tr, err := trace.Record(bench.MustBuild(name, bench.None))
		if err != nil {
			b.Fatal(err)
		}
		for _, est := range estimators {
			b.Run(name+"/"+est.name, func(b *testing.B) {
				cfg := sens.DefaultConfig()
				for i := 0; i < b.N; i++ {
					var total sens.Stats
					for _, inst := range tr.Instances {
						_, s := est.fn(tr, inst, cfg)
						total.Runs += s.Runs
						total.SimInstrs += s.SimInstrs
					}
					sinkStats = total
				}
				b.ReportMetric(float64(sinkStats.SimInstrs), "sim-instrs")
			})
		}
	}
}
