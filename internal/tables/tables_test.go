package tables

import (
	"strings"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/sens"
)

// fastSuite runs the evaluation over the two cheapest benchmarks, closing
// the protection loop on the originals when hardenTarget is nonzero.
func fastSuite(t *testing.T, hardenTarget float64) *Suite {
	t.Helper()
	opts := DefaultOptions()
	opts.Benchmarks = []string{"bscholes", "sha2"}
	opts.HardenTarget = hardenTarget
	cfg := sens.DefaultConfig()
	cfg.Samples = 16
	opts.Sens = cfg
	s, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t, 0.95)
	if len(s.Runs) != 6 {
		t.Fatalf("runs = %d, want 2 benchmarks x 3 variants", len(s.Runs))
	}
	for _, run := range s.Runs {
		if len(run.EvalsStrict) != len(s.Opts.Targets) {
			t.Errorf("%s/%s: %d strict evals", run.Bench, run.Variant, len(run.EvalsStrict))
		}
		if run.Variant != bench.None && run.R.ReusedInstances == 0 {
			t.Errorf("%s/%s reused nothing", run.Bench, run.Variant)
		}
	}
	if s.Get("bscholes", bench.Small) == nil || s.Get("nothere", bench.None) != nil {
		t.Error("Get lookup broken")
	}

	// The ffbench -out digest: one summary per run, with the baseline
	// block, Table 2's targets, and harden figures on originals only.
	sums := s.Summaries()
	if len(sums) != len(s.Runs) {
		t.Fatalf("%d summaries for %d runs", len(sums), len(s.Runs))
	}
	for i, run := range s.Runs {
		sum := sums[i]
		if sum.Bench != run.Bench || sum.Variant != string(run.Variant) {
			t.Errorf("summary %d is %s/%s, run is %s/%s", i, sum.Bench, sum.Variant, run.Bench, run.Variant)
		}
		if sum.Baseline == nil || sum.Baseline.Experiments != run.R.BaseInject.Experiments {
			t.Errorf("%s/%s: baseline block %+v", run.Bench, run.Variant, sum.Baseline)
		}
		if len(sum.Targets) != len(run.EvalsStrict) {
			t.Fatalf("%s/%s: %d targets, want %d", run.Bench, run.Variant, len(sum.Targets), len(run.EvalsStrict))
		}
		for j, ev := range run.EvalsStrict {
			if tg := sum.Targets[j]; tg.Target != ev.Target || tg.Achieved != ev.Achieved {
				t.Errorf("%s/%s target %d: %+v, strict eval %+v", run.Bench, run.Variant, j, tg, ev)
			}
		}
		if run.Variant != bench.None {
			if run.Harden != nil || sum.HardenedTarget != 0 {
				t.Errorf("%s/%s: modified version hardened", run.Bench, run.Variant)
			}
		} else if h := run.Harden; h == nil || sum.HardenedTarget != s.Opts.HardenTarget ||
			sum.ResidualSDC != h.ResidualSDC || sum.PredictedResidual != h.PredictedResidual {
			t.Errorf("%s/%s: harden figures in summary %+v, eval %+v", run.Bench, run.Variant, sum, h)
		}
	}
}

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t, 0)

	t1 := s.Table1()
	for _, want := range []string{"bscholes", "sha2", "4 (x2)", "3 (x1)"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}

	t2 := s.Table2()
	if !strings.Contains(t2, "geomean cost:") || strings.Count(t2, "\n") < 8 {
		t.Errorf("Table2 malformed:\n%s", t2)
	}

	t3 := s.Table3()
	if !strings.Contains(t3, "geomean speedup") || !strings.Contains(t3, "Speedup") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}

	// Table 4 is Campipe-specific; with this subset it has only headers.
	if !strings.Contains(s.Table4(), "WITHOUT target adjustment") {
		t.Error("Table4 missing title")
	}

	t64 := s.Table64()
	if !strings.Contains(t64, "SHA2 stays 0") {
		t.Errorf("Table64 missing SHA2 note:\n%s", t64)
	}

	if _, err := s.Eq2("bscholes"); err != nil {
		t.Errorf("Eq2: %v", err)
	}
	if _, err := s.Eq2("lud"); err == nil {
		t.Error("Eq2 for a benchmark outside the suite did not error")
	}

	fig, err := s.Figure1("bscholes")
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if strings.Count(fig, "\n") < 15 {
		t.Errorf("Figure1 sweep too short:\n%s", fig)
	}
}

func TestSHA2KeepsStrictEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	s := fastSuite(t, 0)
	// §6.4: SHA2's relaxed-ε evaluation must be identical to the strict
	// one because its ε stays 0.
	run := s.Get("sha2", bench.None)
	for i := range run.EvalsStrict {
		if run.EvalsStrict[i].Achieved != run.EvalsGood[i].Achieved {
			t.Errorf("sha2 eval %d differs between strict and good", i)
		}
	}
}

func TestGroup(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want string
	}{
		{0, "0"}, {999, "999"}, {1000, "1,000"}, {1234567, "1,234,567"},
	} {
		if got := group(tt.n); got != tt.want {
			t.Errorf("group(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}
