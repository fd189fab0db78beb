package core_test

import (
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
)

// TestLabelAggregatesAgree: an outcome breakdown and the bad counts of the
// same ground truth are two sums over one per-class labeling rule, so at
// every ε the breakdown's SDC-Bad sites (plus the untested ones, for
// FastFlip) are exactly the counted total.
func TestLabelAggregatesAgree(t *testing.T) {
	progs := []struct {
		name string
		p    *spec.Program
	}{{"pipeline", testprog.Pipeline()}}
	if !testing.Short() {
		progs = append(progs, struct {
			name string
			p    *spec.Program
		}{"fft-small", bench.MustBuild("fft", bench.Small)})
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			a := core.NewAnalyzer(core.DefaultConfig())
			r, err := a.Analyze(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			a.RunBaseline(r)
			if r.FFBadCounts(0).Total == 0 || r.BaseBadCounts(0).Total == 0 {
				t.Fatal("no SDC-Bad site at ε=0; the comparison is vacuous")
			}
			for _, eps := range []float64{0, 0.01, 1e6} {
				ff, ffBC := r.FFOutcomeStats(eps), r.FFBadCounts(eps)
				if ff.SDCBad+ff.Untested != ffBC.Total {
					t.Errorf("ε=%g: FastFlip breakdown has %d SDC-Bad + %d untested sites, bad counts total %d", eps, ff.SDCBad, ff.Untested, ffBC.Total)
				}
				base, baseBC := r.BaseOutcomeStats(eps), r.BaseBadCounts(eps)
				if base.SDCBad != baseBC.Total {
					t.Errorf("ε=%g: baseline breakdown has %d SDC-Bad sites, bad counts total %d", eps, base.SDCBad, baseBC.Total)
				}
			}
		})
	}
}
