package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/prog"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Two overlapping children: together they cover [10, 50).
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(50)},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 2, Name: "c", Start: ms(15), End: ms(25)},
		// A child running past the parent's end is clipped to it.
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
		// A child touching another merges without double counting.
		{ID: 6, Parent: 1, Name: "e", Start: ms(50), End: ms(60)},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100 - 40 - 10 - 10), // children cover [10,60) and [90,100)
		2: ms(30 - 10),
		3: ms(20),
		4: ms(10),
		5: ms(30),
		6: ms(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
	if got := SelfByName(spans)["op"]; got != ms(40) {
		t.Errorf("self time by name: %v, want 40ms", got)
	}
}

func TestSelfTimeWithoutChildren(t *testing.T) {
	self := SelfTimes([]Span{{ID: 1, Start: ms(5), End: ms(12)}})
	if self[1] != ms(7) {
		t.Fatalf("self time %v, want 7ms", self[1])
	}
}

func TestPercentileNeedsTwentySamples(t *testing.T) {
	xs := make([]float64, minPercentileSamples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatalf("p90 over %d samples accepted", len(xs))
	}
	xs = append(xs, 20)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 over %d samples: %v", len(xs), err)
	}
	// Exclusive method: rank 0.9·21 = 18.9 between 18 and 19.
	if d := p90 - 18.9; d > 1e-9 || d < -1e-9 {
		t.Fatalf("p90 = %v, want 18.9", p90)
	}
	if p50, _ := percentile(xs, 0.5); p50 != 10.5 {
		t.Fatalf("p50 = %v, want 10.5", p50)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	xs := []float64{16, 1, 8, 2, 4}
	for _, c := range []struct{ q, want float64 }{{0.25, 1.5}, {0.5, 4}, {0.75, 12}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestDigestRejectsMutatedOutcome(t *testing.T) {
	id := func(local int) prog.StaticID { return prog.StaticID{Func: "kernel", Local: local} }
	out := Outcome{Bad: map[prog.StaticID]int{id(1): 64, id(2): 3}, Costs: []int{10, 20, 30}}
	c := Counters{Experiments: 5, SimInstrs: 100}
	g := &Golden{Ops: map[string]GoldenOp{"initial/x/none": {Digest: out.digest(), Counters: c}}}
	if err := g.checkOp("initial/x/none", out.digest(), c); err != nil {
		t.Fatalf("unchanged outcome rejected: %v", err)
	}

	bad := Outcome{Bad: map[prog.StaticID]int{id(1): 64, id(2): 4}, Costs: out.Costs}
	if err := g.checkOp("initial/x/none", bad.digest(), c); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("mutated bad count accepted: %v", err)
	}
	cost := Outcome{Bad: out.Bad, Costs: []int{10, 21, 30}}
	if err := g.checkOp("initial/x/none", cost.digest(), c); err == nil {
		t.Error("mutated selection cost accepted")
	}
	c2 := c
	c2.Experiments++
	if err := g.checkOp("initial/x/none", out.digest(), c2); err == nil || !strings.Contains(err.Error(), "counters") {
		t.Errorf("mutated counter accepted: %v", err)
	}
	// A zero entry is the same outcome as an absent one.
	zero := Outcome{Bad: map[prog.StaticID]int{id(1): 64, id(2): 3, id(9): 0}, Costs: out.Costs}
	if zero.digest() != out.digest() {
		t.Error("zero bad count changed the digest")
	}
}

func TestSummaryDigestIgnoresTelemetry(t *testing.T) {
	s := &core.Summary{SiteCount: 100, ResidualSDC: 7, PredictedResidual: 9}
	s.Outcomes.SDCBad = 12
	g := &Golden{Jobs: map[string]GoldenJob{"lud/none": {Digest: summaryDigest(s)}}}
	tele := *s
	tele.FFWall, tele.FFCleanInstrs, tele.SharedHits = time.Second, 99, 3
	if err := g.checkJob("lud/none", &tele); err != nil {
		t.Fatalf("telemetry changed the digest: %v", err)
	}
	mut := *s
	mut.Outcomes.SDCBad++
	if err := g.checkJob("lud/none", &mut); err == nil {
		t.Fatal("mutated outcome accepted")
	}
}

func TestClientJobsKeepEachBenchmarksOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		jobs := clientJobs([]string{"sha2", "bscholes"}, rand.New(rand.NewSource(seed)))
		for _, b := range []string{"sha2", "bscholes"} {
			var got, want []string
			tenant := map[string]string{}
			for _, j := range jobs {
				if j.Req.Bench == b {
					got = append(got, j.Key)
					tenant[j.Key] = j.Req.Tenant
				}
			}
			for _, v := range []string{"none", "small", "large"} {
				plain := b + "/" + v
				want = append(want, plain, plain+"+harden")
				if tenant[plain] == tenant[plain+"+harden"] {
					t.Errorf("seed %d: %s and its harden job both from tenant %q", seed, plain, tenant[plain])
				}
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("seed %d: %s jobs %v, want %v", seed, b, got, want)
			}
		}
	}
}

func TestStreamSecondsTakesEachJobsMedian(t *testing.T) {
	mk := func(wall int, runs ...int) round {
		r := round{Wall: ms(wall)}
		for _, x := range runs {
			r.Jobs = append(r.Jobs, jobSample{Run: ms(x)})
		}
		return r
	}
	// The second round stalls in its first job, which the per-job median
	// drops: job medians are 50 and 40 ms, idle times 20, 20 and 10 ms.
	rounds := []round{mk(110, 50, 40), mk(310, 250, 40), mk(105, 50, 45)}
	if got := streamSeconds(rounds); math.Abs(got-0.110) > 1e-9 {
		t.Fatalf("stream seconds %v, want 0.110", got)
	}
}
