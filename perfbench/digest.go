package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"fastflip/internal/core"
	"fastflip/internal/prog"
)

// Counters are an operation's deterministic work counters. With the
// injection worker count pinned they repeat exactly, so they are compared
// with the golden values rather than within a tolerance.
type Counters struct {
	// Experiments counts experiments actually executed: not elided by a
	// masking proof, not reused from a store, not resumed from a log.
	Experiments int `json:"experiments"`
	// SimInstrs is the paper's accounted cost, core.Result.FFCost.
	SimInstrs    uint64 `json:"sim_instrs"`
	CleanInstrs  uint64 `json:"clean_instrs"`
	FaultyInstrs uint64 `json:"faulty_instrs"`
	SensInstrs   uint64 `json:"sens_instrs"`
	Elided       int    `json:"elided"`
	Batched      int    `json:"batched"`
	Batches      int    `json:"batches"`
	Reused       int    `json:"reused"`
	Instances    int    `json:"instances"`
}

// Executed is the instruction count actually simulated.
func (c Counters) Executed() uint64 { return c.CleanInstrs + c.FaultyInstrs + c.SensInstrs }

func (c *Counters) add(o Counters) {
	c.Experiments += o.Experiments
	c.SimInstrs += o.SimInstrs
	c.CleanInstrs += o.CleanInstrs
	c.FaultyInstrs += o.FaultyInstrs
	c.SensInstrs += o.SensInstrs
	c.Elided += o.Elided
	c.Batched += o.Batched
	c.Batches += o.Batches
	c.Reused += o.Reused
	c.Instances += o.Instances
}

func countersOf(r *core.Result) Counters {
	return Counters{
		Experiments:  r.FFInject.Experiments - r.FFInject.ElidedExperiments - r.FFRecovered.Experiments,
		SimInstrs:    r.FFCost(),
		CleanInstrs:  r.FFInject.CleanInstrs,
		FaultyInstrs: r.FFInject.FaultyInstrs,
		SensInstrs:   r.FFSens.SimInstrs,
		Elided:       r.FFInject.ElidedExperiments,
		Batched:      r.FFInject.BatchExperiments,
		Batches:      r.FFInject.Batches,
		Reused:       r.ReusedInstances,
		Instances:    len(r.Trace.Instances),
	}
}

// Outcome is what an operation found, reduced for comparison: the
// SDC-Bad site count of every static instruction at ε = 0 and the
// knapsack selection cost at each target. Telemetry is left out.
type Outcome struct {
	Bad   map[prog.StaticID]int
	Costs []int
}

// digest hashes the outcome in a canonical order.
func (o Outcome) digest() string {
	ids := make([]prog.StaticID, 0, len(o.Bad))
	for id, n := range o.Bad {
		if n != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "bad %s %d\n", id, o.Bad[id])
	}
	for i, c := range o.Costs {
		fmt.Fprintf(h, "cost %d %d\n", i, c)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// summaryDigest hashes the outcome fields of a service job summary.
func summaryDigest(s *core.Summary) string {
	h := sha256.New()
	o := s.Outcomes
	fmt.Fprintf(h, "sites %d\noutcomes %d %d %d %d %d\nresidual %d %d\n",
		s.SiteCount, o.Masked, o.Detected, o.SDCGood, o.SDCBad, o.Untested,
		s.ResidualSDC, s.PredictedResidual)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// GoldenOp is the expected result of one core operation.
type GoldenOp struct {
	Digest string `json:"digest"`
	Counters
}

// GoldenJob is the expected result of one distinct service job.
type GoldenJob struct {
	Digest      string `json:"digest"`
	ResidualSDC int    `json:"residual_sdc,omitempty"`
}

// Golden holds the expected outcomes the benchmark checks every operation
// against, regenerated with -write-golden.
type Golden struct {
	Ops  map[string]GoldenOp  `json:"ops"`
	Jobs map[string]GoldenJob `json:"jobs"`
}

func loadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := new(Golden)
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g, nil
}

// checkOp compares an operation's digest and counters with the golden
// values and describes the first difference.
func (g *Golden) checkOp(id, digest string, c Counters) error {
	want, ok := g.Ops[id]
	if !ok {
		return fmt.Errorf("%s: no golden value", id)
	}
	if digest != want.Digest {
		return fmt.Errorf("%s: outcome digest %s, want %s", id, digest, want.Digest)
	}
	if c != want.Counters {
		return fmt.Errorf("%s: counters %+v, want %+v", id, c, want.Counters)
	}
	return nil
}

// checkJob compares a service job summary with the golden digest.
func (g *Golden) checkJob(key string, s *core.Summary) error {
	want, ok := g.Jobs[key]
	if !ok {
		return fmt.Errorf("job %s: no golden value", key)
	}
	if d := summaryDigest(s); d != want.Digest {
		return fmt.Errorf("job %s: outcome digest %s, want %s", key, d, want.Digest)
	}
	return nil
}
