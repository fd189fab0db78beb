package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/knap"
	"fastflip/internal/spec"
	"fastflip/internal/store"
)

// injectWorkers pins injection parallelism. The engine partitions a
// section's experiments statically across workers, so clean-replay and
// batch counters depend on this number; it is fixed, not GOMAXPROCS.
const injectWorkers = 2

// analysisConfig is the paper's default configuration with the worker
// count pinned.
func analysisConfig(benchName string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = injectWorkers
	if pi, ok := bench.PilotInaccuracies[benchName]; ok {
		cfg.PilotInaccuracy = pi
	}
	return cfg
}

// selectAt solves for the cheapest selection reaching target, protecting
// everything when the labeling cannot reach it.
func selectAt(s *knap.Solver, target float64) (*knap.Selection, error) {
	sel, err := s.MinCostFor(target)
	if err != nil {
		sel, err = s.MinCostFor(s.MaxValue())
	}
	return sel, err
}

// selectCosts is the knapsack step of an operation: one solver, one
// minimum-cost selection per target.
func selectCosts(items []knap.Item, targets []float64) ([]int, error) {
	s := knap.New(items)
	costs := make([]int, len(targets))
	for i, t := range targets {
		sel, err := selectAt(s, t)
		if err != nil {
			return nil, fmt.Errorf("knapsack at target %g: %w", t, err)
		}
		costs[i] = sel.Cost
	}
	return costs, nil
}

// coreOp is one operation of the initial or incremental workload.
type coreOp struct {
	ID      string
	Bench   string
	Variant bench.Variant
	Prog    *spec.Program
	// Warm is the store the operation clones before analyzing; nil for a
	// cold analysis.
	Warm *store.Store
}

// runCoreOp is the untraced operation, through core.Analyzer: analyze,
// then select at every target.
func runCoreOp(op *coreOp) (Outcome, Counters, error) {
	a := core.NewAnalyzer(analysisConfig(op.Bench))
	if op.Warm != nil {
		a.Store = op.Warm.Clone()
	}
	r, err := a.Analyze(op.Prog)
	if err != nil {
		return Outcome{}, Counters{}, fmt.Errorf("%s: %w", op.ID, err)
	}
	bc := r.FFBadCounts(0)
	costs, err := selectCosts(r.Items(bc), a.Cfg.Targets)
	return Outcome{Bad: bc.PerStatic, Costs: costs}, countersOf(r), err
}

// initialOps builds the five original programs, one cold operation each.
func initialOps() ([]*coreOp, error) {
	var ops []*coreOp
	for _, name := range bench.Names() {
		p, err := bench.Build(name, bench.None)
		if err != nil {
			return nil, err
		}
		ops = append(ops, &coreOp{ID: "initial/" + name + "/none", Bench: name, Variant: bench.None, Prog: p})
	}
	return ops, nil
}

// incrementalOps builds every Small and Large version and warms one store
// per benchmark by analyzing its original.
func incrementalOps() ([]*coreOp, error) {
	var ops []*coreOp
	for _, name := range bench.Names() {
		orig, err := bench.Build(name, bench.None)
		if err != nil {
			return nil, err
		}
		a := core.NewAnalyzer(analysisConfig(name))
		if _, err := a.Analyze(orig); err != nil {
			return nil, fmt.Errorf("warming %s: %w", name, err)
		}
		for _, v := range []bench.Variant{bench.Small, bench.Large} {
			p, err := bench.Build(name, v)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &coreOp{ID: "incremental/" + name + "/" + string(v), Bench: name, Variant: v, Prog: p, Warm: a.Store})
		}
	}
	return ops, nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass is one run of a workload's fixed operation list.
type pass struct {
	Wall, CPU time.Duration
	// OpWall and OpCPU are each operation's seconds, by operation index.
	OpWall, OpCPU []float64
	Counters      Counters
	// GC is the runtime's collection work during the operations, forced
	// collections between operations excluded.
	GC gcSample
}

// opRunner executes one operation; runCoreOp or the traced mirror's runOp.
type opRunner func(*coreOp) (Outcome, Counters, error)

// runPass runs every operation once in the seed's order, collecting the
// per-operation latencies. Each operation starts from a collected heap;
// the collection is outside the timed region. An operation that errors
// or fails the golden check counts as failed.
func runPass(ops []*coreOp, order []int, run opRunner, g *Golden, lat *[]float64, failed *int) pass {
	p := pass{OpWall: make([]float64, len(ops)), OpCPU: make([]float64, len(ops))}
	for _, i := range order {
		op := ops[i]
		runtime.GC()
		gc0 := readGC()
		cpu0, t0 := cpuTime(), time.Now()
		out, c, err := run(op)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		gc1 := readGC()
		p.GC.gcs += gc1.gcs - gc0.gcs
		p.GC.pause += gc1.pause - gc0.pause
		p.GC.alloc += gc1.alloc - gc0.alloc
		p.Wall += wall
		p.CPU += cpu
		p.OpWall[i], p.OpCPU[i] = wall.Seconds(), cpu.Seconds()
		*lat = append(*lat, wall.Seconds())
		if err == nil {
			err = g.checkOp(op.ID, out.digest(), c)
		}
		if err != nil {
			*failed++
			logf("FAIL %v", err)
		}
		p.Counters.add(c)
	}
	return p
}

// listSeconds is the time of the whole operation list: the sum over
// operations of each one's median across passes. A slow outlier in one
// pass moves only its own operation's median.
func listSeconds(passes []pass, field func(pass) []float64) float64 {
	total := 0.0
	for i := range field(passes[0]) {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, field(p)[i])
		}
		total += median(xs)
	}
	return total
}
