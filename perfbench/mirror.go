package main

import (
	"context"
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"fastflip/internal/chisel"
	"fastflip/internal/core"
	"fastflip/internal/harden"
	"fastflip/internal/inject"
	"fastflip/internal/knap"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// The traced run drives the pipeline through each layer's public
// functions in the order core.Analyzer.AnalyzeContext calls them (local
// campaign, no write-ahead log, no co-run), so a span can be recorded
// around every call. Its outcomes and counters must equal the untraced
// run's, which goes through core.Analyzer itself: both are checked against
// the same golden values.

// Span names; the per-layer metric of a name is its summed self time.
const (
	spanOp        = "op"
	spanTrace     = "trace.record"
	spanMaskelide = "maskelide.analyze"
	spanSites     = "sites.classify"
	spanKey       = "store.key"
	spanLookup    = "store.lookup"
	spanInject    = "inject.run"
	spanSens      = "sens.analyze"
	spanChisel    = "chisel.compose"
	spanKnap      = "knap.select"
	spanTransform = "harden.transform"
	spanReinject  = "harden.reinject"
)

// layerCounts accumulates the work counted at the traced layer boundaries.
type layerCounts struct {
	Counters
	Classes     int
	KnapItems   int
	HardenAdded int
	// Alloc is the heap bytes allocated inside spans, by span name.
	Alloc map[string]uint64
	// InjectCPU is process CPU time spent inside inject spans.
	InjectCPU time.Duration
}

// mirror records spans and counts around the layer calls.
type mirror struct {
	rec *Recorder
	lc  *layerCounts
}

func newMirror(rec *Recorder) *mirror {
	return &mirror{rec: rec, lc: &layerCounts{Alloc: make(map[string]uint64)}}
}

// call runs f inside a span. With alloc set, heap allocation during f is
// attributed to the span.
func (m *mirror) call(op string, parent int, name string, alloc bool, f func()) {
	var before uint64
	if alloc {
		before = heapAllocs()
	}
	id := m.rec.Begin(op, name, parent)
	f()
	m.rec.End(id)
	if alloc {
		m.lc.Alloc[name] += heapAllocs() - before
	}
}

// heapAllocs returns the bytes allocated on the heap so far. Unlike
// runtime.ReadMemStats it does not stop the world, so it stays cheap
// around the many short classification calls.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// classRec pairs a class with its (possibly reused) outcome.
type classRec struct {
	class *sites.Class
	out   metrics.Outcome
	inst  int
}

// analysis is the mirror's counterpart of core.Result.
type analysis struct {
	prog     *spec.Program
	trace    *trace.Trace
	recs     []classRec
	untested map[prog.StaticID]int
	spec     *chisel.Spec
	costs    map[prog.StaticID]int
	counters Counters
}

// analyze mirrors core.Analyzer.AnalyzeContext.
func (m *mirror) analyze(op string, parent int, p *spec.Program, st *store.Store, cfg core.Config) (*analysis, error) {
	var t *trace.Trace
	var err error
	m.call(op, parent, spanTrace, false, func() {
		t, err = trace.RecordWith(p, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	})
	if err != nil {
		return nil, err
	}
	siteOpts := sites.Options{Prune: cfg.Prune, Width: cfg.BurstWidth}
	if cfg.Elide {
		m.call(op, parent, spanMaskelide, false, func() { siteOpts.Masks = maskelide.Analyze(t.Prog.Linked) })
	}
	m.call(op, parent, spanSites, true, func() { sites.Count(t, siteOpts) })

	a := &analysis{prog: p, trace: t, untested: make(map[prog.StaticID]int)}
	c := &a.counters
	c.Instances = len(t.Instances)
	inj := &inject.Injector{T: t, Workers: cfg.Workers, NoBatch: cfg.NoBatch}
	amps := make([]*sens.Amplification, len(t.Instances))
	for idx, inst := range t.Instances {
		var classes []*sites.Class
		m.call(op, parent, spanSites, true, func() { classes = sites.ForInstance(t, inst, siteOpts) })
		m.lc.Classes += len(classes)
		var key store.Key
		var keyErr error
		m.call(op, parent, spanKey, false, func() {
			if cfg.StrictReuseKeys {
				key, keyErr = store.KeyForStrict(t, inst)
			} else {
				key, keyErr = store.KeyFor(t, inst)
			}
		})
		if keyErr != nil {
			return nil, fmt.Errorf("reuse key for instance %d: %w", idx, keyErr)
		}
		var hit *store.Section
		m.call(op, parent, spanLookup, false, func() { hit = lookupCovering(st, key, classes) })
		if hit != nil {
			for _, cl := range classes {
				a.recs = append(a.recs, classRec{class: cl, out: hit.Outcomes[cl.Key].ToMetrics(), inst: idx})
			}
			amps[idx] = &sens.Amplification{K: hit.Amp}
			c.Reused++
			continue
		}

		var outcomes []metrics.Outcome
		var stats inject.Stats
		cpu0 := cpuTime()
		m.call(op, parent, spanInject, true, func() { outcomes, stats = inj.RunSection(context.Background(), inst, classes) })
		m.lc.InjectCPU += cpuTime() - cpu0
		var amp *sens.Amplification
		var sstats sens.Stats
		m.call(op, parent, spanSens, false, func() { amp, sstats = sens.Analyze(t, inst, cfg.Sens) })
		amps[idx] = amp

		c.Experiments += stats.Experiments - stats.ElidedExperiments
		c.SimInstrs += stats.SimInstrs + sstats.SimInstrs
		c.CleanInstrs += stats.CleanInstrs
		c.FaultyInstrs += stats.FaultyInstrs
		c.SensInstrs += sstats.SimInstrs
		c.Elided += stats.ElidedExperiments
		c.Batched += stats.BatchExperiments
		c.Batches += stats.Batches

		stored := &store.Section{
			Outcomes:  make(map[sites.ClassKey]store.Outcome, len(classes)),
			Amp:       amp.K,
			SimInstrs: stats.SimInstrs,
		}
		for i, cl := range classes {
			a.recs = append(a.recs, classRec{class: cl, out: outcomes[i], inst: idx})
			stored.Outcomes[cl.Key] = store.FromMetrics(outcomes[i])
		}
		if st != nil {
			st.Put(key, stored)
		}
	}

	var dyns []uint64
	m.call(op, parent, spanSites, true, func() { dyns, _ = sites.Untested(t, siteOpts) })
	per := sites.SitesPerOperand(cfg.BurstWidth)
	for _, d := range dyns {
		in := t.Prog.Linked.Code[t.PCs[d]]
		a.untested[t.StaticIDOfDyn(d)] += len(in.Operands(nil)) * per
	}
	m.call(op, parent, spanChisel, false, func() { a.spec, err = chisel.Compose(t, amps) })
	if err != nil {
		return nil, err
	}
	a.costs = dynCosts(t)
	m.lc.add(a.counters)
	return a, nil
}

// lookupCovering returns the stored section for key only if it covers
// every class, as core's store lookup does.
func lookupCovering(st *store.Store, key store.Key, classes []*sites.Class) *store.Section {
	if st == nil {
		return nil
	}
	sec := st.Lookup(key)
	if sec == nil {
		return nil
	}
	for _, cl := range classes {
		if _, ok := sec.Outcomes[cl.Key]; !ok {
			return nil
		}
	}
	return sec
}

// dynCosts is core's default cost model: dynamic instances per static
// instruction with at least one register operand, inside the region of
// interest.
func dynCosts(t *trace.Trace) map[prog.StaticID]int {
	counts := make(map[prog.StaticID]int)
	for d := t.ROIBeg + 1; d < t.ROIEnd; d++ {
		if len(t.Prog.Linked.Code[t.PCs[d]].Operands(nil)) > 0 {
			counts[t.StaticIDOfDyn(d)]++
		}
	}
	return counts
}

// badCounts labels every site at ε = 0 (Algorithm 2 plus the conservative
// untested sites), as core.Result.FFBadCounts does.
func (a *analysis) badCounts() (map[prog.StaticID]int, int) {
	bad := make(map[prog.StaticID]int)
	total := 0
	eps := make([]float64, len(a.prog.FinalOutputs))
	for _, r := range a.recs {
		if r.out.Kind == metrics.SDC && a.spec.Bad(r.inst, r.out.Magnitudes, eps) {
			bad[r.class.Key.Static] += r.class.Size()
			total += r.class.Size()
		}
	}
	for id, n := range a.untested {
		bad[id] += n
		total += n
	}
	return bad, total
}

// items builds the knapsack items as core.Result.Items does.
func (a *analysis) items(bad map[prog.StaticID]int, total int) []knap.Item {
	ids := make([]prog.StaticID, 0, len(a.costs))
	for id := range a.costs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Func != ids[j].Func {
			return ids[i].Func < ids[j].Func
		}
		return ids[i].Local < ids[j].Local
	})
	items := make([]knap.Item, len(ids))
	for i, id := range ids {
		v := 0.0
		if total > 0 {
			v = float64(bad[id]) / float64(total)
		}
		items[i] = knap.Item{ID: id, Value: v, Cost: a.costs[id]}
	}
	return items
}

// runOp is one traced core operation: the analysis and the knapsack
// selection at every target, under one root span.
func (m *mirror) runOp(op *coreOp) (Outcome, Counters, error) {
	root := m.rec.Begin(op.ID, spanOp, 0)
	defer m.rec.End(root)
	var st *store.Store
	if op.Warm != nil {
		st = op.Warm.Clone()
	}
	cfg := analysisConfig(op.Bench)
	a, err := m.analyze(op.ID, root, op.Prog, st, cfg)
	if err != nil {
		return Outcome{}, Counters{}, err
	}
	bad, total := a.badCounts()
	items := a.items(bad, total)
	m.lc.KnapItems += len(items)
	var costs []int
	m.call(op.ID, root, spanKnap, false, func() { costs, err = selectCosts(items, cfg.Targets) })
	return Outcome{Bad: bad, Costs: costs}, a.counters, err
}

// harden mirrors core.Analyzer.Harden up to the measured residual: select
// at target, transform, and re-analyze the hardened program against the
// same store. It returns the residual SDC-Bad site count.
func (m *mirror) harden(op string, p *spec.Program, cfg core.Config, target float64) (int, error) {
	root := m.rec.Begin(op, spanOp, 0)
	defer m.rec.End(root)
	st := store.New()
	a, err := m.analyze(op, root, p, st, cfg)
	if err != nil {
		return 0, err
	}
	items := a.items(a.badCounts())
	m.lc.KnapItems += len(items)
	var sel *knap.Selection
	m.call(op, root, spanKnap, false, func() { sel, err = selectAt(knap.New(items), target) })
	if err != nil {
		return 0, err
	}
	var hp *spec.Program
	var hres *harden.Result
	m.call(op, root, spanTransform, false, func() { hp, hres, err = harden.Program(p, sel.Set(), harden.Options{}) })
	if err != nil {
		return 0, err
	}
	m.lc.HardenAdded += hres.AddedInstrs
	sub := cfg
	sub.Targets, sub.AdjustTargets, sub.CoRunBaseline = nil, false, false
	reinject := m.rec.Begin(op, spanReinject, root)
	ha, err := m.analyze(op, reinject, hp, st, sub)
	m.rec.End(reinject)
	if err != nil {
		return 0, err
	}
	_, residual := ha.badCounts()
	return residual, nil
}
