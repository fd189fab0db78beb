package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// layerUnits names every per-layer metric with its unit. Every traced run
// prints all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"trace.record_s":         "s",
	"maskelide.analyze_s":    "s",
	"maskelide.elided":       "count",
	"sites.classify_s":       "s",
	"sites.classes":          "count",
	"sites.alloc_mb":         "MiB",
	"store.key_s":            "s",
	"store.lookup_s":         "s",
	"store.hit_ratio":        "ratio",
	"inject.run_s":           "s",
	"inject.experiments":     "count",
	"inject.faulty_instrs":   "instrs",
	"inject.clean_instrs":    "instrs",
	"inject.batched_ratio":   "ratio",
	"inject.batch_width_avg": "count",
	"inject.minstr_per_s":    "Minstr/s",
	"inject.cpu_util":        "ratio",
	"inject.alloc_mb":        "MiB",
	"sens.analyze_s":         "s",
	"sens.sim_instrs":        "instrs",
	"chisel.compose_s":       "s",
	"knap.select_s":          "s",
	"knap.items":             "count",
	"harden.transform_s":     "s",
	"harden.reinject_s":      "s",
	"harden.added_instrs":    "count",
	"core.glue_s":            "s",
	"service.queue_wait_s":   "s",
	"service.run_s":          "s",
	"server.overhead_s":      "s",
	"server.result_bytes":    "bytes",
	"ostore.shared_hits":     "count",
	"ostore.shared_misses":   "count",
	"ostore.bytes":           "bytes",
	"runtime.gc_count":       "count",
	"runtime.gc_pause_s":     "s",
	"runtime.alloc_mb":       "MiB",
	"tracing.overhead_ratio": "ratio",
}

const mib = 1 << 20

// layerMetrics derives the per-layer metrics from the spans and counts of
// n traced passes, as per-pass values.
func layerMetrics(spans []Span, lc *layerCounts, n int) map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	self, total := SelfByName(spans), TotalByName(spans)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	set("trace.record_s", per(self[spanTrace]))
	set("maskelide.analyze_s", per(self[spanMaskelide]))
	set("sites.classify_s", per(self[spanSites]))
	set("store.key_s", per(self[spanKey]))
	set("store.lookup_s", per(self[spanLookup]))
	set("inject.run_s", per(self[spanInject]))
	set("sens.analyze_s", per(self[spanSens]))
	set("chisel.compose_s", per(self[spanChisel]))
	set("knap.select_s", per(self[spanKnap]))
	set("harden.transform_s", per(self[spanTransform]))
	// The re-injection contains the hardened program's own layer calls, so
	// it is reported inclusive of them.
	set("harden.reinject_s", per(total[spanReinject]))
	set("core.glue_s", per(self[spanOp]))

	c := lc.Counters
	fn := float64(n)
	set("maskelide.elided", float64(c.Elided)/fn)
	set("sites.classes", float64(lc.Classes)/fn)
	set("sites.alloc_mb", float64(lc.Alloc[spanSites])/mib/fn)
	if c.Instances > 0 {
		set("store.hit_ratio", float64(c.Reused)/float64(c.Instances))
	}
	set("inject.experiments", float64(c.Experiments)/fn)
	set("inject.faulty_instrs", float64(c.FaultyInstrs)/fn)
	set("inject.clean_instrs", float64(c.CleanInstrs)/fn)
	if c.Experiments > 0 {
		set("inject.batched_ratio", float64(c.Batched)/float64(c.Experiments))
	}
	if c.Batches > 0 {
		set("inject.batch_width_avg", float64(c.Batched)/float64(c.Batches))
	}
	if s := total[spanInject].Seconds(); s > 0 {
		set("inject.minstr_per_s", float64(c.CleanInstrs+c.FaultyInstrs)/s/1e6)
		set("inject.cpu_util", lc.InjectCPU.Seconds()/(s*injectWorkers))
	}
	set("inject.alloc_mb", float64(lc.Alloc[spanInject])/mib/fn)
	set("sens.sim_instrs", float64(c.SensInstrs)/fn)
	set("knap.items", float64(lc.KnapItems)/fn)
	set("harden.added_instrs", float64(lc.HardenAdded)/fn)
	return m
}

// setRuntime fills the Go runtime metrics from untraced passes.
func setRuntime(m map[string]metric, gcs []gcSample) {
	var count, pause, alloc []float64
	for _, g := range gcs {
		count = append(count, float64(g.gcs))
		pause = append(pause, float64(g.pause)/1e9)
		alloc = append(alloc, float64(g.alloc)/mib)
	}
	m["runtime.gc_count"] = metric{median(count), "count"}
	m["runtime.gc_pause_s"] = metric{median(pause), "s"}
	m["runtime.alloc_mb"] = metric{median(alloc), "MiB"}
}

// layerShares reports each layer's share of the traced operations' time.
func layerShares(spans []Span) {
	self := SelfByName(spans)
	var all time.Duration
	for _, s := range spans {
		if s.Name == spanOp {
			all += s.End - s.Start
		}
	}
	if all == 0 {
		return
	}
	for _, name := range []string{spanInject, spanSites, spanSens, spanKnap, spanTrace, spanMaskelide, spanKey, spanLookup, spanChisel, spanTransform, spanOp} {
		if d := self[name]; d > 0 {
			logf("share %-18s %6.2f%%", name, 100*d.Seconds()/all.Seconds())
		}
	}
}

// traceCore alternates untraced and traced passes over the same seeded
// order until the measuring time is spent. The traced pass goes through
// the mirror; both are checked against the golden values, and their
// counters must agree pass for pass.
func (b *benchRun) traceCore(ops []*coreOp) (result, error) {
	res := result{}
	m := newMirror(b.rec)
	var plain, traced []pass
	var lat []float64
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < b.dur {
		order := b.rng.Perm(len(ops))
		p := runPass(ops, order, runCoreOp, b.golden, &lat, &res.Failed)
		t := runPass(ops, order, m.runOp, b.golden, &lat, &res.Failed)
		if t.Counters != p.Counters {
			res.Failed++
			logf("FAIL traced counters %+v differ from untraced %+v", t.Counters, p.Counters)
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	res.Attempted = len(lat)
	spans := b.rec.Spans()
	res.Metrics = layerMetrics(spans, m.lc, len(traced))
	var gcs []gcSample
	var pw, tw []float64
	for i := range plain {
		gcs = append(gcs, plain[i].GC)
		pw = append(pw, plain[i].Wall.Seconds())
		tw = append(tw, traced[i].Wall.Seconds())
	}
	setRuntime(res.Metrics, gcs)
	res.Metrics["tracing.overhead_ratio"] = metric{median(tw)/median(pw) - 1, "ratio"}
	logf("perfbench: %d untraced and %d traced passes; counters agree: %v", len(plain), len(traced), res.Failed == 0)
	layerShares(spans)
	res.Correct = res.Failed == 0
	return res, nil
}

// regenerateGolden recomputes every golden value through core: each core
// operation of both batch workloads, and every distinct service job
// analyzed cold.
func regenerateGolden(path string) error {
	g := Golden{Ops: map[string]GoldenOp{}, Jobs: map[string]GoldenJob{}}
	for _, build := range []func() ([]*coreOp, error){initialOps, incrementalOps} {
		ops, err := build()
		if err != nil {
			return err
		}
		for _, op := range ops {
			out, c, err := runCoreOp(op)
			if err != nil {
				return err
			}
			g.Ops[op.ID] = GoldenOp{Digest: out.digest(), Counters: c}
		}
	}
	for _, j := range mixJobs() {
		gj, err := goldenJob(j)
		if err != nil {
			return fmt.Errorf("golden %s: %w", j.Key, err)
		}
		g.Jobs[j.Key] = gj
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
