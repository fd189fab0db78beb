package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/store"
)

// sequential is the reference section driver: every section instance is
// enumerated, keyed, looked up, injected (each campaign on a private pool
// of its own), joined and recorded before the next one starts, with at
// most one sensitivity estimation in flight. The production pipeline must
// be observationally identical to it.
func sequential(an *analysis, ctx context.Context) error {
	a, r, t, cam := an.a, an.r, an.t, an.cam

	// Each injected section's sensitivity estimation runs on its own
	// goroutine alongside the section's campaign. Every return path joins
	// the one in flight, re-raising its panic here.
	var pendingSens *goJob[sensResult]
	defer func() {
		if pendingSens != nil {
			pendingSens.wait()
		}
	}()

	for idx, inst := range t.Instances {
		if err := ctx.Err(); err != nil {
			return err
		}
		classes := sites.ForInstance(t, inst, r.siteOpts)
		key, keyErr := SectionKey(t, inst, a.Cfg)
		if keyErr != nil {
			return fmt.Errorf("core: computing reuse key for instance %d: %w", idx, keyErr)
		}
		if st := a.storeLookup(key, classes); st != nil {
			for _, c := range classes {
				rec := classRecord{class: c, out: st.Outcomes[c.Key].ToMetrics(), inst: idx}
				if st.Final != nil {
					fin := st.Final[c.Key].ToMetrics()
					rec.fin = &fin
				}
				r.ffClasses = append(r.ffClasses, rec)
			}
			r.Amps[idx] = &sens.Amplification{K: st.Amp}
			r.ReusedInstances++
			an.report()
			continue
		}

		wal, recovered := cam.openSection(key)
		var skip []bool
		var recStats inject.Stats
		nRecovered := 0
		if wal != nil && len(recovered.Records) > 0 {
			skip = make([]bool, len(classes))
			for i, c := range classes {
				if rec, ok := recovered.Records[c.Key]; ok && (!a.Cfg.CoRunBaseline || rec.Fin != nil) {
					skip[i] = true
					nRecovered++
					recStats.Add(rec.Cost)
				}
			}
		}
		hooks := inject.CampaignHooks{Skip: skip}
		if wal != nil {
			var appendErr sync.Once
			hooks.Record = func(i int, out metrics.Outcome, fin *metrics.Outcome, cost inject.Stats) {
				if err := wal.Append(inject.WALRecord{Key: classes[i].Key, Out: out, Fin: fin, Cost: cost}); err != nil {
					appendErr.Do(func() { cam.note(fmt.Sprintf("section %s: wal append: %v", key, err)) })
				}
			}
			hooks.Poison = func(p inject.Poison) {
				if err := wal.AppendPoison(inject.WALPoison{Key: p.Key, Attempts: p.Attempts, MachineFP: p.MachineFP, Stack: p.Stack}); err != nil {
					cam.note(fmt.Sprintf("section %s: wal poison append: %v", key, err))
				}
			}
			hooks.Shard = func(s inject.WALShard) {
				if err := wal.AppendShard(s); err != nil {
					cam.note(fmt.Sprintf("section %s: wal shard append: %v", key, err))
				}
			}
		}

		reuseAmp := recovered != nil && nRecovered == len(classes) && recovered.Amp != nil
		if !reuseAmp {
			pendingSens = goRun("sensitivity estimation", func() sensResult {
				amp, st := sensitivity(t, inst, a.Cfg.Sens)
				return sensResult{amp, st}
			})
		}

		res, err := an.injector.InjectSection(ctx, SectionJob{
			Trace:    t,
			Instance: idx,
			Key:      key,
			Classes:  classes,
			Hooks:    hooks,
			Config:   a.Cfg,
		})
		if err != nil {
			if wal != nil {
				wal.Close()
			}
			return err
		}
		outcomes, fins, stats := res.Outcomes, res.Fins, res.Stats
		r.RemoteExperiments += res.Remote
		r.ShardsMerged += res.Shards
		r.HedgedDispatches += res.HedgedDispatches
		r.Releases += res.Releases
		r.Poisoned = append(r.Poisoned, res.Poisoned...)
		r.PanicRetries += res.PanicRetries
		r.FFInject.Add(stats)
		if err := ctx.Err(); err != nil {
			if wal != nil {
				wal.Close()
			}
			return err
		}
		for i := range classes {
			if i < len(skip) && skip[i] {
				rec := recovered.Records[classes[i].Key]
				outcomes[i] = rec.Out
				if fins != nil && rec.Fin != nil {
					fins[i] = *rec.Fin
				}
			}
		}
		r.FFInject.Add(recStats)
		r.FFRecovered.Add(recStats)

		var amp *sens.Amplification
		if reuseAmp {
			amp = &sens.Amplification{K: recovered.Amp.K}
			r.FFSens.Runs += recovered.Amp.Runs
			r.FFSens.SimInstrs += recovered.Amp.SimInstrs
		} else {
			sr := pendingSens.wait()
			pendingSens = nil
			amp = sr.amp
			r.FFSens.Runs += sr.stats.Runs
			r.FFSens.SimInstrs += sr.stats.SimInstrs
			if wal != nil {
				if err := wal.AppendAmp(inject.WALAmp{K: amp.K, Runs: sr.stats.Runs, SimInstrs: sr.stats.SimInstrs}); err != nil {
					cam.note(fmt.Sprintf("section %s: wal amp append: %v", key, err))
				}
			}
		}
		if wal != nil {
			if !recovered.Sealed && !wal.Degraded() {
				if err := wal.Seal(); err != nil {
					cam.note(fmt.Sprintf("section %s: wal seal: %v", key, err))
				}
			}
			if wal.Degraded() {
				cam.setDegraded(key)
			}
			wal.Close()
		}
		r.Amps[idx] = amp
		r.InjectedInstances++

		for i, c := range classes {
			rec := classRecord{class: c, out: outcomes[i], inst: idx}
			if fins != nil {
				rec.fin = &fins[i]
			}
			r.ffClasses = append(r.ffClasses, rec)
		}
		if a.Store != nil && len(res.Poisoned) == 0 {
			secStats := recStats
			secStats.Add(stats)
			stored := &store.Section{
				Outcomes:  make(map[sites.ClassKey]store.Outcome, len(classes)),
				Amp:       amp.K,
				SimInstrs: secStats.SimInstrs,
			}
			if fins != nil {
				stored.Final = make(map[sites.ClassKey]store.Outcome, len(classes))
			}
			for i, c := range classes {
				stored.Outcomes[c.Key] = store.FromMetrics(outcomes[i])
				if fins != nil {
					stored.Final[c.Key] = store.FromMetrics(fins[i])
				}
			}
			a.Store.Put(key, stored)
		}
		an.report()
	}
	return nil
}

// driven is one analysis run through a section driver, with the Progress
// snapshots it reported.
type driven struct {
	r        *Result
	progress []Progress
}

// analyzeWith runs a over p through driver and records its progress.
func analyzeWith(t *testing.T, a *Analyzer, p *spec.Program, driver func(*analysis, context.Context) error) driven {
	t.Helper()
	var d driven
	a.Progress = func(pr Progress) { d.progress = append(d.progress, pr) }
	defer func() { a.Progress = nil }()
	var err error
	if d.r, err = a.analyze(context.Background(), p, driver); err != nil {
		t.Fatalf("%s/%s: %v", p.Name, p.Version, err)
	}
	return d
}

// requireSameAnalysis fails unless the pipelined and sequential analyses
// agree on every class outcome (magnitudes compared bit for bit), every
// injection and sensitivity counter, the reuse split, the quarantine list
// and every Progress snapshot.
func requireSameAnalysis(t *testing.T, what string, pipe, seq driven) {
	t.Helper()
	po, so := pipe.r.ClassOutcomes(), seq.r.ClassOutcomes()
	if len(po) != len(so) {
		t.Fatalf("%s: %d class outcomes pipelined, %d sequential", what, len(po), len(so))
	}
	for i := range po {
		if !sameClassOutcome(po[i], so[i]) {
			t.Fatalf("%s: class %d differs:\npipelined:  %+v\nsequential: %+v", what, i, po[i], so[i])
		}
	}
	type counters struct {
		FFInject, FFRecovered inject.Stats
		FFSens                sens.Stats
		Reused, Injected      int
		PanicRetries          int
		Poisoned              []inject.Poison
		Amps                  []*sens.Amplification
	}
	get := func(r *Result) counters {
		return counters{r.FFInject, r.FFRecovered, r.FFSens, r.ReusedInstances, r.InjectedInstances, r.PanicRetries, r.Poisoned, r.Amps}
	}
	if pc, sc := get(pipe.r), get(seq.r); !reflect.DeepEqual(pc, sc) {
		t.Fatalf("%s: counters differ:\npipelined:  %+v\nsequential: %+v", what, pc, sc)
	}
	if !reflect.DeepEqual(pipe.progress, seq.progress) {
		t.Fatalf("%s: progress differs:\npipelined:  %+v\nsequential: %+v", what, pipe.progress, seq.progress)
	}
}

// sameClassOutcome compares two class outcomes with magnitudes as bits,
// so NaN magnitudes compare equal to themselves.
func sameClassOutcome(a, b ClassOutcome) bool {
	if a.Key != b.Key || a.Inst != b.Inst || a.Size != b.Size || !sameOutcome(a.Out, b.Out) {
		return false
	}
	if (a.Fin == nil) != (b.Fin == nil) {
		return false
	}
	return a.Fin == nil || sameOutcome(*a.Fin, *b.Fin)
}

func sameOutcome(a, b metrics.Outcome) bool {
	if a.Kind != b.Kind || a.Reason != b.Reason || len(a.Magnitudes) != len(b.Magnitudes) {
		return false
	}
	for i := range a.Magnitudes {
		if math.Float64bits(a.Magnitudes[i]) != math.Float64bits(b.Magnitudes[i]) {
			return false
		}
	}
	return true
}

// TestPipelineMatchesSequential runs every original benchmark version
// through the pipeline and through the sequential reference driver, on
// one warm store per driver as an incremental analysis does, at one to
// four workers (pipelineWorkers); then lud, bscholes and sha2 with co-run labels; then a
// WAL-backed analysis. Every pair must agree class for class and counter
// for counter.
func TestPipelineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaigns")
	}
	both := func(what string, cfg Config, name string, variants []bench.Variant, cfgSeq Config) {
		pipe, seq := NewAnalyzer(cfg), NewAnalyzer(cfgSeq)
		for _, v := range variants {
			prog := bench.MustBuild(name, v)
			p := analyzeWith(t, pipe, prog, (*analysis).pipeline)
			s := analyzeWith(t, seq, prog, sequential)
			requireSameAnalysis(t, fmt.Sprintf("%s %s/%s", what, name, v), p, s)
			pipe.NoteModification()
			seq.NoteModification()
		}
	}
	for _, name := range bench.Names() {
		for _, workers := range pipelineWorkers {
			cfg := DefaultConfig()
			cfg.Workers = workers
			both(fmt.Sprintf("workers=%d", workers), cfg, name, bench.Variants, cfg)
		}
	}
	for _, name := range []string{"lud", "bscholes", "sha2"} {
		cfg := DefaultConfig()
		cfg.CoRunBaseline = true
		both("co-run", cfg, name, []bench.Variant{bench.None}, cfg)
	}
	cfg, cfgSeq := DefaultConfig(), DefaultConfig()
	cfg.WALDir, cfgSeq.WALDir = t.TempDir(), t.TempDir()
	both("wal", cfg, "fft", []bench.Variant{bench.None}, cfgSeq)
}
