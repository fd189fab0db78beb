package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// analysis is the state of one Analyze call that its section driver
// works on: the result being built, the trace, the campaign's WAL, the
// section engine and the analysis's shared pool of injection slots.
type analysis struct {
	a        *Analyzer
	r        *Result
	t        *trace.Trace
	cam      *campaign
	injector SectionInjector
	pool     *inject.Pool
}

// report delivers a Progress snapshot of the sections committed so far.
func (an *analysis) report() {
	if an.a.Progress == nil {
		return
	}
	r := an.r
	an.a.Progress(Progress{
		Instances:          len(an.t.Instances),
		Done:               r.ReusedInstances + r.InjectedInstances,
		Reused:             r.ReusedInstances,
		Injected:           r.InjectedInstances,
		Experiments:        r.FFInject.Experiments,
		SimInstrs:          r.FFCost(),
		CleanInstrs:        r.FFInject.CleanInstrs,
		FaultyInstrs:       r.FFInject.FaultyInstrs,
		ResumedExperiments: r.FFRecovered.Experiments,
		ElidedExperiments:  r.FFInject.ElidedExperiments,
		ElidedInstrs:       r.FFInject.ElidedInstrs,
		Batches:            r.FFInject.Batches,
		BatchExperiments:   r.FFInject.BatchExperiments,
		WALDegraded:        an.cam.wasDegraded(),
		Poisoned:           len(r.Poisoned),
	})
}

// sectionRun is one section instance in the pipeline, from its launch to
// its commit. A reused section carries its stored entry and nothing runs;
// an injected one has its campaign and, unless the WAL holds its matrix,
// its sensitivity estimation running on goroutines of their own.
type sectionRun struct {
	idx     int
	classes []*sites.Class
	key     store.Key
	stored  *store.Section

	wal       *inject.SectionWAL // open until commit or abort closes it
	recovered *inject.Recovered
	skip      []bool
	nSkipped  int
	recStats  inject.Stats
	reuseAmp  bool

	cancel   context.CancelFunc
	campaign *goJob[campaignResult]
	sens     *goJob[sensResult]
}

type campaignResult struct {
	res SectionResult
	err error
}

type sensResult struct {
	amp   *sens.Amplification
	stats sens.Stats
}

// pipeline resolves the trace's section instances in order, overlapping
// each section's campaign with the next one's. Launch (enumerate, key,
// look up, open the segment, start sensitivity and the campaign) and
// commit (join, fill recovered slots, seal, record, store, report) both
// run on the analysis goroutine, and commits happen strictly in instance
// order, so the result, every counter and every Progress snapshot equal
// those of resolving the sections one after another. At most one section
// runs ahead of the one being committed; a second one gained nothing.
//
// A section whose key equals that of the section still in flight waits
// for that commit and then looks the key up, so it is reused exactly as
// it would be after its twin, and a WAL segment is never open twice. When
// a commit fails, the section launched behind it is cancelled and joined,
// its segment closed unsealed, before the error returns.
func (an *analysis) pipeline(ctx context.Context) error {
	var inFlight []*sectionRun // launched, not yet committed: at most two
	defer func() { an.abort(inFlight) }()
	for idx, inst := range an.t.Instances {
		if err := ctx.Err(); err != nil {
			return err
		}
		classes := sites.ForInstance(an.t, inst, an.r.siteOpts)
		key, err := SectionKey(an.t, inst, an.a.Cfg)
		if err != nil {
			// A buffer declaration outside the machine's memory: the spec
			// is malformed, and an unkeyable section can neither reuse nor
			// publish results. Fail the job instead of panicking it.
			return fmt.Errorf("core: computing reuse key for instance %d: %w", idx, err)
		}
		if len(inFlight) > 0 && inFlight[0].key == key {
			if err := an.commit(ctx, inFlight[0]); err != nil {
				return err
			}
			inFlight = inFlight[:0]
		}
		inFlight = append(inFlight, an.launch(ctx, idx, classes, key))
		if len(inFlight) == 2 {
			if err := an.commit(ctx, inFlight[0]); err != nil {
				return err
			}
			inFlight = inFlight[1:]
		}
	}
	for len(inFlight) > 0 {
		if err := an.commit(ctx, inFlight[0]); err != nil {
			return err
		}
		inFlight = inFlight[1:]
	}
	// Every campaign may have completed before a cancellation reached
	// it; the analysis was still cancelled.
	return ctx.Err()
}

// launch starts resolving section instance idx: a store hit is only
// looked up; otherwise its WAL segment is opened, and its sensitivity
// estimation and its campaign start on goroutines of their own.
func (an *analysis) launch(ctx context.Context, idx int, classes []*sites.Class, key store.Key) *sectionRun {
	s := &sectionRun{idx: idx, classes: classes, key: key}
	if s.stored = an.a.storeLookup(key, classes); s.stored != nil {
		return s
	}
	cfg, cam := an.a.Cfg, an.cam

	// Open this section's write-ahead segment. Experiments recovered
	// from it are marked in skip and merged instead of re-executed;
	// everything the engine runs is appended through the record hook
	// before the campaign moves on.
	wal, recovered := cam.openSection(key)
	s.wal, s.recovered = wal, recovered
	if wal != nil && len(recovered.Records) > 0 {
		s.skip = make([]bool, len(classes))
		for i, c := range classes {
			if rec, ok := recovered.Records[c.Key]; ok && (!cfg.CoRunBaseline || rec.Fin != nil) {
				s.skip[i] = true
				s.nSkipped++
				s.recStats.Add(rec.Cost)
			}
		}
	}
	hooks := inject.CampaignHooks{Skip: s.skip}
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
		hooks.Shard = func(sh inject.WALShard) {
			if err := wal.AppendShard(sh); err != nil {
				cam.note(fmt.Sprintf("section %s: wal shard append: %v", key, err))
			}
		}
	}

	// A fully recovered, sealed section reuses its logged sensitivity
	// matrix; otherwise the (deterministic) estimation reruns while the
	// campaign does, and the segment is sealed behind it.
	s.reuseAmp = recovered != nil && s.nSkipped == len(classes) && recovered.Amp != nil
	inst := an.t.Instances[idx]
	if !s.reuseAmp {
		s.sens = goRun("sensitivity estimation", func() sensResult {
			amp, st := sensitivity(an.t, inst, cfg.Sens)
			return sensResult{amp, st}
		})
	}

	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	job := SectionJob{Trace: an.t, Instance: idx, Key: key, Classes: classes, Hooks: hooks, Config: cfg, Pool: an.pool}
	an.pool.Reserve(inst)
	s.campaign = goRun("section campaign", func() campaignResult {
		defer an.pool.Release(inst)
		res, err := an.injector.InjectSection(sctx, job)
		return campaignResult{res, err}
	})
	return s
}

// commit joins section s and records it: its classes, its matrix and its
// cost join the result, a fresh section is stored, and a Progress
// snapshot is reported. A failed or cancelled campaign returns its error
// with s left open for abort.
func (an *analysis) commit(ctx context.Context, s *sectionRun) error {
	r := an.r
	if st := s.stored; st != nil {
		for _, c := range s.classes {
			rec := classRecord{class: c, out: st.Outcomes[c.Key].ToMetrics(), inst: s.idx}
			if st.Final != nil {
				fin := st.Final[c.Key].ToMetrics()
				rec.fin = &fin
			}
			r.ffClasses = append(r.ffClasses, rec)
		}
		r.Amps[s.idx] = &sens.Amplification{K: st.Amp}
		r.ReusedInstances++
		an.report()
		return nil
	}

	cr := s.campaign.wait()
	if cr.err != nil {
		return cr.err
	}
	res := cr.res
	outcomes, fins, stats := res.Outcomes, res.Fins, res.Stats
	r.RemoteExperiments += res.Remote
	r.ShardsMerged += res.Shards
	r.HedgedDispatches += res.HedgedDispatches
	r.Releases += res.Releases
	r.Poisoned = append(r.Poisoned, res.Poisoned...)
	r.PanicRetries += res.PanicRetries
	r.FFInject.Add(stats)
	if err := ctx.Err(); err != nil && stats.Experiments != len(s.classes)-s.nSkipped {
		// The campaign was cut short: the outcome slices are partial
		// and must not be recorded or stored. The WAL keeps every
		// completed experiment for the retry. A campaign that ran every
		// scheduled experiment before the cancellation reached it is
		// committed, so the retry reuses it: the cancellation may have
		// hit the section running behind it.
		return err
	}
	s.cancel()
	// Fill the skipped slots from the recovered records so the merged
	// section is indistinguishable from an uninterrupted campaign.
	for i, c := range s.classes {
		if i < len(s.skip) && s.skip[i] {
			rec := s.recovered.Records[c.Key]
			outcomes[i] = rec.Out
			if fins != nil && rec.Fin != nil {
				fins[i] = *rec.Fin
			}
		}
	}
	r.FFInject.Add(s.recStats)
	r.FFRecovered.Add(s.recStats)

	cam, wal, key := an.cam, s.wal, s.key
	var amp *sens.Amplification
	if s.reuseAmp {
		amp = &sens.Amplification{K: s.recovered.Amp.K}
		r.FFSens.Runs += s.recovered.Amp.Runs
		r.FFSens.SimInstrs += s.recovered.Amp.SimInstrs
	} else {
		sj := s.sens
		s.sens = nil
		sr := sj.wait()
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
		if !s.recovered.Sealed && !wal.Degraded() {
			if err := wal.Seal(); err != nil {
				cam.note(fmt.Sprintf("section %s: wal seal: %v", key, err))
			}
		}
		if wal.Degraded() {
			// The segment latched off after a persistent write failure.
			// This section's results live only in memory — the segment's
			// missing seal keeps it partial, so a resume re-injects the
			// unlogged remainder — and the next section re-arms the log
			// with a fresh segment.
			cam.setDegraded(key)
		}
		wal.Close()
		s.wal = nil
	}
	r.Amps[s.idx] = amp
	r.InjectedInstances++

	for i, c := range s.classes {
		rec := classRecord{class: c, out: outcomes[i], inst: s.idx}
		if fins != nil {
			rec.fin = &fins[i]
		}
		r.ffClasses = append(r.ffClasses, rec)
	}
	// A section with quarantined experiments holds conservative fills,
	// not results: storing it under its content key would hand the
	// fills to every later lookup as if they were outcomes.
	if an.a.Store != nil && len(res.Poisoned) == 0 {
		secStats := s.recStats
		secStats.Add(stats)
		stored := &store.Section{
			Outcomes:  make(map[sites.ClassKey]store.Outcome, len(s.classes)),
			Amp:       amp.K,
			SimInstrs: secStats.SimInstrs,
		}
		if fins != nil {
			stored.Final = make(map[sites.ClassKey]store.Outcome, len(s.classes))
		}
		for i, c := range s.classes {
			stored.Outcomes[c.Key] = store.FromMetrics(outcomes[i])
			if fins != nil {
				stored.Final[c.Key] = store.FromMetrics(fins[i])
			}
		}
		an.a.Store.Put(key, stored)
	}
	an.report()
	return nil
}

// abort stops the sections launched but not committed, on every return
// path of the pipeline: their campaigns are cancelled and joined, their
// segments closed unsealed, and their sensitivity estimations joined.
// The first estimation panic among them is re-raised once all are
// joined.
func (an *analysis) abort(runs []*sectionRun) {
	for _, s := range runs {
		if s.cancel != nil {
			s.cancel()
		}
	}
	var panicked *jobPanic
	for _, s := range runs {
		if s.campaign != nil {
			<-s.campaign.done
		}
		if s.wal != nil {
			s.wal.Close()
			s.wal = nil
		}
		if s.sens != nil {
			<-s.sens.done
			if panicked == nil {
				panicked = s.sens.panicked
			}
			s.sens = nil
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// sensitivity is the estimator a launched section runs; only tests swap
// it.
var sensitivity = sens.Analyze

// goJob is a computation running on a goroutine of its own. A panic is
// recovered there and re-raised by wait on the joining goroutine, where
// the job's panic guard sees it.
type goJob[T any] struct {
	done     chan struct{}
	val      T
	panicked *jobPanic
}

// jobPanic is a panic recovered on a goJob's goroutine, carrying the
// stack it was raised on.
type jobPanic struct {
	what  string
	val   any
	stack []byte
}

func (p *jobPanic) Error() string {
	return fmt.Sprintf("%s panicked: %v\n%s", p.what, p.val, p.stack)
}

// goRun starts f on its own goroutine; what names it in a re-raised
// panic.
func goRun[T any](what string, f func() T) *goJob[T] {
	j := &goJob[T]{done: make(chan struct{})}
	go func() {
		defer close(j.done)
		defer func() {
			if p := recover(); p != nil {
				j.panicked = &jobPanic{what: what, val: p, stack: debug.Stack()}
			}
		}()
		j.val = f()
	}()
	return j
}

// wait joins the job and returns its result, re-raising its panic.
func (j *goJob[T]) wait() T {
	<-j.done
	if j.panicked != nil {
		panic(j.panicked)
	}
	return j.val
}
