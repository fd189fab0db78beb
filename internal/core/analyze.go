// Package core implements the FastFlip analysis pipeline (§4, Figure 2):
//
//  1. per-section error injection + local sensitivity analysis, with
//     store-backed reuse of unmodified sections (§4.2, §4.3, §4.7),
//  2. symbolic end-to-end SDC propagation (§4.4),
//  3. per-instruction protection value computation (Algorithm 2),
//  4. knapsack selection of instructions to protect (§4.6), with adaptive
//     target adjustment against a monolithic baseline (§4.10).
//
// The monolithic Approxilyzer-only baseline the paper compares against is
// implemented alongside (RunBaseline), sharing the trace and injector.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fastflip/internal/chisel"
	"fastflip/internal/errfs"
	"fastflip/internal/inject"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// Config are the developer-provided analysis parameters (§4.1, §5.6).
type Config struct {
	// Targets are the v_trgt protection values to evaluate.
	Targets []float64
	// Epsilon is the SDC-Bad threshold ε, uniform over final outputs
	// (0 means every SDC is unacceptable).
	Epsilon float64
	// Prune enables Approxilyzer-style equivalence-class pruning. The
	// baseline prunes across the whole trace; FastFlip can only prune
	// within a section instance (§6.2) — that asymmetry is structural,
	// not configurable.
	Prune bool
	// Sens configures the local sensitivity analysis.
	Sens sens.Config
	// Workers bounds injection parallelism (0 = GOMAXPROCS).
	Workers int
	// PilotInaccuracy is the benchmark-specific pilot misprediction rate
	// used for the value error range (§5.6 "Pruning error range").
	PilotInaccuracy float64
	// BurstWidth is the error model's burst width in bits: 1 is the
	// paper's single-event-upset model, larger values flip that many
	// adjacent bits per injection (§4.8's multi-bit error models).
	BurstWidth int
	// CostModel, when non-nil, overrides the protection cost of a static
	// instruction given its dynamic instance count. The default models
	// instruction duplication (cost = dynamic instances, §5.3); externally
	// supplied models can price task-level detectors instead (§4.8).
	CostModel func(id prog.StaticID, dynCount int) int
	// StrictReuseKeys keys section reuse on the entry contents of output
	// and live buffers in addition to the declared inputs
	// (store.KeyForStrict). Under strict keys an incremental re-analysis
	// reproduces a from-scratch analysis experiment for experiment, even
	// when a fault-deflected load observes state outside the declared
	// inputs; the default (paper) keys reuse more aggressively and accept
	// that divergence (see DESIGN.md §10).
	StrictReuseKeys bool
	// CoRunBaseline lets every per-section experiment continue to program
	// termination and records the end-to-end outcome too (§4.10's
	// simultaneous monolithic analysis). Evaluate can then use the co-run
	// labels as ground truth without a separate RunBaseline campaign.
	CoRunBaseline bool
	// AdjustTargets enables adaptive target adjustment (§4.10).
	AdjustTargets bool
	// PAdj is the number of accumulated modifications after which the
	// adjusted targets are recomputed from a fresh baseline.
	PAdj int
	// CheckpointInterval is the dense replay-checkpoint spacing in dynamic
	// instructions passed to trace recording: 0 uses the trace package
	// default, negative disables dense checkpoints (section boundaries
	// only). Denser checkpoints trade recording memory for shorter clean
	// replays.
	CheckpointInterval int64
	// Elide enables the static masking tier: a backward bit-liveness
	// analysis over the linked program proves some operand bursts dead
	// (never observed by any later instruction), and the campaign records
	// those classes as Masked at their accounted cost without simulating
	// them. Outcomes are identical with or without elision; only executed
	// work shrinks. Part of the campaign fingerprint because recovered
	// records carry elision cost shares.
	Elide bool
	// NoBatch disables the lockstep batch replay tier: same-dyn experiment
	// groups then fork one scalar machine each. Outcomes and accounted
	// costs are identical either way (the escape hatch / equivalence seam);
	// excluded from the campaign fingerprint.
	NoBatch bool
	// WALDir, when non-empty, enables the write-ahead campaign log: every
	// completed experiment is appended to a per-section segment under
	// <WALDir>/<program>/ before the campaign proceeds, so a crashed
	// analysis can resume at experiment granularity.
	WALDir string
	// Resume makes Analyze recover a matching campaign from WALDir —
	// logged experiments are merged instead of re-executed and only the
	// remainder is scheduled. Without Resume, existing campaign state for
	// the program is wiped and the log starts fresh. Ignored when WALDir
	// is empty.
	Resume bool
	// FaultFS, when non-nil, routes all campaign WAL and manifest I/O
	// through the given filesystem seam so chaos tests can inject write
	// faults; nil uses the real filesystem. Excluded from the campaign
	// fingerprint: it changes durability, never outcomes.
	FaultFS errfs.FS
	// WALRetry overrides the backoff policy applied to transient WAL write
	// failures (zero value = package defaults). Excluded from the campaign
	// fingerprint.
	WALRetry inject.RetryPolicy
	// ExperimentPanicHook is installed as inject.Injector.PanicHook: a test
	// seam invoked at the start of every experiment attempt, used to force
	// panics and exercise the supervision path. Production leaves it nil.
	// Excluded from the campaign fingerprint.
	ExperimentPanicHook func(class, attempt int)
	// SectionInjector, when non-nil, delegates every section campaign to a
	// distributed coordinator instead of the in-process engine. Excluded
	// from the campaign fingerprint: sharding changes where experiments
	// run, never their outcomes, so local and distributed campaigns share
	// WAL segments and resume into each other.
	SectionInjector SectionInjector
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		Targets:         []float64{0.90, 0.95, 0.99},
		Epsilon:         0,
		Prune:           true,
		BurstWidth:      1,
		Sens:            sens.DefaultConfig(),
		PilotInaccuracy: 0.04,
		AdjustTargets:   true,
		PAdj:            10,
		Elide:           true,
	}
}

// classRecord pairs an equivalence class of the current trace with its
// (possibly reused) injection outcome.
type classRecord struct {
	class *sites.Class
	out   metrics.Outcome
	// fin is the co-run end-to-end outcome (CoRunBaseline only).
	fin  *metrics.Outcome
	inst int // instance index for per-section records; -1 for monolithic
}

// Result is the analysis of one program version.
type Result struct {
	Cfg   Config
	Prog  *spec.Program
	Trace *trace.Trace

	// SiteCount is |J|, the number of error sites in the ROI.
	SiteCount int
	// Spec is the composed end-to-end SDC propagation specification.
	Spec *chisel.Spec
	// Amps holds the per-instance sensitivity matrices (indexed like
	// Trace.Instances).
	Amps []*sens.Amplification

	ffClasses []classRecord
	// untestedBad counts, per static instruction, the sites outside every
	// section, which FastFlip conservatively labels SDC-Bad (§4.9 s⊥).
	untestedBad   map[prog.StaticID]int
	UntestedSites int

	baseClasses []classRecord

	// Costs is c(pc): dynamic instances per static instruction of interest.
	Costs     map[prog.StaticID]int
	TotalCost int

	// Cost accounting (the paper's core-hours proxy).
	FFInject   inject.Stats
	FFSens     sens.Stats
	BaseInject inject.Stats

	// FFRecovered is the portion of FFInject merged from a write-ahead log
	// instead of re-executed; newly simulated work is FFInject minus
	// FFRecovered. Zero unless Cfg.WALDir and Cfg.Resume are set.
	FFRecovered inject.Stats
	// Poisoned lists the experiments quarantined after panicking twice;
	// their outcome slots carry the conservative SDC-Bad fill.
	Poisoned []inject.Poison

	// How the run executed. Summarize copies these into the Telemetry
	// fields of the same names, which document them.
	FFWall, BaseWall                time.Duration
	WALNotes                        []string
	WALDegraded                     bool
	PanicRetries                    int
	RemoteExperiments, ShardsMerged int
	HedgedDispatches, Releases      int

	ReusedInstances   int
	InjectedInstances int
}

// ResumedExperiments returns the number of experiments recovered from the
// write-ahead log rather than re-executed.
func (r *Result) ResumedExperiments() int { return r.FFRecovered.Experiments }

// FFCost returns FastFlip's total analysis cost in simulated instructions.
func (r *Result) FFCost() uint64 { return r.FFInject.SimInstrs + r.FFSens.SimInstrs }

// BaseCost returns the monolithic baseline's analysis cost.
func (r *Result) BaseCost() uint64 { return r.BaseInject.SimInstrs }

// Progress is a live snapshot of an Analyze campaign, reported through
// Analyzer.Progress after each section instance completes. Instances is
// the total number of section instances in the trace; Done = Reused +
// Injected counts the instances resolved so far.
type Progress struct {
	Instances   int    `json:"instances"`
	Done        int    `json:"done"`
	Reused      int    `json:"reused"`
	Injected    int    `json:"injected"`
	Experiments int    `json:"experiments"`
	SimInstrs   uint64 `json:"sim_instrs"`
	// CleanInstrs/FaultyInstrs split the injection engine's actual work:
	// clean-prefix replay vs post-flip execution. SimInstrs above stays the
	// paper's accounted cost model.
	CleanInstrs  uint64 `json:"clean_instrs"`
	FaultyInstrs uint64 `json:"faulty_instrs"`
	// ResumedExperiments counts experiments recovered from a write-ahead
	// log instead of re-executed (included in Experiments).
	ResumedExperiments int `json:"resumed_experiments"`
	// ElidedExperiments counts experiments resolved by the static masking
	// tier without simulation (included in Experiments); ElidedInstrs is
	// their accounted-but-never-simulated cost (included in SimInstrs).
	ElidedExperiments int    `json:"elided_experiments"`
	ElidedInstrs      uint64 `json:"elided_sim_instrs"`
	// Batches/BatchExperiments describe the lockstep replay tier: how many
	// batch dispatch groups ran and how many experiments they covered.
	Batches          int `json:"batches"`
	BatchExperiments int `json:"batch_experiments"`
	// WALDegraded reports that the campaign's write-ahead log latched off
	// after a persistent write failure; the analysis continues memory-only.
	WALDegraded bool `json:"wal_degraded,omitempty"`
	// Poisoned counts experiments quarantined by the panic supervisor.
	Poisoned int `json:"poisoned,omitempty"`
}

// Analyzer runs FastFlip over successive versions of a program, reusing
// per-section results through its Store.
type Analyzer struct {
	Cfg   Config
	Store *store.Store
	// Progress, when non-nil, is called from the analyzing goroutine once
	// before the first section instance and once after each instance
	// completes (reused or injected). It must be fast and must not call
	// back into the Analyzer.
	Progress func(Progress)
}

// NewAnalyzer returns an analyzer with a fresh store.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{Cfg: cfg, Store: store.New()}
}

// Analyze runs the FastFlip per-section analysis of p: trace, per-section
// injection (with reuse), sensitivity, and symbolic composition.
func (a *Analyzer) Analyze(p *spec.Program) (*Result, error) {
	return a.AnalyzeContext(context.Background(), p)
}

// AnalyzeContext is Analyze with cancellation: when ctx is cancelled the
// in-flight injection campaign stops between experiments and the call
// returns ctx.Err(). Sections fully analyzed before the cancellation have
// already been stored, so a later retry reuses them.
func (a *Analyzer) AnalyzeContext(ctx context.Context, p *spec.Program) (*Result, error) {
	started := time.Now()
	t, err := trace.RecordWith(p, trace.Options{CheckpointInterval: a.Cfg.CheckpointInterval})
	if err != nil {
		return nil, err
	}
	siteOpts := sites.Options{Prune: a.Cfg.Prune, Width: a.Cfg.BurstWidth}
	if a.Cfg.Elide {
		siteOpts.Masks = maskelide.Analyze(t.Prog.Linked)
	}
	r := &Result{
		Cfg:         a.Cfg,
		Prog:        p,
		Trace:       t,
		SiteCount:   sites.Count(t, siteOpts),
		untestedBad: make(map[prog.StaticID]int),
	}
	inj := &inject.Injector{T: t, Workers: a.Cfg.Workers, NoBatch: a.Cfg.NoBatch, PanicHook: a.Cfg.ExperimentPanicHook}

	var cam *campaign
	if a.Cfg.WALDir != "" {
		if cam, err = openCampaign(a.Cfg.WALDir, p, t, a.Cfg); err != nil {
			return nil, err
		}
		defer func() {
			r.WALNotes = cam.takeNotes()
			r.WALDegraded = cam.wasDegraded()
			cam.closeCampaign()
		}()
	}
	var remotePoisoned []inject.Poison
	defer func() {
		r.Poisoned = append(inj.Poisoned(), remotePoisoned...)
		r.PanicRetries = inj.PanicRetries()
	}()

	report := func() {
		if a.Progress != nil {
			a.Progress(Progress{
				Instances:          len(t.Instances),
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
				WALDegraded:        cam.wasDegraded(),
				Poisoned:           len(inj.Poisoned()),
			})
		}
	}
	report()

	r.Amps = make([]*sens.Amplification, len(t.Instances))
	for idx, inst := range t.Instances {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		classes := sites.ForInstance(t, inst, siteOpts)
		var key store.Key
		var keyErr error
		if a.Cfg.StrictReuseKeys {
			key, keyErr = store.KeyForStrict(t, inst)
		} else {
			key, keyErr = store.KeyFor(t, inst)
		}
		if keyErr != nil {
			// A buffer declaration outside the machine's memory: the spec
			// is malformed, and an unkeyable section can neither reuse nor
			// publish results. Fail the job instead of panicking it.
			return nil, fmt.Errorf("core: computing reuse key for instance %d: %w", idx, keyErr)
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
			report()
			continue
		}

		poisonedBefore := len(inj.Poisoned()) + len(remotePoisoned)

		// Open this section's write-ahead segment. Experiments recovered
		// from it are marked in skip and merged instead of re-executed;
		// everything the engine runs is appended through the record hook
		// before the campaign moves on.
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

		var outcomes, fins []metrics.Outcome
		var stats inject.Stats
		if a.Cfg.SectionInjector != nil {
			res, derr := a.Cfg.SectionInjector.InjectSection(ctx, SectionJob{
				Trace:    t,
				Instance: idx,
				Key:      key,
				Classes:  classes,
				Hooks:    hooks,
				CoRun:    a.Cfg.CoRunBaseline,
				Config:   a.Cfg,
			})
			if derr != nil {
				if wal != nil {
					cam.markPartial(key, wal.Count())
					wal.Close()
				}
				return nil, derr
			}
			outcomes, fins, stats = res.Outcomes, res.Fins, res.Stats
			r.RemoteExperiments += res.Remote
			r.ShardsMerged += res.Shards
			r.HedgedDispatches += res.HedgedDispatches
			r.Releases += res.Releases
			remotePoisoned = append(remotePoisoned, res.Poisoned...)
		} else if a.Cfg.CoRunBaseline {
			outcomes, fins, stats = inj.RunSectionCoRunResume(ctx, inst, classes, hooks)
		} else {
			outcomes, stats = inj.RunSectionResume(ctx, inst, classes, hooks)
		}
		r.FFInject.Add(stats)
		if err := ctx.Err(); err != nil {
			// The campaign was cut short: the outcome slices are partial
			// and must not be recorded or stored. The WAL keeps every
			// completed experiment for the retry.
			if wal != nil {
				cam.markPartial(key, wal.Count())
				wal.Close()
			}
			return nil, err
		}
		// Fill the skipped slots from the recovered records so the merged
		// section is indistinguishable from an uninterrupted campaign.
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

		// A fully recovered, sealed section reuses its logged sensitivity
		// matrix; otherwise the (deterministic) estimation reruns and the
		// segment is sealed behind it.
		var amp *sens.Amplification
		if nRecovered == len(classes) && recovered.Amp != nil {
			amp = &sens.Amplification{K: recovered.Amp.K}
			r.FFSens.Runs += recovered.Amp.Runs
			r.FFSens.SimInstrs += recovered.Amp.SimInstrs
		} else {
			var sstats sens.Stats
			amp, sstats = sens.Analyze(t, inst, a.Cfg.Sens)
			r.FFSens.Runs += sstats.Runs
			r.FFSens.SimInstrs += sstats.SimInstrs
			if wal != nil {
				if err := wal.AppendAmp(inject.WALAmp{K: amp.K, Runs: sstats.Runs, SimInstrs: sstats.SimInstrs}); err != nil {
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
				// The segment latched off after a persistent write failure.
				// This section's results live only in memory — the manifest
				// keeps it partial so a resume re-injects the unlogged
				// remainder — and the next section re-arms the log with a
				// fresh segment.
				cam.setDegraded(key)
				cam.markPartial(key, wal.Count())
			} else {
				cam.markSealed(key, wal.Count())
			}
			wal.Close()
		}
		r.Amps[idx] = amp
		r.InjectedInstances++

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
			rec := classRecord{class: c, out: outcomes[i], inst: idx}
			if fins != nil {
				rec.fin = &fins[i]
				stored.Final[c.Key] = store.FromMetrics(fins[i])
			}
			r.ffClasses = append(r.ffClasses, rec)
			stored.Outcomes[c.Key] = store.FromMetrics(outcomes[i])
		}
		// A section with quarantined experiments holds conservative fills,
		// not results: storing it under its content key would hand the
		// fills to every later lookup as if they were outcomes.
		if a.Store != nil && len(inj.Poisoned())+len(remotePoisoned) == poisonedBefore {
			a.Store.Put(key, stored)
		}
		report()
	}

	// Untested sites: conservatively SDC-Bad, no injection cost.
	dyns, count := sites.Untested(t, siteOpts)
	r.UntestedSites = count
	per := sites.SitesPerOperand(a.Cfg.BurstWidth)
	for _, d := range dyns {
		r.untestedBad[t.StaticIDOfDyn(d)] += t.Prog.Linked.Code[t.PCs[d]].NumOperands() * per
	}

	if r.Spec, err = chisel.Compose(t, r.Amps); err != nil {
		return nil, err
	}

	r.Costs, r.TotalCost = costModel(t, a.Cfg.CostModel)
	r.FFWall = time.Since(started)
	return r, nil
}

// storeLookup returns the stored section for key only if it covers every
// class of the current enumeration; a partial entry is unusable.
func (a *Analyzer) storeLookup(key store.Key, classes []*sites.Class) *store.Section {
	if a.Store == nil {
		return nil
	}
	st := a.Store.Lookup(key)
	if st == nil {
		return nil
	}
	if a.Cfg.CoRunBaseline && st.Final == nil {
		return nil // stored without co-run labels; re-analyze to get them
	}
	for _, c := range classes {
		if _, ok := st.Outcomes[c.Key]; !ok {
			return nil
		}
	}
	return st
}

// RunBaseline runs the monolithic Approxilyzer-only analysis on the same
// trace: inject every (pruned) site and compare final outputs.
func (a *Analyzer) RunBaseline(r *Result) {
	// The background context never cancels, so the campaign always
	// completes and the error can be ignored.
	_ = a.RunBaselineContext(context.Background(), r)
}

// RunBaselineContext is RunBaseline with cancellation: when ctx is
// cancelled the campaign stops between experiments, r is left without
// baseline results, and ctx.Err() is returned.
func (a *Analyzer) RunBaselineContext(ctx context.Context, r *Result) error {
	started := time.Now()
	inj := &inject.Injector{T: r.Trace, Workers: a.Cfg.Workers, NoBatch: a.Cfg.NoBatch}
	siteOpts := sites.Options{Prune: a.Cfg.Prune, Width: a.Cfg.BurstWidth}
	if a.Cfg.Elide {
		siteOpts.Masks = maskelide.Analyze(r.Trace.Prog.Linked)
	}
	classes := sites.Global(r.Trace, siteOpts)
	outcomes, stats := inj.RunMonolithic(ctx, classes)
	if err := ctx.Err(); err != nil {
		return err
	}
	r.BaseInject = stats
	r.baseClasses = r.baseClasses[:0]
	for i, c := range classes {
		r.baseClasses = append(r.baseClasses, classRecord{class: c, out: outcomes[i], inst: -1})
	}
	r.BaseWall = time.Since(started)
	return nil
}

// NoteModification tells the analyzer that the next Analyze call is for a
// modified program version; it advances the m_adj counter of §4.10.
func (a *Analyzer) NoteModification() {
	if a.Store != nil {
		a.Store.ModsSinceAdjust++
	}
}

// costModel computes c(pc) for every static instruction of interest (those
// with at least one register operand) in the region of interest. The
// default prices instruction duplication: cost = dynamic instances. An
// external model maps (instruction, dynamic count) to a custom cost.
func costModel(t *trace.Trace, custom func(prog.StaticID, int) int) (map[prog.StaticID]int, int) {
	// Count by pc and name each executed pc once; distinct pcs have
	// distinct StaticIDs, so no two counts land on one key.
	code := t.Prog.Linked.Code
	counts := make([]int, len(code))
	for _, pc := range t.PCs[t.ROIBeg+1 : t.ROIEnd] {
		counts[pc]++
	}
	total := 0
	costs := make(map[prog.StaticID]int)
	for pc, n := range counts {
		if n == 0 || code[pc].NumOperands() == 0 {
			continue
		}
		id := t.Prog.Linked.StaticIDOf(pc)
		c := n
		if custom != nil {
			c = custom(id, n)
			if c < 0 {
				c = 0
			}
		}
		costs[id] = c
		total += c
	}
	return costs, total
}

// FormatSpec renders the end-to-end specification for final output λ in
// the style of the paper's Equation 2, with φ variables named by section
// and occurrence, e.g. "4174.8·phi[LU0.1,out0]".
func (r *Result) FormatSpec(λ int) string {
	e := r.Spec.Final[λ]
	out := ""
	for i, v := range e.Vars() {
		if i > 0 {
			out += " + "
		}
		inst := r.Trace.Instances[v.Inst]
		name := r.Prog.Sections[inst.Sec].Name
		coef := e.Coef(v)
		if coef == 1 {
			out += fmt.Sprintf("phi[%s#%d.%d]", name, inst.Occur, v.Out)
		} else {
			out += fmt.Sprintf("%.4g*phi[%s#%d.%d]", coef, name, inst.Occur, v.Out)
		}
	}
	if out == "" {
		out = "0"
	}
	return out
}
