package core

import (
	"context"

	"fastflip/internal/inject"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/mix"
	"fastflip/internal/sites"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// SectionInjector runs one section campaign. AnalyzeContext hands every
// section it cannot reuse to Config.SectionInjector when one is set (a
// distributed coordinator, or the oracles' reference engine), else to
// LocalInjector. Every implementation delivers the outcomes LocalInjector
// would under the same hooks contract: Record for every fresh experiment,
// Poison for every quarantine, Skip honored, and full-length outcome
// slices with the skipped slots left zero for the caller to fill from
// recovery.
//
// Concurrency: AnalyzeContext overlaps a section's campaign with the
// next one's, so InjectSection may be called for two sections of one
// analysis at once, each call with its own job, hooks and context. An
// implementation must be safe for that: LocalInjector and the oracles'
// reference engine keep no state between calls (the analysis's shared
// inject.Pool is safe for concurrent campaigns), and a coordinator keeps
// each call's scheduling state apart and guards what its calls share.
// Cancelling one call's context stops that call only.
//
// The interface lives in core (not coord) so coord can depend on core's
// Config and Result types without an import cycle.
type SectionInjector interface {
	InjectSection(ctx context.Context, job SectionJob) (SectionResult, error)
}

// SectionJob is one section campaign handed to a SectionInjector.
type SectionJob struct {
	// Trace is the recorded trace the campaign runs against.
	Trace *trace.Trace
	// Instance indexes Trace.Instances at the section instance to inject.
	Instance int
	// Key is the section's content key (WAL segment identity).
	Key store.Key
	// Classes is the section's equivalence-class enumeration, in class
	// order (not dyn order — implementations derive the schedule with
	// inject.DynOrder).
	Classes []*sites.Class
	// Hooks carries the campaign's Skip vector and Record/Poison/Shard
	// callbacks. Implementations must invoke Record exactly once per fresh
	// experiment and Shard once per merged remote stream.
	Hooks inject.CampaignHooks
	// Config is the full analysis configuration: the experiment shape
	// (CoRunBaseline), engine knobs (Workers, NoBatch, the panic hook) and
	// the fingerprint a remote worker validates.
	Config Config
	// Pool is the analysis's shared set of injection worker slots; the
	// local engine runs the campaign's chunks on it. Nil gives the
	// campaign a private pool of Config.Workers slots.
	Pool *inject.Pool
}

// Injector returns an injector over the job's trace with the job's engine
// knobs: LocalInjector runs the campaign on it, and the oracles' reference
// engine its per-site experiments.
func (j SectionJob) Injector() *inject.Injector {
	return &inject.Injector{T: j.Trace, Workers: j.Config.Workers, NoBatch: j.Config.NoBatch, PanicHook: j.Config.ExperimentPanicHook, Pool: j.Pool}
}

// SectionResult is what a SectionInjector delivers for one section.
type SectionResult struct {
	// Outcomes has one entry per job class (class order). Slots whose
	// Skip bit was set are zero; the caller fills them from WAL recovery.
	Outcomes []metrics.Outcome
	// Fins are the co-run end-to-end outcomes, nil unless
	// job.Config.CoRunBaseline.
	Fins []metrics.Outcome
	// Stats accounts the fresh (non-skipped) experiments, wherever they
	// ran.
	Stats inject.Stats
	// Remote counts the experiments executed by remote workers (the rest
	// ran in a local fallback).
	Remote int
	// Shards counts the remote shard streams merged into the section.
	Shards int
	// HedgedDispatches counts straggler hedges issued while resolving the
	// section; Releases counts finished dispatches that handed unresolved
	// positions back to the work queue for re-lease.
	HedgedDispatches int
	Releases         int
	// Poisoned lists experiments quarantined during the campaign, local or
	// remote; PanicRetries counts the in-process experiments that panicked
	// once and succeeded on a fresh machine.
	Poisoned     []inject.Poison
	PanicRetries int
}

// LocalInjector is the in-process section engine: the job's campaign on
// one inject.Injector, with the engine knobs of job.Config, its chunks on
// job.Pool's slots. It is the
// engine AnalyzeContext uses when no SectionInjector is configured, the
// one a coordinator falls back to, and the one a shard worker runs its
// leases on. Cancellation leaves partial outcomes; callers check ctx.
type LocalInjector struct{}

// InjectSection implements SectionInjector. It never fails.
func (LocalInjector) InjectSection(ctx context.Context, job SectionJob) (SectionResult, error) {
	inj := job.Injector()
	var res SectionResult
	res.Outcomes, res.Fins, res.Stats = inj.RunSectionResume(ctx, job.Trace.Instances[job.Instance], job.Classes, job.Config.CoRunBaseline, job.Hooks)
	res.Poisoned, res.PanicRetries = inj.Poisoned(), inj.PanicRetries()
	return res, nil
}

// SiteOptions returns the error-site enumeration cfg asks for over t, the
// static masking tier's proofs included when cfg.Elide. Every party that
// enumerates a campaign's classes — analysis, baseline, shard worker —
// takes its options from here, so the enumerations agree class for class.
func SiteOptions(t *trace.Trace, cfg Config) sites.Options {
	opts := sites.Options{Prune: cfg.Prune, Width: cfg.BurstWidth}
	if cfg.Elide {
		opts.Masks = maskelide.Analyze(t.Prog.Linked)
	}
	return opts
}

// SectionKey returns inst's reuse key under cfg: the strict key when
// cfg.StrictReuseKeys, else the paper's declared-dataflow key. It fails
// when a buffer declaration lies outside the machine's memory.
func SectionKey(t *trace.Trace, inst *trace.Instance, cfg Config) (store.Key, error) {
	if cfg.StrictReuseKeys {
		return store.KeyForStrict(t, inst)
	}
	return store.KeyFor(t, inst)
}

// CampaignFingerprint returns the WAL segment header fingerprint of a
// campaign: the trace fingerprint folded with the configuration knobs
// that change experiment outcomes or schedules. A distributed worker
// recomputes it from its own trace and the coordinator's shipped config
// and refuses shards whose fingerprint disagrees — the same stale-state
// gate resume applies to on-disk segments.
func CampaignFingerprint(traceFP uint64, cfg Config) uint64 {
	return mix.Fold(traceFP, configFingerprint(cfg))
}
