package core

import (
	"context"

	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/mix"
	"fastflip/internal/sites"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// SectionInjector is the seam a distributed coordinator plugs into the
// analysis pipeline: when Config.SectionInjector is set, AnalyzeContext
// hands every section campaign to it instead of the in-process engine.
// The implementation must deliver outcomes equivalent to
// inject.Injector.RunSectionResume (or the co-run variant) under the same
// hooks contract: Record for every fresh experiment, Poison for every
// quarantine, Skip honored, and full-length outcome slices with the
// skipped slots left zero for the caller to fill from recovery.
//
// The interface lives in core (not coord) so coord can depend on core's
// Config and Result types without an import cycle.
type SectionInjector interface {
	InjectSection(ctx context.Context, job SectionJob) (SectionResult, error)
}

// SectionJob is one section campaign delegated through the
// SectionInjector seam.
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
	// CoRun requests co-run end-to-end outcomes (§4.10).
	CoRun bool
	// Config is the full analysis configuration, for fingerprint
	// validation and engine knobs (BurstWidth, Prune, NoBatch, ...).
	Config Config
}

// SectionResult is what a SectionInjector delivers for one section.
type SectionResult struct {
	// Outcomes has one entry per job class (class order). Slots whose
	// Skip bit was set are zero; the caller fills them from WAL recovery.
	Outcomes []metrics.Outcome
	// Fins are the co-run end-to-end outcomes, nil unless job.CoRun.
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
	// Poisoned lists experiments quarantined during the campaign,
	// local or remote.
	Poisoned []inject.Poison
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
