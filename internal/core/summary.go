package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fastflip/internal/prog"
)

// Summary is the machine-readable digest of one analysis — the shape
// returned by the ffserved JSON API and by `fastflip -json`, so CLI and
// service outputs are interchangeable. All cost figures are in simulated
// instructions; magnitudes beyond ε classify as SDC-Bad.
type Summary struct {
	Bench   string  `json:"bench,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Program string  `json:"program"`
	Epsilon float64 `json:"epsilon"`

	SiteCount int    `json:"site_count"`
	DynInstrs uint64 `json:"dyn_instrs"`
	Instances int    `json:"instances"`
	Reused    int    `json:"reused_instances"`
	Injected  int    `json:"injected_instances"`

	StaticExecuted int `json:"static_executed"`
	StaticTotal    int `json:"static_total"`

	FFExperiments int    `json:"ff_experiments"`
	FFSimInstrs   uint64 `json:"ff_sim_instrs"`

	// ElidedExperiments counts experiments the static masking tier proved
	// Masked and recorded without simulating (included in FFExperiments);
	// ElidedSimInstrs is their accounted share of FFSimInstrs. Executed
	// experiments = FFExperiments − ElidedExperiments.
	ElidedExperiments int    `json:"elided_experiments,omitempty"`
	ElidedSimInstrs   uint64 `json:"elided_sim_instrs,omitempty"`

	// Poisoned lists experiments quarantined by the panic supervisor
	// (panicked twice on fresh machines); their outcomes are the
	// conservative SDC-Bad fill, so protection analysis stays sound.
	Poisoned []PoisonSummary `json:"poisoned,omitempty"`

	// Protection-loop figures (Analyzer.Harden), present only when the job
	// asked for hardening: the knapsack selection was applied as
	// duplication-and-compare detectors and the hardened program was
	// re-injected. ResidualSDC is its measured SDC-Bad site count,
	// PredictedResidual the mechanism-aware bound derived from the original
	// campaign, DetectorCoverage the fraction of tested bad sites at
	// protected instructions the detectors removed, DetectorTriggers the
	// hardened sites caught by a detector trap, and ProtectionOverhead the
	// dynamic instruction overhead of the detectors. HardenedAsm carries
	// the hardened program's disassembly when the caller requested it.
	HardenedTarget     float64 `json:"hardened_target,omitempty"`
	ResidualSDC        int     `json:"residual_sdc,omitempty"`
	PredictedResidual  int     `json:"predicted_residual,omitempty"`
	DetectorCoverage   float64 `json:"detector_coverage,omitempty"`
	DetectorTriggers   int     `json:"detector_triggers,omitempty"`
	ProtectionOverhead float64 `json:"protection_overhead,omitempty"`
	HardenedAsm        string  `json:"hardened_asm,omitempty"`

	Outcomes OutcomeStats `json:"outcomes"`

	Baseline *BaselineSummary `json:"baseline,omitempty"`
	Targets  []TargetSummary  `json:"targets,omitempty"`

	// Telemetry is embedded untagged, so its keys sit flat beside the
	// outcome keys on the wire.
	Telemetry
}

// Telemetry describes how a run executed, never what it found: wall
// clocks, the engine's actual work, batching, resume and WAL state, panic
// retries, and where results came from (remote workers, the shared
// tier). Two runs of one program under one configuration may differ here
// and nowhere else in their Summary, so a byte-identity check asserts with
// CheckRun that each run departed from a plain local run only as expected,
// clears telemetry with one assignment, s.Telemetry = Telemetry{}, and
// compares the rest.
type Telemetry struct {
	FFWall time.Duration `json:"ff_wall_ns"`
	// FFCleanInstrs/FFFaultyInstrs split the injection engine's actual
	// simulated work into clean-prefix replay and post-flip execution.
	// FFSimInstrs remains the paper's accounted cost model (per
	// experiment, section checkpoint to experiment end), so the two clean
	// figures differ under the cursor replay engine.
	FFCleanInstrs  uint64 `json:"ff_clean_instrs"`
	FFFaultyInstrs uint64 `json:"ff_faulty_instrs"`
	// BatchedExperiments counts experiments whose faulty suffix ran inside
	// a lockstep batch replica (included in FFExperiments); outcomes and
	// accounted costs are identical to scalar runs. BatchReplicasAvg is the
	// mean batch width of this process's batch dispatches; it is not
	// WAL-persisted, so a resumed campaign reports only its own batches.
	BatchedExperiments int     `json:"batched_experiments,omitempty"`
	BatchReplicasAvg   float64 `json:"batch_replicas_avg,omitempty"`

	// ResumedExperiments counts experiments recovered from a write-ahead
	// campaign log instead of re-executed (included in FFExperiments).
	// WALNotes records non-fatal WAL anomalies (torn tails truncated,
	// lock conflicts).
	ResumedExperiments int      `json:"resumed_experiments,omitempty"`
	WALNotes           []string `json:"wal_notes,omitempty"`
	// WALDegraded marks a campaign whose write-ahead log hit a persistent
	// write failure: the analysis completed, but at least one section's
	// results are memory-only and a resume will re-inject that section.
	WALDegraded bool `json:"wal_degraded,omitempty"`
	// PanicRetries counts experiment attempts that panicked once and
	// succeeded on retry. Retries are cost-neutral: the accounted figures
	// match a panic-free run exactly.
	PanicRetries int `json:"panic_retries,omitempty"`

	// RemoteExperiments counts experiments executed by remote shard
	// workers under a distributed coordinator (included in FFExperiments);
	// ShardsMerged counts the shard streams merged. Both are zero for a
	// purely local campaign.
	RemoteExperiments int `json:"remote_experiments,omitempty"`
	ShardsMerged      int `json:"shards_merged,omitempty"`
	// HedgedDispatches counts straggler shard leases the coordinator
	// re-dispatched to an idle worker while the original kept streaming;
	// Releases counts finished dispatches that handed unresolved work back
	// to the lease queue.
	HedgedDispatches int `json:"hedged_dispatches,omitempty"`
	Releases         int `json:"releases,omitempty"`
	// SharedHits counts section lookups this job resolved from the shared
	// cross-process outcome tier, SharedMisses those the tier could not
	// serve (both zero without a shared tier; included in Reused/Injected
	// respectively).
	SharedHits   int `json:"shared_hits,omitempty"`
	SharedMisses int `json:"shared_misses,omitempty"`

	// BaseWall, BaseCleanInstrs, BaseFaultyInstrs and
	// BaseBatchedExperiments are the figures above for the monolithic
	// baseline campaign; all zero when no baseline ran.
	BaseWall               time.Duration `json:"base_wall_ns,omitempty"`
	BaseCleanInstrs        uint64        `json:"base_clean_instrs,omitempty"`
	BaseFaultyInstrs       uint64        `json:"base_faulty_instrs,omitempty"`
	BaseBatchedExperiments int           `json:"base_batched_experiments,omitempty"`
}

// Allow names the ways a run may depart from a plain local run without
// failing Telemetry.CheckRun.
type Allow uint8

const (
	AllowResume   Allow = 1 << iota // experiments recovered from a WAL, WAL notes
	AllowRemote                     // remote experiments, shards, hedges and releases
	AllowDegraded                   // a degraded WAL and its notes
	AllowRetries                    // panicked experiments retried
)

// CheckRun reports every way t departs from a plain local run beyond those
// allow names. A plain run retried no panic, kept its WAL healthy, ran
// nothing on a remote worker and recovered nothing from a WAL. A
// byte-identity check clears Telemetry wholesale, so it calls CheckRun on
// each run first: a panic the batch tier survived on the scalar path
// leaves the outcomes intact and shows only here.
func (t *Telemetry) CheckRun(allow Allow) error {
	var bad []string
	if t.PanicRetries != 0 && allow&AllowRetries == 0 {
		bad = append(bad, fmt.Sprintf("panic_retries=%d", t.PanicRetries))
	}
	if t.WALDegraded && allow&AllowDegraded == 0 {
		bad = append(bad, "wal_degraded")
	}
	if len(t.WALNotes) != 0 && allow&(AllowResume|AllowDegraded) == 0 {
		bad = append(bad, fmt.Sprintf("wal_notes=%q", t.WALNotes))
	}
	if t.ResumedExperiments != 0 && allow&AllowResume == 0 {
		bad = append(bad, fmt.Sprintf("resumed_experiments=%d", t.ResumedExperiments))
	}
	if t.RemoteExperiments|t.ShardsMerged|t.HedgedDispatches|t.Releases != 0 && allow&AllowRemote == 0 {
		bad = append(bad, fmt.Sprintf("remote_experiments=%d shards_merged=%d hedged_dispatches=%d releases=%d",
			t.RemoteExperiments, t.ShardsMerged, t.HedgedDispatches, t.Releases))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("run reports %s", strings.Join(bad, ", "))
}

// PoisonSummary is the serializable digest of one quarantined experiment:
// which class panicked twice, a fingerprint of the machine the second
// panic left behind, and the captured stack for post-mortem debugging.
type PoisonSummary struct {
	Class     string `json:"class"`
	Attempts  int    `json:"attempts"`
	MachineFP string `json:"machine_fp"`
	Stack     string `json:"stack"`
}

// BaselineSummary digests the monolithic baseline campaign; its
// telemetry lives in Telemetry's Base* fields.
type BaselineSummary struct {
	Experiments int    `json:"experiments"`
	SimInstrs   uint64 `json:"sim_instrs"`
	// Elision accounting, as in the FastFlip figures of Summary.
	ElidedExperiments int    `json:"elided_experiments,omitempty"`
	ElidedSimInstrs   uint64 `json:"elided_sim_instrs,omitempty"`
	// Speedup is baseline cost over FastFlip cost (the paper's headline
	// ratio).
	Speedup float64 `json:"speedup"`
}

// TargetSummary digests one TargetEval for serialization, with the
// selected instructions rendered as stable strings.
type TargetSummary struct {
	Target       float64  `json:"target"`
	Adjusted     float64  `json:"adjusted"`
	Achieved     float64  `json:"achieved"`
	FFCostFrac   float64  `json:"ff_cost_frac"`
	BaseCostFrac float64  `json:"base_cost_frac"`
	CostDiff     float64  `json:"cost_diff"`
	ErrRange     float64  `json:"err_range"`
	WithinRange  bool     `json:"within_range"`
	Selected     []string `json:"selected"`
	SelectedCost int      `json:"selected_cost"`
}

// Summarize renders r (and, when non-nil, its target evaluations) as a
// Summary. evals may be nil when no baseline comparison ran.
func (r *Result) Summarize(eps float64, evals []TargetEval) *Summary {
	exec, total := r.Trace.Coverage()
	s := &Summary{
		Program:           r.Prog.Name,
		Epsilon:           eps,
		SiteCount:         r.SiteCount,
		DynInstrs:         r.Trace.TotalDyn,
		Instances:         len(r.Trace.Instances),
		Reused:            r.ReusedInstances,
		Injected:          r.InjectedInstances,
		StaticExecuted:    exec,
		StaticTotal:       total,
		FFExperiments:     r.FFInject.Experiments,
		FFSimInstrs:       r.FFCost(),
		ElidedExperiments: r.FFInject.ElidedExperiments,
		ElidedSimInstrs:   r.FFInject.ElidedInstrs,
		Outcomes:          r.FFOutcomeStats(eps),
		Telemetry: Telemetry{
			FFWall:                 r.FFWall,
			FFCleanInstrs:          r.FFInject.CleanInstrs,
			FFFaultyInstrs:         r.FFInject.FaultyInstrs,
			BatchedExperiments:     r.FFInject.BatchExperiments,
			ResumedExperiments:     r.FFRecovered.Experiments,
			WALNotes:               append([]string(nil), r.WALNotes...),
			WALDegraded:            r.WALDegraded,
			PanicRetries:           r.PanicRetries,
			RemoteExperiments:      r.RemoteExperiments,
			ShardsMerged:           r.ShardsMerged,
			HedgedDispatches:       r.HedgedDispatches,
			Releases:               r.Releases,
			BaseWall:               r.BaseWall,
			BaseCleanInstrs:        r.BaseInject.CleanInstrs,
			BaseFaultyInstrs:       r.BaseInject.FaultyInstrs,
			BaseBatchedExperiments: r.BaseInject.BatchExperiments,
		},
	}
	if r.FFInject.Batches > 0 {
		s.BatchReplicasAvg = float64(r.FFInject.BatchExperiments) / float64(r.FFInject.Batches)
	}
	for _, p := range r.Poisoned {
		s.Poisoned = append(s.Poisoned, PoisonSummary{
			Class:     fmt.Sprintf("%v/%v.bit%d", p.Key.Static, p.Key.Role, p.Key.Bit),
			Attempts:  p.Attempts,
			MachineFP: fmt.Sprintf("%016x", p.MachineFP),
			Stack:     p.Stack,
		})
	}
	if len(r.baseClasses) > 0 {
		b := &BaselineSummary{
			Experiments:       r.BaseInject.Experiments,
			SimInstrs:         r.BaseCost(),
			ElidedExperiments: r.BaseInject.ElidedExperiments,
			ElidedSimInstrs:   r.BaseInject.ElidedInstrs,
		}
		if ff := r.FFCost(); ff > 0 {
			b.Speedup = float64(r.BaseCost()) / float64(ff)
		}
		s.Baseline = b
	}
	for _, ev := range evals {
		ts := TargetSummary{
			Target:       ev.Target,
			Adjusted:     ev.Adjusted,
			Achieved:     ev.Achieved,
			FFCostFrac:   ev.FFCostFrac,
			BaseCostFrac: ev.BaseCostFrac,
			CostDiff:     ev.CostDiff,
			ErrRange:     ev.ErrRange,
			WithinRange:  ev.WithinRange,
			SelectedCost: ev.FF.Cost,
			Selected:     staticIDStrings(ev.FF.IDs),
		}
		s.Targets = append(s.Targets, ts)
	}
	return s
}

func staticIDStrings(ids []prog.StaticID) []string {
	sorted := append([]prog.StaticID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Func != sorted[j].Func {
			return sorted[i].Func < sorted[j].Func
		}
		return sorted[i].Local < sorted[j].Local
	})
	out := make([]string, len(sorted))
	for i, id := range sorted {
		out[i] = id.String()
	}
	return out
}
