package coord

import (
	"fastflip/internal/core"
	"fastflip/internal/sens"
)

// Wire protocol paths and headers shared by coordinator and worker.
const (
	// shardPath accepts a ShardRequest and streams framed WAL records back.
	shardPath = "/v1/shard"
	// healthPath answers worker liveness probes with the worker's ID.
	healthPath = "/healthz"

	// workerHeader and epochHeader echo the shard's provenance on the
	// response so the coordinator can attribute a stream even when the
	// request's expectations were stale.
	workerHeader = "X-Fastflip-Worker"
	epochHeader  = "X-Fastflip-Epoch"
)

// ShardConfig is the wire form of exactly the analysis knobs a WAL
// campaign fingerprint covers (plus trace-shaping ones): everything that
// changes experiment outcomes, class enumeration, or the section content
// key. A worker reconstructs a core.Config from it, recomputes the
// campaign fingerprint against its own independently recorded trace, and
// refuses shards whose fingerprint disagrees — the network analogue of
// resume rejecting a stale or wrong-config segment.
type ShardConfig struct {
	Prune              bool    `json:"prune"`
	BurstWidth         int     `json:"burst_width"`
	CoRun              bool    `json:"co_run"`
	Elide              bool    `json:"elide"`
	NoBatch            bool    `json:"no_batch"`
	StrictReuseKeys    bool    `json:"strict_reuse_keys"`
	CheckpointInterval int64   `json:"checkpoint_interval"`
	SensSamples        int     `json:"sens_samples"`
	SensPhiMax         float64 `json:"sens_phi_max"`
	SensSeed           int64   `json:"sens_seed"`
}

// shardConfig extracts the wire knobs from a full analysis config.
func shardConfig(cfg core.Config) ShardConfig {
	return ShardConfig{
		Prune:              cfg.Prune,
		BurstWidth:         cfg.BurstWidth,
		CoRun:              cfg.CoRunBaseline,
		Elide:              cfg.Elide,
		NoBatch:            cfg.NoBatch,
		StrictReuseKeys:    cfg.StrictReuseKeys,
		CheckpointInterval: cfg.CheckpointInterval,
		SensSamples:        cfg.Sens.Samples,
		SensPhiMax:         cfg.Sens.PhiMax,
		SensSeed:           cfg.Sens.Seed,
	}
}

// analysisConfig reconstructs the worker-side core.Config. Only the
// fingerprint-covered knobs are populated — scheduling knobs (Workers)
// are the worker's own business.
func (sc ShardConfig) analysisConfig(workers int) core.Config {
	return core.Config{
		Prune:              sc.Prune,
		BurstWidth:         sc.BurstWidth,
		CoRunBaseline:      sc.CoRun,
		Elide:              sc.Elide,
		NoBatch:            sc.NoBatch,
		StrictReuseKeys:    sc.StrictReuseKeys,
		CheckpointInterval: sc.CheckpointInterval,
		Sens:               sens.Config{Samples: sc.SensSamples, PhiMax: sc.SensPhiMax, Seed: sc.SensSeed},
		Workers:            workers,
	}
}

// ShardRequest leases one contiguous range of a section campaign's
// canonical dyn-sorted experiment order to a worker. The worker rebuilds
// the benchmark, records its own trace, enumerates the same classes, and
// runs positions [Lo, Hi) of inject.DynOrder minus the Done classes,
// streaming each completed experiment back as a framed WAL record.
type ShardRequest struct {
	Bench   string `json:"bench"`
	Variant string `json:"variant"`
	// Instance indexes the trace's section instances.
	Instance int `json:"instance"`
	// SectionKey is the hex section content key; the worker recomputes it
	// and rejects a mismatch (its build of the benchmark differs).
	SectionKey string `json:"section_key"`
	// Fingerprint is the campaign fingerprint (trace ⊕ config); the
	// worker recomputes and rejects stale or wrong-config shards.
	Fingerprint uint64 `json:"fingerprint"`
	// Lo, Hi bound the leased dyn-order positions [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Done lists class indices already resolved (recovered from the WAL
	// or merged from earlier shards); the worker skips them, which is how
	// a re-lease after a worker loss runs only the unlogged remainder.
	Done []int `json:"done,omitempty"`
	// Epoch is the lease epoch, for provenance records.
	Epoch  uint64      `json:"epoch"`
	Config ShardConfig `json:"config"`
}
