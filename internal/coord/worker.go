package coord

import (
	"context"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
)

// BuildFunc constructs the program for one benchmark version (the same
// shape as the service's builder; redeclared here so coord does not
// depend on service).
type BuildFunc func(benchName, variant string) (*spec.Program, error)

// WorkerOptions configure a shard worker.
type WorkerOptions struct {
	// ID is the worker's self-reported identity, echoed on health probes
	// and shard streams and recorded in merged segments' provenance.
	// Default "worker-<pid>".
	ID string
	// Build constructs programs (default bench.Build).
	Build BuildFunc
	// Workers bounds the worker's injection parallelism (0 = GOMAXPROCS).
	Workers int
	// Token, when non-empty, is the shared secret the worker demands as a
	// bearer token on shard leases: a request without `Authorization:
	// Bearer <token>` is refused with 401. The health endpoint stays open
	// so liveness probes work regardless of credential state.
	Token string
}

// Worker executes leased shards of remote injection campaigns: it serves
// POST /v1/shard (run a range, stream framed WAL records back) and
// GET /healthz (liveness, reporting the worker ID). Both ffserved's
// -worker mode and in-test workers are this handler behind a listener.
//
// A worker holds no campaign state between shards beyond one cached trace
// per benchmark version: every lease names its benchmark, instance, and
// range, and runs on the same in-process engine a local analysis uses
// (core.LocalInjector). The worker's determinism guarantee — same
// benchmark build, same recorded trace, same class enumeration — is
// checked per shard through the section key and campaign fingerprint
// rather than assumed.
type Worker struct {
	opts WorkerOptions
	mux  *http.ServeMux

	mu     sync.Mutex
	traces map[benchVersion]*leaseTrace
}

// benchVersion names one benchmark version.
type benchVersion struct{ bench, variant string }

// traceShape is the part of a lease configuration that shapes the
// recorded trace (the checkpoint interval) and the class enumeration
// (the site knobs).
type traceShape struct {
	checkpointInterval int64
	prune, elide       bool
	burstWidth         int
}

func shapeOf(cfg ShardConfig) traceShape {
	return traceShape{checkpointInterval: cfg.CheckpointInterval, prune: cfg.Prune, elide: cfg.Elide, burstWidth: cfg.BurstWidth}
}

// leaseTrace is a recorded trace with the site options of the shape it
// was recorded for, computed once with it.
type leaseTrace struct {
	shape    traceShape
	t        *trace.Trace
	siteOpts sites.Options
}

// NewWorker returns a worker handler.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Build == nil {
		opts.Build = func(name, variant string) (*spec.Program, error) {
			return bench.Build(name, bench.Variant(variant))
		}
	}
	w := &Worker{opts: opts, mux: http.NewServeMux(), traces: make(map[benchVersion]*leaseTrace)}
	w.mux.HandleFunc("POST "+shardPath, w.shard)
	w.mux.HandleFunc("GET "+healthPath, w.healthz)
	return w
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

func (w *Worker) healthz(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]string{"status": "ok", "worker": w.opts.ID})
}

// traceFor records (or reuses) the trace of one benchmark version under
// the lease configuration cfg, with its site options. The worker keeps one
// trace per benchmark version and replaces it when a lease's trace shape
// differs: the checkpoint interval shapes the trace and the site knobs
// shape the class enumeration, and a lease must run against exactly what
// its fingerprint was computed over.
func (w *Worker) traceFor(benchName, variant string, cfg ShardConfig) (*leaseTrace, error) {
	key, shape := benchVersion{benchName, variant}, shapeOf(cfg)
	w.mu.Lock()
	lt := w.traces[key]
	w.mu.Unlock()
	if lt != nil && lt.shape == shape {
		return lt, nil
	}
	p, err := w.opts.Build(benchName, variant)
	if err != nil {
		return nil, err
	}
	t, err := trace.RecordWith(p, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	if err != nil {
		return nil, err
	}
	lt = &leaseTrace{shape: shape, t: t, siteOpts: core.SiteOptions(t, cfg.analysisConfig(0))}
	w.mu.Lock()
	w.traces[key] = lt
	w.mu.Unlock()
	return lt, nil
}

// maxShardBody bounds a lease request; the Done list dominates and stays
// far below this for any realistic section.
const maxShardBody = 8 << 20

// shard runs one leased range and streams the results back. Validation
// failures answer with JSON errors (400 malformed, unbuildable or out of
// range, 409 stale or wrong-config); past the header the response is a
// framed record stream terminated by a seal, and any failure mid-stream
// simply ends the stream unsealed — the coordinator treats it as partial,
// exactly like a torn WAL tail.
func (w *Worker) shard(rw http.ResponseWriter, r *http.Request) {
	if w.opts.Token != "" {
		got := r.Header.Get("Authorization")
		want := "Bearer " + w.opts.Token
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			httpError(rw, http.StatusUnauthorized, fmt.Errorf("missing or invalid worker token"))
			return
		}
	}
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody))
	if err := dec.Decode(&req); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("trailing data after shard request"))
		return
	}
	lt, err := w.traceFor(req.Bench, req.Variant, req.Config)
	if err != nil {
		httpError(rw, http.StatusBadRequest, err)
		return
	}
	t := lt.t
	if req.Instance < 0 || req.Instance >= len(t.Instances) {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("instance %d out of range (%d instances)", req.Instance, len(t.Instances)))
		return
	}
	inst := t.Instances[req.Instance]

	cfg := req.Config.analysisConfig(w.opts.Workers)
	if fp := core.CampaignFingerprint(t.Fingerprint(), cfg); fp != req.Fingerprint {
		httpError(rw, http.StatusConflict, fmt.Errorf("campaign fingerprint mismatch: lease has %016x, worker computes %016x (stale or wrong-config shard)", req.Fingerprint, fp))
		return
	}
	key, err := core.SectionKey(t, inst, cfg)
	if err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("computing section key: %w", err))
		return
	}
	if got := hex.EncodeToString(key[:]); got != req.SectionKey {
		httpError(rw, http.StatusConflict, fmt.Errorf("section key mismatch: lease names %s, worker computes %s", req.SectionKey, got))
		return
	}

	// The site options reproduce the coordinator's class enumeration
	// exactly, elision flags included: an elided class streams back with
	// elision cost accounting, and a mismatch there would make the merged
	// summary differ from a local run.
	classes := sites.ForInstance(t, inst, lt.siteOpts)
	if req.Lo < 0 || req.Hi < req.Lo || req.Hi > len(classes) {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("range [%d, %d) out of bounds (%d classes)", req.Lo, req.Hi, len(classes)))
		return
	}
	skip := make([]bool, len(classes))
	for _, ci := range req.Done {
		if ci < 0 || ci >= len(skip) {
			httpError(rw, http.StatusBadRequest, fmt.Errorf("done class %d out of range (%d classes)", ci, len(classes)))
			return
		}
		skip[ci] = true
	}

	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set(workerHeader, w.opts.ID)
	rw.Header().Set(epochHeader, fmt.Sprintf("%d", req.Epoch))
	rw.WriteHeader(http.StatusOK)

	// Record/Poison are called concurrently by injection workers; the
	// stream is serialized under streamMu. A write failure (coordinator
	// went away) latches and cancels the campaign — there is nobody left
	// to stream to.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sw := inject.NewStreamWriter(rw)
	var streamMu sync.Mutex
	var streamErr error
	count := 0
	hooks := inject.CampaignHooks{
		Skip:  skip,
		Range: &inject.ShardRange{Lo: req.Lo, Hi: req.Hi},
		Record: func(i int, out metrics.Outcome, fin *metrics.Outcome, cost inject.Stats) {
			streamMu.Lock()
			defer streamMu.Unlock()
			if streamErr != nil {
				return
			}
			if err := sw.WriteExperiment(inject.WALRecord{Key: classes[i].Key, Out: out, Fin: fin, Cost: cost}); err != nil {
				streamErr = err
				cancel()
				return
			}
			count++
		},
		Poison: func(p inject.Poison) {
			streamMu.Lock()
			defer streamMu.Unlock()
			if streamErr != nil {
				return
			}
			if err := sw.WritePoison(inject.WALPoison{Key: p.Key, Attempts: p.Attempts, MachineFP: p.MachineFP, Stack: p.Stack}); err != nil {
				streamErr = err
				cancel()
			}
		},
	}
	// The hooks stream every result; LocalInjector never fails.
	_, _ = core.LocalInjector{}.InjectSection(ctx, core.SectionJob{
		Trace: t, Instance: req.Instance, Key: key, Classes: classes, Hooks: hooks, Config: cfg,
	})

	streamMu.Lock()
	defer streamMu.Unlock()
	if ctx.Err() == nil && streamErr == nil {
		// A complete shard is sealed with its record count; a cancelled or
		// broken one ends unsealed and the coordinator re-leases the rest.
		_ = sw.WriteSeal(count)
	}
}

func httpError(rw http.ResponseWriter, status int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}
