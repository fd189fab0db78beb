// Package service runs FastFlip analyses as managed jobs behind a bounded
// worker pool — the resident form of the cmd/fastflip workflow. A Manager
// owns a submission queue, per-job lifecycle (queued → running →
// done/failed/cancelled), live progress snapshots, retained results with
// FIFO eviction, and one result cache so repeated submissions reuse
// per-section results across requests (§4.7 applied across requests
// instead of within one analysis).
//
// The cache is an ostore.Store: the caller's shared tier, or a
// memory-only one the manager owns. It is content-addressed (a section's
// key hashes its executed code and input values), so it safely serves
// every benchmark, variant and tenant at once: a resubmission of the same
// version reuses everything, and a modified version reuses its unchanged
// sections — the paper's cross-version reuse, now surviving between
// requests. Every job, local or distributed, looks sections up in it and
// publishes what it analyzes.
package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/coord"
	"fastflip/internal/core"
	"fastflip/internal/ostore"
	"fastflip/internal/spec"
	"fastflip/internal/store"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: Queued → Running → one of the terminal states.
// A queued job can move directly to Cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request describes one analysis submission.
type Request struct {
	// Bench and Variant select the program version, as in cmd/fastflip.
	Bench   string `json:"bench"`
	Variant string `json:"variant"`
	// Targets are the protection value targets; empty means the paper's
	// defaults (0.90, 0.95, 0.99).
	Targets []float64 `json:"targets,omitempty"`
	// Epsilon is the SDC-Bad threshold ε.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Baseline additionally runs the monolithic campaign and the utility
	// comparison (slower; off by default).
	Baseline bool `json:"baseline,omitempty"`
	// Workers overrides the per-job injection parallelism (0 = the
	// manager's default).
	Workers int `json:"workers,omitempty"`
	// Modified marks this as a modified version of the last analysis of
	// the same benchmark (advances the §4.10 m_adj counter).
	Modified bool `json:"modified,omitempty"`
	// Harden closes the protection loop: the knapsack selection for
	// HardenTarget (default 0.95) is applied as duplication-and-compare
	// detectors, the hardened program is re-injected, and the result
	// carries the measured residual SDC, detector coverage, and the
	// hardened disassembly (Summary.HardenedAsm).
	Harden       bool    `json:"harden,omitempty"`
	HardenTarget float64 `json:"harden_target,omitempty"`
	// Tenant names the submitting tenant for shared-tier attribution,
	// per-tenant quotas, and metrics. Empty means "default". The tenant is
	// a namespace for accounting, not for lookups: content addressing
	// makes every tenant's published sections reusable by every other.
	Tenant string `json:"tenant,omitempty"`
}

// maxTargets bounds a request's protection targets; each one is a
// knapsack evaluation of the job.
const maxTargets = 64

// validate rejects numeric fields outside their domain: a request that
// could only fail (or misbehave) once it ran.
func (r Request) validate() error {
	switch {
	case r.Workers < 0:
		return fmt.Errorf("workers %d is negative", r.Workers)
	case r.Epsilon < 0:
		return fmt.Errorf("epsilon %g is negative", r.Epsilon)
	case r.HardenTarget < 0 || r.HardenTarget > 1:
		return fmt.Errorf("harden_target %g outside [0, 1]", r.HardenTarget)
	case len(r.Targets) > maxTargets:
		return fmt.Errorf("%d targets (max %d)", len(r.Targets), maxTargets)
	}
	for _, v := range r.Targets {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("target %g outside (0, 1]", v)
		}
	}
	return nil
}

// tenant returns the request's tenant name, defaulted.
func (r Request) tenant() string {
	if r.Tenant == "" {
		return "default"
	}
	return r.Tenant
}

// JobView is a point-in-time snapshot of a job, safe to serialize.
type JobView struct {
	ID         string        `json:"id"`
	Bench      string        `json:"bench"`
	Variant    string        `json:"variant"`
	State      State         `json:"state"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
	Progress   core.Progress `json:"progress"`
	Error      string        `json:"error,omitempty"`
	Result     *core.Summary `json:"result,omitempty"`
}

// Metrics are the service's cumulative counters and gauges, served by
// GET /metrics.
type Metrics struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsEvicted   uint64 `json:"jobs_evicted"`
	// JobsPanicked counts jobs whose analysis panicked outside the
	// experiment supervisor and was contained by the job-level recover
	// (the job fails; the service keeps running).
	JobsPanicked uint64 `json:"jobs_panicked"`
	// PanicRetries counts experiment attempts that panicked and succeeded
	// on retry; ExperimentsPoisoned counts experiments quarantined after
	// panicking twice.
	PanicRetries        uint64 `json:"panic_retries"`
	ExperimentsPoisoned uint64 `json:"experiments_poisoned"`
	// WALDegradedJobs counts jobs whose write-ahead campaign log latched
	// off after a persistent write failure (the analysis still completed,
	// memory-only for the affected sections).
	WALDegradedJobs uint64 `json:"wal_degraded_jobs"`
	// HardenedJobs counts jobs that ran the protection loop
	// (Request.Harden); DetectorTriggers accumulates the hardened-campaign
	// sites whose injection was caught by a detector trap.
	HardenedJobs     uint64 `json:"hardened_jobs"`
	DetectorTriggers uint64 `json:"detector_triggers"`

	JobsQueued  int `json:"jobs_queued"`  // gauge
	JobsRunning int `json:"jobs_running"` // gauge
	QueueDepth  int `json:"queue_depth"`  // gauge; same as jobs_queued

	InjectionsRun uint64 `json:"injections_run"`
	SimInstrs     uint64 `json:"sim_instrs"`
	// CleanInstrs/FaultyInstrs split the replay engine's actual simulated
	// work (clean-prefix replay vs post-flip execution); SimInstrs above is
	// the accounted cost model and stays comparable across engine versions.
	CleanInstrs  uint64 `json:"clean_instrs"`
	FaultyInstrs uint64 `json:"faulty_instrs"`
	// ElidedExperiments counts experiments the static masking tier resolved
	// without simulation; BatchedExperiments counts experiments whose faulty
	// suffix ran inside a lockstep batch replica, and BatchDispatches the
	// dispatch groups behind them. BatchReplicasAvg is the mean batch width
	// (BatchedExperiments / BatchDispatches), computed at read time.
	ElidedExperiments  uint64  `json:"elided_experiments"`
	BatchedExperiments uint64  `json:"batched_experiments"`
	BatchDispatches    uint64  `json:"batch_dispatches"`
	BatchReplicasAvg   float64 `json:"batch_replicas_avg"`

	// StoreHits counts section instances resolved from the cache,
	// StoreMisses those that had to be injected.
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`

	// Result-cache counters (ostore.Stats). Hits and misses are lookups
	// against the cache (a hit means the section was analyzed by some
	// earlier job — with Options.Shared possibly in another process, by
	// another tenant); Sections counts the live sections; Evictions counts
	// sections dropped to enforce a tenant quota or the memory-only cache's
	// byte bound; Bytes and Segments describe a shared tier's on-disk
	// footprint and stay zero for the memory-only cache.
	SharedHits      uint64 `json:"shared_hits"`
	SharedMisses    uint64 `json:"shared_misses"`
	SharedBytes     int64  `json:"shared_bytes"`
	SharedEvictions uint64 `json:"shared_evictions"`
	// SharedPublishErrors counts finished sections the cache refused to
	// stage (a record the frame cannot carry): they were never cached.
	SharedPublishErrors uint64 `json:"shared_publish_errors"`
	SharedSections      int    `json:"shared_sections"`
	SharedSegments      int    `json:"shared_segments"`
	// SharedTenants maps tenant names to their shared-tier counters.
	SharedTenants map[string]ostore.TenantStats `json:"shared_tenants,omitempty"`
	// ClientDisconnects counts response writes abandoned because the
	// client went away (set by the HTTP layer, not the manager).
	ClientDisconnects uint64 `json:"client_disconnects,omitempty"`

	// Dist carries the distributed-campaign coordinator's counters
	// (shard throughput, leases, reassignments); nil when the service
	// runs campaigns locally.
	Dist *coord.Metrics `json:"dist,omitempty"`
}

// BenchmarkInfo describes one available benchmark, served by
// GET /v1/benchmarks.
type BenchmarkInfo struct {
	Name            string   `json:"name"`
	Variants        []string `json:"variants"`
	PilotInaccuracy float64  `json:"pilot_inaccuracy,omitempty"`
}

// BuildFunc constructs the program for one benchmark version.
type BuildFunc func(benchName, variant string) (*spec.Program, error)

// Options configure a Manager. The zero value gets sensible defaults.
type Options struct {
	// Workers is the number of jobs analyzed concurrently (default 1 —
	// one campaign already saturates GOMAXPROCS via injection workers).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 64).
	QueueDepth int
	// MaxRetained bounds the finished jobs kept for retrieval; the oldest
	// are evicted first (default 64).
	MaxRetained int
	// InjectWorkers is the default per-job injection parallelism
	// (0 = GOMAXPROCS).
	InjectWorkers int
	// Build constructs programs (default bench.Build). Tests substitute
	// small fixtures.
	Build BuildFunc
	// ListBenchmarks names the submittable benchmarks (default
	// bench.Names).
	ListBenchmarks func() []string
	// WALDir, when non-empty, gives every job a write-ahead campaign log
	// under this directory (core.Config.WALDir) with resume enabled: a job
	// re-POSTed over a crashed or cancelled campaign merges the logged
	// experiments and reports them as resumed_experiments.
	WALDir string
	// Deprecated: ignored. The result cache is one content-addressed
	// store bounded by bytes (Shared, or the memory-only default), not by
	// benchmarks.
	MaxCachedBenches int
	// ConfigHook, when non-nil, is applied to every job's core.Config
	// after the manager's own fields are set. Chaos tests use it to
	// install fault-injecting filesystems, shrunken retry policies, and
	// experiment panic hooks.
	ConfigHook func(*core.Config)
	// Coordinator, when non-nil, runs every job's injection campaigns
	// distributed: each section the cache cannot serve is sharded across
	// the coordinator's registered workers (core.Config.SectionInjector).
	Coordinator *coord.Coordinator
	// Shared, when non-nil, is the result cache: a cross-process outcome
	// tier every job looks sections up in and publishes freshly analyzed
	// ones to; the staged batch is flushed after every job. The Manager
	// does not own it; the caller closes it. When nil the Manager opens
	// (and closes) a memory-only ostore with the default 64 MiB bound.
	Shared *ostore.Store
	// MaxTenantActive bounds one tenant's queued-plus-running jobs;
	// submissions beyond it fail with ErrTenantQuota (HTTP 429). 0 means
	// unlimited.
	MaxTenantActive int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxRetained <= 0 {
		o.MaxRetained = 64
	}
	if o.Build == nil {
		o.Build = func(name, variant string) (*spec.Program, error) {
			return bench.Build(name, bench.Variant(variant))
		}
	}
	if o.ListBenchmarks == nil {
		o.ListBenchmarks = bench.Names
	}
	return o
}

// Sentinel errors mapped by the HTTP layer onto status codes.
var (
	ErrNotFound  = errors.New("service: no such job")
	ErrFinished  = errors.New("service: job already finished")
	ErrQueueFull = errors.New("service: queue full")
	ErrClosed    = errors.New("service: manager closed")
	// ErrInvalid wraps submit failures caused by the request itself — an
	// unknown benchmark, a malformed spec — and maps to 400; ErrInfra
	// wraps failures of the service's own machinery (an unwritable WAL
	// directory, shared-tier I/O) and maps to 500. ErrTenantQuota rejects
	// a tenant already at its active-job quota and maps to 429.
	ErrInvalid     = errors.New("service: invalid request")
	ErrInfra       = errors.New("service: infrastructure failure")
	ErrTenantQuota = errors.New("service: tenant active-job quota exceeded")
)

type job struct {
	id       string
	req      Request
	prog     *spec.Program
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	progress core.Progress
	err      string
	result   *core.Summary
	cancel   context.CancelFunc
	done     chan struct{}
	// watchers receive coalesced JobView snapshots on every state or
	// progress change (capacity-1 channels: a slow watcher sees the
	// latest view, never a backlog). All closed when the job finishes.
	watchers []chan JobView
}

// Manager owns the job queue, the worker pool, and the result cache.
type Manager struct {
	opts  Options
	cache *ostore.Store // opts.Shared, or a memory-only store the Manager owns
	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*job
	order  []string // submission order, for listing and FIFO eviction
	// adjust is each benchmark's §4.10 state. Benchmark names come from
	// Build, which rejects unknown ones, so the map stays small and is
	// never evicted.
	adjust   map[string]adjustState
	counters Metrics // cumulative fields only; gauges computed on demand
}

// adjustState is the §4.10 state one benchmark carries from job to job:
// the adjusted targets of its last full evaluation and the count of
// modifications analyzed since (the paper's m_adj).
type adjustState struct {
	targets map[store.TargetKey]float64
	mods    int
}

// New starts a Manager with opts.Workers job workers.
func New(opts Options) *Manager {
	m := &Manager{
		opts:   opts.withDefaults(),
		cache:  opts.Shared,
		jobs:   make(map[string]*job),
		adjust: make(map[string]adjustState),
	}
	if m.cache == nil {
		// A memory-only store reads no file and cannot fail to open.
		m.cache, _ = ostore.Open(ostore.Options{})
	}
	m.queue = make(chan *job, m.opts.QueueDepth)
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates req, builds its program, and enqueues a job, returning
// its snapshot. Failures are classified: request problems (unknown
// benchmark, malformed spec) wrap ErrInvalid, service problems (an
// unwritable WAL directory) wrap ErrInfra, a full queue is ErrQueueFull,
// a tenant at its active-job quota ErrTenantQuota, and a draining manager
// ErrClosed.
func (m *Manager) Submit(req Request) (JobView, error) {
	if err := req.validate(); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if req.Variant == "" {
		req.Variant = string(bench.None)
	}
	p, err := m.opts.Build(req.Bench, req.Variant)
	if err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Validate the spec before the job can reach the analyzer: a buffer
	// declared outside memory must fail this tenant's build step, not a
	// worker goroutine.
	if err := p.Validate(); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if dir := m.opts.WALDir; dir != "" {
		// Probe durability now: accepting a job whose campaign log cannot
		// be written is an infrastructure failure, not the client's fault.
		if err := checkWritable(dir); err != nil {
			return JobView{}, fmt.Errorf("%w: wal dir: %v", ErrInfra, err)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, ErrClosed
	}
	if q := m.opts.MaxTenantActive; q > 0 {
		active := 0
		for _, j := range m.jobs {
			if !j.state.Terminal() && j.req.tenant() == req.tenant() {
				active++
			}
		}
		if active >= q {
			return JobView{}, fmt.Errorf("%w: tenant %q has %d active jobs (max %d)", ErrTenantQuota, req.tenant(), active, q)
		}
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", m.nextID),
		req:     req,
		prog:    p,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		m.nextID--
		return JobView{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.counters.JobsSubmitted++
	return m.viewLocked(j), nil
}

// Get returns a snapshot of the job, or ErrNotFound.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return m.viewLocked(j), nil
}

// List returns snapshots of all retained jobs in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.viewLocked(m.jobs[id]))
	}
	return out
}

// Cancel stops a queued or running job. A queued job lands in
// StateCancelled immediately; a running one is cancelled asynchronously —
// its injection campaign observes the cancellation between experiments.
// Cancelling a finished job returns ErrFinished.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		m.finishLocked(j, StateCancelled)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return m.viewLocked(j), ErrFinished
	}
	return m.viewLocked(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// Watch subscribes to a job's state and progress changes. The returned
// channel immediately carries the current snapshot, then a fresh one on
// every change, coalesced: a slow consumer sees the latest view rather
// than a backlog. The channel is closed after the terminal snapshot is
// delivered (or when cancel is called). cancel is idempotent and must be
// called once the caller is done.
func (m *Manager) Watch(id string) (<-chan JobView, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan JobView, 1)
	ch <- m.viewLocked(j)
	if j.state.Terminal() {
		// Already over: the snapshot above is the terminal one.
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers = append(j.watchers, ch)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			for i, w := range j.watchers {
				if w == ch {
					j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
					close(ch)
					break
				}
			}
			// Not found: finishLocked already closed it.
		})
	}
	return ch, cancel, nil
}

// notifyLocked pushes the job's current view to every watcher,
// displacing any undelivered older view (the channels have capacity 1
// and every send happens under m.mu, so drain-then-send cannot race
// another producer).
func (m *Manager) notifyLocked(j *job) {
	if len(j.watchers) == 0 {
		return
	}
	v := m.viewLocked(j)
	for _, ch := range j.watchers {
		select {
		case ch <- v:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- v
		}
	}
}

// Metrics returns the current counters and gauges.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := m.counters
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			mt.JobsQueued++
		case StateRunning:
			mt.JobsRunning++
		}
	}
	mt.QueueDepth = mt.JobsQueued
	if mt.BatchDispatches > 0 {
		mt.BatchReplicasAvg = float64(mt.BatchedExperiments) / float64(mt.BatchDispatches)
	}
	st := m.cache.Stats()
	mt.SharedHits = st.Hits
	mt.SharedMisses = st.Misses
	mt.SharedBytes = st.Bytes
	mt.SharedEvictions = st.Evictions
	mt.SharedPublishErrors = st.PublishErrs
	mt.SharedSections = st.Sections
	mt.SharedSegments = st.Segments
	mt.SharedTenants = st.Tenants
	if m.opts.Coordinator != nil {
		d := m.opts.Coordinator.Metrics()
		mt.Dist = &d
	}
	return mt
}

// Benchmarks describes the submittable benchmarks.
func (m *Manager) Benchmarks() []BenchmarkInfo {
	names := m.opts.ListBenchmarks()
	out := make([]BenchmarkInfo, 0, len(names))
	for _, n := range names {
		info := BenchmarkInfo{
			Name:            n,
			PilotInaccuracy: bench.PilotInaccuracies[n],
		}
		for _, v := range bench.Variants {
			info.Variants = append(info.Variants, string(v))
		}
		out = append(out, info)
	}
	return out
}

// Close drains the service: no new submissions, queued jobs are
// cancelled, and running jobs are given until ctx is done to finish
// before being hard-cancelled. Returns ctx.Err() if the drain timed out.
// A cache the Manager opened itself is closed once every job has ended;
// Options.Shared is left to its owner.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, id := range m.order {
		if j := m.jobs[id]; j.state == StateQueued {
			m.finishLocked(j, StateCancelled)
		}
	}
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		if m.cache != m.opts.Shared {
			m.cache.Close()
		}
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		m.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in the queue
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	// The job's store starts empty in front of the cache, attributed to
	// the job's tenant; the tier counts this job's lookups for its summary.
	tier := m.cache.AsTier(j.req.tenant())
	st := store.New().WithTier(tier)
	if adj, ok := m.adjust[j.req.Bench]; ok {
		st.AdjustedTargets = maps.Clone(adj.targets)
		st.ModsSinceAdjust = adj.mods
	}
	m.notifyLocked(j)
	m.mu.Unlock()
	defer cancel()

	r, evals, h, err, panicked := m.analyze(ctx, j, st)

	// Publish this job's staged sections before reporting it finished: the
	// next lookup must see them. Sections completed before a cancellation
	// are valid (their keys are content hashes), so a cancelled job still
	// warms the cache for its retry. A failed flush keeps the batch staged
	// (counted in the cache's stats), never fails the job.
	_ = m.cache.Flush()

	m.mu.Lock()
	defer m.mu.Unlock()
	// Fold the job's §4.10 state into the benchmark's key by key: a job
	// that ran alongside this one may have adjusted targets for another
	// ε. m_adj takes this job's count.
	adj := m.adjust[j.req.Bench]
	if adj.targets == nil {
		adj.targets = make(map[store.TargetKey]float64)
	}
	maps.Copy(adj.targets, st.AdjustedTargets)
	adj.mods = st.ModsSinceAdjust
	m.adjust[j.req.Bench] = adj
	j.cancel = nil
	switch {
	case err == nil:
		s := r.Summarize(j.req.Epsilon, evals)
		s.Bench = j.req.Bench
		s.Variant = j.req.Variant
		if h != nil {
			h.ApplyTo(s)
			// A disassembly failure loses only the retrievable text, never
			// the measured figures.
			s.HardenedAsm, _ = h.Asm()
			m.counters.HardenedJobs++
			m.counters.DetectorTriggers += uint64(h.DetectorTriggers)
		}
		s.SharedHits = tier.Hits()
		s.SharedMisses = tier.Misses()
		j.result = s
		if n := len(s.Poisoned); n > 0 {
			// The analysis completed (poisoned classes carry the
			// conservative fill), but its quality is compromised: fail the
			// job with diagnostics while retaining the summary so the
			// poison records are inspectable through the API.
			j.err = fmt.Sprintf("service: %d experiment(s) quarantined after repeated panics; outcomes filled conservatively (see result.poisoned)", n)
			m.finishLocked(j, StateFailed)
		} else {
			m.finishLocked(j, StateDone)
		}
	case errors.Is(err, context.Canceled):
		m.finishLocked(j, StateCancelled)
	default:
		j.err = err.Error()
		m.finishLocked(j, StateFailed)
	}
	if panicked {
		m.counters.JobsPanicked++
	}
	m.counters.InjectionsRun += uint64(j.progress.Experiments)
	m.counters.SimInstrs += j.progress.SimInstrs
	m.counters.CleanInstrs += j.progress.CleanInstrs
	m.counters.FaultyInstrs += j.progress.FaultyInstrs
	m.counters.ElidedExperiments += uint64(j.progress.ElidedExperiments)
	m.counters.BatchedExperiments += uint64(j.progress.BatchExperiments)
	m.counters.BatchDispatches += uint64(j.progress.Batches)
	m.counters.StoreHits += uint64(j.progress.Reused)
	m.counters.StoreMisses += uint64(j.progress.Injected)
	if r != nil {
		m.counters.PanicRetries += uint64(r.PanicRetries)
		m.counters.ExperimentsPoisoned += uint64(len(r.Poisoned))
		if r.WALDegraded {
			m.counters.WALDegradedJobs++
		}
	}
	if r != nil && len(evals) > 0 {
		m.counters.InjectionsRun += uint64(r.BaseInject.Experiments)
		m.counters.SimInstrs += r.BaseCost()
		m.counters.CleanInstrs += r.BaseInject.CleanInstrs
		m.counters.FaultyInstrs += r.BaseInject.FaultyInstrs
	}
}

// analyze runs one job's full analysis under a job-level panic guard: the
// last line of defense behind the per-experiment supervisor. Whatever
// escapes — a harness bug in trace recording, composition, evaluation —
// fails this job with the captured stack instead of killing the worker
// goroutine (and with it the process).
func (m *Manager) analyze(ctx context.Context, j *job, st *store.Store) (r *core.Result, evals []core.TargetEval, h *core.HardenEval, err error, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			r, evals, h = nil, nil, nil
			err = fmt.Errorf("service: job %s panicked: %v\n%s", j.id, rec, debug.Stack())
			panicked = true
		}
	}()

	a := core.NewAnalyzer(m.configFor(j.req))
	a.Store = st
	a.Progress = func(p core.Progress) {
		m.mu.Lock()
		j.progress = p
		m.notifyLocked(j)
		m.mu.Unlock()
	}
	if j.req.Modified {
		a.NoteModification()
	}

	r, err = a.AnalyzeContext(ctx, j.prog)
	if err == nil && j.req.Baseline {
		if err = a.RunBaselineContext(ctx, r); err == nil {
			evals, err = a.Evaluate(r, j.req.Epsilon, j.req.Modified)
		}
	}
	if err == nil && j.req.Harden {
		target := j.req.HardenTarget
		if target <= 0 {
			target = 0.95
		}
		h, err = a.Harden(ctx, r, j.req.Epsilon, target)
	}
	return r, evals, h, err, false
}

// finishLocked moves j to a terminal state, bumps the matching counter,
// wakes waiters, delivers the terminal snapshot to watchers, and applies
// retention.
func (m *Manager) finishLocked(j *job, s State) {
	j.state = s
	j.finished = time.Now()
	switch s {
	case StateDone:
		m.counters.JobsDone++
	case StateFailed:
		m.counters.JobsFailed++
	case StateCancelled:
		m.counters.JobsCancelled++
	}
	close(j.done)
	m.notifyLocked(j)
	for _, ch := range j.watchers {
		close(ch)
	}
	j.watchers = nil
	m.evictLocked()
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
func (m *Manager) evictLocked() {
	finished := 0
	for _, id := range m.order {
		if m.jobs[id].state.Terminal() {
			finished++
		}
	}
	for i := 0; finished > m.opts.MaxRetained && i < len(m.order); {
		id := m.order[i]
		if !m.jobs[id].state.Terminal() {
			i++
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		finished--
		m.counters.JobsEvicted++
	}
}

func (m *Manager) configFor(req Request) core.Config {
	cfg := core.DefaultConfig()
	if len(req.Targets) > 0 {
		cfg.Targets = append([]float64(nil), req.Targets...)
	}
	cfg.Workers = req.Workers
	if cfg.Workers <= 0 {
		cfg.Workers = m.opts.InjectWorkers
	}
	if pi, ok := bench.PilotInaccuracies[req.Bench]; ok {
		cfg.PilotInaccuracy = pi
	}
	if m.opts.WALDir != "" {
		// Always resume: the WAL segments are content-validated against the
		// trace and config fingerprints, so stale state is discarded and a
		// re-POSTed job over a crashed campaign merges what survived.
		cfg.WALDir = m.opts.WALDir
		cfg.Resume = true
	}
	if m.opts.Coordinator != nil {
		cfg.SectionInjector = m.opts.Coordinator.SectionInjector(req.Bench, req.Variant)
	}
	if m.opts.ConfigHook != nil {
		m.opts.ConfigHook(&cfg)
	}
	return cfg
}

// Readiness reports whether the service can usefully accept a new job:
// nil when ready, otherwise the reason it is not. The service is unready
// when it is draining, when the submission queue is saturated (a POST
// would be rejected with 503 anyway), or when the WAL directory cannot be
// written (every accepted job would immediately lose its durability).
// Liveness is a separate, weaker property: a saturated or degraded
// service is still alive.
func (m *Manager) Readiness() error {
	m.mu.Lock()
	closed := m.closed
	queued := len(m.queue)
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if queued >= m.opts.QueueDepth {
		return ErrQueueFull
	}
	if dir := m.opts.WALDir; dir != "" {
		if err := checkWritable(dir); err != nil {
			return fmt.Errorf("service: wal dir: %w", err)
		}
	}
	return nil
}

// checkWritable probes that dir exists (creating it if needed) and that a
// file can be created in it.
func checkWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".readyz-*")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}

func (m *Manager) viewLocked(j *job) JobView {
	v := JobView{
		ID:        j.id,
		Bench:     j.req.Bench,
		Variant:   j.req.Variant,
		State:     j.state,
		CreatedAt: j.created,
		Progress:  j.progress,
		Error:     j.err,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}
