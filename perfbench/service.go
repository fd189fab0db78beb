package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/core"
	"fastflip/internal/ostore"
	"fastflip/internal/server"
	"fastflip/internal/service"
)

// The service workload streams jobs into server.New(service.New(...)) over
// loopback. Every round starts a fresh service with a fresh on-disk shared
// tier, so rounds do identical work: first touches publish to the tier,
// and the one-benchmark store cache makes switching benchmarks read back
// through it. Two closed-loop clients each own their benchmarks, so a
// benchmark's jobs arrive in its client's order whatever the timing.

// mixVariants are the versions of each benchmark the stream submits.
// lud's Large version is left out: under the paper's default reuse key it
// reuses sections whose undeclared state differs, so its outcome depends on
// which lud version the tier saw first, and no golden digest can check it.
var mixVariants = map[string][]bench.Variant{
	"lud":      {bench.None, bench.Small},
	"sha2":     bench.Variants,
	"bscholes": bench.Variants,
}

// hardenMix names the benchmarks whose versions also get a harden job.
// lud's hardened re-injection takes several seconds, most of a round, so
// the protection loop is exercised on sha2 and bscholes only. Their plain
// jobs answer from the cached store in tens of milliseconds, so each
// version is submitted once, by one tenant, and its harden job by the
// other: that keeps fast jobs a minority of the stream, and the latency
// median inside the cluster of jobs that analyze rather than in the gap
// between the two clusters, where it would jump from run to run.
var hardenMix = map[string]bool{"sha2": true, "bscholes": true}

// clientBenches assigns every benchmark of the mix to exactly one client.
var clientBenches = [][]string{{"lud"}, {"sha2", "bscholes"}}

var tenants = []string{"alpha", "beta"}

// svcJob is one job of the stream.
type svcJob struct {
	Key string // golden key: bench/variant, with "+harden" for harden jobs
	Req service.Request
}

// benchJobs lists one benchmark's jobs in the order a developer submits
// them: versions in evaluation order, each version's plain job before its
// harden job. A benchmark outside hardenMix gets every version once per
// tenant; one in it gets every version once and a harden job by the other
// tenant. The seed picks which tenant goes first at each version.
func benchJobs(b string, rng *rand.Rand) []svcJob {
	var jobs []svcJob
	for _, v := range mixVariants[b] {
		first := rng.Intn(len(tenants))
		plain := service.Request{Bench: b, Variant: string(v), Tenant: tenants[first], Modified: v != bench.None}
		second := plain
		second.Tenant = tenants[(first+1)%len(tenants)]
		key := b + "/" + string(v)
		jobs = append(jobs, svcJob{Key: key, Req: plain})
		if hardenMix[b] {
			second.Harden, second.HardenTarget = true, hardenTarget
			key += "+harden"
		}
		jobs = append(jobs, svcJob{Key: key, Req: second})
	}
	return jobs
}

// clientJobs is one client's job list: its benchmarks' lists, each kept in
// order, merged in a seeded interleaving.
func clientJobs(benches []string, rng *rand.Rand) []svcJob {
	var lists [][]svcJob
	total := 0
	for _, b := range benches {
		l := benchJobs(b, rng)
		lists = append(lists, l)
		total += len(l)
	}
	var jobs []svcJob
	for len(jobs) < total {
		// Draw the next job's benchmark with probability proportional to
		// the jobs it has left, so every interleaving is equally likely.
		k := rng.Intn(total - len(jobs))
		for i, l := range lists {
			if k < len(l) {
				jobs = append(jobs, l[0])
				lists[i] = l[1:]
				break
			}
			k -= len(l)
		}
	}
	return jobs
}

// hardenTarget is the protection target of the stream's harden jobs.
const hardenTarget = 0.95

// jobSample is what the client observed for one job.
type jobSample struct {
	Key                         string
	Latency                     time.Duration // POST sent to terminal view received
	QueueWait, Run, Lifetime    time.Duration // from the service's timestamps
	ResultBytes                 int
	Summary                     *core.Summary
	Err                         error
	sent, created, started, end time.Time
	received                    time.Time
}

// round is one service start, job stream and shutdown.
type round struct {
	Wall, CPU time.Duration
	Jobs      []jobSample
	Counters  Counters
	Tier      ostore.Stats
	GC        gcSample
}

// streamOrder is every client's job list for the run. Each benchmark's
// jobs keep their submission order, so the work a job does depends on the
// jobs before it only through the seed's interleaving and tenants, not on
// a shuffle that differs from round to round; every round of a run
// replays the same order.
func streamOrder(rng *rand.Rand) [][]svcJob {
	orders := make([][]svcJob, len(clientBenches))
	for c, benches := range clientBenches {
		orders[c] = clientJobs(benches, rng)
	}
	return orders
}

// svcEnv is a running service on loopback.
type svcEnv struct {
	dir    string
	shared *ostore.Store
	mgr    *service.Manager
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startService(workDir string) (*svcEnv, error) {
	dir, err := os.MkdirTemp(workDir, "tier-")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{dir: dir}
	if e.shared, err = ostore.Open(ostore.Options{Dir: dir, FS: newTierFS()}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.mgr = service.New(service.Options{
		Workers:          1,
		InjectWorkers:    injectWorkers,
		MaxCachedBenches: 1,
		MaxRetained:      1024,
		Shared:           e.shared,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, err
	}
	e.hs = &http.Server{Handler: server.New(e.mgr, log.New(io.Discard, "", 0))}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	resp, err := e.client.Get(e.base + "/healthz")
	if err != nil {
		e.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return e, nil
}

// stop shuts the server and manager down, waits for both, and removes the
// tier directory.
func (e *svcEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if e.hs != nil {
		_ = e.hs.Shutdown(ctx) // the listener is private; nothing is lost
		<-e.served
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.mgr != nil {
		_ = e.mgr.Close(ctx) // every job has finished by now
	}
	if e.shared != nil {
		_ = e.shared.Close()
	}
	os.RemoveAll(e.dir)
}

// do submits one job and long-polls it to a terminal state.
func (e *svcEnv) do(j svcJob) jobSample {
	s := jobSample{Key: j.Key, sent: time.Now()}
	body, _ := json.Marshal(j.Req) // a plain struct always encodes
	resp, err := e.client.Post(e.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.Err = err
		return s
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("submit %s: %s", j.Key, resp.Status)
	}
	for err == nil && !view.State.Terminal() {
		var raw []byte
		resp, err = e.client.Get(e.base + "/v1/jobs/" + view.ID + "?wait=120s")
		if err != nil {
			break
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.ResultBytes = len(raw)
			err = json.Unmarshal(raw, &view)
		}
	}
	s.received = time.Now()
	s.Latency = s.received.Sub(s.sent)
	if err != nil {
		s.Err = err
		return s
	}
	if view.State != service.StateDone || view.Result == nil {
		s.Err = fmt.Errorf("job %s (%s) ended %s: %s", view.ID, j.Key, view.State, view.Error)
		return s
	}
	s.Summary = view.Result
	s.created, s.end = view.CreatedAt, *view.FinishedAt
	s.started = s.created
	if view.StartedAt != nil {
		s.started = *view.StartedAt
	}
	s.QueueWait = s.started.Sub(s.created)
	s.Run = s.end.Sub(s.started)
	s.Lifetime = s.end.Sub(s.created)
	return s
}

// runRound starts a service, drives every client's job list to
// completion, checks each job against the golden digests, and stops the
// service. The round's wall time spans the job stream only.
func runRound(workDir string, orders [][]svcJob, g *Golden) (round, error) {
	var r round
	runtime.GC()
	e, err := startService(workDir)
	if err != nil {
		return r, err
	}
	defer e.stop()

	gc0, cpu0, start := readGC(), cpuTime(), time.Now()
	results := make([][]jobSample, len(orders))
	var wg sync.WaitGroup
	for c := range orders {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range orders[c] {
				results[c] = append(results[c], e.do(j))
			}
		}(c)
	}
	wg.Wait()
	r.Wall, r.CPU = time.Since(start), cpuTime()-cpu0
	gc1 := readGC()
	r.GC = gcSample{gcs: gc1.gcs - gc0.gcs, pause: gc1.pause - gc0.pause, alloc: gc1.alloc - gc0.alloc}
	r.Tier = e.shared.Stats()

	for _, rs := range results {
		for _, s := range rs {
			if s.Err == nil {
				s.Err = g.checkJob(s.Key, s.Summary)
			}
			if s.Err != nil {
				logf("FAIL %v", s.Err)
			}
			if sum := s.Summary; sum != nil {
				r.Counters.add(Counters{
					Experiments:  sum.FFExperiments - sum.ElidedExperiments - sum.ResumedExperiments,
					SimInstrs:    sum.FFSimInstrs,
					CleanInstrs:  sum.FFCleanInstrs,
					FaultyInstrs: sum.FFFaultyInstrs,
					Elided:       sum.ElidedExperiments,
					Reused:       sum.Reused,
					Instances:    sum.Instances,
				})
			}
			r.Jobs = append(r.Jobs, s)
		}
	}
	return r, nil
}

// mixJobs lists every job of the mix once per golden key.
func mixJobs() []svcJob {
	var out []svcJob
	seen := map[string]bool{}
	for _, b := range []string{"lud", "sha2", "bscholes"} {
		for _, j := range benchJobs(b, rand.New(rand.NewSource(0))) {
			if !seen[j.Key] {
				seen[j.Key] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// hardenJobs lists the distinct harden jobs of the mix.
func hardenJobs() []svcJob {
	var out []svcJob
	for _, j := range mixJobs() {
		if j.Req.Harden {
			out = append(out, j)
		}
	}
	return out
}

// goldenJob analyzes one distinct job cold through core, with the
// configuration the service gives it, and digests its summary.
func goldenJob(j svcJob) (GoldenJob, error) {
	p, err := bench.Build(j.Req.Bench, bench.Variant(j.Req.Variant))
	if err != nil {
		return GoldenJob{}, err
	}
	a := core.NewAnalyzer(analysisConfig(j.Req.Bench))
	r, err := a.Analyze(p)
	if err != nil {
		return GoldenJob{}, err
	}
	s := r.Summarize(0, nil)
	if j.Req.Harden {
		h, err := a.Harden(context.Background(), r, 0, j.Req.HardenTarget)
		if err != nil {
			return GoldenJob{}, err
		}
		h.ApplyTo(s)
	}
	return GoldenJob{Digest: summaryDigest(s), ResidualSDC: s.ResidualSDC}, nil
}

// serviceSetups is the number of timed set-ups before the stream.
const serviceSetups = 5

// setupJob is the job each set-up answers: a cold analysis of lud's
// original, about half a second of work.
var setupJob = svcJob{Key: "lud/none", Req: service.Request{Bench: "lud", Variant: string(bench.None), Tenant: tenants[0]}}

// setupService is one set-up: start a service on a fresh tier and answer
// setupJob through it; the answer is checked and the service stopped
// outside the timing. A bare start takes under a millisecond, too short to
// time steadily; the job makes the set-up the real work of bringing a
// service to its first answer, and warms the process before the stream.
func setupService(workDir string, g *Golden) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	e, err := startService(workDir)
	if err != nil {
		return 0, err
	}
	s := e.do(setupJob)
	d := time.Since(t0)
	e.stop()
	if s.Err == nil {
		s.Err = g.checkJob(s.Key, s.Summary)
	}
	return d, s.Err
}

// streamSeconds is the time of the job stream: the sum over job positions
// of each job's service run time at its median across rounds, plus the
// median time the analysis worker was idle (the stream's wall time minus
// its jobs' run times). With one analysis worker the runs never overlap,
// so a round's wall time is exactly that sum; taking medians per job lets
// a slow outlier move only its own job, as listSeconds does for passes.
func streamSeconds(rounds []round) float64 {
	total := 0.0
	idle := make([]float64, len(rounds))
	for i, r := range rounds {
		idle[i] = r.Wall.Seconds()
		for _, s := range r.Jobs {
			idle[i] -= s.Run.Seconds()
		}
	}
	for k := range rounds[0].Jobs {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r.Jobs[k].Run.Seconds())
		}
		total += median(xs)
	}
	return total + median(idle)
}

// runService runs whole rounds of the seed's job order until the
// measuring time is spent and at least minPercentileSamples jobs have
// completed. Every round does the same work, so its counters must equal
// the first round's. Traced, it alternates untraced and traced rounds,
// then replays every distinct harden job through the layer calls.
func (b *benchRun) runService() (result, error) {
	res := result{}
	var setups []float64
	for i := 0; i < serviceSetups; i++ {
		d, err := setupService(b.outDir, b.golden)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	var plain, traced []round
	var lat []float64
	orders := streamOrder(b.rng)
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < b.dur || len(lat) < minPercentileSamples {
		r, err := runRound(b.outDir, orders, b.golden)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)
		for _, s := range r.Jobs {
			lat = append(lat, s.Latency.Seconds())
		}
		if b.rec != nil {
			t, err := runRound(b.outDir, orders, b.golden)
			if err != nil {
				return result{}, err
			}
			traced = append(traced, t)
		}
	}
	all := append(append([]round(nil), plain...), traced...)
	for _, r := range all {
		res.Attempted += len(r.Jobs)
		for _, s := range r.Jobs {
			if s.Err != nil {
				res.Failed++
			}
		}
		if r.Counters != all[0].Counters {
			res.Failed++
			logf("FAIL round counters %+v differ from the first round %+v", r.Counters, all[0].Counters)
		}
	}
	logf("perfbench: %d rounds of %d jobs", len(all), len(all[0].Jobs))
	if b.rec == nil {
		var walls, cpus []float64
		for _, r := range plain {
			walls = append(walls, r.Wall.Seconds())
			cpus = append(cpus, r.CPU.Seconds())
		}
		res.Metrics = map[string]metric{}
		logf("perfbench: set-up seconds %.3f; round seconds %.3f, CPU seconds %.3f", setups, walls, cpus)
		if err := endToEnd(res.Metrics, median(setups), streamSeconds(plain), median(cpus), lat, plain[0].Counters); err != nil {
			return result{}, err
		}
	} else {
		metrics, failed, err := b.traceService(plain, traced)
		if err != nil {
			return result{}, err
		}
		res.Metrics = metrics
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceService records the traced rounds' job spans from the client's
// clock and the service's own timestamps, then replays the distinct
// harden jobs through the mirror for the layers the service runs inside.
// It returns the per-layer metrics and the number of replays whose
// residual differs from the golden one.
func (b *benchRun) traceService(plain, traced []round) (map[string]metric, int, error) {
	var queue, run, overhead, size, pw, tw []float64
	var gcs []gcSample
	for i, r := range traced {
		for _, s := range r.Jobs {
			if s.Summary == nil {
				continue
			}
			root := b.rec.Add(s.Key, "server.job", 0, s.sent, s.received)
			b.rec.Add(s.Key, "service.queue", root, s.created, s.started)
			b.rec.Add(s.Key, "service.run", root, s.started, s.end)
			queue = append(queue, s.QueueWait.Seconds())
			run = append(run, s.Run.Seconds())
			overhead = append(overhead, (s.Latency - s.Lifetime).Seconds())
			size = append(size, float64(s.ResultBytes))
		}
		pw, tw = append(pw, plain[i].Wall.Seconds()), append(tw, r.Wall.Seconds())
		gcs = append(gcs, plain[i].GC)
	}

	m := newMirror(b.rec)
	failed := 0
	for _, j := range hardenJobs() {
		p, err := bench.Build(j.Req.Bench, bench.Variant(j.Req.Variant))
		if err != nil {
			return nil, 0, err
		}
		residual, err := m.harden(j.Key, p, analysisConfig(j.Req.Bench), j.Req.HardenTarget)
		if err == nil && residual != b.golden.Jobs[j.Key].ResidualSDC {
			err = fmt.Errorf("%s: traced residual SDC %d, want %d", j.Key, residual, b.golden.Jobs[j.Key].ResidualSDC)
		}
		if err != nil {
			failed++
			logf("FAIL %v", err)
		}
	}
	out := layerMetrics(b.rec.Spans(), m.lc, 1)
	c := traced[0].Counters
	out["store.hit_ratio"] = metric{float64(c.Reused) / float64(c.Instances), "ratio"}
	out["service.queue_wait_s"] = metric{median(queue), "s"}
	out["service.run_s"] = metric{median(run), "s"}
	out["server.overhead_s"] = metric{median(overhead), "s"}
	out["server.result_bytes"] = metric{median(size), "bytes"}
	tier := traced[0].Tier
	out["ostore.shared_hits"] = metric{float64(tier.Hits), "count"}
	out["ostore.shared_misses"] = metric{float64(tier.Misses), "count"}
	out["ostore.bytes"] = metric{float64(tier.Bytes), "bytes"}
	setRuntime(out, gcs)
	out["tracing.overhead_ratio"] = metric{median(tw)/median(pw) - 1, "ratio"}
	layerShares(b.rec.Spans())
	return out, failed, nil
}
