package coord

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/core"
)

// Environment plumbing for the worker subprocess: the file it writes its
// listen URL to, and its worker identity.
const (
	workerEnvAddrFile = "FASTFLIP_DIST_WORKER_ADDRFILE"
	workerEnvID       = "FASTFLIP_DIST_WORKER_ID"
)

// TestDistWorkerProcess is the subprocess body of the kill e2e: a real
// ffserved-style worker process serving shards until the parent kills
// it. Skipped in normal runs.
func TestDistWorkerProcess(t *testing.T) {
	addrFile := os.Getenv(workerEnvAddrFile)
	if addrFile == "" {
		t.Skip("subprocess helper")
	}
	w := NewWorker(WorkerOptions{ID: os.Getenv(workerEnvID), Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The URL is written atomically (rename) so the parent never reads a
	// half-written address.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	_ = http.Serve(ln, w) // runs until SIGKILL
}

// spawnWorker launches one worker subprocess and returns its base URL and
// process handle.
func spawnWorker(t *testing.T, dir, id string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(dir, id+".addr")
	child := exec.Command(os.Args[0], "-test.run", "^TestDistWorkerProcess$", "-test.v")
	child.Env = append(os.Environ(), workerEnvAddrFile+"="+addrFile, workerEnvID+"="+id)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		child.Process.Kill()
		child.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if url, err := os.ReadFile(addrFile); err == nil {
			return child, string(url)
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never published its address", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedFFTSmallWorkerKilled is the distributed kill e2e on
// fft-small: two real worker processes run the campaign, one is SIGKILLed
// mid-shard, and the reassigned campaign's summary must be byte-identical
// to an uninterrupted single-process run.
func TestDistributedFFTSmallWorkerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaign across processes")
	}

	cfg := core.DefaultConfig()
	p := bench.MustBuild("fft", bench.Small)

	// Reference: uninterrupted, local, no fleet.
	rRef, err := core.NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := summaryOf(t, rRef, cfg, false)

	dir := t.TempDir()
	victim, url1 := spawnWorker(t, dir, "victim")
	_, url2 := spawnWorker(t, dir, "survivor")

	c := NewCoordinator(Options{Heartbeat: -1, Logf: t.Logf})
	defer c.Close()
	for _, url := range []string{url1, url2} {
		if _, err := c.AddWorker(url); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		r   *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		cfg := cfg
		cfg.SectionInjector = c.SectionInjector("fft", string(bench.Small))
		r, err := core.NewAnalyzer(cfg).Analyze(p)
		done <- outcome{r, err}
	}()

	// SIGKILL the victim once records are flowing — mid-shard, with leases
	// in flight. No deferred cleanup runs in the child.
	killDeadline := time.Now().Add(120 * time.Second)
	for c.Metrics().RecordsStreamed < 8 {
		select {
		case o := <-done:
			t.Fatalf("campaign finished before the kill (records=%d, err=%v)", c.Metrics().RecordsStreamed, o.err)
		default:
		}
		if time.Now().After(killDeadline) {
			t.Fatal("no records streamed within the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.Process.Kill()
	victim.Wait()

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	sum := summaryOf(t, o.r, cfg, true)
	if !reflect.DeepEqual(sumRef, sum) {
		t.Errorf("summary after worker kill differs from uninterrupted local run:\nlocal: %+v\ndist:  %+v", sumRef, sum)
	}

	met := c.Metrics()
	if o.r.RemoteExperiments == 0 || met.RecordsStreamed == 0 || met.ShardsDispatched == 0 {
		t.Errorf("shard metrics empty: %+v", met)
	}
	if met.Reassignments == 0 {
		t.Errorf("killed worker produced no reassignment: %+v", met)
	}
	live := 0
	for _, w := range c.Workers() {
		if w.Live {
			live++
		}
	}
	if live != 1 {
		t.Errorf("%d live workers after the kill, want 1", live)
	}
	t.Logf("kill e2e: remote=%d fallback=%d reassignments=%d duplicates=%d straggler=%s",
		met.RemoteExperiments, met.LocalFallbackExperiments, met.Reassignments, met.DuplicateRecords,
		time.Duration(met.StragglerNanos))
}

// TestDistributedFFTSmallWorkerStalled is the straggler-chaos e2e on
// fft-small: two workers run the campaign, one freezes mid-stream on its
// first lease and never recovers, and the scheduler must hedge the
// stalled remainder to the healthy worker and finish — byte-identical to
// an uninterrupted local run, with the hedge's duplicated delivery
// counted instead of double-merged, and without waiting out the stall.
func TestDistributedFFTSmallWorkerStalled(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaign")
	}

	cfg := core.DefaultConfig()
	p := bench.MustBuild("fft", bench.Small)

	rRef, err := core.NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := summaryOf(t, rRef, cfg, false)

	var mu sync.Mutex
	stalled := false
	plan := func(a ShardAttempt) ShardFault {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case a.Hedge:
			return ShardFault{Duplicate: true}
		case !stalled:
			stalled = true
			return ShardFault{StallAfterRecords: 8}
		}
		return ShardFault{}
	}

	c := NewCoordinator(Options{
		Heartbeat:      -1,
		Fault:          plan,
		StragglerFloor: 100 * time.Millisecond,
		Logf:           t.Logf,
	})
	defer c.Close()
	for _, id := range []string{"stall", "rescue"} {
		srv := httptest.NewServer(NewWorker(WorkerOptions{ID: id, Workers: 1}))
		t.Cleanup(srv.Close)
		if _, err := c.AddWorker(srv.URL); err != nil {
			t.Fatal(err)
		}
	}

	// The stalled stream never ends on its own: the campaign finishing at
	// all (under the suite deadline) is the hedging claim. A generous
	// watchdog turns a wedged scheduler into a failure, not a timeout.
	type outcome struct {
		r   *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		cfg := cfg
		cfg.SectionInjector = c.SectionInjector("fft", string(bench.Small))
		r, err := core.NewAnalyzer(cfg).Analyze(p)
		done <- outcome{r, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("campaign did not complete while a worker was stalled")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}

	sum := summaryOf(t, o.r, cfg, true)
	if !reflect.DeepEqual(sumRef, sum) {
		t.Errorf("summary with stalled worker differs from uninterrupted local run:\nlocal: %+v\ndist:  %+v", sumRef, sum)
	}
	met := c.Metrics()
	if met.HedgedDispatches == 0 || o.r.HedgedDispatches == 0 {
		t.Errorf("stalled worker produced no hedge: met=%d result=%d", met.HedgedDispatches, o.r.HedgedDispatches)
	}
	if met.DuplicateRecords == 0 {
		t.Errorf("duplicated hedge delivery produced no counted duplicates: %+v", met)
	}
	t.Logf("stall e2e: remote=%d fallback=%d hedged=%d releases=%d duplicates=%d p95=%s",
		met.RemoteExperiments, met.LocalFallbackExperiments, met.HedgedDispatches, met.Releases,
		met.DuplicateRecords, time.Duration(met.ShardP95Nanos))
}

// TestWorkerHTTPSurface drives the worker handler exactly as a remote
// coordinator's HTTP client would: health probe, malformed lease, and an
// out-of-range instance.
func TestWorkerHTTPSurface(t *testing.T) {
	srv := startWorker(t, "w-api")
	client := srv.Client()

	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", "{", http.StatusBadRequest},
		{"badInstance", `{"bench":"pipe","variant":"none","instance":99}`, http.StatusBadRequest},
		{"staleFingerprint", `{"bench":"pipe","variant":"none","instance":0,"fingerprint":12345}`, http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(srv.URL+"/v1/shard", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
}
