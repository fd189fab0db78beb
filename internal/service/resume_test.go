package service

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastflip/internal/core"
)

// waitWALBytes polls until the campaign directory under walDir holds more
// than min bytes of segment data, i.e. experiments are durably logged.
func waitWALBytes(t *testing.T, walDir string, min int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		segs, _ := filepath.Glob(filepath.Join(walDir, "*", "*.wal"))
		var total int64
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				total += fi.Size()
			}
		}
		if total > min {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no WAL records appeared within the deadline")
}

// TestJobResumeAfterCancelledCampaign cancels a job mid-campaign and
// re-POSTs it: the retry must merge the experiments the write-ahead log
// captured and report them as resumed_experiments, re-executing only the
// remainder.
func TestJobResumeAfterCancelledCampaign(t *testing.T) {
	opts := testOptions()
	opts.WALDir = t.TempDir()
	m := New(opts)
	defer closeManager(t, m)

	v, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	// The spin benchmark has a single section, so job progress stays at
	// zero until it completes — watch the log itself instead.
	waitWALBytes(t, opts.WALDir, 8192)
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, v.ID); got.State != StateCancelled {
		t.Fatalf("cancelled job ended in state %s", got.State)
	}

	// Re-POST over the crashed campaign. The single section was never
	// completed, so nothing is in the store cache — everything recovered
	// comes from the WAL.
	v2, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, v2.ID)
	if got.State != StateDone {
		t.Fatalf("retry ended in state %s (%s)", got.State, got.Error)
	}
	if got.Result == nil {
		t.Fatal("retry has no result")
	}
	if got.Result.ResumedExperiments == 0 {
		t.Error("retry reports resumed_experiments = 0; the WAL was not merged")
	}
	if got.Progress.ResumedExperiments != got.Result.ResumedExperiments {
		t.Errorf("progress reports %d resumed experiments, summary %d",
			got.Progress.ResumedExperiments, got.Result.ResumedExperiments)
	}
	if got.Result.ResumedExperiments >= got.Result.FFExperiments {
		t.Errorf("resumed %d of %d experiments: cancellation happened after the campaign finished",
			got.Result.ResumedExperiments, got.Result.FFExperiments)
	}
}

// TestBenchStoreCacheEviction exercises MaxCachedBenches: the least
// recently used benchmark store is evicted once the cap is exceeded, but a
// benchmark with a live job is pinned so its cache entry can never be
// freed in the window between job start and store merge.
func TestBenchStoreCacheEviction(t *testing.T) {
	opts := testOptions()
	opts.Workers = 2
	opts.MaxCachedBenches = 1
	opts.ListBenchmarks = func() []string { return []string{"pipe", "slowish"} }
	// The second job (v2) must still be running when v3 completes. Its
	// store is warm, so rather than rely on its run time, hold it in
	// analyzer setup until the test releases it.
	var setups atomic.Int32
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	opts.ConfigHook = func(*core.Config) {
		if setups.Add(1) == 2 {
			<-release
		}
	}
	m := New(opts)
	defer closeManager(t, m)
	defer unblock()

	cached := func(name string) bool {
		for _, b := range m.Benchmarks() {
			if b.Name == name {
				return b.CachedSections > 0
			}
		}
		return false
	}

	// Seed the cache with slowish's store.
	v1, err := m.Submit(Request{Bench: "slowish"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, v1.ID)
	if !cached("slowish") {
		t.Fatal("completed job left no cached store")
	}

	// Pin slowish with a second, running job; completing pipe now pushes
	// the cache over the cap, and eviction must drop pipe itself — the
	// LRU victim (slowish) is pinned.
	v2, err := m.Submit(Request{Bench: "slowish"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v2.ID, StateRunning)
	v3, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, v3.ID)
	if !cached("slowish") {
		t.Error("pinned benchmark store was evicted mid-job")
	}
	if got := m.Metrics().StoreBenches; got > 2 {
		t.Errorf("store cache holds %d benchmarks, cap is 1 (+1 pinned)", got)
	}
	unblock()
	waitDone(t, m, v2.ID)

	// With the pin gone, completing pipe again evicts slowish (LRU).
	v4, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, v4.ID)
	if cached("slowish") && cached("pipe") {
		t.Error("eviction kept both stores beyond the cap")
	}
	if got := m.Metrics().StoreBenches; got != 1 {
		t.Errorf("store cache holds %d benchmarks after unpinning, want 1", got)
	}
}

// TestCancelMergeEvictRace hammers the cancel → merge-completed-sections →
// evict path from many goroutines with the store cache capped, so the
// race detector can observe any window where eviction frees a cache entry
// a merging job still writes into.
func TestCancelMergeEvictRace(t *testing.T) {
	opts := testOptions()
	opts.Workers = 2
	opts.QueueDepth = 128
	opts.MaxRetained = 4
	opts.MaxCachedBenches = 1
	opts.WALDir = t.TempDir()
	m := New(opts)
	defer closeManager(t, m)

	benches := []string{"pipe", "slowish"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 6; i++ {
				v, err := m.Submit(Request{Bench: benches[rng.Intn(len(benches))]})
				if err != nil {
					continue // queue full under load is fine
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					m.Cancel(v.ID) // races the merge on purpose
				}
				m.Get(v.ID)
				m.List()
				m.Metrics()
				m.Benchmarks()
			}
		}(g)
	}
	wg.Wait()
	// The deferred Close drains whatever is still queued or running.
}
