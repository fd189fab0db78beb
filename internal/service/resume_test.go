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
	// completed, so nothing is in the result cache — everything recovered
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

// TestCancelPublishRace hammers the cancel → publish-completed-sections
// path from many goroutines, so the race detector can observe any window
// where a cancelled job's staged sections race another job's lookups,
// the flush, or the metrics readers.
func TestCancelPublishRace(t *testing.T) {
	opts := testOptions()
	opts.Workers = 2
	opts.QueueDepth = 128
	opts.MaxRetained = 4
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
					m.Cancel(v.ID) // races the publish on purpose
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

// TestCancelledJobWarmsCache cancels a pipe job while its second section
// is being injected: the first section, completed before the cancel, is
// published, so the retry reuses it and injects only the second.
func TestCancelledJobWarmsCache(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	var firstClasses atomic.Int32
	inSecond := make(chan struct{})
	release := make(chan struct{})
	opts := testOptions()
	opts.ConfigHook = func(cfg *core.Config) {
		cfg.Workers = 1
		cfg.ExperimentPanicHook = func(class, attempt int) {
			// Class 0 starts each section's campaign; its second
			// appearance is the second section.
			if armed.Load() && class == 0 && firstClasses.Add(1) == 2 {
				close(inSecond)
				<-release
			}
		}
	}
	m := New(opts)
	defer closeManager(t, m)

	v := submit(t, m, Request{Bench: "pipe"})
	<-inSecond
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if got := waitDone(t, m, v.ID); got.State != StateCancelled {
		t.Fatalf("job state = %s, want cancelled", got.State)
	}

	armed.Store(false)
	got := waitDone(t, m, submit(t, m, Request{Bench: "pipe"}).ID)
	if got.State != StateDone {
		t.Fatalf("retry: %s (err %q)", got.State, got.Error)
	}
	if r := got.Result; r.Reused != 1 || r.Injected != 1 || r.SharedHits != 1 {
		t.Errorf("retry: reused=%d injected=%d shared_hits=%d, want 1/1/1", r.Reused, r.Injected, r.SharedHits)
	}
}
