package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/errfs"
	"fastflip/internal/inject"
)

// TestPoisonedJobFailsWithDiagnostics installs an always-panicking
// experiment hook for the first job: the per-experiment supervisor must
// quarantine the class, the job must fail with diagnostics while keeping
// its summary, and a later job must run normally — the panic never
// reaches the worker goroutine.
func TestPoisonedJobFailsWithDiagnostics(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	opts := testOptions()
	opts.ConfigHook = func(cfg *core.Config) {
		cfg.Workers = 1
		cfg.ExperimentPanicHook = func(class, attempt int) {
			if armed.Load() && class == 0 {
				panic("test-poison boom")
			}
		}
	}
	m := New(opts)
	defer closeManager(t, m)

	v, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, v.ID)
	if got.State != StateFailed {
		t.Fatalf("poisoned job state = %s (err %q), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "quarantined") {
		t.Errorf("job error carries no quarantine diagnostics: %q", got.Error)
	}
	if got.Result == nil {
		t.Fatal("poisoned job dropped its summary; the poison records are uninspectable")
	}
	if len(got.Result.Poisoned) == 0 {
		t.Fatal("retained summary has no poison records")
	}
	for _, p := range got.Result.Poisoned {
		if !strings.Contains(p.Stack, "test-poison boom") || p.Attempts != 2 {
			t.Errorf("poison record incomplete: %+v", p)
		}
	}
	mt := m.Metrics()
	if mt.ExperimentsPoisoned == 0 {
		t.Error("experiments_poisoned metric did not move")
	}
	if mt.JobsPanicked != 0 {
		t.Errorf("jobs_panicked = %d; the supervisor contained the panic, the job guard must not fire", mt.JobsPanicked)
	}

	// Disarm and prove the service is still healthy.
	armed.Store(false)
	v2, err := m.Submit(Request{Bench: "slowish"})
	if err != nil {
		t.Fatal(err)
	}
	if got2 := waitDone(t, m, v2.ID); got2.State != StateDone {
		t.Fatalf("follow-up job state = %s (err %q), want done", got2.State, got2.Error)
	}
}

// TestPoisonedJobIsNotCached quarantines the first 40 classes of every
// section of a pipe job, then resubmits it with the panics disarmed. The
// quarantined sections' conservative fills must never have reached the
// cache: the resubmission re-injects both sections and reports the
// outcomes of a clean manager's run.
func TestPoisonedJobIsNotCached(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	opts := testOptions()
	opts.ConfigHook = func(cfg *core.Config) {
		cfg.Workers = 1
		cfg.ExperimentPanicHook = func(class, attempt int) {
			if armed.Load() && class < 40 {
				panic("test-poison boom")
			}
		}
	}
	m := New(opts)
	defer closeManager(t, m)

	poisoned := waitDone(t, m, submit(t, m, Request{Bench: "pipe"}).ID)
	if poisoned.State != StateFailed || len(poisoned.Result.Poisoned) == 0 {
		t.Fatalf("poisoned job: %s (err %q)", poisoned.State, poisoned.Error)
	}
	if got := m.Metrics().SharedSections; got != 0 {
		t.Errorf("poisoned job cached %d sections", got)
	}

	armed.Store(false)
	redo := waitDone(t, m, submit(t, m, Request{Bench: "pipe"}).ID)
	if redo.State != StateDone {
		t.Fatalf("resubmission: %s (err %q)", redo.State, redo.Error)
	}
	if r := redo.Result; r.Injected != 2 || r.Reused != 0 || len(r.Poisoned) != 0 {
		t.Errorf("resubmission: injected=%d reused=%d poisoned=%d, want 2/0/0", r.Injected, r.Reused, len(r.Poisoned))
	}

	clean := New(testOptions())
	defer closeManager(t, clean)
	ref := waitDone(t, clean, submit(t, clean, Request{Bench: "pipe"}).ID)
	if ref.State != StateDone {
		t.Fatalf("clean job: %s (err %q)", ref.State, ref.Error)
	}
	if !reflect.DeepEqual(ref.Result.Outcomes, redo.Result.Outcomes) {
		t.Errorf("resubmission reports cached fills:\nclean: %+v\nredo:  %+v", ref.Result.Outcomes, redo.Result.Outcomes)
	}
}

// TestPanickingJobContained panics outside any experiment (in the config
// hook, i.e. during analyzer setup): the job-level guard must fail the
// job with the stack, count it, and leave the service serving.
func TestPanickingJobContained(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	opts := testOptions()
	opts.ConfigHook = func(cfg *core.Config) {
		if armed.Load() {
			panic("test-harness bug")
		}
	}
	m := New(opts)
	defer closeManager(t, m)

	v, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, v.ID)
	if got.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "panicked") || !strings.Contains(got.Error, "test-harness bug") {
		t.Errorf("job error carries no panic diagnostics: %q", got.Error)
	}
	if mt := m.Metrics(); mt.JobsPanicked != 1 {
		t.Errorf("jobs_panicked = %d, want 1", mt.JobsPanicked)
	}

	armed.Store(false)
	v2, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	if got2 := waitDone(t, m, v2.ID); got2.State != StateDone {
		t.Fatalf("follow-up job state = %s (err %q), want done", got2.State, got2.Error)
	}
}

// TestWALDegradedJobMetric breaks the campaign disk mid-job and checks
// the degradation is visible in job progress and the service counters —
// while the job itself still succeeds memory-only.
func TestWALDegradedJobMetric(t *testing.T) {
	opts := testOptions()
	opts.WALDir = t.TempDir()
	opts.ConfigHook = func(cfg *core.Config) {
		// Past the segment headers, in the first section's appends.
		cfg.FaultFS = errfs.Wrap(nil, errfs.FailFrom(errfs.OpWrite, 6, os.ErrPermission))
		cfg.WALRetry = inject.RetryPolicy{Attempts: 2, Base: time.Microsecond, Max: time.Microsecond, Sleep: func(time.Duration) {}}
	}
	m := New(opts)
	defer closeManager(t, m)

	v, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, v.ID)
	if got.State != StateDone {
		t.Fatalf("degraded job state = %s (err %q), want done", got.State, got.Error)
	}
	if !got.Result.WALDegraded {
		t.Error("summary does not carry wal_degraded")
	}
	if !got.Progress.WALDegraded {
		t.Error("job progress does not carry wal_degraded")
	}
	if mt := m.Metrics(); mt.WALDegradedJobs != 1 {
		t.Errorf("wal_degraded_jobs = %d, want 1", mt.WALDegradedJobs)
	}
}

// TestDrainLeavesNoTornTail cancels a WAL-backed campaign via manager
// shutdown and requires every segment on disk to end on a record
// boundary: a drained service must never leave a torn tail for the next
// resume to truncate.
func TestDrainLeavesNoTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.WALDir = dir
	m := New(opts)

	v, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)

	// Wait until real experiment records are on disk, so the drain has a
	// non-trivial segment to seal off.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("campaign produced no WAL records within the deadline")
		}
		var bytes int64
		segs, _ := filepath.Glob(filepath.Join(dir, "*", "*.wal"))
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				bytes += fi.Size()
			}
		}
		if bytes > 4096 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hard drain: the deadline is already expired, so Close cancels the
	// running campaign immediately — the ffserved SIGTERM path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Close(ctx)
	if got, _ := m.Get(v.ID); got.State != StateCancelled {
		t.Fatalf("drained job state = %s, want cancelled", got.State)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments after drain (err=%v)", err)
	}
	for _, seg := range segs {
		info, err := inject.InspectSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		if info.TailBytes != 0 {
			t.Errorf("segment %s has a %d-byte torn tail after drain", filepath.Base(seg), info.TailBytes)
		}
		if info.Experiments == 0 {
			t.Errorf("segment %s drained with zero durable experiments", filepath.Base(seg))
		}
	}
}

// TestReadinessStates walks the Readiness transitions: ready, queue
// saturated, WAL dir unwritable, closed.
func TestReadinessStates(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	opts := testOptions()
	opts.QueueDepth = 1
	opts.WALDir = walDir
	m := New(opts)

	if err := m.Readiness(); err != nil {
		t.Fatalf("fresh manager unready: %v", err)
	}

	// Saturate the queue: one running job frees its slot, one queued job
	// fills the single-deep queue again.
	slow, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, StateRunning)
	queued, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Readiness(); err == nil {
		t.Error("manager with a saturated queue reports ready")
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, slow.ID)
	// The queued job starts once the slot frees and writes WAL segments;
	// let it finish before yanking the WAL dir out from under it.
	waitDone(t, m, queued.ID)

	// Unwritable WAL dir: the probe must fail when the path cannot be a
	// directory (tests run as root, so permission bits are no obstacle —
	// occupy the path with a regular file instead).
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Readiness(); err == nil {
		t.Error("manager with an unwritable WAL dir reports ready")
	}
	if err := os.Remove(walDir); err != nil {
		t.Fatal(err)
	}
	if err := m.Readiness(); err != nil {
		t.Errorf("manager unready after WAL dir restored: %v", err)
	}

	closeManager(t, m)
	if err := m.Readiness(); err == nil {
		t.Error("closed manager reports ready")
	}
}
