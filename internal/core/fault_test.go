package core

import (
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fastflip/internal/errfs"
	"fastflip/internal/inject"
	"fastflip/internal/mix"
	"fastflip/internal/store"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// faultRetry keeps campaign retry loops fast under test: real attempts,
// no real sleeping.
func faultRetry() inject.RetryPolicy {
	return inject.RetryPolicy{Attempts: 2, Base: time.Microsecond, Max: time.Microsecond, Sleep: func(time.Duration) {}}
}

// countLogged opens every segment in dir's campaign directory the way
// resume will and sums the durably logged experiments.
func countLogged(t *testing.T, dir string, p string, cfg Config) int {
	t.Helper()
	prog := testprog.Pipeline()
	tr, err := trace.RecordWith(prog, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	if err != nil {
		t.Fatal(err)
	}
	walFP := mix.Fold(tr.Fingerprint(), configFingerprint(cfg))
	camDir := filepath.Join(dir, sanitizeName(p))
	segs, err := filepath.Glob(filepath.Join(camDir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, seg := range segs {
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(seg), ".wal"))
		if err != nil || len(raw) != 32 {
			t.Fatalf("segment name %q is not a section key", seg)
		}
		var key store.Key
		copy(key[:], raw)
		w, rec, err := inject.OpenSectionWAL(camDir, key, walFP, true)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		logged += len(rec.Records)
	}
	return logged
}

// TestAnalyzeCompletesOnDegradedWAL fills the disk mid-campaign and
// requires the analysis to finish memory-only with identical results —
// degradation costs durability, never correctness.
func TestAnalyzeCompletesOnDegradedWAL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()

	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)
	requireRun(t, sumRef, 0)

	cfgF := cfg
	cfgF.WALDir = t.TempDir()
	cfgF.FaultFS = errfs.Wrap(nil, errfs.FailFrom(errfs.OpWrite, 8, syscall.ENOSPC))
	cfgF.WALRetry = faultRetry()
	a := NewAnalyzer(cfgF)
	var sawDegraded bool
	a.Progress = func(pr Progress) {
		if pr.WALDegraded {
			sawDegraded = true
		}
	}
	r, err := a.Analyze(p)
	if err != nil {
		t.Fatalf("analysis on a full disk failed instead of degrading: %v", err)
	}
	if !r.WALDegraded {
		t.Fatal("persistent write failures did not set Result.WALDegraded")
	}
	if !sawDegraded {
		t.Error("degradation never surfaced through Progress")
	}
	found := false
	for _, n := range r.WALNotes {
		if strings.Contains(n, "degraded") {
			found = true
		}
	}
	if !found {
		t.Errorf("no degradation note recorded; notes: %v", r.WALNotes)
	}

	sum := r.Summarize(cfg.Epsilon, nil)
	if !sum.WALDegraded {
		t.Error("summary does not carry wal_degraded")
	}
	requireRun(t, sum, AllowDegraded)
	sumRef.Telemetry, sum.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum) {
		t.Errorf("degraded-mode summary differs from clean run:\nref:      %+v\ndegraded: %+v", sumRef, sum)
	}
}

// TestResumeAfterDegradedRun degrades the WAL mid-campaign, then resumes
// on a healthy disk: the resume must recover exactly what was durably
// logged before the fault, re-execute only the remainder, and converge to
// the uninterrupted summary.
func TestResumeAfterDegradedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()

	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)
	requireRun(t, sumRef, 0)

	dir := t.TempDir()
	cfg1 := cfg
	cfg1.WALDir = dir
	cfg1.FaultFS = errfs.Wrap(nil, errfs.FailFrom(errfs.OpWrite, 10, syscall.ENOSPC))
	cfg1.WALRetry = faultRetry()
	a1 := NewAnalyzer(cfg1)
	r1, err := a1.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.WALDegraded {
		t.Fatal("fault plan did not degrade the first run")
	}
	logged := countLogged(t, dir, p.Name, cfg)
	if logged >= rRef.FFInject.Experiments {
		t.Fatalf("fault plan logged all %d experiments; degrade never bit", logged)
	}

	cfg2 := cfg
	cfg2.WALDir = dir
	cfg2.Resume = true
	a2 := NewAnalyzer(cfg2)
	r2, err := a2.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.WALDegraded {
		t.Error("resume on a healthy disk still reports WALDegraded")
	}
	if r2.FFRecovered.Experiments != logged {
		t.Errorf("resume recovered %d experiments, the log held %d", r2.FFRecovered.Experiments, logged)
	}
	redone := r2.FFInject.Experiments - r2.FFRecovered.Experiments
	if want := rRef.FFInject.Experiments - logged; redone != want {
		t.Errorf("resume re-executed %d experiments, want exactly the %d that were never logged", redone, want)
	}
	sum2 := r2.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum2, AllowResume)
	sumRef.Telemetry, sum2.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum2) {
		t.Errorf("post-degrade resume differs from uninterrupted run:\nref:     %+v\nresumed: %+v", sumRef, sum2)
	}
}

// TestPanicRetryIsByteNeutral panics one experiment once via the
// test-only hook. The supervisor retries it on a fresh machine; the
// summary must be byte-identical to a panic-free run except for the
// panic_retries counter itself.
func TestPanicRetryIsByteNeutral(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()

	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)
	requireRun(t, sumRef, 0)

	cfgP := cfg
	fired := false
	cfgP.ExperimentPanicHook = func(class, attempt int) {
		if !fired && attempt == 1 {
			fired = true
			panic("test-injected transient panic")
		}
	}
	a := NewAnalyzer(cfgP)
	r, err := a.Analyze(p)
	if err != nil {
		t.Fatalf("one transient panic failed the analysis: %v", err)
	}
	if r.PanicRetries != 1 {
		t.Fatalf("PanicRetries = %d, want 1", r.PanicRetries)
	}
	if len(r.Poisoned) != 0 {
		t.Fatalf("a single panic quarantined %d experiments", len(r.Poisoned))
	}
	sum := r.Summarize(cfg.Epsilon, nil)
	if sum.PanicRetries != 1 {
		t.Fatalf("summary panic_retries = %d, want 1", sum.PanicRetries)
	}
	requireRun(t, sum, AllowRetries)
	sumRef.Telemetry, sum.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum) {
		t.Errorf("retried run differs from panic-free run:\nref:     %+v\nretried: %+v", sumRef, sum)
	}
}

// TestRepeatedPanicQuarantines panics one class on every attempt: the
// supervisor must quarantine it with diagnostics (in the result, the
// summary, and the WAL segment), fill its outcome conservatively, and
// still complete the analysis. A clean resume then re-executes the
// quarantined classes and converges to the uninterrupted summary.
func TestRepeatedPanicQuarantines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()

	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)
	requireRun(t, sumRef, 0)

	dir := t.TempDir()
	cfg1 := cfg
	cfg1.WALDir = dir
	cfg1.ExperimentPanicHook = func(class, attempt int) {
		if class == 0 {
			panic("test-poison boom")
		}
	}
	a1 := NewAnalyzer(cfg1)
	var sawPoisoned bool
	a1.Progress = func(pr Progress) {
		if pr.Poisoned > 0 {
			sawPoisoned = true
		}
	}
	r1, err := a1.Analyze(p)
	if err != nil {
		t.Fatalf("quarantine failed the analysis: %v", err)
	}
	if len(r1.Poisoned) == 0 {
		t.Fatal("repeated panics produced no poison records")
	}
	if !sawPoisoned {
		t.Error("quarantine never surfaced through Progress")
	}
	for _, ps := range r1.Poisoned {
		if ps.Attempts != 2 {
			t.Errorf("poison record attempts = %d, want 2 (one retry on a fresh machine)", ps.Attempts)
		}
		if !strings.Contains(ps.Stack, "test-poison boom") {
			t.Errorf("poison stack does not carry the panic value:\n%s", ps.Stack)
		}
		if ps.MachineFP == 0 {
			t.Error("poison record has no machine fingerprint")
		}
	}
	sum1 := r1.Summarize(cfg.Epsilon, nil)
	if len(sum1.Poisoned) != len(r1.Poisoned) {
		t.Errorf("summary carries %d poison records, result %d", len(sum1.Poisoned), len(r1.Poisoned))
	}
	for _, ps := range sum1.Poisoned {
		if !strings.Contains(ps.Stack, "test-poison boom") || ps.MachineFP == "" || ps.Class == "" {
			t.Errorf("summary poison record incomplete: %+v", ps)
		}
	}

	// The quarantine diagnostics must be durable in the segment files.
	segs, err := filepath.Glob(filepath.Join(dir, sanitizeName(p.Name), "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments written (err=%v)", err)
	}
	walPoisoned := 0
	for _, seg := range segs {
		info, err := inject.InspectSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		walPoisoned += info.Poisoned
	}
	if walPoisoned != len(r1.Poisoned) {
		t.Errorf("segments hold %d poison records, result has %d", walPoisoned, len(r1.Poisoned))
	}

	// Resume without the panic hook: quarantined classes were never
	// Record-logged, so they re-execute and the summary converges.
	cfg2 := cfg
	cfg2.WALDir = dir
	cfg2.Resume = true
	a2 := NewAnalyzer(cfg2)
	r2, err := a2.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Poisoned) != 0 || r2.PanicRetries != 0 {
		t.Errorf("clean resume still reports poison state: %d poisoned, %d retries", len(r2.Poisoned), r2.PanicRetries)
	}
	sum2 := r2.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum2, AllowResume)
	sumRef.Telemetry, sum2.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum2) {
		t.Errorf("resume after quarantine differs from uninterrupted run:\nref:     %+v\nresumed: %+v", sumRef, sum2)
	}
}

// TestPoisonedSectionNotStored quarantines experiments of the first
// section only: its conservative fills must not be stored under its
// content key, while the clean second section is. A later analysis over
// the same store re-injects the poisoned section and converges to the
// uninterrupted summary.
func TestPoisonedSectionNotStored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	p := testprog.Pipeline()

	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)

	var sectionsDone atomic.Int32
	cfgP := cfg
	cfgP.ExperimentPanicHook = func(class, attempt int) {
		if sectionsDone.Load() == 0 && class == 0 {
			panic("test-poison boom")
		}
	}
	a := NewAnalyzer(cfgP)
	a.Progress = func(pr Progress) { sectionsDone.Store(int32(pr.Done)) }
	r, err := a.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Poisoned) == 0 {
		t.Fatal("hook quarantined nothing")
	}
	for idx, inst := range r.Trace.Instances {
		key, err := store.KeyFor(r.Trace, inst)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.Store.Lookup(key) != nil, idx != 0; got != want {
			t.Errorf("instance %d: stored=%v, want %v", idx, got, want)
		}
	}

	clean := &Analyzer{Cfg: cfg, Store: a.Store}
	r2, err := clean.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedInstances != 1 || r2.InjectedInstances != 1 {
		t.Errorf("rerun reused=%d injected=%d, want 1/1", r2.ReusedInstances, r2.InjectedInstances)
	}
	sum2 := r2.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum2, 0)
	if !reflect.DeepEqual(sumRef.Outcomes, sum2.Outcomes) {
		t.Errorf("rerun outcomes differ from uninterrupted run:\nref:   %+v\nrerun: %+v", sumRef.Outcomes, sum2.Outcomes)
	}
}
