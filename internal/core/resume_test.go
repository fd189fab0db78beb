package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastflip/internal/bench"
	"fastflip/internal/inject"
	"fastflip/internal/mix"
	"fastflip/internal/store"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// requireRun fails t if s departs from a plain local run in a way allow
// does not name (see Telemetry.CheckRun).
func requireRun(t *testing.T, s *Summary, allow Allow) {
	t.Helper()
	if err := s.CheckRun(allow); err != nil {
		t.Fatal(err)
	}
}

// TestResumeAfterCrashedCampaign interrupts a WAL-backed analysis at a
// deterministic point (after the first section instance seals), discards
// all in-memory state as a crash would, resumes from the WAL with a fresh
// analyzer, and requires the merged summary to be byte-identical to an
// uninterrupted run (modulo wall time and engine-work split).
func TestResumeAfterCrashedCampaign(t *testing.T) {
	for _, coRun := range []bool{false, true} {
		t.Run(fmt.Sprintf("coRun=%v", coRun), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.CoRunBaseline = coRun
			p := testprog.Pipeline()

			// Reference: uninterrupted, no WAL.
			ref := NewAnalyzer(cfg)
			rRef, err := ref.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			sumRef := rRef.Summarize(cfg.Epsilon, nil)
			requireRun(t, sumRef, 0)

			// Phase 1: crash after the first injected instance.
			dir := t.TempDir()
			cfg1 := cfg
			cfg1.WALDir = dir
			a1 := NewAnalyzer(cfg1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			a1.Progress = func(pr Progress) {
				if pr.Injected >= 1 {
					cancel()
				}
			}
			if _, err := a1.AnalyzeContext(ctx, p); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted analysis returned %v, want context.Canceled", err)
			}

			// Phase 2: fresh analyzer (the crash lost the store), resume.
			cfg2 := cfg
			cfg2.WALDir = dir
			cfg2.Resume = true
			a2 := NewAnalyzer(cfg2)
			r2, err := a2.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			if r2.ResumedExperiments() == 0 {
				t.Fatal("resume recovered nothing from the WAL")
			}
			newWork := r2.FFInject.Experiments - r2.FFRecovered.Experiments
			if want := rRef.FFInject.Experiments - r2.FFRecovered.Experiments; newWork != want {
				t.Errorf("resume re-executed %d experiments, want exactly the remainder %d", newWork, want)
			}
			sum2 := r2.Summarize(cfg.Epsilon, nil)
			if sum2.ResumedExperiments != r2.FFRecovered.Experiments {
				t.Errorf("summary resumed_experiments = %d, want %d", sum2.ResumedExperiments, r2.FFRecovered.Experiments)
			}
			requireRun(t, sum2, AllowResume)
			sumRef.Telemetry, sum2.Telemetry = Telemetry{}, Telemetry{}
			if !reflect.DeepEqual(sumRef, sum2) {
				t.Errorf("resumed summary differs from uninterrupted run:\nref:     %+v\nresumed: %+v", sumRef, sum2)
			}

			// Phase 3: resuming the completed campaign re-executes nothing.
			a3 := NewAnalyzer(cfg2)
			r3, err := a3.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := r3.FFInject.Experiments - r3.FFRecovered.Experiments; got != 0 {
				t.Errorf("resume of a sealed campaign re-executed %d experiments", got)
			}
			sum3 := r3.Summarize(cfg.Epsilon, nil)
			requireRun(t, sum3, AllowResume)
			sum3.Telemetry = Telemetry{}
			if !reflect.DeepEqual(sumRef, sum3) {
				t.Error("fully recovered summary differs from uninterrupted run")
			}
		})
	}
}

// TestResumeTornTailTruncatedWithWarning corrupts the tail of a crashed
// campaign's segment and verifies resume truncates it with a note — and
// still converges to the uninterrupted summary by re-executing the
// dropped experiments.
func TestResumeTornTailTruncatedWithWarning(t *testing.T) {
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
	a1 := NewAnalyzer(cfg1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a1.Progress = func(pr Progress) {
		if pr.Injected >= 1 {
			cancel()
		}
	}
	if _, err := a1.AnalyzeContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted analysis returned %v", err)
	}

	// Tear the tail of every segment, as a crash mid-write would.
	segs, err := filepath.Glob(filepath.Join(dir, sanitizeName(p.Name), "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments written (err=%v)", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg2 := cfg
	cfg2.WALDir = dir
	cfg2.Resume = true
	a2 := NewAnalyzer(cfg2)
	r2, err := a2.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range r2.WALNotes {
		if strings.Contains(n, "torn wal tail") {
			found = true
		}
	}
	if !found {
		t.Errorf("torn tail left no warning note; notes: %v", r2.WALNotes)
	}
	sum2 := r2.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum2, AllowResume)
	sumRef.Telemetry, sum2.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum2) {
		t.Error("summary after torn-tail recovery differs from uninterrupted run")
	}
}

// childEnvDir is how the SIGKILL e2e passes the WAL directory to the
// re-executed test binary.
const childEnvDir = "FASTFLIP_RESUME_CHILD_DIR"

// TestResumeChildProcess is the subprocess body of the SIGKILL e2e: it
// runs the fft-small campaign against the WAL directory from the
// environment until the parent kills it. It is skipped in normal runs.
func TestResumeChildProcess(t *testing.T) {
	dir := os.Getenv(childEnvDir)
	if dir == "" {
		t.Skip("subprocess helper")
	}
	cfg := DefaultConfig()
	cfg.WALDir = dir
	cfg.Resume = true
	a := NewAnalyzer(cfg)
	if _, err := a.Analyze(bench.MustBuild("fft", bench.Small)); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFFTSmallAfterSIGKILL is the crash/resume e2e on fft-small: a
// real child process is SIGKILLed mid-campaign, the parent counts what the
// WAL durably holds, resumes, and requires (a) a summary byte-identical to
// an uninterrupted run and (b) that exactly the not-yet-logged experiments
// were re-executed.
func TestResumeFFTSmallAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("full injection campaign")
	}

	cfg := DefaultConfig()
	p := bench.MustBuild("fft", bench.Small)

	// Reference: uninterrupted, no WAL.
	ref := NewAnalyzer(cfg)
	rRef, err := ref.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRef := rRef.Summarize(cfg.Epsilon, nil)
	requireRun(t, sumRef, 0)

	dir := t.TempDir()
	camDir := filepath.Join(dir, sanitizeName(p.Name))

	// Launch the child campaign and SIGKILL it once experiments are
	// durably on disk.
	child := exec.Command(os.Args[0], "-test.run", "^TestResumeChildProcess$", "-test.v")
	child.Env = append(os.Environ(), childEnvDir+"="+dir)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			child.Process.Kill()
			child.Wait()
			t.Fatal("child produced no WAL records within the deadline")
		}
		segs, _ := filepath.Glob(filepath.Join(camDir, "*.wal"))
		var bytes int64
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				bytes += fi.Size()
			}
		}
		if bytes > 4096 { // well past headers: real experiment records
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	child.Process.Kill() // SIGKILL: no deferred cleanup runs in the child
	child.Wait()

	// Count what the log durably holds, exactly as resume will see it.
	tr, err := trace.RecordWith(p, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	if err != nil {
		t.Fatal(err)
	}
	walFP := mix.Fold(tr.Fingerprint(), configFingerprint(cfg))
	segs, err := filepath.Glob(filepath.Join(camDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments after kill (err=%v)", err)
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
	if logged == 0 {
		t.Fatal("child was killed before logging any experiment")
	}
	t.Logf("child killed with %d/%d experiments logged", logged, rRef.FFInject.Experiments)

	// Resume with a fresh analyzer (the kill lost all in-memory state).
	cfg2 := cfg
	cfg2.WALDir = dir
	cfg2.Resume = true
	a2 := NewAnalyzer(cfg2)
	r2, err := a2.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.FFRecovered.Experiments != logged {
		t.Errorf("resume recovered %d experiments, the log held %d", r2.FFRecovered.Experiments, logged)
	}
	redone := r2.FFInject.Experiments - r2.FFRecovered.Experiments
	if want := rRef.FFInject.Experiments - logged; redone != want {
		t.Errorf("resume re-executed %d experiments, want exactly the %d not yet logged", redone, want)
	}

	sum2 := r2.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum2, AllowResume)
	sumRef.Telemetry, sum2.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum2) {
		t.Errorf("resumed summary differs from uninterrupted run:\nref:     %+v\nresumed: %+v", sumRef, sum2)
	}
}

// requireFullResume resumes the campaign under walDir with cfg and
// requires every experiment recovered from its segments, no manifest
// left beside them, and the summary of a run without a WAL.
func requireFullResume(t *testing.T, cfg Config, walDir string) {
	t.Helper()
	p := testprog.Pipeline()
	rRef, err := NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WALDir, cfg.Resume = walDir, true
	r, err := NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResumedExperiments(), rRef.FFInject.Experiments; got != want {
		t.Errorf("resumed %d experiments, want all %d; notes: %v", got, want, r.WALNotes)
	}
	manifest := filepath.Join(walDir, sanitizeName(p.Name), "campaign.manifest")
	if _, err := os.Stat(manifest); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the old manifest outlived the resume: %v", err)
	}
	sumRef, sum := rRef.Summarize(cfg.Epsilon, nil), r.Summarize(cfg.Epsilon, nil)
	requireRun(t, sum, AllowResume)
	sumRef.Telemetry, sum.Telemetry = Telemetry{}, Telemetry{}
	if !reflect.DeepEqual(sumRef, sum) {
		t.Errorf("resumed summary differs from a run without a WAL:\nref:     %+v\nresumed: %+v", sumRef, sum)
	}
}

// TestResumeDeletesLeftoverManifest adds the manifest older builds kept
// to a completed campaign directory: one in the first format (bare gob)
// and one in the last (a record frame). The segments alone decide the
// resume: the run recovers every experiment and deletes the file.
func TestResumeDeletesLeftoverManifest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	for name, src := range map[string]string{
		"v1":      filepath.Join("testdata", "v1.manifest"),
		"current": filepath.Join("testdata", "parent-campaign", "campaign.manifest"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := cfg
			c.WALDir = dir
			p := testprog.Pipeline()
			if _, err := NewAnalyzer(c).Analyze(p); err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sanitizeName(p.Name), "campaign.manifest"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			requireFullResume(t, cfg, dir)
		})
	}
}

// TestResumeParentCampaign resumes testdata/parent-campaign, a completed
// campaign of testprog.Pipeline (DefaultConfig, one worker) written, with
// its manifest, by the build before the manifest was removed. Every
// experiment must be recovered: the segment fingerprints are unchanged.
func TestResumeParentCampaign(t *testing.T) {
	src := filepath.Join("testdata", "parent-campaign")
	dst := filepath.Join(t.TempDir(), sanitizeName(testprog.Pipeline().Name))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	requireFullResume(t, cfg, filepath.Dir(dst))
}

// TestResumeSweepsChangedConfig resumes a completed campaign under another
// sensitivity seed, a knob that changes outcomes: no segment carries the
// new fingerprint, so the sweep removes them all with a note, nothing is
// recovered, and only the new campaign's segments remain.
func TestResumeSweepsChangedConfig(t *testing.T) {
	p := testprog.Pipeline()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.WALDir = t.TempDir()
	if _, err := NewAnalyzer(cfg).Analyze(p); err != nil {
		t.Fatal(err)
	}
	glob := filepath.Join(cfg.WALDir, sanitizeName(p.Name), "*.wal")
	old, err := filepath.Glob(glob)
	if err != nil || len(old) == 0 {
		t.Fatalf("the first campaign left no segments (%v)", err)
	}

	cfg.Sens.Seed++
	cfg.Resume = true
	r, err := NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ResumedExperiments(); got != 0 {
		t.Errorf("resumed %d experiments under another seed", got)
	}
	note := fmt.Sprintf("removed %d segment(s) of a different trace or config", len(old))
	found := false
	for _, n := range r.WALNotes {
		found = found || strings.Contains(n, note)
	}
	if !found {
		t.Errorf("no note %q; notes: %v", note, r.WALNotes)
	}
	fp := mix.Fold(r.Trace.Fingerprint(), configFingerprint(cfg))
	segs, err := filepath.Glob(glob)
	if err != nil || len(segs) == 0 {
		t.Fatalf("the new campaign left no segments (%v)", err)
	}
	for _, seg := range segs {
		if info, err := inject.InspectSegment(seg); err != nil || info.Fingerprint != fp || !info.Sealed {
			t.Errorf("segment %s: %+v (%v), want a sealed segment of the new campaign", filepath.Base(seg), info, err)
		}
	}
}

// TestCampaignSweepsOrphanedTemps plants the temporary file that a crash
// between CreateTemp and Rename leaves when a segment header is written.
// Opening the campaign, with or without resume, removes it.
func TestCampaignSweepsOrphanedTemps(t *testing.T) {
	p := testprog.Pipeline()
	cfg := DefaultConfig()
	tr, err := trace.RecordWith(p, trace.Options{CheckpointInterval: cfg.CheckpointInterval})
	if err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		camDir := filepath.Join(dir, sanitizeName(p.Name))
		if err := os.MkdirAll(camDir, 0o755); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(camDir, "."+filepath.Base(inject.SegmentPath(camDir, store.Key{1}))+"-4242.tmp")
		if err := os.WriteFile(tmp, []byte("FFWAL"), 0o600); err != nil {
			t.Fatal(err)
		}
		cfg.Resume = resume
		c, err := openCampaign(dir, p, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.closeCampaign()
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("resume=%v: orphaned temp file survived opening the campaign: %v", resume, err)
		}
	}
}
