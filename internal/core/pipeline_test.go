package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastflip/internal/errfs"
	"fastflip/internal/inject"
	"fastflip/internal/metrics"
	"fastflip/internal/testprog"
)

// TestPipelineDuplicateKeyReused analyzes a program whose first two
// instances share a reuse key, with a fresh store and a WAL: the second
// instance waits for the first one's commit and is reused from it, as
// under the sequential driver, and the shared key's segment is opened
// once.
func TestPipelineDuplicateKeyReused(t *testing.T) {
	run := func(driver func(*analysis, context.Context) error) (driven, map[string]int) {
		opens := make(map[string]int)
		cfg := DefaultConfig()
		cfg.WALDir = t.TempDir()
		// Plans run under the FaultFS mutex, so the map needs no lock.
		cfg.FaultFS = errfs.Wrap(errfs.OS(), func(op errfs.Op, name string, _ int) *errfs.Fault {
			if op == errfs.OpOpen && strings.HasSuffix(name, ".wal") {
				opens[filepath.Base(name)]++
			}
			return nil
		})
		return analyzeWith(t, NewAnalyzer(cfg), testprog.Twice(), driver), opens
	}
	pipe, opens := run((*analysis).pipeline)
	seq, _ := run(sequential)
	requireSameAnalysis(t, "duplicate key", pipe, seq)

	tr := pipe.r.Trace
	if len(tr.Instances) != 3 {
		t.Fatalf("fixture has %d instances, want 3", len(tr.Instances))
	}
	k0, err := SectionKey(tr, tr.Instances[0], pipe.r.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := SectionKey(tr, tr.Instances[1], pipe.r.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k0 != k1 {
		t.Fatal("the fixture's two scale instances have different reuse keys")
	}
	if pipe.r.ReusedInstances != 1 || pipe.r.InjectedInstances != 2 {
		t.Errorf("reused=%d injected=%d, want 1/2", pipe.r.ReusedInstances, pipe.r.InjectedInstances)
	}
	if n := opens[filepath.Base(inject.SegmentPath("", k0))]; n != 1 {
		t.Errorf("the shared key's segment was opened %d times, want 1", n)
	}
}

// stallingInjector runs instance k on the local engine once instance
// k+1's campaign has been launched, and stops k after two of its
// experiments: it cancels the analysis, or, with fail set, stops its own
// campaign and fails with fail. Instance k+1's campaign runs on the local
// engine (its chunks queue behind k's) and then holds until its context
// is cancelled, so it is in flight when k ends.
type stallingInjector struct {
	k      int
	fail   error
	cancel context.CancelFunc
	next   chan struct{}
}

func (s *stallingInjector) InjectSection(ctx context.Context, job SectionJob) (SectionResult, error) {
	switch job.Instance {
	case s.k + 1:
		close(s.next)
		res, err := LocalInjector{}.InjectSection(ctx, job)
		<-ctx.Done()
		return res, err
	case s.k:
		select {
		case <-s.next:
		case <-time.After(10 * time.Second):
			return SectionResult{}, errors.New("instance k+1 was never launched while k was in flight")
		}
		kctx, stop := context.WithCancel(ctx)
		defer stop()
		var n atomic.Int32
		rec := job.Hooks.Record
		job.Hooks.Record = func(i int, out metrics.Outcome, fin *metrics.Outcome, cost inject.Stats) {
			rec(i, out, fin, cost)
			if n.Add(1) == 2 {
				if s.fail != nil {
					stop()
				} else {
					s.cancel()
				}
			}
		}
		res, err := LocalInjector{}.InjectSection(kctx, job)
		if s.fail != nil {
			return res, s.fail
		}
		return res, err
	}
	return LocalInjector{}.InjectSection(ctx, job)
}

// TestPipelineStopsMidFlight cancels the analysis, or fails the section
// injector, on instance 0 while instance 1's campaign is in flight. Both
// segments must be left partial and closed, every goroutine the analysis
// started must end, and a resume must reproduce an uninterrupted run.
func TestPipelineStopsMidFlight(t *testing.T) {
	p := testprog.Pipeline()
	cfg := DefaultConfig()
	cfg.Workers = 1
	r0, err := NewAnalyzer(cfg).Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, r0, 0)

	boom := errors.New("injector down")
	for _, tc := range []struct {
		name string
		fail error
	}{{"cancel", nil}, {"fail", boom}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := cfg
			c.WALDir = dir
			c.SectionInjector = &stallingInjector{k: 0, fail: tc.fail, cancel: cancel, next: make(chan struct{})}
			_, err := NewAnalyzer(c).AnalyzeContext(ctx, p)
			wantErr := context.Canceled
			if tc.fail != nil {
				wantErr = tc.fail
			}
			if !errors.Is(err, wantErr) {
				t.Fatalf("AnalyzeContext = %v, want %v", err, wantErr)
			}

			segs, err := filepath.Glob(filepath.Join(dir, sanitizeName(p.Name), "*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 2 {
				t.Fatalf("campaign holds %d segments, want 2", len(segs))
			}
			k, err := SectionKey(r0.Trace, r0.Trace.Instances[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				info, err := inject.InspectSegment(seg)
				if err != nil {
					t.Fatal(err)
				}
				if info.Sealed || (info.Key == k && info.Experiments < 2) {
					t.Errorf("segment %s: %+v, want partial (instance 0 with its two logged experiments)", filepath.Base(seg), info)
				}
			}
			if open := openSegments(t, dir); len(open) != 0 {
				t.Errorf("segments left open: %v", open)
			}
			waitGoroutines(t, baseline)

			c = cfg
			c.WALDir = dir
			c.Resume = true
			r, err := NewAnalyzer(c).Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.ResumedExperiments() == 0 {
				t.Error("resume recovered nothing")
			}
			if got := summaryJSON(t, r, AllowResume); !bytes.Equal(got, want) {
				t.Errorf("resumed summary differs from uninterrupted run:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// summaryJSON is r's summary without telemetry, after checking that the
// run departed from a plain local one only as allow names.
func summaryJSON(t *testing.T, r *Result, allow Allow) []byte {
	t.Helper()
	s := r.Summarize(r.Cfg.Epsilon, nil)
	requireRun(t, s, allow)
	s.Telemetry = Telemetry{}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openSegments lists the WAL segments under dir that this process holds
// open, from its descriptor table.
func openSegments(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to inspect: %v", err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".wal") {
			open = append(open, target)
		}
	}
	return open
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
