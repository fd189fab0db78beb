package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/ostore"
)

// openShared opens an ostore handle over dir and closes it with the test.
func openShared(t *testing.T, dir string) *ostore.Store {
	t.Helper()
	s, err := ostore.Open(ostore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// summaryJSON renders a summary for comparison across the shared tier:
// telemetry cleared, and the reuse accounting that differs by design
// between a fresh analysis and one served from the tier zeroed (the
// baseline speedup is derived from FastFlip's accounted cost). Everything
// analytical — outcomes, targets, selections — must be byte-identical.
// The run must otherwise be plain (CheckRun).
func summaryJSON(t *testing.T, s *core.Summary) string {
	t.Helper()
	if err := s.CheckRun(0); err != nil {
		t.Fatal(err)
	}
	c := *s
	c.Telemetry = core.Telemetry{}
	c.Reused, c.Injected = 0, 0
	c.FFExperiments, c.FFSimInstrs = 0, 0
	c.ElidedExperiments, c.ElidedSimInstrs = 0, 0
	if s.Baseline != nil {
		b := *s.Baseline
		b.Speedup = 0
		c.Baseline = &b
	}
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSharedTierAcrossManagers is the tentpole scenario at the service
// level: two Manager instances — independent processes in production —
// share one outcome-store directory through separate handles. The second
// manager's first analysis of the same version must re-simulate nothing:
// every section arrives from the shared tier, and the analytical summary
// is byte-identical to the first manager's.
func TestSharedTierAcrossManagers(t *testing.T) {
	dir := t.TempDir()

	optsA := testOptions()
	optsA.Shared = openShared(t, dir)
	mA := New(optsA)
	defer closeManager(t, mA)

	vA, err := mA.Submit(Request{Bench: "pipe", Baseline: true, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	gotA := waitDone(t, mA, vA.ID)
	if gotA.State != StateDone {
		t.Fatalf("first manager's job: %s (err %q)", gotA.State, gotA.Error)
	}
	rA := gotA.Result
	if rA.Injected != 2 || rA.SharedMisses != 2 || rA.SharedHits != 0 {
		t.Fatalf("cold run: injected=%d shared_misses=%d shared_hits=%d, want 2/2/0",
			rA.Injected, rA.SharedMisses, rA.SharedHits)
	}

	// A second manager with a *different* handle over the same directory:
	// nothing shared in memory, everything through segment files.
	optsB := testOptions()
	optsB.Shared = openShared(t, dir)
	mB := New(optsB)
	defer closeManager(t, mB)

	vB, err := mB.Submit(Request{Bench: "pipe", Baseline: true, Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	gotB := waitDone(t, mB, vB.ID)
	if gotB.State != StateDone {
		t.Fatalf("second manager's job: %s (err %q)", gotB.State, gotB.Error)
	}
	rB := gotB.Result
	if rB.Injected != 0 || rB.Reused != 2 {
		t.Errorf("warm run re-simulated: injected=%d reused=%d, want 0/2", rB.Injected, rB.Reused)
	}
	if rB.SharedHits != 2 || rB.SharedMisses != 0 {
		t.Errorf("warm run: shared_hits=%d shared_misses=%d, want 2/0", rB.SharedHits, rB.SharedMisses)
	}
	if a, b := summaryJSON(t, rA), summaryJSON(t, rB); a != b {
		t.Errorf("summaries diverge across the shared tier:\n A %s\n B %s", a, b)
	}

	// Within manager B the benchmark cache now sits in front of the tier:
	// a third run reuses everything without touching the shared store.
	vB2, err := mB.Submit(Request{Bench: "pipe", Baseline: true, Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	gotB2 := waitDone(t, mB, vB2.ID)
	if r := gotB2.Result; r.Reused != 2 || r.SharedHits != 0 {
		t.Errorf("cached run: reused=%d shared_hits=%d, want 2/0", r.Reused, r.SharedHits)
	}

	mt := mB.Metrics()
	if mt.SharedHits != 2 {
		t.Errorf("metrics shared_hits = %d, want 2", mt.SharedHits)
	}
	if mt.SharedSections == 0 || mt.SharedBytes == 0 {
		t.Errorf("shared gauges did not move: sections=%d bytes=%d", mt.SharedSections, mt.SharedBytes)
	}
	if ts := mt.SharedTenants["bob"]; ts.Hits != 2 {
		t.Errorf("tenant bob shared hits = %d, want 2", ts.Hits)
	}
}

// TestSubmitErrorClasses pins the error taxonomy Submit promises: client
// mistakes wrap ErrInvalid, broken infrastructure wraps ErrInfra.
func TestSubmitErrorClasses(t *testing.T) {
	t.Run("invalid", func(t *testing.T) {
		m := New(testOptions())
		defer closeManager(t, m)
		if _, err := m.Submit(Request{Bench: "nope"}); !errors.Is(err, ErrInvalid) {
			t.Errorf("unknown benchmark = %v, want ErrInvalid", err)
		}
	})
	t.Run("infra", func(t *testing.T) {
		// A WAL "directory" that is actually a file is an operator
		// problem: Submit must classify it as infrastructure.
		blocked := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := testOptions()
		opts.WALDir = blocked
		m := New(opts)
		defer closeManager(t, m)
		if _, err := m.Submit(Request{Bench: "pipe"}); !errors.Is(err, ErrInfra) {
			t.Errorf("unwritable WAL dir = %v, want ErrInfra", err)
		}
	})
}

// TestTenantActiveQuota bounds one tenant's queued-plus-running jobs
// without touching other tenants.
func TestTenantActiveQuota(t *testing.T) {
	opts := testOptions()
	opts.MaxTenantActive = 1
	m := New(opts)
	defer closeManager(t, m)

	slow, err := m.Submit(Request{Bench: "slow", Tenant: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Bench: "pipe", Tenant: "greedy"}); !errors.Is(err, ErrTenantQuota) {
		t.Errorf("over-quota submit = %v, want ErrTenantQuota", err)
	}
	other, err := m.Submit(Request{Bench: "pipe", Tenant: "modest"})
	if err != nil {
		t.Errorf("other tenant blocked by greedy's quota: %v", err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, slow.ID)
	if _, err := m.Submit(Request{Bench: "pipe", Tenant: "greedy"}); err != nil {
		t.Errorf("quota slot not released after terminal job: %v", err)
	}
	if other.ID != "" {
		waitDone(t, m, other.ID)
	}
}

// TestWatchStreamsToTerminal subscribes to a job and requires the stream
// to deliver monotonic progress and end with a closed channel after the
// terminal snapshot.
func TestWatchStreamsToTerminal(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)

	if _, _, err := m.Watch("job-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Watch unknown = %v, want ErrNotFound", err)
	}

	v, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var views []JobView
	deadline := time.After(60 * time.Second)
	for {
		select {
		case view, ok := <-ch:
			if !ok {
				goto closed
			}
			views = append(views, view)
		case <-deadline:
			t.Fatal("watch channel never closed")
		}
	}
closed:
	if len(views) == 0 {
		t.Fatal("watch delivered no snapshots")
	}
	last := views[len(views)-1]
	if !last.State.Terminal() || last.State != StateDone {
		t.Fatalf("final snapshot state = %s, want done", last.State)
	}
	if last.Result == nil {
		t.Error("terminal snapshot carries no result")
	}
	for i := 1; i < len(views); i++ {
		if views[i].Progress.Done < views[i-1].Progress.Done {
			t.Errorf("progress went backwards: %d then %d", views[i-1].Progress.Done, views[i].Progress.Done)
		}
	}
	cancel() // idempotent after close

	// Watching an already-terminal job yields exactly the terminal
	// snapshot and an immediate close.
	ch2, cancel2, err := m.Watch(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	view, ok := <-ch2
	if !ok || view.State != StateDone {
		t.Fatalf("terminal watch: ok=%v state=%s", ok, view.State)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal watch channel not closed after its snapshot")
	}
}
