package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastflip/internal/core"
	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
	"fastflip/internal/vm"
)

// testBuild serves the two-section testprog pipeline as benchmark "pipe"
// (variant "modified" changes its second section) and a long-running
// single-section spin loop as benchmark "slow".
func testBuild(name, variant string) (*spec.Program, error) {
	switch name {
	case "pipe":
		if variant == "modified" {
			return testprog.PipelineModified(), nil
		}
		return testprog.Pipeline(), nil
	case "slow":
		return slowProg(50000), nil
	case "slowish":
		// Long enough to still be running when a test reacts to the
		// state change, short enough to drain quickly.
		return slowProg(5000), nil
	default:
		return nil, fmt.Errorf("testBuild: unknown benchmark %q", name)
	}
}

func testOptions() Options {
	return Options{
		Build:          testBuild,
		ListBenchmarks: func() []string { return []string{"pipe", "slow"} },
	}
}

// slowProg builds a program whose single section spins a float loop for
// iters iterations: enough error sites and a long enough section that its
// injection campaign takes seconds if left uncancelled.
func slowProg(iters int64) *spec.Program {
	p := prog.New()

	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Call("spin")
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())

	spin := prog.NewFunc("spin")
	spin.Li(1, 0)
	spin.Fld(0, 1, 0) // acc = x
	spin.Fli(1, 0)    // f1 = 0: acc stays finite
	spin.Li(12, 0)
	spin.Li(13, iters)
	spin.Label("loop")
	spin.Fadd(0, 0, 1)
	spin.Addi(12, 12, 1)
	spin.Blt(12, 13, "loop")
	spin.Li(1, 0)
	spin.Fst(0, 1, 1) // y = acc
	spin.Ret()
	p.MustAdd(spin.MustBuild())

	linked, err := p.Link("main")
	if err != nil {
		panic(err)
	}
	x := spec.Buffer{Name: "x", Addr: 0, Len: 1, Kind: spec.Float}
	y := spec.Buffer{Name: "y", Addr: 1, Len: 1, Kind: spec.Float}
	return &spec.Program{
		Name: "slow", Linked: linked, MemWords: 4,
		Init: func(m *vm.Machine) { m.Mem[0] = 0x3FF0000000000000 }, // x = 1.0
		Sections: []spec.Section{{ID: 0, Name: "spin", Instances: []spec.InstanceIO{
			{Inputs: []spec.Buffer{x}, Outputs: []spec.Buffer{y}, Live: []spec.Buffer{x, y}},
		}}},
		FinalOutputs: []spec.Buffer{y},
	}
}

func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.Close(ctx)
}

func waitDone(t *testing.T, m *Manager, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return v
}

// waitState polls until the job reaches state s (for non-terminal states
// Wait can't observe).
func waitState(t *testing.T, m *Manager, id string, s State) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == s {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s while waiting for %s", id, v.State, s)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, s)
	return JobView{}
}

func TestJobLifecycleAndCacheReuse(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)

	v, err := m.Submit(Request{Bench: "pipe", Variant: "none", Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}
	got := waitDone(t, m, v.ID)
	if got.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", got.State, got.Error)
	}
	if got.Result == nil {
		t.Fatal("done job has no result")
	}
	if got.Result.Instances != 2 || got.Result.Injected != 2 || got.Result.Reused != 0 {
		t.Errorf("first run: instances=%d injected=%d reused=%d, want 2/2/0",
			got.Result.Instances, got.Result.Injected, got.Result.Reused)
	}
	if len(got.Result.Targets) == 0 || got.Result.Baseline == nil {
		t.Error("baseline run missing targets or baseline summary")
	}
	if got.Progress.Done != 2 {
		t.Errorf("final progress done = %d, want 2", got.Progress.Done)
	}
	if got.StartedAt == nil || got.FinishedAt == nil {
		t.Error("done job missing timestamps")
	}

	// A second submission of the same benchmark+variant must be served
	// from the result cache: every section instance reused.
	v2, err := m.Submit(Request{Bench: "pipe", Variant: "none", Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	got2 := waitDone(t, m, v2.ID)
	if got2.State != StateDone {
		t.Fatalf("second job state = %s (err %q)", got2.State, got2.Error)
	}
	if got2.Result.Reused != 2 || got2.Result.Injected != 0 {
		t.Errorf("second run: reused=%d injected=%d, want 2/0",
			got2.Result.Reused, got2.Result.Injected)
	}

	mt := m.Metrics()
	if mt.JobsSubmitted != 2 || mt.JobsDone != 2 {
		t.Errorf("metrics: submitted=%d done=%d, want 2/2", mt.JobsSubmitted, mt.JobsDone)
	}
	if mt.StoreHits != 2 || mt.StoreMisses != 2 {
		t.Errorf("metrics: hits=%d misses=%d, want 2/2", mt.StoreHits, mt.StoreMisses)
	}
	if mt.SharedSections != 2 || mt.SharedHits != 2 || mt.SharedMisses != 2 {
		t.Errorf("metrics: cached sections=%d hits=%d misses=%d, want 2/2/2", mt.SharedSections, mt.SharedHits, mt.SharedMisses)
	}
	if mt.InjectionsRun == 0 || mt.SimInstrs == 0 {
		t.Error("metrics: injection counters did not move")
	}
}

// TestHardenedJob runs the protection loop through the job path: the
// result must carry the measured residual figures within the predicted
// bound, the hardened disassembly, and the metrics must count the job and
// its detector triggers.
func TestHardenedJob(t *testing.T) {
	m := New(testOptions())
	defer m.Close(context.Background())
	v, err := m.Submit(Request{Bench: "pipe", Harden: true, HardenTarget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state %v (error %q)", fin.State, fin.Error)
	}
	s := fin.Result
	if s.HardenedTarget != 0.9 {
		t.Errorf("hardened target %v, want 0.9", s.HardenedTarget)
	}
	if s.ResidualSDC > s.PredictedResidual {
		t.Errorf("residual SDC %d exceeds predicted bound %d", s.ResidualSDC, s.PredictedResidual)
	}
	if s.DetectorTriggers == 0 {
		t.Error("no detector triggers in the hardened campaign")
	}
	if !strings.Contains(s.HardenedAsm, "trap") {
		t.Errorf("hardened disassembly carries no detector trap:\n%s", s.HardenedAsm)
	}
	mt := m.Metrics()
	if mt.HardenedJobs != 1 {
		t.Errorf("hardened_jobs = %d, want 1", mt.HardenedJobs)
	}
	if mt.DetectorTriggers != uint64(s.DetectorTriggers) {
		t.Errorf("detector_triggers = %d, want %d", mt.DetectorTriggers, s.DetectorTriggers)
	}
}

func TestSubmitUnknownBenchmark(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)
	if _, err := m.Submit(Request{Bench: "nope"}); err == nil {
		t.Error("submitting an unknown benchmark must fail")
	}
}

func TestGetAndCancelUnknownJob(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)
	if _, err := m.Get("job-99"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("job-99"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)
	v, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, m, v.ID)
	if got.State != StateCancelled {
		t.Fatalf("cancelled job state = %s (err %q)", got.State, got.Error)
	}
	if got.Result != nil {
		t.Error("cancelled job must not carry a result")
	}
	if got.Progress.Done >= got.Progress.Instances && got.Progress.Instances > 0 {
		t.Errorf("cancelled job completed all %d instances", got.Progress.Instances)
	}
	if mt := m.Metrics(); mt.JobsCancelled != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", mt.JobsCancelled)
	}
}

func TestCancelQueuedJobAndCancelFinished(t *testing.T) {
	m := New(testOptions()) // one worker: the slow job blocks the queue
	defer closeManager(t, m)
	slow, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, StateRunning)
	queued, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Cancel(queued.ID); err != nil || v.State != StateCancelled {
		t.Fatalf("cancelling queued job: state %s, err %v", v.State, err)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel = %v, want ErrFinished", err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, slow.ID); got.State != StateCancelled {
		t.Fatalf("slow job state = %s", got.State)
	}
}

func TestQueueFull(t *testing.T) {
	opts := testOptions()
	opts.QueueDepth = 1
	m := New(opts)
	defer closeManager(t, m)
	slow, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, StateRunning) // queue slot free again
	if _, err := m.Submit(Request{Bench: "pipe"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Bench: "pipe"}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("third submit = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionKeepsNewestFinished(t *testing.T) {
	opts := testOptions()
	opts.MaxRetained = 1
	m := New(opts)
	defer closeManager(t, m)
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(Request{Bench: "pipe"})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, v.ID)
		ids = append(ids, v.ID)
	}
	for _, id := range ids[:2] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("job %s not evicted: %v", id, err)
		}
	}
	if _, err := m.Get(ids[2]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if mt := m.Metrics(); mt.JobsEvicted != 2 {
		t.Errorf("jobs_evicted = %d, want 2", mt.JobsEvicted)
	}
	if got := m.List(); len(got) != 1 || got[0].ID != ids[2] {
		t.Errorf("List = %+v, want just %s", got, ids[2])
	}
}

func TestCloseDrainsRunningAndRejectsSubmit(t *testing.T) {
	m := New(testOptions())
	v, err := m.Submit(Request{Bench: "slowish"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	got, err := m.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Errorf("drained job state = %s, want done", got.State)
	}
	if _, err := m.Submit(Request{Bench: "pipe"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

func TestCloseCancelsQueuedJobs(t *testing.T) {
	m := New(testOptions())
	slow, err := m.Submit(Request{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, StateRunning)
	queued, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	// The running job ignores the drain deadline only until hard-cancel:
	// a tiny timeout exercises that path too.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if got, _ := m.Get(queued.ID); got.State != StateCancelled {
		t.Errorf("queued job state after close = %s, want cancelled", got.State)
	}
	if got, _ := m.Get(slow.ID); got.State != StateCancelled {
		t.Errorf("running job state after hard-cancel = %s, want cancelled", got.State)
	}
}

func TestBenchmarksInfo(t *testing.T) {
	m := New(testOptions())
	defer closeManager(t, m)
	v, err := m.Submit(Request{Bench: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, v.ID)
	infos := m.Benchmarks()
	if len(infos) != 2 || infos[0].Name != "pipe" || infos[1].Name != "slow" {
		t.Fatalf("benchmarks = %+v, want pipe and slow", infos)
	}
	for _, info := range infos {
		if len(info.Variants) == 0 {
			t.Errorf("%s lists no variants", info.Name)
		}
	}
	// The cache is content-addressed, not per benchmark: pipe's sections
	// show in the manager-wide gauge.
	if got := m.Metrics().SharedSections; got != 2 {
		t.Errorf("cached sections = %d, want 2", got)
	}
}

// TestAdjustedTargetsSurviveOtherBenchmarks: a benchmark's §4.10 state —
// the adjusted targets of its last full evaluation and m_adj — is kept
// per benchmark and never evicted, so a job on another benchmark in
// between does not make a modified version recompute its targets.
func TestAdjustedTargetsSurviveOtherBenchmarks(t *testing.T) {
	opts := testOptions()
	opts.MaxCachedBenches = 1 // ignored: §4.10 state is never evicted
	m := New(opts)
	defer closeManager(t, m)

	first := waitDone(t, m, submit(t, m, Request{Bench: "pipe", Baseline: true}).ID)
	if first.State != StateDone {
		t.Fatalf("first job: %s (err %q)", first.State, first.Error)
	}
	if other := waitDone(t, m, submit(t, m, Request{Bench: "slowish"}).ID); other.State != StateDone {
		t.Fatalf("other benchmark's job: %s (err %q)", other.State, other.Error)
	}
	checkStoredTargets(t, m, first, 0)
}

// TestConcurrentJobsKeepEachOthersAdjustedTargets: two jobs on one
// benchmark that run at once with different ε each add their adjusted
// targets to the benchmark's §4.10 state; the job that finishes last does
// not drop the other's.
func TestConcurrentJobsKeepEachOthersAdjustedTargets(t *testing.T) {
	opts := testOptions()
	opts.Workers = 2
	// Hold the first two jobs until both have started, so both begin from
	// the same empty §4.10 state.
	var started sync.WaitGroup
	started.Add(2)
	var calls atomic.Int32
	opts.ConfigHook = func(*core.Config) {
		if calls.Add(1) <= 2 {
			started.Done()
			started.Wait()
		}
	}
	m := New(opts)
	defer closeManager(t, m)

	epsilons := []float64{0, 0.5}
	var ids []string
	for _, eps := range epsilons {
		ids = append(ids, submit(t, m, Request{Bench: "pipe", Baseline: true, Epsilon: eps}).ID)
	}
	firsts := make([]JobView, len(ids))
	for i, id := range ids {
		if firsts[i] = waitDone(t, m, id); firsts[i].State != StateDone {
			t.Fatalf("ε=%v job: %s (err %q)", epsilons[i], firsts[i].State, firsts[i].Error)
		}
	}
	for i, eps := range epsilons {
		checkStoredTargets(t, m, firsts[i], eps)
	}
}

// checkStoredTargets runs pipe's modified version at ε and requires its
// targets to be the ones first adjusted, i.e. read from the §4.10 state
// rather than recomputed.
func checkStoredTargets(t *testing.T, m *Manager, first JobView, eps float64) {
	t.Helper()
	mod := waitDone(t, m, submit(t, m, Request{Bench: "pipe", Variant: "modified", Modified: true, Baseline: true, Epsilon: eps}).ID)
	if mod.State != StateDone {
		t.Fatalf("modified job at ε=%v: %s (err %q)", eps, mod.State, mod.Error)
	}
	want, got := first.Result.Targets, mod.Result.Targets
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("ε=%v targets: first %d, modified %d", eps, len(want), len(got))
	}
	for i := range want {
		if got[i].Adjusted != want[i].Adjusted {
			t.Errorf("ε=%v target %v: modified version adjusted to %v, first job to %v", eps, want[i].Target, got[i].Adjusted, want[i].Adjusted)
		}
	}
}
