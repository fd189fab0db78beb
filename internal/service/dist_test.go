package service

import (
	"testing"

	"fastflip/internal/coord"
	"fastflip/internal/core"
)

// distOptions is testOptions with a coordinator attached. The fleet is
// deliberately empty: every campaign converges through the coordinator's
// local fallback, which exercises the exact distributed code path without
// network plumbing.
func distOptions(c *coord.Coordinator) Options {
	o := testOptions()
	o.Coordinator = c
	return o
}

// TestDistributedJobReusesCache runs pipe locally, then the same job
// through a coordinator over the same cache: a distributed job looks up
// and publishes like a local one, so it reuses both sections, dispatches
// nothing to the fleet, and reports the same summary.
func TestDistributedJobReusesCache(t *testing.T) {
	cache := openShared(t, "")
	local := testOptions()
	local.Shared = cache
	mL := New(local)
	defer closeManager(t, mL)
	ref := waitDone(t, mL, submit(t, mL, Request{Bench: "pipe", Baseline: true}).ID)
	if ref.State != StateDone || ref.Result.Injected != 2 {
		t.Fatalf("local job: %s (err %q), result %+v", ref.State, ref.Error, ref.Result)
	}

	c := coord.NewCoordinator(coord.Options{Heartbeat: -1})
	defer c.Close()
	dist := distOptions(c)
	dist.Shared = cache
	mD := New(dist)
	defer closeManager(t, mD)
	got := waitDone(t, mD, submit(t, mD, Request{Bench: "pipe", Baseline: true}).ID)
	if got.State != StateDone {
		t.Fatalf("distributed job: %s (err %q)", got.State, got.Error)
	}
	if r := got.Result; r.Reused != 2 || r.Injected != 0 || r.SharedHits != 2 {
		t.Errorf("distributed job: reused=%d injected=%d shared_hits=%d, want 2/0/2", r.Reused, r.Injected, r.SharedHits)
	}
	if d := c.Metrics(); d.ShardsDispatched != 0 || d.LocalFallbackExperiments != 0 {
		t.Errorf("fully cached job reached the fleet: %+v", d)
	}
	if a, b := summaryJSON(t, ref.Result, 0), summaryJSON(t, got.Result, core.AllowRemote); a != b {
		t.Errorf("distributed summary differs from the local one:\n local %s\n dist  %s", a, b)
	}
}

// TestDistributedMetricsExposed: a manager with a coordinator surfaces
// the fleet's metrics through its own.
func TestDistributedMetricsExposed(t *testing.T) {
	c := coord.NewCoordinator(coord.Options{Heartbeat: -1})
	defer c.Close()
	m := New(distOptions(c))
	defer closeManager(t, m)

	waitDone(t, m, submit(t, m, Request{Bench: "pipe"}).ID)
	mt := m.Metrics()
	if mt.Dist == nil {
		t.Fatal("manager with coordinator exposes no dist metrics")
	}
	if mt.Dist.LocalFallbackExperiments == 0 {
		t.Errorf("empty-fleet campaign not counted as local fallback: %+v", mt.Dist)
	}

	plain := New(testOptions())
	defer closeManager(t, plain)
	if plain.Metrics().Dist != nil {
		t.Error("manager without coordinator exposes dist metrics")
	}
}

// submit is a fatal-on-error Submit.
func submit(t *testing.T, m *Manager, req Request) JobView {
	t.Helper()
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
