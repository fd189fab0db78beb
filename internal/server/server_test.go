package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fastflip/internal/service"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
)

// testBuild serves the testprog pipeline as benchmark "pipe". Variant
// "modified" exercises partial reuse; any other unknown variant fails.
func testBuild(name, variant string) (*spec.Program, error) {
	if name != "pipe" {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	switch variant {
	case "none":
		return testprog.Pipeline(), nil
	case "modified":
		return testprog.PipelineModified(), nil
	}
	return nil, fmt.Errorf("unknown variant %q", variant)
}

func newTestServer(t *testing.T, opts service.Options) (*httptest.Server, *service.Manager) {
	t.Helper()
	if opts.Build == nil {
		opts.Build = testBuild
		opts.ListBenchmarks = func() []string { return []string{"pipe"} }
	}
	mgr := service.New(opts)
	ts := httptest.NewServer(New(mgr, nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	return ts, mgr
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollTerminal polls GET /v1/jobs/{id} until the job finishes.
func pollTerminal(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v service.JobView
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobView{}
}

func pollRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v service.JobView
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &v)
		if v.State == service.StateRunning {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s finished (%s) before it was observed running", id, v.State)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func TestSubmitPollResult(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})

	var metricsBefore service.Metrics
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metricsBefore)

	var v service.JobView
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "pipe", Variant: "none", Baseline: true}, &v)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if v.ID == "" || v.Bench != "pipe" {
		t.Fatalf("submit response %+v", v)
	}

	got := pollTerminal(t, ts.URL, v.ID)
	if got.State != service.StateDone {
		t.Fatalf("job state %s (err %q), want done", got.State, got.Error)
	}
	if got.Result == nil || got.Result.Bench != "pipe" || got.Result.Variant != "none" {
		t.Fatalf("result %+v", got.Result)
	}
	if len(got.Result.Targets) == 0 {
		t.Error("baseline job returned no target evaluations")
	}

	// The listing includes the job.
	var list []service.JobView
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list) != 1 || list[0].ID != v.ID {
		t.Errorf("list = %+v", list)
	}

	// Counters moved: one job done, sections injected, experiments run.
	var metricsAfter service.Metrics
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metricsAfter)
	if metricsAfter.JobsDone != metricsBefore.JobsDone+1 {
		t.Errorf("jobs_done %d -> %d, want +1", metricsBefore.JobsDone, metricsAfter.JobsDone)
	}
	if metricsAfter.StoreMisses == metricsBefore.StoreMisses {
		t.Error("store_misses did not move")
	}
	if metricsAfter.InjectionsRun == metricsBefore.InjectionsRun {
		t.Error("injections_run did not move")
	}
	if metricsAfter.SharedSections == 0 {
		t.Error("shared_sections still zero after a completed job")
	}
	// The default config batches same-site experiments; the pipe fixture's
	// classes all batch, so the counters and the derived mean width move.
	if metricsAfter.BatchedExperiments == metricsBefore.BatchedExperiments {
		t.Error("batched_experiments did not move")
	}
	if metricsAfter.BatchReplicasAvg <= 0 {
		t.Errorf("batch_replicas_avg = %v, want > 0", metricsAfter.BatchReplicasAvg)
	}
}

func TestStoreCacheAcrossRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	for i, wantReused := range []int{0, 2} {
		var v service.JobView
		doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			service.Request{Bench: "pipe", Variant: "none"}, &v)
		got := pollTerminal(t, ts.URL, v.ID)
		if got.State != service.StateDone {
			t.Fatalf("submission %d: state %s", i, got.State)
		}
		if got.Result.Reused != wantReused {
			t.Errorf("submission %d reused %d sections, want %d", i, got.Result.Reused, wantReused)
		}
	}
	// A modified version reuses the unchanged section only.
	var v service.JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "pipe", Variant: "modified", Modified: true}, &v)
	got := pollTerminal(t, ts.URL, v.ID)
	if got.Result.Reused != 1 || got.Result.Injected != 1 {
		t.Errorf("modified version: reused=%d injected=%d, want 1/1",
			got.Result.Reused, got.Result.Injected)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"bench": `},
		{"unknown field", `{"bench":"pipe","nope":1}`},
		{"unknown benchmark", `{"bench":"nope"}`},
		{"unknown variant", `{"bench":"pipe","variant":"huge"}`},
		{"trailing data", `{"bench":"pipe"} {"bench":"pipe"}`},
	}
	for _, tc := range cases {
		var e map[string]string
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tc.body, &e)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if e["error"] == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-404", nil, nil); code != http.StatusNotFound {
		t.Errorf("get status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-404", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete status %d, want 404", code)
	}
}

func TestHealthAndBenchmarks(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	var health map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
	var infos []service.BenchmarkInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/benchmarks", nil, &infos); code != http.StatusOK {
		t.Fatalf("benchmarks status %d", code)
	}
	if len(infos) != 1 || infos[0].Name != "pipe" {
		t.Errorf("benchmarks = %+v", infos)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	resp, err := http.Post(ts.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status %d, want 405", resp.StatusCode)
	}
}

// TestEndToEndFFT is the acceptance scenario: a real fft-small analysis
// submitted over HTTP and polled to completion, then a second in-flight
// job cancelled mid-campaign. Uses the real benchmark registry, so it is
// skipped in -short runs.
func TestEndToEndFFT(t *testing.T) {
	if testing.Short() {
		t.Skip("real fft analysis in -short mode")
	}
	// The real benchmark registry (bench.Build), not the pipe fixture.
	mgr := service.New(service.Options{Workers: 1})
	ts := httptest.NewServer(New(mgr, nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})

	var v service.JobView
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "fft", Variant: "small"}, &v)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	got := pollTerminal(t, ts.URL, v.ID)
	if got.State != service.StateDone {
		t.Fatalf("fft job state %s (err %q)", got.State, got.Error)
	}
	if got.Result == nil || got.Result.SiteCount == 0 || got.Result.Injected == 0 {
		t.Fatalf("fft result %+v", got.Result)
	}

	// Second job: a fresh benchmark with a multi-second campaign,
	// cancelled as soon as it is observed running.
	var v2 service.JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.Request{Bench: "lud", Variant: "none"}, &v2)
	pollRunning(t, ts.URL, v2.ID)
	start := time.Now()
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	got2 := pollTerminal(t, ts.URL, v2.ID)
	if got2.State != service.StateCancelled {
		t.Fatalf("cancelled job state %s", got2.State)
	}
	if wait := time.Since(start); wait > 30*time.Second {
		t.Errorf("cancellation took %v", wait)
	}
	// A second DELETE now conflicts.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil, nil); code != http.StatusConflict {
		t.Errorf("cancel finished job status %d, want 409", code)
	}
}
