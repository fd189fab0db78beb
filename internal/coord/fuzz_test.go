package coord

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/sites"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// FuzzShardRequest posts arbitrary bodies to a fresh worker's shard
// endpoint. No body panics the worker; a body that fails to decode, names
// an instance, range or done class out of bounds, or carries a stale
// fingerprint or section key gets a 4xx; and a 200 (a campaign started)
// only ever answers a lease that passes all of those checks, with a sealed
// stream of records from the leased range. The corpus holds leases a
// coordinator sent while analyzing the testprog pipeline.
func FuzzShardRequest(f *testing.F) {
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := NewWorker(WorkerOptions{ID: "fuzz", Build: pipelineBuild, Workers: 1})
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPath, bytes.NewReader(body)))
		req, classes, valid := validLease(tr, body)
		switch {
		case rec.Code == http.StatusOK && !valid:
			t.Fatalf("worker ran a campaign for an invalid lease: %q", body)
		case rec.Code == http.StatusOK:
			checkShardStream(t, rec.Body, req, classes)
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("status %d for %q", rec.Code, body)
		case valid:
			t.Fatalf("valid lease refused with %d: %s", rec.Code, rec.Body)
		}
	})
}

// validLease decides, independently of the worker's handler, whether body
// is a lease the worker must run: one JSON value that decodes to a request
// whose instance, fingerprint, section key, range and done classes all
// check out against the pipeline's trace.
func validLease(tr *trace.Trace, body []byte) (ShardRequest, []*sites.Class, bool) {
	var req ShardRequest
	if json.Unmarshal(body, &req) != nil || req.Instance < 0 || req.Instance >= len(tr.Instances) {
		return req, nil, false
	}
	cfg := req.Config.analysisConfig(1)
	if core.CampaignFingerprint(tr.Fingerprint(), cfg) != req.Fingerprint {
		return req, nil, false
	}
	inst := tr.Instances[req.Instance]
	key, err := core.SectionKey(tr, inst, cfg)
	if err != nil || hex.EncodeToString(key[:]) != req.SectionKey {
		return req, nil, false
	}
	classes := sites.ForInstance(tr, inst, core.SiteOptions(tr, cfg))
	if req.Lo < 0 || req.Hi < req.Lo || req.Hi > len(classes) {
		return req, nil, false
	}
	for _, ci := range req.Done {
		if ci < 0 || ci >= len(classes) {
			return req, nil, false
		}
	}
	return req, classes, true
}

// checkShardStream reads a worker's response to a valid lease: framed
// records of classes inside the leased range and not already done, each
// once, then a seal carrying the record count.
func checkShardStream(t *testing.T, body io.Reader, req ShardRequest, classes []*sites.Class) {
	t.Helper()
	want := map[sites.ClassKey]bool{}
	done := map[int]bool{}
	for _, ci := range req.Done {
		done[ci] = true
	}
	for _, ci := range inject.DynOrder(classes)[req.Lo:req.Hi] {
		if !done[ci] {
			want[classes[ci].Key] = true
		}
	}
	expect := len(want)
	r := inject.NewStreamReader(body)
	n := 0
	for {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("stream ended without a seal: %v", err)
		}
		if rec.Type == inject.StreamSeal {
			if rec.Seal != n || n != expect {
				t.Fatalf("seal counts %d, stream carried %d records, lease asked for %d", rec.Seal, n, expect)
			}
			return
		}
		if rec.Type != inject.StreamExperiment || !want[rec.Experiment.Key] {
			t.Fatalf("record %+v is not a leased experiment", rec)
		}
		delete(want, rec.Experiment.Key)
		n++
	}
}

// TestShardRequestBounds: a lease whose range or done list leaves the
// section, or with bytes after its JSON value, is refused with 400 before
// any campaign starts; the same lease in bounds runs.
func TestShardRequestBounds(t *testing.T) {
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	key, err := core.SectionKey(tr, tr.Instances[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sites.ForInstance(tr, tr.Instances[0], core.SiteOptions(tr, cfg)))
	lease := func(edit func(*ShardRequest)) []byte {
		req := ShardRequest{
			Bench: "pipe", Variant: "none", SectionKey: hex.EncodeToString(key[:]),
			Fingerprint: core.CampaignFingerprint(tr.Fingerprint(), cfg),
			Lo:          0, Hi: 4, Config: shardConfig(cfg),
		}
		edit(&req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"in bounds", lease(func(*ShardRequest) {}), http.StatusOK},
		{"negative lo", lease(func(r *ShardRequest) { r.Lo = -1 }), http.StatusBadRequest},
		{"hi past the section", lease(func(r *ShardRequest) { r.Hi = n + 1 }), http.StatusBadRequest},
		{"lo after hi", lease(func(r *ShardRequest) { r.Lo, r.Hi = 3, 2 }), http.StatusBadRequest},
		{"done class out of range", lease(func(r *ShardRequest) { r.Done = []int{n} }), http.StatusBadRequest},
		{"trailing data", append(lease(func(*ShardRequest) {}), '}'), http.StatusBadRequest},
	} {
		w := NewWorker(WorkerOptions{ID: "w", Build: pipelineBuild, Workers: 1})
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPath, bytes.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
}
