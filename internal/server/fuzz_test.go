package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fastflip/internal/service"
)

// fuzzHandler serves the v1 API over a manager that builds only the
// testprog pipeline ("pipe", variants none and modified), runs one job at
// a time and queues two, so accepted fuzz inputs cost little.
func fuzzHandler(f *testing.F) http.Handler {
	mgr := service.New(service.Options{
		Workers: 1, QueueDepth: 2, InjectWorkers: 1,
		Build:          testBuild,
		ListBenchmarks: func() []string { return []string{"pipe"} },
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		mgr.Close(ctx)
	})
	return New(mgr, nil)
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// decodeStrict decodes body into v when it is exactly one JSON value whose
// fields v all knows.
func decodeStrict(body []byte, v any) bool {
	if !json.Valid(body) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// validJob reports whether req names a buildable program with every
// numeric field in its domain: the requests that may start a campaign.
func validJob(req service.Request) bool {
	switch {
	case req.Bench != "pipe",
		req.Variant != "" && req.Variant != "none" && req.Variant != "modified",
		req.Workers < 0,
		req.Epsilon < 0,
		req.HardenTarget < 0 || req.HardenTarget > 1,
		len(req.Targets) > 64:
		return false
	}
	for _, v := range req.Targets {
		if !(v > 0 && v <= 1) {
			return false
		}
	}
	return true
}

// FuzzSubmitJob posts arbitrary bodies to POST /v1/jobs. No body panics
// the server; a malformed or out-of-range body gets a 400; a 202 (a job
// queued for a campaign) answers only a valid request, and a valid one is
// otherwise refused only by the full queue's 503. The corpus holds
// requests shaped like the service's clients' (perfbench's job mix, the
// README's examples).
func FuzzSubmitJob(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/jobs", body)
		var req service.Request
		valid := decodeStrict(body, &req) && validJob(req)
		switch {
		case rec.Code == http.StatusAccepted && !valid:
			t.Fatalf("accepted an invalid request: %q", body)
		case valid && rec.Code != http.StatusAccepted && rec.Code != http.StatusServiceUnavailable:
			t.Fatalf("valid request answered %d: %s", rec.Code, rec.Body)
		case !valid && rec.Code != http.StatusBadRequest:
			t.Fatalf("invalid request answered %d, want 400: %q", rec.Code, body)
		}
	})
}

// FuzzSubmitBatch posts arbitrary bodies to POST /v1/jobs/batch. No body
// panics the server; a malformed body, an empty batch or one over the
// limit gets a 400; each item is accepted only if it is a valid request,
// and an invalid item reports a 400 of its own.
func FuzzSubmitBatch(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/jobs/batch", body)
		var batch struct {
			Jobs []service.Request `json:"jobs"`
		}
		if !decodeStrict(body, &batch) || len(batch.Jobs) == 0 || len(batch.Jobs) > maxBatchJobs {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed batch answered %d, want 400: %q", rec.Code, body)
			}
			return
		}
		var resp struct {
			Jobs     []batchItem `json:"jobs"`
			Accepted int         `json:"accepted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Jobs) != len(batch.Jobs) {
			t.Fatalf("batch answered %d with %d items for %d jobs (%v): %s", rec.Code, len(resp.Jobs), len(batch.Jobs), err, rec.Body)
		}
		if want := map[bool]int{true: http.StatusAccepted, false: http.StatusBadRequest}[resp.Accepted > 0]; rec.Code != want {
			t.Fatalf("batch with %d accepted answered %d, want %d", resp.Accepted, rec.Code, want)
		}
		for i, item := range resp.Jobs {
			valid := validJob(batch.Jobs[i])
			switch {
			case item.Job != nil && !valid:
				t.Fatalf("item %d: accepted an invalid request %+v", i, batch.Jobs[i])
			case item.Job == nil && valid && item.Status != http.StatusServiceUnavailable:
				t.Fatalf("item %d: valid request refused with %d: %s", i, item.Status, item.Error)
			case item.Job == nil && !valid && item.Status != http.StatusBadRequest:
				t.Fatalf("item %d: invalid request refused with %d, want 400", i, item.Status)
			}
		}
	})
}
