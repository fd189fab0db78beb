package coord

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fastflip/internal/core"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// TestWorkerTraceCacheBounded posts 40 valid leases that differ only in
// their checkpoint interval (and every other one in no_batch): the worker
// runs each against a trace of its own interval but keeps one cached trace
// for the benchmark version.
func TestWorkerTraceCacheBounded(t *testing.T) {
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	key, err := core.SectionKey(tr, tr.Instances[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerOptions{ID: "w", Build: pipelineBuild, Workers: 1})
	for i := 1; i <= 40; i++ {
		c := cfg
		c.CheckpointInterval = int64(7 * i)
		c.NoBatch = i%2 == 0
		body, err := json.Marshal(ShardRequest{
			Bench: "pipe", Variant: "none", SectionKey: hex.EncodeToString(key[:]),
			Fingerprint: core.CampaignFingerprint(tr.Fingerprint(), c),
			Lo:          0, Hi: 4, Config: shardConfig(c),
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shardPath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("lease %d: status %d: %s", i, rec.Code, rec.Body)
		}
		w.mu.Lock()
		lt := w.traces[benchVersion{"pipe", "none"}]
		w.mu.Unlock()
		if lt == nil || lt.shape.checkpointInterval != c.CheckpointInterval {
			t.Fatalf("lease %d: cached trace is not the one of the lease's interval", i)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.traces); n != 1 {
		t.Errorf("%d cached traces after 40 leases of one benchmark version, want 1", n)
	}
}
