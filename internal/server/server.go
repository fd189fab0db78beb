// Package server exposes a service.Manager over a stdlib-only JSON HTTP
// API — the front door of the ffserved daemon:
//
//	POST   /v1/jobs               submit an analysis        → 202 + job
//	POST   /v1/jobs/batch         submit several            → 202 + [item]
//	GET    /v1/jobs               list retained jobs        → 200 + [job]
//	GET    /v1/jobs/{id}          poll one job              → 200 + job
//	GET    /v1/jobs/{id}?wait=30s long-poll until terminal  → 200 + job
//	GET    /v1/jobs/{id}/events   stream progress (SSE)     → 200 + events
//	DELETE /v1/jobs/{id}          cancel a job              → 200 + job
//	GET    /v1/benchmarks         available benchmarks      → 200 + [benchmark]
//	GET    /healthz               liveness                  → 200
//	GET    /readyz                readiness                 → 200 or 503 + reason
//	GET    /metrics               expvar-style counters     → 200 + metrics
//
// The events stream is Server-Sent Events: one `event: <state>` /
// `data: <job JSON>` message per state or progress change, coalesced for
// slow consumers, ending after the terminal state. Clients that cannot
// speak SSE use `?wait=` on the poll endpoint instead: it blocks until
// the job finishes or the duration elapses, then returns the current
// snapshot either way — one request per job instead of a polling loop.
//
// Liveness and readiness are deliberately split: /healthz answers "is the
// process serving requests" and only ever returns 200, while /readyz
// answers "would a new submission be accepted and durable" — it degrades
// to 503 when the queue is saturated, the manager is draining, or the WAL
// directory is unwritable, so orchestrators stop routing new work without
// restarting a process that is still finishing jobs.
//
// Errors are returned as {"error": "..."} with 400 (a request the client
// can fix: malformed JSON, trailing data, an unknown field or benchmark, a
// numeric field out of range, invalid spec), 404 (unknown job), 409
// (cancelling a finished job), 429 (tenant over its active-job quota), 500
// (the service's own machinery failed — unwritable WAL directory,
// store-tier I/O), or 503 (queue full or shutting down).
// Queue-full 503s and quota 429s carry a Retry-After header so clients
// back off instead of hammering the queue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"syscall"
	"time"

	"fastflip/internal/coord"
	"fastflip/internal/service"
)

// maxBodyBytes bounds a submission body; requests are tiny.
const maxBodyBytes = 1 << 20

// Server routes HTTP requests to a Manager.
type Server struct {
	mgr   *service.Manager
	mux   *http.ServeMux
	log   *log.Logger
	coord *coord.Coordinator
	// disconnects counts response writes abandoned because the client
	// went away mid-write; surfaced as client_disconnects in /metrics.
	disconnects atomic.Uint64
}

// New returns a handler serving the v1 API for mgr. logger may be nil to
// disable request-failure logging.
func New(mgr *service.Manager, logger *log.Logger) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), log: logger}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("POST /v1/jobs/batch", s.submitBatch)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/benchmarks", s.benchmarks)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// WithCoordinator registers the distributed-campaign endpoints on top of
// the v1 API:
//
//	POST /v1/workers  {"url": "http://host:port"}  register a worker → 201
//	GET  /v1/workers  list registered workers       → 200 + [worker]
//
// Kept off New so existing single-process deployments keep their exact
// route set.
func (s *Server) WithCoordinator(c *coord.Coordinator) *Server {
	s.coord = c
	s.mux.HandleFunc("POST /v1/workers", s.addWorker)
	s.mux.HandleFunc("GET /v1/workers", s.listWorkers)
	return s
}

func (s *Server) addWorker(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" {
		s.fail(w, http.StatusBadRequest, errors.New("missing worker url"))
		return
	}
	id, err := s.coord.AddWorker(req.URL)
	if err != nil {
		// The worker did not answer its health probe: the registration is
		// refused so the fleet never contains a worker that was down on
		// arrival.
		s.fail(w, http.StatusBadGateway, err)
		return
	}
	s.reply(w, http.StatusCreated, map[string]string{"url": req.URL, "id": id})
}

func (s *Server) listWorkers(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, s.coord.Workers())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req service.Request
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.mgr.Submit(req)
	if err != nil {
		status := submitStatus(err)
		if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
			// A full queue or a tenant at quota is transient: tell
			// well-behaved clients when to come back instead of letting
			// them hot-loop on rejections.
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		s.fail(w, status, err)
		return
	}
	s.reply(w, http.StatusAccepted, job)
}

// decodeBody decodes a submission body into v: exactly one JSON value of
// at most maxBodyBytes, no unknown fields, nothing but space after it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after request object")
	}
	return nil
}

// maxBatchJobs bounds one batch submission.
const maxBatchJobs = 256

// batchItem is one entry of a batch submission's response: the accepted
// job, or the per-item failure with the status it would have earned as a
// single submission.
type batchItem struct {
	Job    *service.JobView `json:"job,omitempty"`
	Error  string           `json:"error,omitempty"`
	Status int              `json:"status,omitempty"`
}

// submitBatch submits several analysis requests in one round trip. Items
// are independent: each is accepted or rejected on its own, in order, and
// the response carries one batchItem per request. The response status is
// 202 when at least one item was accepted, 400 when none were.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []service.Request `json:"jobs"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("batch has no jobs"))
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch has %d jobs (max %d)", len(req.Jobs), maxBatchJobs))
		return
	}
	items := make([]batchItem, 0, len(req.Jobs))
	accepted := 0
	for _, jr := range req.Jobs {
		job, err := s.mgr.Submit(jr)
		if err != nil {
			items = append(items, batchItem{Error: err.Error(), Status: submitStatus(err)})
			continue
		}
		j := job
		items = append(items, batchItem{Job: &j})
		accepted++
	}
	status := http.StatusAccepted
	if accepted == 0 {
		status = http.StatusBadRequest
	}
	s.reply(w, status, map[string]any{"jobs": items, "accepted": accepted})
}

// retryAfterSeconds is the backoff hint attached to queue-full and
// draining 503 responses. Campaigns run for minutes; retrying sooner than
// this cannot succeed often enough to matter.
const retryAfterSeconds = "5"

// submitStatus classifies a submit failure. The contract: 4xx means "your
// request, fix it" (unknown benchmark, malformed spec, over quota), 5xx
// means "our machinery" (unwritable WAL directory, store-tier I/O), 503
// means "try again later". Before the classification the default arm
// mapped *every* non-queue error to 400, so infrastructure failures
// masqueraded as client errors and nobody's dashboard noticed.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, service.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrInfra):
		return http.StatusInternalServerError
	default:
		// Build and validation errors: unknown benchmark or variant,
		// malformed spec (service.ErrInvalid).
		return http.StatusBadRequest
	}
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, s.mgr.List())
}

// maxWait caps the ?wait= long-poll duration: longer holds pin server
// connections without improving on the SSE stream.
const maxWait = 5 * time.Minute

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wq := r.URL.Query().Get("wait"); wq != "" {
		// Long-poll fallback for clients that cannot consume SSE: block
		// until the job is terminal or the window elapses, then answer
		// with the current snapshot either way.
		d, err := time.ParseDuration(wq)
		if err != nil || d <= 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", wq))
			return
		}
		if d > maxWait {
			d = maxWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		job, err := s.mgr.Wait(ctx, id)
		if err == nil {
			s.reply(w, http.StatusOK, job)
			return
		}
		if errors.Is(err, service.ErrNotFound) {
			s.fail(w, http.StatusNotFound, err)
			return
		}
		// Window elapsed (or the client went away): fall through to the
		// plain snapshot below.
	}
	job, err := s.mgr.Get(id)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	s.reply(w, http.StatusOK, job)
}

// events streams a job's lifecycle as Server-Sent Events: one message per
// state or progress change (coalesced under load), the terminal snapshot
// last. A response writer without flush support degrades to a single
// long-poll: wait for the terminal state, reply once.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, canStream := w.(http.Flusher)
	if !canStream {
		job, err := s.mgr.Wait(r.Context(), id)
		if errors.Is(err, service.ErrNotFound) {
			s.fail(w, http.StatusNotFound, err)
			return
		}
		if err != nil {
			if job, err = s.mgr.Get(id); err != nil {
				s.fail(w, http.StatusNotFound, err)
				return
			}
		}
		s.reply(w, http.StatusOK, job)
		return
	}
	ch, cancel, err := s.mgr.Watch(id)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return
			}
			data, merr := json.Marshal(v)
			if merr != nil {
				return
			}
			if _, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", v.State, data); werr != nil {
				if isDisconnect(werr) {
					s.disconnects.Add(1)
				} else if s.log != nil {
					s.log.Printf("server: streaming events: %v", werr)
				}
				return
			}
			fl.Flush()
			if v.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			// The client hung up; that is the normal end of a stream whose
			// consumer lost interest, not an error.
			s.disconnects.Add(1)
			return
		}
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, service.ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, service.ErrFinished):
		s.fail(w, http.StatusConflict, err)
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
	default:
		s.reply(w, http.StatusOK, job)
	}
}

func (s *Server) benchmarks(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, s.mgr.Benchmarks())
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	s.reply(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.mgr.Readiness(); err != nil {
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.reply(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	s.reply(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	mt := s.mgr.Metrics()
	mt.ClientDisconnects = s.disconnects.Load()
	s.reply(w, http.StatusOK, mt)
}

// isDisconnect reports whether a response-write error means the client
// went away rather than anything being wrong server-side. Under polling
// load these are routine (a poller's deadline fires between our
// WriteHeader and the body write), so they are counted, not logged.
func isDisconnect(err error) bool {
	return errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, http.ErrHandlerTimeout)
}

func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if isDisconnect(err) {
			s.disconnects.Add(1)
			return
		}
		if s.log != nil {
			s.log.Printf("server: encoding response: %v", err)
		}
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if s.log != nil && status >= 500 {
		s.log.Printf("server: %v", err)
	}
	s.reply(w, status, map[string]string{"error": err.Error()})
}
