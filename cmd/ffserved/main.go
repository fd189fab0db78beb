// Command ffserved runs the FastFlip analysis service: a resident daemon
// that accepts analysis jobs over HTTP, runs them on a bounded worker
// pool, and keeps section stores in memory so repeated submissions reuse
// per-section results across requests (§4.7 across processes).
//
// Usage:
//
//	ffserved                      # listen on :8080
//	ffserved -addr :9000 -jobs 2  # two concurrent analysis jobs
//
// Submit and poll with curl:
//
//	curl -X POST localhost:8080/v1/jobs -d '{"bench":"fft","variant":"small"}'
//	curl localhost:8080/v1/jobs/job-1
//	curl -X DELETE localhost:8080/v1/jobs/job-1
//
// A job with "harden": true (optionally "harden_target": 0.95) closes the
// protection loop: the selected instructions are hardened with
// duplication-and-compare detectors, the hardened program is re-injected,
// and the result reports the measured residual SDC, detector coverage,
// and the hardened disassembly (result.hardened_asm, fasm syntax). The
// /metrics endpoint counts hardened_jobs and detector_triggers.
//
// Distributed campaigns connect several ffserved processes:
//
//	ffserved -worker -addr :8081            # injection worker, no job API
//	ffserved -addr :8080 -peers http://host:8081,http://host:8082
//
// A coordinator (-peers) shards each section's experiments across its
// registered workers and merges the streamed results; workers can also be
// registered at runtime via POST /v1/workers {"url": "..."}.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains running jobs
// for up to -drain, then hard-cancels whatever is left and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fastflip/internal/coord"
	"fastflip/internal/core"
	"fastflip/internal/ostore"
	"fastflip/internal/server"
	"fastflip/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("ffserved: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		jobs     = flag.Int("jobs", 1, "concurrent analysis jobs")
		queue    = flag.Int("queue", 64, "maximum queued jobs")
		retain   = flag.Int("retain", 64, "finished jobs retained for retrieval")
		workers  = flag.Int("workers", 0, "default injection worker goroutines per job (0 = GOMAXPROCS)")
		drain    = flag.Duration("drain", 30*time.Second, "how long to let running jobs finish on shutdown")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		walDir   = flag.String("wal-dir", "", "write-ahead campaign log directory; a job re-POSTed over a crashed campaign resumes it and reports resumed_experiments")
		workMode = flag.Bool("worker", false, "run as a shard worker: serve only POST /v1/shard and GET /healthz, no job API")
		workerID = flag.String("worker-id", "", "worker identity reported to coordinators (default worker-<pid>)")
		peers    = flag.String("peers", "", "comma-separated worker base URLs; turns this daemon into a campaign coordinator")
		noElide  = flag.Bool("no-elide", false, "disable the static masking tier for every job (simulate all experiments)")
		noBatch  = flag.Bool("no-batch", false, "disable lockstep batch replay for every job (scalar forks only)")
		shared   = flag.String("shared-store", "", "directory of the shared content-addressed outcome tier; several ffserved processes may point at the same directory (empty = a 64 MiB in-memory cache)")
		sharedQ  = flag.Int64("shared-quota", 0, "per-tenant live byte quota in the shared store, oldest sections evicted beyond it (0 = unlimited)")
		tenantQ  = flag.Int("tenant-jobs", 0, "per-tenant active-job quota, submissions beyond it get 429 (0 = unlimited)")
		token    = flag.String("worker-token", "", "shared secret for worker shard endpoints: workers refuse leases without it, coordinators send it as a bearer token")
		shardTO  = flag.Duration("shard-timeout", 0, "coordinator cap on one shard dispatch's deadline budget (0 = default 2m)")
	)
	flag.Parse()

	if *workMode {
		runWorker(*addr, *workerID, *workers, *token)
		return
	}

	if *debug != "" {
		// pprof lives on its own mux and listener so profiling endpoints
		// are never exposed on the service address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *debug)
			dsrv := &http.Server{Addr: *debug, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	var co *coord.Coordinator
	if *peers != "" {
		co = coord.NewCoordinator(coord.Options{Logf: log.Printf, WorkerToken: *token, ShardTimeout: *shardTO})
		defer co.Close()
		for _, url := range strings.Split(*peers, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			id, err := co.AddWorker(url)
			if err != nil {
				// A peer that is down at startup is a warning, not fatal: it
				// can be registered later via POST /v1/workers once it is up.
				log.Printf("peer %s unreachable, not registered: %v", url, err)
				continue
			}
			log.Printf("registered worker %s at %s", id, url)
		}
	}

	var sharedStore *ostore.Store
	if *shared != "" {
		var err error
		sharedStore, err = ostore.Open(ostore.Options{Dir: *shared, TenantQuotaBytes: *sharedQ})
		if err != nil {
			log.Fatalf("shared store: %v", err)
		}
		defer func() {
			if err := sharedStore.Close(); err != nil {
				log.Printf("shared store close: %v", err)
			}
		}()
		log.Printf("shared outcome tier at %s", *shared)
	}

	mgr := service.New(service.Options{
		Workers:         *jobs,
		QueueDepth:      *queue,
		MaxRetained:     *retain,
		InjectWorkers:   *workers,
		WALDir:          *walDir,
		Coordinator:     co,
		Shared:          sharedStore,
		MaxTenantActive: *tenantQ,
		ConfigHook: func(cfg *core.Config) {
			cfg.Elide = !*noElide
			cfg.NoBatch = *noBatch
		},
	})
	handler := server.New(mgr, log.Default())
	if co != nil {
		handler.WithCoordinator(co)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d job workers, queue %d)", *addr, *jobs, *queue)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down, draining jobs for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := mgr.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("drain timed out, running jobs cancelled: %v", err)
	}
	log.Printf("bye")
}

// runWorker serves the shard-worker API and nothing else: a worker holds
// no job queue, no store cache, and no WAL — every lease it runs streams
// straight back to the coordinator that owns the campaign.
func runWorker(addr, id string, injectWorkers int, token string) {
	w := coord.NewWorker(coord.WorkerOptions{ID: id, Workers: injectWorkers, Token: token})
	srv := &http.Server{Addr: addr, Handler: w, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("worker %s listening on %s", w.ID(), addr)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("worker bye")
}
