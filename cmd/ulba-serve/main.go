// Command ulba-serve exposes the four engines of package ulba — Experiment,
// Sweep, RuntimeExperiment, RuntimeSweep — as an HTTP/JSON service with a
// deterministic, content-addressed result cache, single-flight
// deduplication of concurrent identical requests, an asynchronous job queue
// (POST /v1/jobs: submit now, poll/stream/fetch later), and an optional
// persistent result store that survives restarts (see internal/server and
// API.md for the endpoint reference).
//
//	ulba-serve                         # listen on :8383, results in memory
//	ulba-serve -addr 127.0.0.1:0      # ephemeral port, printed on startup
//	ulba-serve -store-dir /var/lib/ulba   # persist results + job checkpoints
//	curl localhost:8383/v1/registries
//	curl -d '{"sample":{"seed":2019,"n":100}}' localhost:8383/v1/sweep
//	curl -d '{"type":"sweep","request":{"sample":{"seed":2019,"n":100000}}}' \
//	     localhost:8383/v1/jobs        # async: returns a job id immediately
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests and running jobs get -shutdown-timeout to finish
// (their contexts are cancelled when it expires), and the exit is clean.
// With -store-dir, interrupted sweep jobs leave their per-instance
// checkpoints on disk, so resubmitting the identical request after a
// restart resumes instead of recomputing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ulba/internal/jobs"
	"ulba/internal/server"
)

func main() {
	var (
		addr            = flag.String("addr", ":8383", "listen address (host:port; port 0 picks an ephemeral port)")
		cacheMB         = flag.Int64("cache-mb", 64, "result-cache budget in MiB; 0 disables storage (single-flight dedup stays on)")
		maxConcurrent   = flag.Int("max-concurrent", 0, "max requests running engine work at once; <= 0 selects GOMAXPROCS")
		maxBodyMB       = flag.Int64("max-body-mb", 32, "request-body size limit in MiB")
		storeDir        = flag.String("store-dir", "", "directory for the persistent result store and job checkpoints; empty keeps results in memory only")
		jobWorkers      = flag.Int("job-workers", 0, "max jobs running concurrently; <= 0 selects GOMAXPROCS")
		jobRetention    = flag.Duration("job-retention", time.Hour, "how long finished jobs stay listable; 0 keeps them forever")
		maxInflight     = flag.Int("max-inflight", 0, "admission control: max engine-bound requests admitted at once before shedding with 429 (cache hits bypass); 0 selects 64x -max-concurrent, negative disables")
		maxQueuedJobs   = flag.Int("max-queued-jobs", 256, "admission control: max queued jobs before POST /v1/jobs sheds with 429 (cached submissions bypass); 0 leaves the queue unbounded")
		retryAfter      = flag.Duration("retry-after", time.Second, "Retry-After hint sent with every 429, rounded up to whole seconds")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests and running jobs on SIGINT/SIGTERM")
	)
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // Config: negative disables, 0 means default
	}
	retention := *jobRetention
	if retention <= 0 {
		retention = -1 // Config: negative keeps forever, 0 means default
	}
	cfg := server.Config{
		CacheBytes:    cacheBytes,
		MaxConcurrent: *maxConcurrent,
		MaxBodyBytes:  *maxBodyMB << 20,
		JobWorkers:    *jobWorkers,
		JobRetention:  retention,
		MaxInflight:   *maxInflight,
		MaxQueuedJobs: *maxQueuedJobs,
		RetryAfter:    *retryAfter,
	}
	if *storeDir != "" {
		store, err := jobs.Open(*storeDir)
		if err != nil {
			log.Fatalf("ulba-serve: %v", err)
		}
		cfg.Store = store
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("ulba-serve: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("ulba-serve: %v", err)
	}
	workers := *maxConcurrent
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The startup line is load-bearing: the CI smoke test and scripted
	// clients parse the address from it (port 0 binds an ephemeral port).
	fmt.Printf("ulba-serve listening on %s (cache %d MiB, %d concurrent engine requests)\n",
		ln.Addr(), *cacheMB, workers)
	if st := srv.Stats().Store; st != nil {
		fmt.Printf("ulba-serve store %s: %d results (%d bytes) on disk, %d warm-loaded into the cache\n",
			*storeDir, st.Entries, st.Bytes, st.Seeded)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("ulba-serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	// One grace period covers both halves of the drain: in-flight HTTP
	// requests first, then running jobs — whose checkpoints are already on
	// disk, so even a forced cancellation loses no completed instance.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	clean := true
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// The grace period expired: cancel the stragglers' contexts and
		// close their connections rather than hanging forever.
		httpSrv.Close()
		log.Printf("ulba-serve: forced connection shutdown after %s: %v", *shutdownTimeout, err)
		clean = false
	}
	if err := srv.Close(shutdownCtx); err != nil {
		log.Printf("ulba-serve: forced job shutdown: %v", err)
		clean = false
	}
	if !clean {
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ulba-serve: %v", err)
	}
	fmt.Println("ulba-serve: graceful shutdown complete")
}
