// Command sapserved is the long-running SAP solving service: an HTTP/JSON
// API over the combined path and ring solvers, fronted by a
// canonicalization cache, request deduplication, and admission control
// (internal/serve).
//
// Usage:
//
//	sapserved -addr :8080
//	curl -s localhost:8080/healthz
//	sapgen -family random | curl -s -X POST --data-binary @- localhost:8080/v1/solve
//	curl -s localhost:8080/metricsz
//
// Endpoints:
//
//	POST /v1/solve    solve a path or ring instance (model JSON format);
//	                  ?timeout=2s caps the solve, clamped to -max-timeout
//	POST   /v1/session             create an incremental session from an instance
//	POST   /v1/session/{id}/delta  apply a task add/remove delta; returns the
//	                               updated allocation and resolved_shards
//	DELETE /v1/session/{id}        delete a session
//	GET  /healthz     liveness; 503 once draining
//	GET  /metricsz    expvar bridge with the sapalloc metrics registry
//
// On SIGINT/SIGTERM the server drains: health flips to 503, new solves
// are refused with Retry-After, and in-flight requests get -grace to
// finish before the listener closes.
//
// With -store-dir, solved responses persist in the durable, tamper-evident
// solve store (internal/store). A restarted server replays and verifies
// the Merkle-chained log — truncating a crash's torn tail — and serves
// previously solved instances byte-identically without re-solving, marked
// "X-Sapalloc-Cache: store" and carrying an X-Sapalloc-Provenance header.
// -store-sync trades latency for host-crash durability; sapstore verifies
// and compacts store directories offline.
//
//	sapserved -addr :8080 -store-dir /var/lib/sapalloc/store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/obscli"
	"sapalloc/internal/serve"
	"sapalloc/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "listen address")
		eps         = flag.Float64("eps", 0.5, "ε for the approximation guarantees")
		workers     = flag.Int("workers", 0, "goroutine bound per solve (0 = GOMAXPROCS)")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "hard per-request deadline ceiling")
		defTimeout  = flag.Duration("default-timeout", 0, "deadline when the request names none (0 = max-timeout)")
		concurrency = flag.Int("concurrency", 0, "simultaneous solves (0 = GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 64, "requests allowed to wait beyond -concurrency before 429s")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		cacheEnts   = flag.Int("cache-entries", 4096, "canonicalization cache: max cached responses")
		cacheTasks  = flag.Int64("cache-tasks", 1<<20, "canonicalization cache: max total tasks across cached instances")
		maxBody     = flag.Int64("max-body-bytes", 32<<20, "request body size cap")
		maxSessions = flag.Int("max-sessions", 1024, "live incremental sessions before creates shed with 429")
		sessionTTL  = flag.Duration("session-ttl", 15*time.Minute, "idle session lifetime before lazy eviction")
		grace       = flag.Duration("grace", 30*time.Second, "drain window for in-flight requests on shutdown")
		storeDir    = flag.String("store-dir", "", "durable solve store directory (empty = no persistence); restarts replay and verify the log and serve stored responses byte-identically")
		storeSync   = flag.Duration("store-flush-interval", 0, "store write-batch latency trigger (0 = 50ms)")
		storeFsync  = flag.Bool("store-sync", false, "fsync the store after every batch (host-crash durability at a latency cost)")
	)
	obsFlags := obscli.RegisterServing(flag.CommandLine)
	flag.Parse()
	stopObs, err := obsFlags.Start("sapserved")
	if err != nil {
		fatalf("%v", err)
	}
	defer stopObs()

	var solveStore *store.File
	if *storeDir != "" {
		st, err := store.OpenFile(*storeDir, store.FileConfig{
			FlushInterval: *storeSync,
			Sync:          *storeFsync,
		})
		if err != nil {
			fatalf("open store %s: %v", *storeDir, err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sapserved: close store: %v\n", err)
			}
		}()
		solveStore = st
		stats := st.Stats()
		if stats.RecoveryErr != nil {
			fmt.Fprintf(os.Stderr, "sapserved: store recovered: %v\n", stats.RecoveryErr)
		}
		fmt.Fprintf(os.Stderr, "sapserved: store %s warm: %d records, %d batches, head %s\n",
			*storeDir, stats.Records, stats.Batches, stats.Head)
	}

	cfg := serve.Config{
		Params:         core.Params{Eps: *eps, Workers: *workers},
		MaxTimeout:     *maxTimeout,
		DefaultTimeout: *defTimeout,
		Concurrency:    *concurrency,
		Queue:          *queueDepth,
		RetryAfter:     *retryAfter,
		MaxBodyBytes:   *maxBody,
		CacheEntries:   *cacheEnts,
		CacheTasks:     *cacheTasks,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
	}
	if solveStore != nil {
		// Assign only when a store exists: a nil *store.File stuffed into
		// the interface field would read as a configured store.
		cfg.Store = solveStore
	}
	srv := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sapserved: listening on %s\n", *addr)

	select {
	case err := <-errCh:
		fatalf("listen %s: %v", *addr, err)
	case <-ctx.Done():
	}

	// Drain: stop advertising health, refuse new solves, let in-flight
	// requests finish within the grace window, then close the listener.
	fmt.Fprintf(os.Stderr, "sapserved: draining (grace %v)\n", *grace)
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sapserved: forced shutdown: %v\n", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "sapserved: drained, exiting")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sapserved: "+format+"\n", args...)
	os.Exit(1)
}
