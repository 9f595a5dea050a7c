// Command leakd serves the leakage-control simulation as a service: an
// HTTP/JSON API over the harness with a content-addressed result store, so
// repeated and overlapping sweeps are answered from disk and only new cells
// are simulated. The store is the daemon's one durable record: each cell
// is written to it as it settles, before it counts as done. SIGTERM/SIGINT
// drain gracefully — queued sweeps are canceled and in-flight cells
// finish or stop — and a restarted daemon resumes a resubmitted sweep from
// the store, simulating only the cells no earlier run stored.
//
// Usage:
//
//	leakd -store /var/lib/leakd [-addr :8080] [-workers N] [-telemetry FILE]
//
// Sweeps carry two cell kinds: energy cells (a benchmark under a leakage
// technique, the default) and attack cells (`"kind":"attack"` with a
// `scenario` name — an adversarial prime+probe run scored with channel
// metrics; see DESIGN.md §14). Both kinds ride the same store and
// federation machinery, and `leakbench -attack -remote` renders the
// leakage-vs-savings frontier from a daemon.
//
// Cluster mode: `leakd -coordinator -cluster w1:8081,w2:8082,w3:8083` runs
// the coordinator — the same front door over an executor that shards
// sweeps across the listed workers by load, with a rendezvous order over
// the cells' content addresses breaking ties, work stealing onto idle
// workers and re-sharding on worker death. Workers started with `-peer http://coordinator:8080` consult the
// coordinator's federated store view before simulating a missed cell.
// See DESIGN.md §13.
//
// The store is garbage-collected in the background when a policy is set:
// -store-ttl expires records by age, -store-max-bytes bounds the store by
// evicting oldest-first, and -gc-interval paces the passes. GC is crash-safe
// (write-new, fsync, atomic rename) and at-least-once: a crash mid-pass
// never loses a live record, at worst it resurrects expired ones until the
// next pass.
//
// See EXPERIMENTS.md for the API reference and a curl walkthrough, and
// DESIGN.md §11 for the failure model behind -faultplane and -sweep-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"hotleakage/internal/cluster"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leakd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		storeDir     = flag.String("store", "", "result store directory (required)")
		workers      = flag.Int("workers", 0, "harness workers per sweep (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 16, "queued sweeps per priority class before 429")
		sweeps       = flag.Int("sweeps", 0, fmt.Sprintf("sweeps executing concurrently (0 = 1 on a worker, %d on a coordinator)", cluster.DefaultSweepConcurrency))
		maxCells     = flag.Int("max-cells", 4096, "cells per sweep before 400")
		instructions = flag.Uint64("n", 1_000_000, "default measured instructions per cell")
		warmup       = flag.Uint64("warmup", 300_000, "default warmup instructions per cell")
		runTimeout   = flag.Duration("run-timeout", 0, "per-cell deadline (0 = none)")
		maxRetries   = flag.Int("max-retries", 2, "per-cell retry budget")
		sweepTimeout = flag.Duration("sweep-timeout", 0, "watchdog: whole-sweep deadline, canceled and failed past it (0 = none)")
		storeTTL     = flag.Duration("store-ttl", 0, "GC: expire store records older than this (0 = keep forever)")
		storeMaxB    = flag.Int64("store-max-bytes", 0, "GC: evict oldest records beyond this store size (0 = unbounded)")
		gcInterval   = flag.Duration("gc-interval", 10*time.Minute, "pace of background GC passes (needs -store-ttl or -store-max-bytes)")
		faultSpec    = flag.String("faultplane", "", "inject faults for chaos testing, e.g. store.sync:err:1/50,server.handler:5xx:1/100 (see DESIGN.md §11)")
		drainWait    = flag.Duration("drain", 30*time.Second, "max graceful drain on SIGTERM")
		telemetry    = flag.String("telemetry", "", "append JSONL trace events to this file")
		retention    = flag.Duration("retention", 0, "evict terminal sweeps from memory this long after they finish (0 = keep forever)")
		coordinator  = flag.Bool("coordinator", false, "run as cluster coordinator instead of a worker (requires -cluster)")
		clusterList  = flag.String("cluster", "", "comma-separated worker addresses for -coordinator mode")
		peerURL      = flag.String("peer", "", "worker mode: coordinator URL for the federated store view (cells missed locally are fetched before simulating)")
		shardRetries = flag.Int("shard-retries", 2, "coordinator mode: re-dispatch attempts per shard after worker deaths")
	)
	flag.Parse()
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)

	var plane *faultinject.Plane
	if *faultSpec != "" {
		var err error
		plane, err = faultinject.ParsePlane(*faultSpec)
		if err != nil {
			return err
		}
		logger.Printf("leakd: CHAOS MODE, fault plane %q armed", plane)
	}

	sopts := store.Options{Logf: logger.Printf}
	if plane != nil {
		sopts.FS = &store.FaultFS{Plane: plane, Base: store.OSFS{}}
	}
	st, err := store.OpenOptions(*storeDir, sopts)
	if err != nil {
		return err
	}
	defer st.Close()
	if n := st.Skipped(); n > 0 {
		logger.Printf("store: skipped %d corrupt record(s) while indexing %s", n, *storeDir)
	}

	// Both modes are the same front door; -coordinator only swaps the
	// local executor for one that shards sweeps across the listed workers.
	cfg := server.Config{
		Store:               st,
		Workers:             *workers,
		QueueDepth:          *queueDepth,
		SweepConcurrency:    *sweeps,
		MaxCells:            *maxCells,
		DefaultInstructions: *instructions,
		DefaultWarmup:       *warmup,
		RunTimeout:          *runTimeout,
		MaxRetries:          *maxRetries,
		SweepTimeout:        *sweepTimeout,
		Plane:               plane,
		Retention:           *retention,
		Log:                 logger,
	}
	if *peerURL != "" {
		cfg.Peer = api.NewClient(*peerURL)
		logger.Printf("leakd: federating store misses through %s", *peerURL)
	}
	if *telemetry != "" {
		f, err := os.OpenFile(*telemetry, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Events = obs.NewTraceWriter(f)
	}
	var srv *server.Server
	if *coordinator {
		if *clusterList == "" {
			return fmt.Errorf("-coordinator requires -cluster with at least one worker address")
		}
		var workerAddrs []string
		for _, a := range strings.Split(*clusterList, ",") {
			if a = strings.TrimSpace(a); a != "" {
				workerAddrs = append(workerAddrs, a)
			}
		}
		d, err := cluster.NewDispatcher(cluster.Config{
			Workers:      workerAddrs,
			Store:        st,
			ShardRetries: *shardRetries,
			Log:          logger,
		})
		if err != nil {
			return err
		}
		if cfg.SweepConcurrency <= 0 {
			cfg.SweepConcurrency = cluster.DefaultSweepConcurrency
		}
		if srv, err = server.NewWith(cfg, d); err != nil {
			return err
		}
		logger.Printf("leakd: coordinator over %d workers: %s", len(workerAddrs), strings.Join(workerAddrs, ", "))
	} else if srv, err = server.New(cfg); err != nil {
		return err
	}

	// Background GC: pace-limited passes under the configured policy. The
	// loop stops with the daemon; a pass racing the drain is safe (GC and
	// reads/writes share the store lock).
	gcPolicy := store.GCPolicy{TTL: *storeTTL, MaxBytes: *storeMaxB}
	gcStop := make(chan struct{})
	if gcPolicy.Enabled() {
		if *gcInterval <= 0 {
			return fmt.Errorf("-gc-interval must be positive when GC is enabled")
		}
		go func() {
			tick := time.NewTicker(*gcInterval)
			defer tick.Stop()
			for {
				select {
				case <-gcStop:
					return
				case <-tick.C:
					stats, err := st.GC(gcPolicy)
					if err != nil {
						logger.Printf("leakd: store GC: %v", err)
					} else if stats.Dropped > 0 {
						logger.Printf("leakd: store GC dropped %d record(s), reclaimed %d bytes (%d live)",
							stats.Dropped, stats.ReclaimedBytes, stats.Live)
					}
				}
			}
		}()
		logger.Printf("leakd: store GC every %s (ttl=%s, max-bytes=%d)", *gcInterval, *storeTTL, *storeMaxB)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := obs.HardenedServer(srv.Handler())
	go func() { _ = hs.Serve(ln) }()
	logger.Printf("leakd: listening on http://%s, store %s (%d cells)",
		ln.Addr(), *storeDir, st.Len())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	<-ctx.Done()
	stopSignals()

	logger.Printf("leakd: draining (max %s)", *drainWait)
	close(gcStop)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Printf("leakd: %v", err)
	}
	obs.Shutdown(hs)
	logger.Printf("leakd: drained, store has %d cells", st.Len())
	return nil
}
