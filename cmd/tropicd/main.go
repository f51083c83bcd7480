// Command tropicd runs a TROPIC deployment — replicated controllers,
// physical workers, and a simulated device cloud — and exposes the
// orchestration API over HTTP, playing the role of Figure 1's API
// service gateway.
//
//	tropicd -listen :7077 -hosts 16
//	tropicd -listen :7077 -hosts 16 -data-dir /var/lib/tropic -sync always
//	tropicd -listen :7077 -hosts 64 -shards 4
//
// With -data-dir the coordination store is durable: transactions,
// queues, and counters survive a daemon restart (crash or SIGTERM) and
// the platform resumes from its committed state.
//
// With -shards N the platform is partitioned into N independent
// ensembles (each with its own WAL under -data-dir/shard-NN, leader
// election, queues, and workers) behind a consistent-hash router; see
// docs/sharding.md for the routing rules. Submissions spanning shards
// run as atomic two-phase-commit transactions (docs/cross-shard.md).
//
// The HTTP surface is implemented by internal/api (see its package
// documentation for the endpoint reference); failures are structured
// JSON errors carrying repro/tropic/trerr taxonomy codes, and
// repro/tropic/httpclient is the matching Go SDK. GET /metrics exposes
// the full pipeline's instrumentation in Prometheus text format, and
// -max-inflight arms queue-depth admission control (HTTP 429 +
// Retry-After under overload); docs/observability.md catalogs both.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/reconcile"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

func main() {
	var (
		listen        = flag.String("listen", ":7077", "HTTP listen address")
		hosts         = flag.Int("hosts", 16, "simulated compute hosts")
		logicalOnly   = flag.Bool("logical-only", false, "bypass device execution (§5 testing mode)")
		controllers   = flag.Int("controllers", 3, "controller replicas")
		commitLat     = flag.Duration("commit-latency", 0, "simulated store quorum latency")
		actionLat     = flag.Duration("action-latency", 5*time.Millisecond, "simulated device call latency")
		sessionTO     = flag.Duration("session-timeout", 2*time.Second, "failure-detection interval")
		dataDir       = flag.String("data-dir", "", "coordination-store data directory (empty: in-memory only)")
		syncFlag      = flag.String("sync", "always", "WAL fsync policy with -data-dir: always|none")
		snapEvery     = flag.Int("snapshot-every", 4096, "store writes between snapshots with -data-dir")
		batchOps      = flag.Int("batch-max-ops", 32, "pipeline group-commit batch size (1 disables batching, 0 selects the default 32)")
		batchDelay    = flag.Duration("batch-max-delay", 2*time.Millisecond, "async batch flush-latency ceiling")
		workerClaim   = flag.Int("worker-claim", 4, "phyQ items one worker thread claims per store round trip")
		shards        = flag.Int("shards", 1, "consistent-hash store partitions, each with its own ensemble, controllers, and workers (see docs/sharding.md)")
		xshardTO      = flag.Duration("xshard-prepare-timeout", 10*time.Second, "cross-shard vote-collection deadline before an in-doubt transaction aborts")
		maxInflight   = flag.Int("max-inflight", 0, "per-shard admission watermark: shed submissions (HTTP 429, api.overloaded) once a shard's queued backlog reaches this (0 disables; see docs/observability.md)")
		followerReads = flag.Bool("follower-reads", true, "serve watermarked reads from caught-up follower replicas instead of the shard leader (see docs/reads.md)")
		readCache     = flag.Int64("read-cache-bytes", 32<<20, "per-shard watch-invalidated read cache budget in bytes (0 disables caching)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "tropicd ", log.LstdFlags|log.Lmicroseconds)
	if *shards < 1 {
		// Reject up front with the same typed code the gateway uses for
		// malformed input, instead of a zero-value surprise at runtime.
		logger.Fatalf("-shards: %v", trerr.Newf(trerr.APIBadRequest,
			"shard count %d must be ≥ 1", *shards))
	}
	syncPolicy, err := tropic.ParseSyncPolicy(*syncFlag)
	if err != nil {
		logger.Fatalf("-sync: %v", err)
	}
	cfg := tropic.Config{
		Schema:               tcloud.NewSchema(),
		Procedures:           tcloud.Procedures(),
		Controllers:          *controllers,
		CommitLatency:        *commitLat,
		SessionTimeout:       *sessionTO,
		DataDir:              *dataDir,
		SyncPolicy:           syncPolicy,
		SnapshotEvery:        *snapEvery,
		BatchMaxOps:          *batchOps,
		BatchMaxDelay:        *batchDelay,
		WorkerClaimBatch:     *workerClaim,
		Shards:               *shards,
		XShardPrepareTimeout: *xshardTO,
		MaxInflightPerShard:  *maxInflight,
		FollowerReads:        *followerReads,
		ReadCacheBytes:       *readCache,
		Logf:                 logger.Printf,
	}
	tp := tcloud.Topology{ComputeHosts: *hosts}
	if *logicalOnly {
		cfg.Bootstrap = tp.BuildModel()
		cfg.Executor = tropic.NoopExecutor{Latency: *actionLat}
	} else {
		cloud, err := tp.BuildCloud()
		if err != nil {
			logger.Fatalf("build cloud: %v", err)
		}
		cloud.SetActionLatency(*actionLat)
		cfg.Bootstrap = cloud.Snapshot()
		cfg.Executor = cloud
		cfg.Reconciler = reconcile.New(cloud, cloud, tcloud.RepairRules())
	}

	p, err := tropic.New(cfg)
	if err != nil {
		logger.Fatalf("platform: %v", err)
	}
	startCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := p.Start(startCtx); err != nil {
		cancel()
		logger.Fatalf("start: %v", err)
	}
	cancel()
	logger.Printf("platform up: %d compute hosts (%d VM slots), %d storage hosts, leader %s",
		*hosts, *hosts*8, tp.StorageHosts(), p.Leader().Name())
	// Log the RESOLVED configuration (0 values select defaults), not the
	// raw flags.
	if info := p.PipelineInfo(); info.BatchMaxOps > 1 {
		logger.Printf("pipeline: group commit on (batch-max-ops=%d batch-max-delay=%.3gms worker-claim=%d)",
			info.BatchMaxOps, info.BatchMaxDelayMs, info.WorkerClaimBatch)
	} else {
		logger.Printf("pipeline: group commit OFF (per-item round trips)")
	}
	if n := p.NumShards(); n > 1 {
		logger.Printf("sharding: %d consistent-hash partitions, cross-shard 2PC prepare timeout %s", n, *xshardTO)
	}
	if *maxInflight > 0 {
		logger.Printf("admission control: shedding api.overloaded at %d queued per shard", *maxInflight)
	}
	switch info := p.PipelineInfo(); {
	case info.FollowerReads && info.ReadCacheBytes > 0:
		logger.Printf("read path: follower reads on, cache %d MiB per shard, X-Tropic-Zxid watermarks honored",
			info.ReadCacheBytes>>20)
	case info.FollowerReads:
		logger.Printf("read path: follower reads on, cache OFF")
	case info.ReadCacheBytes > 0:
		logger.Printf("read path: leader-only reads (ablation), cache %d MiB per shard", info.ReadCacheBytes>>20)
	default:
		logger.Printf("read path: leader-only reads, cache OFF (ablation baseline)")
	}
	if *dataDir != "" {
		if ps := p.Ensemble().PersistStats(); ps.Recoveries > 0 {
			logger.Printf("durable store: dir=%s sync=%s recovered in %s",
				*dataDir, syncPolicy, p.Ensemble().LastRecovery())
		} else {
			logger.Printf("durable store: dir=%s sync=%s (fresh)", *dataDir, syncPolicy)
		}
	}

	gw := api.New(api.Config{Platform: p, Logf: logger.Printf})
	defer gw.Close()
	srv := &http.Server{Addr: *listen, Handler: gw}
	go func() {
		logger.Printf("listening on %s", *listen)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("listen: %v", err)
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	<-sigCh
	logger.Printf("shutting down")
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutdownCtx)
	// Stop flushes the coordination store's WAL (with -data-dir), so a
	// SIGTERM'd deployment restarts from exactly its committed state.
	err = p.Stop()
	switch {
	case *dataDir == "":
	case err != nil:
		logger.Printf("WARNING: final WAL flush failed, the log tail may not be durable: %v", err)
	default:
		logger.Printf("state flushed to %s", *dataDir)
	}
}
