// Package exp contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§6). Each experiment is a
// plain function returning a result struct, shared between the
// `tropic-bench` command (full-scale runs, figure-style output) and the
// root-level testing.B benchmarks (compressed runs, CI-sized).
//
// Scale note: the paper evaluates on three 8-core Xeon machines over a
// one-hour trace. These harnesses run the same code paths in-process
// with simulated quorum latency, and expose time compression and
// topology knobs so each experiment can run full-scale (minutes) or
// CI-scale (seconds). EXPERIMENTS.md records the mapping.
package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/reconcile"
	"repro/internal/workload"
	"repro/tcloud"
	"repro/tropic"
)

// PlatformParams sizes the platform under test.
type PlatformParams struct {
	// Topology is the data center layout; Topology.ComputeHosts is the
	// main scale knob (paper: 12,500 hosts → 100,000 VM slots).
	Topology tcloud.Topology
	// LogicalOnly bypasses device execution (§5's testing mode, used by
	// the paper's scale experiments). When false, a simulated device
	// cloud backs the platform.
	LogicalOnly bool
	// CommitLatency simulates one store quorum round (the ZooKeeper I/O
	// the paper identifies as the dominant per-transaction cost).
	CommitLatency time.Duration
	// ActionLatency is the per-device-call latency in physical mode.
	ActionLatency time.Duration
	// WorkerThreads sizes the physical layer (default 4).
	WorkerThreads int
	// SessionTimeout is the failure-detection interval (default 150ms
	// here; the paper's deployment detects in seconds).
	SessionTimeout time.Duration
	// CheckpointEvery enables snapshot compaction.
	CheckpointEvery int
	// BatchMaxOps sizes the pipeline's group commits (tropic.Config
	// semantics). The experiment default is 1 — one item per controller
	// round, no submit or report coalescing — because the paper's
	// figures measure an unbatched pipeline; the pipeline experiments
	// opt in explicitly to measure the batching win.
	BatchMaxOps int
	// BatchMaxDelay bounds asynchronous batch flushes.
	BatchMaxDelay time.Duration
	// WorkerClaimBatch is the per-thread phyQ claim size.
	WorkerClaimBatch int
	// Shards partitions the platform into independent consistent-hash
	// shards (default 1, the paper's single-ensemble deployment).
	Shards int
	// Controllers is the per-shard controller replica count (default 3).
	Controllers int
	// MaxInflightPerShard is the gateway admission watermark
	// (tropic.Config semantics; 0 disables shedding — the default, so
	// every existing experiment measures the unshed pipeline).
	MaxInflightPerShard int
	// FollowerReads serves watermarked reads from caught-up replicas
	// (tropic.Config semantics; false is the leader-only baseline).
	FollowerReads bool
	// ReadCacheBytes is the per-shard watch-invalidated read cache
	// budget (0 disables caching).
	ReadCacheBytes int64
}

func (p PlatformParams) withDefaults() PlatformParams {
	if p.SessionTimeout <= 0 {
		p.SessionTimeout = 150 * time.Millisecond
	}
	if p.WorkerThreads <= 0 {
		p.WorkerThreads = 4
	}
	if p.BatchMaxOps == 0 {
		p.BatchMaxOps = 1
	}
	return p
}

// Env is a running platform plus the handles experiments need.
type Env struct {
	Platform *tropic.Platform
	Cloud    *device.Cloud // nil in logical-only mode
	Params   PlatformParams
}

// Start builds and starts a platform per the params.
func Start(ctx context.Context, p PlatformParams) (*Env, error) {
	p = p.withDefaults()
	env := &Env{Params: p}
	cfg := tropic.Config{
		Schema:              tcloud.NewSchema(),
		Procedures:          tcloud.Procedures(),
		CommitLatency:       p.CommitLatency,
		SessionTimeout:      p.SessionTimeout,
		WorkerThreads:       p.WorkerThreads,
		CheckpointEvery:     p.CheckpointEvery,
		BatchMaxOps:         p.BatchMaxOps,
		BatchMaxDelay:       p.BatchMaxDelay,
		WorkerClaimBatch:    p.WorkerClaimBatch,
		Shards:              p.Shards,
		Controllers:         p.Controllers,
		MaxInflightPerShard: p.MaxInflightPerShard,
		FollowerReads:       p.FollowerReads,
		ReadCacheBytes:      p.ReadCacheBytes,
	}
	if p.LogicalOnly {
		cfg.Bootstrap = p.Topology.BuildModel()
		cfg.Executor = tropic.NoopExecutor{Latency: p.ActionLatency}
	} else {
		cloud, err := p.Topology.BuildCloud()
		if err != nil {
			return nil, err
		}
		cloud.SetActionLatency(p.ActionLatency)
		env.Cloud = cloud
		cfg.Bootstrap = cloud.Snapshot()
		cfg.Executor = cloud
		cfg.Reconciler = reconcile.New(cloud, cloud, tcloud.RepairRules())
	}
	pl, err := tropic.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := pl.Start(ctx); err != nil {
		pl.Stop()
		return nil, err
	}
	env.Platform = pl
	return env, nil
}

// Stop shuts the environment down.
func (e *Env) Stop() { e.Platform.Stop() }

// runOps submits ops and waits for all of them, returning per-txn
// latencies and final states. Concurrency is bounded by inflight.
func runOps(ctx context.Context, pl *tropic.Platform, ops []workload.Op, inflight int) (*metrics.Histogram, map[tropic.State]int, error) {
	if inflight <= 0 {
		inflight = 64
	}
	lat := metrics.NewHistogram()
	states := make(map[tropic.State]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, inflight)
	errCh := make(chan error, 1)

	cli := pl.Client()
	defer cli.Close()
	for _, op := range ops {
		select {
		case err := <-errCh:
			return nil, nil, err
		default:
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(op workload.Op) {
			defer wg.Done()
			defer func() { <-sem }()
			rec, err := cli.SubmitAndWait(ctx, op.Proc, op.Args...)
			if err != nil {
				select {
				case errCh <- fmt.Errorf("%s: %w", op, err):
				default:
				}
				return
			}
			mu.Lock()
			states[rec.State]++
			mu.Unlock()
			lat.ObserveDuration(rec.Latency())
		}(op)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, nil, err
	default:
	}
	return lat, states, nil
}
