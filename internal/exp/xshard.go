package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
	"repro/tcloud"
	"repro/tropic"
)

// CrossShardParams drives the cross-shard transaction experiment:
// committed throughput and latency of spanning submissions — each split
// into per-shard children and two-phase-committed by a coordinator —
// against the same-shard fast path, at a given shard count. At one
// shard every submission is trivially same-shard, so the Shards=1 point
// is the unsharded baseline the cross-shard overhead is measured from.
type CrossShardParams struct {
	// Shards is the partition count under test.
	Shards int
	// Hosts sizes the logical-only topology (default 192, one storage
	// host per compute host — enough that the default workload touches
	// each host at most once, so the run measures PROTOCOL overhead,
	// not lock contention; cross-shard locks are held across the whole
	// prepare→decide exchange, and a hot shared root convoys every
	// transaction behind it).
	Hosts int
	// Txns is how many transactions to push through PER WORKLOAD
	// (default 160): once all cross-shard, once all same-shard.
	Txns int
	// Inflight bounds submission concurrency (default 64).
	Inflight int
	// CommitLatency simulates one store quorum round per shard ensemble
	// (default 500µs). Cross-shard transactions pay it several times
	// (prepare, vote, decide, execute, report) across two ensembles.
	CommitLatency time.Duration
	// BatchMaxOps sizes each shard pipeline's group commits (default 32).
	BatchMaxOps int
	// Reps measures each workload this many times on the same platform
	// (default 1), keeping the best-throughput run per workload. On a
	// CPU-starved CI box a single draw confounds scheduler interference
	// with protocol cost; the best of a few reps is a far more stable
	// capability measurement for both workloads of the overhead ratio.
	Reps int
}

func (p CrossShardParams) withDefaults() CrossShardParams {
	if p.Shards <= 0 {
		p.Shards = 1
	}
	if p.Hosts <= 0 {
		p.Hosts = 192
	}
	if p.Txns <= 0 {
		p.Txns = 160
	}
	if p.Inflight <= 0 {
		p.Inflight = 64
	}
	if p.CommitLatency == 0 {
		p.CommitLatency = 500 * time.Microsecond
	}
	if p.BatchMaxOps <= 0 {
		p.BatchMaxOps = 32
	}
	if p.Reps <= 0 {
		p.Reps = 1
	}
	return p
}

// CrossShardLoadResult reports one workload's half of a run.
type CrossShardLoadResult struct {
	// Txns and Committed count submitted and committed transactions.
	Txns      int `json:"txns"`
	Committed int `json:"committed"`
	// Elapsed is first-submit to last-terminal wall time.
	Elapsed time.Duration `json:"elapsedNanos"`
	// PerSecond is committed transactions per second.
	PerSecond float64 `json:"perSecond"`
	// MeanLatencyMs and P99LatencyMs are submit→terminal latencies.
	MeanLatencyMs float64 `json:"meanLatencyMs"`
	P99LatencyMs  float64 `json:"p99LatencyMs"`
}

// CrossShardResult reports one cross-shard experiment point.
type CrossShardResult struct {
	// Shards echoes the partition count under test.
	Shards int `json:"shards"`
	// CrossPairs is how many distinct cross-shard (storage, compute)
	// pairings the topology offered (0 at one shard).
	CrossPairs int `json:"crossPairs"`
	// Cross is the spanning workload (two-phase commit per submission);
	// at Shards=1 it degenerates to the same-shard workload.
	Cross CrossShardLoadResult `json:"cross"`
	// Local is the same-shard workload on the identical platform — the
	// fast path the 2PC overhead is measured against.
	Local CrossShardLoadResult `json:"local"`
	// OverheadX is Local.PerSecond / Cross.PerSecond (1.0 at one shard):
	// how many single-shard transactions one cross-shard transaction
	// costs in steady-state throughput.
	OverheadX float64 `json:"overheadX"`
}

// CrossShard measures cross-shard transaction throughput and latency
// against the same-shard fast path at the given shard count. Both
// workloads run on one platform (cross first, then local) so they see
// identical ensembles, pipelines, and simulated store latency.
func CrossShard(ctx context.Context, p CrossShardParams) (CrossShardResult, error) {
	p = p.withDefaults()
	env, err := Start(ctx, PlatformParams{
		Topology: tcloud.Topology{
			ComputeHosts:      p.Hosts,
			ComputePerStorage: 1,
			StorageCapGB:      1 << 20,
			HostMemMB:         1 << 20,
		},
		LogicalOnly:    true,
		SessionTimeout: 2 * time.Second,
		CommitLatency:  p.CommitLatency,
		BatchMaxOps:    p.BatchMaxOps,
		Shards:         p.Shards,
		Controllers:    1,
	})
	if err != nil {
		return CrossShardResult{}, err
	}
	defer env.Stop()

	run := func(ops []workload.Op) (CrossShardLoadResult, error) {
		start := time.Now()
		lat, states, err := runOps(ctx, env.Platform, ops, p.Inflight)
		if err != nil {
			return CrossShardLoadResult{}, err
		}
		elapsed := time.Since(start)
		return CrossShardLoadResult{
			Txns:          len(ops),
			Committed:     states[tropic.StateCommitted],
			Elapsed:       elapsed,
			PerSecond:     float64(states[tropic.StateCommitted]) / elapsed.Seconds(),
			MeanLatencyMs: lat.Mean() * 1000,
			P99LatencyMs:  lat.Quantile(0.99) * 1000,
		}, nil
	}
	// best reruns a workload Reps times (fresh VM names each rep — spawns
	// are creations and must not collide) and keeps the fastest run.
	best := func(build func(rep int) ([]workload.Op, error)) (CrossShardLoadResult, error) {
		var out CrossShardLoadResult
		for rep := 0; rep < p.Reps; rep++ {
			ops, err := build(rep)
			if err != nil {
				return out, err
			}
			r, err := run(ops)
			if err != nil {
				return out, err
			}
			if rep == 0 || r.PerSecond > out.PerSecond {
				out = r
			}
		}
		return out, nil
	}

	crossPairs := 0
	res := CrossShardResult{Shards: p.Shards}
	res.Cross, err = best(func(rep int) ([]workload.Op, error) {
		ops, pairs, err := crossShardSpawnOps(env.Platform, p.Hosts, p.Txns, fmt.Sprintf("x%d", rep))
		crossPairs = pairs
		return ops, err
	})
	if err != nil {
		return res, err
	}
	res.CrossPairs = crossPairs
	res.Local, err = best(func(rep int) ([]workload.Op, error) {
		ops, _, err := shardLocalSpawnOps(env.Platform, p.Hosts, p.Txns)
		for i := range ops {
			ops[i].Args[2] = fmt.Sprintf("l%dvm%06d", rep, i)
		}
		return ops, err
	})
	if err != nil {
		return res, err
	}
	if res.Cross.PerSecond > 0 {
		res.OverheadX = res.Local.PerSecond / res.Cross.PerSecond
	}
	return res, nil
}

// crossShardSpawnOps builds n spawnVM submissions each pairing a
// compute host with a storage host a DIFFERENT shard owns, spread
// round-robin over the distinct cross pairings. At one shard no cross
// pairing exists and the workload degenerates to same-shard spawns (the
// baseline point). VM names are prefixed so the two workloads of a run
// never collide.
func crossShardSpawnOps(pl *tropic.Platform, hosts, n int, prefix string) ([]workload.Op, int, error) {
	type hostShard struct {
		path  string
		shard int
	}
	storage := make([]hostShard, 0, hosts)
	compute := make([]hostShard, 0, hosts)
	for i := 0; i < hosts; i++ {
		sp := tcloud.StorageHostPath(i)
		ss, err := pl.ShardOf(tcloud.ProcSpawnVM, sp)
		if err != nil {
			return nil, 0, err
		}
		storage = append(storage, hostShard{sp, ss})
		hp := tcloud.ComputeHostPath(i)
		hs, err := pl.ShardOf(tcloud.ProcSpawnVM, hp)
		if err != nil {
			return nil, 0, err
		}
		compute = append(compute, hostShard{hp, hs})
	}
	// Count distinct spanning pairings (reported, not enumerated into
	// the workload) and detect the degenerate single-shard layout.
	crossPairs := 0
	for _, s := range storage {
		for _, h := range compute {
			if s.shard != h.shard {
				crossPairs++
			}
		}
	}
	if crossPairs == 0 {
		// Single shard (or degenerate map): fall back to same-shard pairs
		// so the Shards=1 baseline still measures the identical procedure.
		ops, _, err := shardLocalSpawnOps(pl, hosts, n)
		for i := range ops {
			ops[i].Args[2] = fmt.Sprintf("%svm%06d", prefix, i)
		}
		return ops, 0, err
	}
	// Rotate BOTH sides so locks spread evenly: op i takes the next
	// storage host in round-robin order and pairs it with the next
	// compute host owned by a different shard. Hot-host contention would
	// otherwise dominate the measurement (the locks are held across the
	// 2PC exchange, so a shared storage host serializes the whole run).
	ops := make([]workload.Op, 0, n)
	hc := 0
	for i := 0; i < n; i++ {
		s := storage[i%len(storage)]
		var h hostShard
		for tries := 0; ; tries++ {
			h = compute[hc%len(compute)]
			hc++
			if h.shard != s.shard {
				break
			}
			if tries > len(compute) {
				return nil, 0, fmt.Errorf("exp: no cross-shard partner for %s", s.path)
			}
		}
		ops = append(ops, workload.Op{
			Proc: tcloud.ProcSpawnVM,
			Args: []string{s.path, h.path, fmt.Sprintf("%svm%06d", prefix, i), "1024"},
		})
	}
	return ops, crossPairs, nil
}
