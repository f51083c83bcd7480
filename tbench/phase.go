package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/tcloud"
	"repro/tropic"
)

// Platform settings shared by every workload: tropicd's shipped
// defaults, logical-only, with no simulated latency anywhere on the
// measured path (CommitLatency 0 and a zero-latency executor), so every
// measured millisecond is processor time of the program itself.
const (
	controllers   = 3
	storeReplicas = 3
	batchMaxOps   = 32
	batchMaxDelay = 2 * time.Millisecond
	workerClaim   = 4
	snapshotEvery = 4096
	prepareTO     = 10 * time.Second
	sessionTO     = 2 * time.Second
	cacheBytes    = 32 << 20
	listPageSize  = 20 // records per list page, in-process and over HTTP
	// syncPolicy skips the fsync call itself: the data directory lives
	// in the checkout, usually a virtio disk whose fsync latency moves
	// throughput by a third from run to run. Every WAL append, group
	// sync boundary and snapshot still runs.
	syncPolicy = tropic.SyncNone
)

// sizes fixes the amount of work one run does. The timed phase is a
// fixed amount of work rather than a fixed wall time, so every run of a
// workload takes the same number of store snapshots and allocates the
// same way; -seconds scales it at the reference rate.
type sizes struct {
	reps       int   // repetitions per run, each a fresh set-up and timed phase
	hosts      int   // compute hosts, each with its own storage host
	window     int   // transactions kept in flight by the generator
	skew       int   // spanning: shard-0-only spawns before the warm-up (see runWindowed)
	warmup     int   // transactions (readmix: mix operations per connection) warming each set-up
	timed      int   // transactions (readmix: mix operations per connection) in the timed phase
	lists      int   // spawn/spanning: list pages read during the timed phase
	seeded     int   // readmix: committed records written before the restart
	cacheBytes int64 // read-cache budget per shard
}

// runEnv is what one repetition of a workload receives from run.
type runEnv struct {
	opts  options
	sizes sizes
	dir   string // the repetition's data directory
	tr    *tracer
}

// workload is one of the benchmark's traffic mixes.
type workload struct {
	sizes func(seconds int) sizes
	run   func(ctx context.Context, env *runEnv) (*phase, error)
}

var workloads = map[string]workload{
	"spawn":    {sizes: spawnSizes, run: runSpawn},
	"spanning": {sizes: spanningSizes, run: runSpanning},
	"readmix":  {sizes: readmixSizes, run: runReadmix},
}

// phase accumulates what one repetition measured.
type phase struct {
	setup   float64 // seconds from platform construction to the first timed operation
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64

	ops       int64 // client operations: the denominator of the per-op costs
	txns      int64 // committed transactions in the timed phase
	attempted int64 // every checked call: transactions, reads, list pages
	failed    int64

	txnLat  []float64 // ms, submit to terminal as the client sees it
	readLat []float64 // µs
	listLat []float64 // ms

	snapshots  int64
	staleReads int64 // child reads served before the child's final commit
	before     counters
	after      counters
	heapMax    uint64
	recoverMs  float64
	apiGetUs   float64
	timedFrom  time.Time
	timedTo    time.Time
}

// fail counts a failed operation; the first few are explained on
// standard error.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if ph.failed <= 10 {
		fmt.Fprintf(os.Stderr, "tbench: check failed: "+format+"\n", args...)
	}
}

func (ph *phase) endToEnd() map[string]metric {
	sec := ph.elapsed.Seconds()
	ops := float64(ph.ops)
	return map[string]metric{
		"setup_s":         {ph.setup, "s"},
		"txns_per_s":      {finite(float64(ph.txns) / sec), "1/s"},
		"txn_p50_ms":      {quantile(ph.txnLat, 0.50), "ms"},
		"txn_p99_ms":      {quantile(ph.txnLat, 0.99), "ms"},
		"reads_per_s":     {finite(float64(len(ph.readLat)) / sec), "1/s"},
		"read_p50_us":     {quantile(ph.readLat, 0.50), "us"},
		"read_p90_us":     {quantile(ph.readLat, 0.90), "us"},
		"list_p50_ms":     {quantile(ph.listLat, 0.50), "ms"},
		"cpu_ms_per_op":   {finite(float64(ph.cpu) / 1e6 / ops), "ms"},
		"alloc_kb_per_op": {finite(float64(ph.alloc) / 1024 / ops), "KiB"},
	}
}

// quantile interpolates linearly between the closest ranks. It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	return quantile(append([]float64(nil), v...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// platformConfig is tropicd's default deployment in logical-only mode
// over a 1:1 topology with room for every spawn the run makes.
func platformConfig(shards, hosts int, dataDir string, cache int64) tropic.Config {
	tp := tcloud.Topology{
		ComputeHosts:      hosts,
		ComputePerStorage: 1,
		StorageCapGB:      1 << 30,
		HostMemMB:         1 << 30,
	}
	return tropic.Config{
		Schema:               tcloud.NewSchema(),
		Procedures:           tcloud.Procedures(),
		Bootstrap:            tp.BuildModel(),
		Executor:             tropic.NoopExecutor{},
		Controllers:          controllers,
		StoreReplicas:        storeReplicas,
		SessionTimeout:       sessionTO,
		DataDir:              dataDir,
		SyncPolicy:           syncPolicy,
		SnapshotEvery:        snapshotEvery,
		BatchMaxOps:          batchMaxOps,
		BatchMaxDelay:        batchMaxDelay,
		WorkerClaimBatch:     workerClaim,
		Shards:               shards,
		CrossShard:           tropic.CrossShardEnabled,
		XShardFastPath:       tropic.XShardFastPathEnabled,
		XShardPrepareTimeout: prepareTO,
		FollowerReads:        true,
		ReadCacheBytes:       cache,
	}
}

// startPlatform builds and starts a platform, recording the two calls
// as spans.
func startPlatform(ctx context.Context, tr *tracer, cfg tropic.Config) (*tropic.Platform, error) {
	t0 := time.Now()
	p, err := tropic.New(cfg)
	t1 := time.Now()
	tr.add("tropic.New", "", t0, t1, -1)
	if err != nil {
		return nil, err
	}
	if err := p.Start(ctx); err != nil {
		p.Stop()
		return nil, err
	}
	tr.add("tropic.Start", "", t1, time.Now(), -1)
	return p, nil
}
