// Package tropic is the public API of this TROPIC reproduction: a
// transactional resource orchestration platform for IaaS clouds (Liu,
// Mao, Chen, Fernández, Loo, Van der Merwe — USENIX ATC 2012).
//
// A Platform bundles a replicated coordination store, a set of
// controller replicas (logical layer), and physical workers. Cloud
// services are defined as a Schema (entities with actions and
// constraints) plus stored Procedures, and exercised through a Client
// that submits transactions and waits for their ACID outcome:
//
//	schema := tropic.NewSchema()
//	... register entities, actions, constraints ...
//	p, err := tropic.New(tropic.Config{
//	    Schema:     schema,
//	    Procedures: procs,
//	    Bootstrap:  initialModel,
//	})
//	p.Start(ctx)
//	defer p.Stop()
//	rec, err := p.Client().SubmitAndWait(ctx, "spawnVM", args...)
//
// Orchestrations either commit in full — on the devices and in the
// logical model — or leave no effect, with constraint violations and
// race conditions caught in the logical layer before any device is
// touched.
package tropic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/readpath"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/worker"
	"repro/tropic/trerr"
)

// Re-exported model and transaction vocabulary, so services are written
// against the tropic package alone.
type (
	// Schema registers the data model's entities.
	Schema = model.Schema
	// Tree is a hierarchical data model instance.
	Tree = model.Tree
	// Node is one object in the data model.
	Node = model.Node
	// Entity describes a node type.
	Entity = model.Entity
	// ActionDef defines an entity action with its undo.
	ActionDef = model.ActionDef
	// Constraint is a service/engineering rule checked at runtime.
	Constraint = model.Constraint
	// Ctx is the stored-procedure execution context.
	Ctx = controller.Ctx
	// Procedure is orchestration logic run as a transaction.
	Procedure = controller.Procedure
	// Txn is a transaction record.
	Txn = txn.Txn
	// ChildRef is one entry of a cross-shard parent's child ledger.
	ChildRef = txn.ChildRef
	// LogRecord is one execution-log entry (paper Table 1).
	LogRecord = txn.LogRecord
	// State is a transaction state (paper Figure 2).
	State = txn.State
	// StateStamp timestamps one state transition (Txn.History).
	StateStamp = txn.StateStamp
	// Signal is an operator TERM/KILL intervention (§4).
	Signal = txn.Signal
	// Executor is the physical device API used by workers.
	Executor = worker.Executor
	// NoopExecutor is the logical-only mode executor (§5).
	NoopExecutor = worker.NoopExecutor
	// SyncPolicy selects the coordination store's WAL fsync policy.
	SyncPolicy = store.SyncPolicy
	// PersistStats are the store's durability counters.
	PersistStats = store.PersistStats
)

// WAL fsync policies (used with Config.DataDir).
const (
	// SyncAlways fsyncs every logged write (default; machine-crash safe).
	SyncAlways = store.SyncAlways
	// SyncNone leaves flushing to the OS (process-crash safe only).
	SyncNone = store.SyncNone
)

// ParseSyncPolicy parses a sync-policy flag value ("always" | "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) { return store.ParseSyncPolicy(s) }

// Transaction states.
const (
	StateInitialized = txn.StateInitialized
	StateAccepted    = txn.StateAccepted
	StateStarted     = txn.StateStarted
	StateCommitted   = txn.StateCommitted
	StateAborted     = txn.StateAborted
	StateFailed      = txn.StateFailed
	// StatePrepared: a cross-shard child holding its locks, awaiting the
	// coordinator's two-phase-commit decision.
	StatePrepared = txn.StatePrepared
	// StateDeciding: a cross-shard parent whose COMMIT/ABORT decision is
	// durably recorded, awaiting child outcomes.
	StateDeciding = txn.StateDeciding
)

// Operator signals (§4).
const (
	SignalTerm = txn.SignalTerm
	SignalKill = txn.SignalKill
)

// Scheduling policies (§3.1.1).
const (
	ScheduleFIFO       = controller.ScheduleFIFO
	ScheduleAggressive = controller.ScheduleAggressive
)

// ErrAbort aborts a transaction from inside a stored procedure.
var ErrAbort = controller.ErrAbort

// CrossShardMode is the type of the deprecated Config.CrossShard.
type CrossShardMode int

const (
	// CrossShardAuto is the zero value.
	CrossShardAuto CrossShardMode = iota
	// CrossShardEnabled is the one remaining mode: a sharded platform
	// always runs submissions spanning shards as atomic two-phase-commit
	// transactions.
	CrossShardEnabled
)

// XShardFastPathMode is the type of the deprecated
// Config.XShardFastPath.
type XShardFastPathMode int

const (
	// XShardFastPathAuto is the zero value.
	XShardFastPathAuto XShardFastPathMode = iota
	// XShardFastPathEnabled names the one remaining cross-shard message
	// flow (see docs/cross-shard.md).
	XShardFastPathEnabled
)

// NewSchema creates an empty schema.
func NewSchema() *Schema { return model.NewSchema() }

// NewTree creates an empty data model tree.
func NewTree() *Tree { return model.NewTree() }

// Config assembles a platform.
type Config struct {
	// Schema defines the data model entities (required).
	Schema *Schema
	// Procedures is the stored-procedure registry (required).
	Procedures map[string]Procedure
	// Bootstrap is the initial logical data model (required): the
	// device snapshot for a physical deployment, or a synthetic tree in
	// logical-only mode.
	Bootstrap *Tree
	// Executor performs physical actions; nil selects logical-only mode
	// (NoopExecutor), as used by the paper's scale experiments.
	Executor Executor
	// Controllers is the number of controller replicas (default 3,
	// matching the paper's deployment).
	Controllers int
	// WorkerThreads is the number of physical executor threads
	// (default 4; the paper runs one worker with multiple threads).
	WorkerThreads int
	// StoreReplicas is the coordination-store ensemble size (default 3).
	StoreReplicas int
	// SessionTimeout is the store's failure-detection interval, which
	// dominates controller failover time (§6.4). Default 500ms.
	SessionTimeout time.Duration
	// CommitLatency simulates the I/O cost of a store quorum round.
	CommitLatency time.Duration
	// DataDir, when non-empty, makes the coordination store durable:
	// every committed write is logged to this directory before it is
	// applied, and a restarted platform recovers all transaction
	// records, queues, and counters from it — the paper's §2.3 claim
	// that a new lead controller resumes in-flight work after ANY
	// failure, extended to full-process crashes. Empty (the default)
	// keeps the platform purely in-memory.
	DataDir string
	// SyncPolicy selects the WAL fsync policy with DataDir (SyncAlways,
	// the default, or SyncNone).
	SyncPolicy SyncPolicy
	// SnapshotEvery writes a store snapshot and truncates the WAL after
	// this many logged writes (default 4096 with DataDir; negative
	// disables snapshots).
	SnapshotEvery int
	// CheckpointEvery folds the commit log into a snapshot after this
	// many commits (0 disables checkpointing).
	CheckpointEvery int
	// RetainTerminal bounds how many terminal transaction records each
	// shard keeps after a checkpoint (0 keeps all). Cross-shard records
	// are reaped ledger-aware: a child outlives its parent's decision
	// and a parent outlives its children's terminal reports, never the
	// reverse.
	RetainTerminal int
	// Reconciler handles reload/repair requests (§4). Typically
	// reconcile.New(cloud, cloud, tcloud.RepairRules()); nil rejects
	// reconciliation requests.
	Reconciler controller.Reconciler
	// Policy selects the todoQ scheduling strategy: ScheduleFIFO (the
	// paper's default) or ScheduleAggressive (§3.1.1's future-work
	// alternative that schedules past conflicted transactions).
	Policy controller.SchedulingPolicy
	// BatchMaxOps sizes the pipeline's group commits: the lead
	// controller drains up to this many inputQ items per event round and
	// flushes their effects — and each scheduling round's admissions —
	// in single grouped store commits, and workers coalesce up to this
	// many report operations per commit. 0 selects the default (32);
	// 1 is a batch of one: one item per controller round (through the
	// same round code), and every submission (record plus notice, one
	// atomic commit), claim and worker report commits alone through the
	// same batchers — the unbatched arm of the ablation benchmarks.
	BatchMaxOps int
	// BatchMaxDelay bounds how long an asynchronously batched store
	// operation (submissions, worker claims and outcome reports) waits
	// for company before its batch flushes anyway (default 2ms). It is
	// the pipeline's batching-latency ceiling: no write sits unflushed
	// longer than this.
	BatchMaxDelay time.Duration
	// WorkerClaimBatch is how many phyQ entries one worker thread claims
	// per store round trip (default 4 when batching, 1 otherwise).
	WorkerClaimBatch int
	// Shards partitions the platform horizontally into this many
	// independent shards, N ≥ 1 (default 1: the paper's single-ensemble
	// deployment). Each shard runs its own coordination-store ensemble,
	// controller replicas with their own leader election, queue
	// namespaces, and worker pool; a consistent-hash router assigns every
	// transaction to the shard owning its resource roots. Transactions
	// spanning shards run as atomic two-phase-commit transactions,
	// coordinated by one of their participant shards. Over several shards
	// ids carry an "s<shard>-" prefix and each shard's WAL lives under
	// DataDir/shard-NN; at N = 1 ids, List cursors and the data dir are
	// unqualified, so a one-shard data dir and the ids clients hold stay
	// valid. See docs/sharding.md and docs/cross-shard.md.
	Shards int
	// ShardExecutors optionally assigns one Executor per shard (length
	// must equal the resolved shard count). Nil shares Executor across
	// all shards — the usual deployment, where shards partition the
	// control plane over one device substrate.
	ShardExecutors []Executor
	// CrossShard is ignored: a sharded platform always executes
	// submissions spanning shards as two-phase-commit transactions.
	//
	// Deprecated: the field goes once the benchmark harness (tbench)
	// stops setting it.
	CrossShard CrossShardMode
	// XShardPrepareTimeout bounds how long a cross-shard coordinator
	// waits for participant votes before resolving the transaction as
	// aborted (trerr.XShardInDoubtTimeout), and paces re-delivery of
	// decisions to outstanding children. Default 10s.
	XShardPrepareTimeout time.Duration
	// XShardFastPath is ignored: cross-shard transactions have one
	// message flow (docs/cross-shard.md).
	//
	// Deprecated: the field goes once the benchmark harness (tbench)
	// stops setting it.
	XShardFastPath XShardFastPathMode
	// IdempotencyTTL bounds how long an unfinished idempotency claim
	// (a submission that crashed between claiming its key and recording
	// its transaction id) survives before the leader's checkpoint sweep
	// reclaims it. Completed claims — those carrying a transaction id —
	// are never swept. 0 selects the default (5m); negative disables the
	// sweep.
	IdempotencyTTL time.Duration
	// CrossShardHook observes coordinator protocol milestones
	// ("prepare_sent", "decided") per shard — chaos-test
	// instrumentation for crashing leaders at exact protocol points.
	// Nil (the default) in production.
	CrossShardHook func(shard int, event, parentID string)
	// FollowerReads serves watermarked reads (Get/List/Wait and the
	// gateway read path) from any store replica that has applied the
	// caller's zxid watermark, instead of forcing every read through
	// the shard leader's commit lock. Session consistency is preserved:
	// a read always observes at least the caller's own writes. False
	// (the default) is the leader-only baseline the read-path ablation
	// measures. See docs/reads.md.
	FollowerReads bool
	// ReadCacheBytes bounds the per-shard watch-invalidated read cache
	// in resident bytes (records and listings served without touching
	// the store, invalidated by the store's own watch machinery rather
	// than TTLs). 0 (the default) disables caching; the fan-out
	// multiplexer behind WatchTxn runs regardless.
	ReadCacheBytes int64
	// MaxInflightPerShard is the queue-depth admission watermark: a
	// submission targeting a shard whose summed pipeline backlog
	// (inputQ + todoQ + phyQ) has reached this bound is shed
	// synchronously with trerr.APIOverloaded (HTTP 429 + Retry-After at
	// the gateway) instead of joining a queue it would only sit in.
	// Sheds are counted in tropic_admission_shed_total. 0 (the default)
	// disables admission control.
	MaxInflightPerShard int
	// Registry receives every exported instrument (see docs/
	// observability.md); the gateway serves it as GET /metrics. Nil
	// creates a private registry, reachable via Platform.Metrics().
	Registry *metrics.Registry
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Platform is a running TROPIC deployment: N ≥ 1 independent shards
// behind a consistent-hash router (Config.Shards). One shard is the
// paper's deployment: its map has no peer, so no two-phase commit runs.
type Platform struct {
	cfg    Config
	units  []*shardUnit
	router *shard.Router

	// reg is the metrics registry every subsystem exports through;
	// submitLat and shed are the platform-level series it owns directly.
	reg       *metrics.Registry
	submitLat *metrics.HistogramVec
	shed      *metrics.CounterVec

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	started bool
}

// shardUnit is one shard's full pipeline: its own store ensemble,
// controller replicas (with their own leader election), and worker
// pool. Shards share nothing but the process.
type shardUnit struct {
	index int
	ens   *store.Ensemble
	ctrl  []*controller.Controller
	wrk   *worker.Worker

	// rp is the shard's read path (follower reads, watch-invalidated
	// cache, watch fan-out multiplexer) over its own store session
	// rpCli. Every platform client built by Platform.Client shares it.
	rp    *readpath.Shard
	rpCli *store.Client

	// depthCli lazily holds a store session for queue-depth sampling;
	// gauges retain the latest sampled depths.
	depthMu  sync.Mutex
	depthCli *store.Client
	gauges   metrics.QueueGauges

	// admMu guards the shared depth-sample cache: admission checks and
	// metric scrapes both read queue depths, and the cache bounds how
	// often those turn into store reads.
	admMu    sync.Mutex
	admAt    time.Time
	admDepth metrics.QueueDepths
}

// New builds a platform. Call Start to elect a leader and begin serving.
func New(cfg Config) (*Platform, error) {
	if cfg.Schema == nil {
		return nil, errors.New("tropic: Config.Schema is required")
	}
	if cfg.Bootstrap == nil {
		return nil, errors.New("tropic: Config.Bootstrap is required")
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 3
	}
	if cfg.WorkerThreads <= 0 {
		cfg.WorkerThreads = 4
	}
	if cfg.StoreReplicas <= 0 {
		cfg.StoreReplicas = 3
	}
	if cfg.Executor == nil {
		cfg.Executor = NoopExecutor{}
	}
	if cfg.BatchMaxOps == 0 {
		cfg.BatchMaxOps = store.DefaultBatchMaxOps
	}
	if cfg.BatchMaxOps < 1 {
		cfg.BatchMaxOps = 1
	}
	if cfg.BatchMaxDelay <= 0 {
		cfg.BatchMaxDelay = store.DefaultBatchMaxDelay
	}
	if cfg.WorkerClaimBatch <= 0 {
		if cfg.BatchMaxOps > 1 {
			cfg.WorkerClaimBatch = 4
		} else {
			cfg.WorkerClaimBatch = 1
		}
	}
	if cfg.Shards < 0 {
		// A negative shard count is always a configuration bug; reject it
		// with a typed error instead of surprising the caller with a
		// silently-resolved single shard (0, the zero value, IS the
		// documented "default to 1").
		return nil, trerr.Newf(trerr.APIBadRequest,
			"tropic: Config.Shards = %d: shard count must be ≥ 1 (0 selects the default of 1)",
			cfg.Shards).With("shards", fmt.Sprint(cfg.Shards))
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.XShardPrepareTimeout <= 0 {
		cfg.XShardPrepareTimeout = controller.DefaultPrepareTimeout
	}
	if cfg.IdempotencyTTL == 0 {
		cfg.IdempotencyTTL = 5 * time.Minute
	}
	if cfg.ShardExecutors != nil && len(cfg.ShardExecutors) != cfg.Shards {
		return nil, fmt.Errorf("tropic: Config.ShardExecutors has %d entries for %d shards",
			len(cfg.ShardExecutors), cfg.Shards)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	p := &Platform{cfg: cfg, reg: cfg.Registry}
	if p.reg == nil {
		p.reg = metrics.NewRegistry()
	}
	p.router = shard.NewRouter(shard.NewMap(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		u, err := p.newShardUnit(i)
		if err != nil {
			p.closeUnits()
			return nil, err
		}
		p.units = append(p.units, u)
	}
	p.registerInstruments()
	return p, nil
}

// registerInstruments resolves the platform-level series and the
// scrape-time collectors lifting per-shard queue depths and durability
// counters into the registry. Called once from New, after the units
// exist.
func (p *Platform) registerInstruments() {
	p.submitLat = p.reg.HistogramVec("tropic_txn_latency_seconds",
		"Submit-to-terminal transaction latency observed by platform clients, by coordinator shard.",
		nil, "shard")
	p.shed = p.reg.CounterVec("tropic_admission_shed_total",
		"Submissions shed by queue-depth admission control (api.overloaded), by target shard.",
		"shard")
	depth := p.reg.GaugeVec("tropic_queue_depth",
		"Pipeline queue depth sampled at scrape time: inputQ and phyQ from the shard's store, todoQ from its leading controller.",
		"shard", "queue")
	fsyncs := p.reg.CounterVec("tropic_store_fsyncs_total",
		"WAL and directory fsyncs performed by the shard's durable store (0 without Config.DataDir).",
		"shard")
	fsyncSec := p.reg.CounterVec("tropic_store_fsync_seconds_total",
		"Cumulative wall time the shard's durable store spent inside fsync calls.",
		"shard")
	walAppends := p.reg.CounterVec("tropic_store_wal_appends_total",
		"Records appended to the shard's write-ahead log.",
		"shard")
	for i := range p.units {
		i := i
		label := fmt.Sprint(i)
		// Pre-create the shed series so a scraper sees 0 from the first
		// scrape (and can rate() it) instead of the family materializing
		// only after the first rejection.
		p.shed.With(label)
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).InQ) }, label, "inputq")
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).TodoQ) }, label, "todoq")
		depth.Func(func() float64 { return float64(p.cachedShardDepths(i).PhyQ) }, label, "phyq")
		fsyncs.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().Fsyncs)
		}, label)
		fsyncSec.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().FsyncNanos) / 1e9
		}, label)
		walAppends.Func(func() float64 {
			return float64(p.units[i].ens.PersistStats().WALAppends)
		}, label)
	}
}

// Metrics returns the registry holding every exported instrument — the
// document behind the gateway's GET /metrics.
func (p *Platform) Metrics() *metrics.Registry { return p.reg }

// depthSampleTTL bounds how often admission checks and metric scrapes
// re-read queue depths from a shard's store.
const depthSampleTTL = 5 * time.Millisecond

// cachedShardDepths samples shard i's queue depths at most once per
// depthSampleTTL, sharing the store reads between the admission-control
// hot path and scrape-time depth gauges.
func (p *Platform) cachedShardDepths(i int) metrics.QueueDepths {
	u := p.units[i]
	u.admMu.Lock()
	defer u.admMu.Unlock()
	if !u.admAt.IsZero() && time.Since(u.admAt) < depthSampleTTL {
		return u.admDepth
	}
	u.admDepth = p.ShardQueueDepths(i)
	u.admAt = time.Now()
	return u.admDepth
}

// admitShard is the gateway admission check: with a configured
// watermark, a submission bound for a shard whose summed backlog has
// reached it is shed with trerr.APIOverloaded (a Retry-After hint in
// its details) instead of deepening queues it would only wait in.
func (p *Platform) admitShard(i int) error {
	max := p.cfg.MaxInflightPerShard
	if max <= 0 {
		return nil
	}
	d := p.cachedShardDepths(i)
	backlog := d.InQ + d.TodoQ + d.PhyQ
	if backlog < int64(max) {
		return nil
	}
	p.shed.With(fmt.Sprint(i)).Inc()
	return trerr.Newf(trerr.APIOverloaded,
		"tropic: submit: shard %d backlog %d at admission watermark %d; retry after backoff",
		i, backlog, max).
		With("shard", fmt.Sprint(i)).
		With("retry_after", "1")
}

// newShardUnit assembles one shard's ensemble, controllers, and worker.
func (p *Platform) newShardUnit(i int) (*shardUnit, error) {
	cfg := p.cfg
	// Each shard of several gets its own WAL/snapshot directory and its
	// own component names, so logs and on-disk state attribute cleanly.
	namePrefix := p.router.NamePrefix(i)
	ens, err := store.OpenEnsemble(store.Config{
		Replicas:       cfg.StoreReplicas,
		SessionTimeout: cfg.SessionTimeout,
		CommitLatency:  cfg.CommitLatency,
		DataDir:        p.router.Dir(cfg.DataDir, i),
		SyncPolicy:     cfg.SyncPolicy,
		SnapshotEvery:  cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("tropic: store (shard %d): %w", i, err)
	}
	u := &shardUnit{index: i, ens: ens}
	// Cross-shard coordination: each controller can reach every peer
	// shard's store. The connector is called lazily (under leadership),
	// after New has populated p.units.
	xs := &controller.XShardConfig{
		Self:           i,
		Router:         p.router,
		PrepareTimeout: cfg.XShardPrepareTimeout,
		Connect: func(j int) *store.Client {
			if j < 0 || j >= len(p.units) {
				return nil
			}
			return p.units[j].ens.Connect()
		},
	}
	if cfg.CrossShardHook != nil {
		hook := cfg.CrossShardHook
		xs.Hook = func(event, parentID string) { hook(i, event, parentID) }
	}
	for j := 0; j < cfg.Controllers; j++ {
		c, err := controller.New(controller.Config{
			Name:            fmt.Sprintf("%sctrl-%d", namePrefix, j),
			Ensemble:        ens,
			Schema:          cfg.Schema,
			Procedures:      cfg.Procedures,
			Bootstrap:       cfg.Bootstrap,
			CheckpointEvery: cfg.CheckpointEvery,
			RetainTerminal:  cfg.RetainTerminal,
			Reconciler:      cfg.Reconciler,
			Policy:          cfg.Policy,
			BatchMaxOps:     cfg.BatchMaxOps,
			BatchMaxDelay:   cfg.BatchMaxDelay,
			IdempotencyTTL:  cfg.IdempotencyTTL,
			XShard:          xs,
			Registry:        p.reg,
			Shard:           fmt.Sprint(i),
			Logf:            cfg.Logf,
		})
		if err != nil {
			u.close()
			return nil, err
		}
		u.ctrl = append(u.ctrl, c)
	}
	executor := cfg.Executor
	if cfg.ShardExecutors != nil {
		executor = cfg.ShardExecutors[i]
	}
	w, err := worker.New(worker.Config{
		Name:          namePrefix + "worker-0",
		Ensemble:      ens,
		Executor:      executor,
		Threads:       cfg.WorkerThreads,
		ClaimBatch:    cfg.WorkerClaimBatch,
		BatchMaxOps:   cfg.BatchMaxOps,
		BatchMaxDelay: cfg.BatchMaxDelay,
		Registry:      p.reg,
		Shard:         fmt.Sprint(i),
		Logf:          cfg.Logf,
	})
	if err != nil {
		u.close()
		return nil, err
	}
	u.wrk = w
	// The shard's read path: one store session serving follower reads,
	// the watch-invalidated cache, and the watch fan-out multiplexer
	// for every platform client on this shard.
	u.rpCli = ens.Connect()
	u.rp = readpath.New(readpath.Config{
		Client:        u.rpCli,
		FollowerReads: cfg.FollowerReads,
		CacheBytes:    cfg.ReadCacheBytes,
		Registry:      p.reg,
		Shard:         fmt.Sprint(i),
	})
	return u, nil
}

// close releases a unit's components (tolerating partial construction).
func (u *shardUnit) close() error {
	for _, c := range u.ctrl {
		c.Close()
	}
	if u.wrk != nil {
		u.wrk.Close()
	}
	u.depthMu.Lock()
	if u.depthCli != nil {
		u.depthCli.Close()
		u.depthCli = nil
	}
	u.depthMu.Unlock()
	if u.rp != nil {
		u.rp.Close()
	}
	if u.rpCli != nil {
		u.rpCli.Close()
	}
	return u.ens.Close()
}

func (p *Platform) closeUnits() {
	for _, u := range p.units {
		_ = u.close()
	}
}

// Start launches controllers and workers and returns once a leader is
// serving.
func (p *Platform) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return errors.New("tropic: already started")
	}
	p.started = true
	p.mu.Unlock()

	runCtx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	for _, u := range p.units {
		u := u
		for _, c := range u.ctrl {
			c := c
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				if err := c.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
					p.cfg.Logf("tropic: controller exited: %v", err)
				}
			}()
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			if err := u.wrk.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
				p.cfg.Logf("tropic: worker exited: %v", err)
			}
		}()
	}
	return p.WaitLeader(ctx)
}

// WaitLeader blocks until every shard has a leading controller.
func (p *Platform) WaitLeader(ctx context.Context) error {
	for {
		ready := true
		for i := range p.units {
			if p.ShardLeader(i) == nil {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Leader returns shard 0's currently leading controller, or nil. Use
// ShardLeader for the other shards of a sharded platform.
func (p *Platform) Leader() *controller.Controller { return p.ShardLeader(0) }

// ShardLeader returns the leading controller of shard i, or nil.
func (p *Platform) ShardLeader(i int) *controller.Controller {
	if i < 0 || i >= len(p.units) {
		return nil
	}
	for _, c := range p.units[i].ctrl {
		if c.Leading() {
			return c
		}
	}
	return nil
}

// KillLeader crashes shard 0's current leader (no graceful cleanup —
// its election node lingers until the store's session timeout, as for
// a real machine failure). Returns the killed controller's name, or ""
// when no leader is up.
func (p *Platform) KillLeader() string { return p.KillShardLeader(0) }

// KillShardLeader crashes shard i's current leader; the shard's
// followers take over after failure detection while every other shard
// keeps serving undisturbed. Returns the killed controller's name, or
// "" when the shard has no leader up.
func (p *Platform) KillShardLeader(i int) string {
	c := p.ShardLeader(i)
	if c == nil {
		return ""
	}
	name := c.Name()
	c.Kill()
	return name
}

// Stop shuts the platform down: every shard's controllers, workers,
// then its store. The returned error reports the first failed final WAL
// flush (only possible with Config.DataDir); the shutdown itself always
// completes on every shard.
func (p *Platform) Stop() error {
	if p.cancel != nil {
		p.cancel()
	}
	p.wg.Wait()
	var firstErr error
	for _, u := range p.units {
		if err := u.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PipelineInfo is the batching configuration in effect, surfaced through
// GET /v1/stats so operators can correlate throughput with the knobs.
type PipelineInfo struct {
	BatchMaxOps      int     `json:"batchMaxOps"`
	BatchMaxDelayMs  float64 `json:"batchMaxDelayMs"`
	WorkerClaimBatch int     `json:"workerClaimBatch"`
	WorkerThreads    int     `json:"workerThreads"`
	// Shards is the number of independent shard pipelines (1 =
	// unsharded); the per-pipeline knobs above apply to each shard.
	Shards int `json:"shards"`
	// CrossShard reports whether submissions spanning shards execute as
	// two-phase-commit transactions: true on every sharded platform.
	CrossShard bool `json:"crossShard"`
	// FollowerReads reports whether watermarked reads may be served
	// from follower replicas (false: every read goes to the leader, the
	// read-path ablation).
	FollowerReads bool `json:"followerReads"`
	// ReadCacheBytes is the per-shard watch-invalidated read cache
	// budget (0: caching disabled).
	ReadCacheBytes int64 `json:"readCacheBytes"`
}

// PipelineInfo reports the resolved batching configuration.
func (p *Platform) PipelineInfo() PipelineInfo {
	return PipelineInfo{
		BatchMaxOps:      p.cfg.BatchMaxOps,
		BatchMaxDelayMs:  float64(p.cfg.BatchMaxDelay) / float64(time.Millisecond),
		WorkerClaimBatch: p.cfg.WorkerClaimBatch,
		WorkerThreads:    p.cfg.WorkerThreads,
		Shards:           p.cfg.Shards,
		CrossShard:       p.cfg.Shards > 1,
		FollowerReads:    p.cfg.FollowerReads,
		ReadCacheBytes:   p.cfg.ReadCacheBytes,
	}
}

// QueueDepths samples the depths of the three pipeline queues, summed
// across every shard: inputQ and phyQ are counted live from each
// shard's store, todoQ from each shard's leading controller gauge (0
// while no leader is up). The canonical back-pressure signal: a growing
// inQ means the controllers are the bottleneck, a growing phyQ means
// the workers are.
func (p *Platform) QueueDepths() metrics.QueueDepths {
	var total metrics.QueueDepths
	for i := range p.units {
		d := p.ShardQueueDepths(i)
		total.InQ += d.InQ
		total.TodoQ += d.TodoQ
		total.PhyQ += d.PhyQ
	}
	return total
}

// ShardQueueDepths samples shard i's pipeline queue depths.
func (p *Platform) ShardQueueDepths(i int) metrics.QueueDepths {
	u := p.units[i]
	u.depthMu.Lock()
	defer u.depthMu.Unlock()
	if u.depthCli == nil {
		u.depthCli = u.ens.Connect()
	}
	count := func(path string) int64 {
		names, err := u.depthCli.Children(path)
		if err != nil {
			return 0
		}
		var n int64
		for _, name := range names {
			if strings.HasPrefix(name, queue.ItemPrefix) {
				n++
			}
		}
		return n
	}
	u.gauges.InQ.Set(count(proto.InputQPath))
	u.gauges.PhyQ.Set(count(proto.PhyQPath))
	if l := p.ShardLeader(i); l != nil {
		u.gauges.TodoQ.Set(l.TodoDepth())
	}
	return u.gauges.Snapshot()
}

// ReadStats reports each shard's read-path counters (cache hits,
// misses, invalidations, evictions, serving-source mix, fan-out
// subscriber and hub counts), indexed by shard. Surfaced through GET
// /v1/stats.
func (p *Platform) ReadStats() []readpath.Stats {
	out := make([]readpath.Stats, len(p.units))
	for i, u := range p.units {
		out[i] = u.rp.Stats()
	}
	return out
}

// ShardReadPath exposes shard i's read path, for tests.
func (p *Platform) ShardReadPath(i int) *readpath.Shard { return p.units[i].rp }

// NumShards returns the number of shards (1 when unsharded).
func (p *Platform) NumShards() int { return len(p.units) }

// ShardOf resolves which shard a submission with these arguments would
// route to: always 0 on one shard, trerr.ShardCrossShard for argument
// sets spanning shards. Used by workload generators and tests to build
// shard-local work.
func (p *Platform) ShardOf(proc string, args ...string) (int, error) {
	return p.router.Route(proc, args)
}

// Ensemble exposes shard 0's coordination store for fault-injection in
// tests and benchmarks. Use ShardEnsemble for the other shards.
func (p *Platform) Ensemble() *store.Ensemble { return p.units[0].ens }

// ShardEnsemble exposes shard i's coordination store.
func (p *Platform) ShardEnsemble(i int) *store.Ensemble { return p.units[i].ens }

// Controllers exposes every controller replica across all shards (for
// HA experiments and stats).
func (p *Platform) Controllers() []*controller.Controller {
	var out []*controller.Controller
	for _, u := range p.units {
		out = append(out, u.ctrl...)
	}
	return out
}

// ShardControllers exposes shard i's controller replicas.
func (p *Platform) ShardControllers(i int) []*controller.Controller { return p.units[i].ctrl }

// Worker exposes shard 0's physical worker. Use ShardWorker for the
// other shards, or WorkerStats for the platform-wide aggregate.
func (p *Platform) Worker() *worker.Worker { return p.units[0].wrk }

// ShardWorker exposes shard i's physical worker.
func (p *Platform) ShardWorker(i int) *worker.Worker { return p.units[i].wrk }

// WorkerStats sums worker activity across every shard.
func (p *Platform) WorkerStats() worker.Stats {
	var total worker.Stats
	for _, u := range p.units {
		s := u.wrk.Stats()
		total.Committed += s.Committed
		total.Aborted += s.Aborted
		total.Failed += s.Failed
		total.Actions += s.Actions
		total.Undos += s.Undos
	}
	return total
}

// ControllerStats sums stats across all controller replicas of every
// shard.
func (p *Platform) ControllerStats() controller.Stats {
	var total controller.Stats
	for _, c := range p.Controllers() {
		s := c.Stats()
		total.Accepted += s.Accepted
		total.Committed += s.Committed
		total.Aborted += s.Aborted
		total.Failed += s.Failed
		total.Deferrals += s.Deferrals
		total.Violations += s.Violations
		total.BusyNanos += s.BusyNanos
		total.ConstraintNanos += s.ConstraintNanos
		total.RollbackNanos += s.RollbackNanos
		total.Rollbacks += s.Rollbacks
		total.InBatches += s.InBatches
		total.InBatchItems += s.InBatchItems
		total.Flushes += s.Flushes
		total.FlushedOps += s.FlushedOps
		total.FlushNanos += s.FlushNanos
		if s.MaxInBatch > total.MaxInBatch {
			total.MaxInBatch = s.MaxInBatch
		}
		if s.MaxFlushOps > total.MaxFlushOps {
			total.MaxFlushOps = s.MaxFlushOps
		}
	}
	return total
}

// Client opens a new client session against the platform: one store
// session per shard, each call routed by resource root (submissions,
// reconciliation) or by id (lookups).
func (p *Platform) Client() *Client {
	c := &Client{
		procs:   p.cfg.Procedures,
		router:  p.router,
		planner: shard.NewPlanner(p.router.Map()),
	}
	for _, u := range p.units {
		cli := u.ens.Connect()
		label := fmt.Sprint(u.index)
		groupOps := p.reg.HistogramVec("tropic_store_group_commit_ops",
			"Operations carried by one store group commit, by submitting component.",
			metrics.DefSizeBuckets, "shard", "source").With(label, "submit")
		groupLat := p.reg.HistogramVec("tropic_store_group_commit_seconds",
			"Wall time of one store group commit, by submitting component.",
			nil, "shard", "source").With(label, "submit")
		shardIdx := u.index
		c.subs = append(c.subs, &shardClient{
			cli: cli,
			// The submit path's coalescing obeys the same knobs as the
			// rest of the pipeline.
			b: cli.NewBatcher(store.BatcherConfig{
				MaxOps:   p.cfg.BatchMaxOps,
				MaxDelay: p.cfg.BatchMaxDelay,
				OnFlush: func(ops int, d time.Duration) {
					groupOps.Observe(float64(ops))
					groupLat.ObserveDuration(d)
				},
			}),
			rp:    u.rp,
			admit: func() error { return p.admitShard(shardIdx) },
			lat:   p.submitLat.With(label),
		})
	}
	return c
}

// Client submits transactional orchestrations and tracks their outcome,
// playing the role of the API service gateway in Figure 1. It fronts
// every shard of the platform — one in the paper's deployment, whose
// ids, List cursors and data directory then keep their unqualified
// form. Each call routes once and runs on the owning shard: a
// submission by its resource roots (one spanning shards runs as an
// atomic cross-shard transaction), a lookup by its id.
type Client struct {
	// procs is the platform's procedure registry, used to reject
	// unknown procedures synchronously at submit time (nil skips the
	// check).
	procs map[string]Procedure
	// router resolves the shard owning a reconciliation target or an
	// id, and names ids and cursors; planner places submissions.
	router  *shard.Router
	planner *shard.Planner
	// subs holds one per-shard client, indexed by shard.
	subs []*shardClient
}

// shardClient is a Client's reach into one shard. It addresses records
// by their shard-local ids; the Client resolves the ids callers pass
// and names the records it returns.
type shardClient struct {
	cli *store.Client
	// b is the group-commit batcher every submission goes through, so
	// concurrent submitters sharing the Client coalesce their record and
	// notice creations into shared proposal rounds (a batch of one at
	// BatchMaxOps=1).
	b *store.Batcher
	// seq numbers the submissions on this shard (their record ids are
	// client-generated rather than sequence-allocated, so record and
	// notice can ride one atomic commit).
	seq atomic.Int64
	// rp is the shard's read path: Get/Wait/List and the watch surface
	// serve through it (cache hit, follower replica, or leader
	// fall-through) instead of issuing leader reads on cli, and
	// WatchTxn/Wait subscribe to its fan-out multiplexer instead of
	// arming per-call store watches. Owned by the platform's shard unit
	// and shared by every client on the shard.
	rp *readpath.Shard
	// admit is the platform's admission-control check for this shard,
	// consulted before a submission writes anything.
	admit func() error
	// lat observes submit-to-terminal latency for every terminal record
	// a Wait returns.
	lat *metrics.BucketHistogram
}

// locate resolves ANY transaction id to its owning shard client, the
// id local to that shard, and the public id its records carry. A plain
// id routes by the router's shard qualification; a cross-shard CHILD id
// ("<parent>.c<k>") routes via the parent's ledger — its record lives
// on the participant shard under the full child id, which is already
// platform-unique. Ids that cannot name a transaction are reported as
// trerr.TxnNotFound.
func (c *Client) locate(id string) (sub *shardClient, local, public string, err error) {
	parentID, k, child := shard.ParseChildID(id)
	if !child {
		parentID = id
	}
	s, local, ok := c.router.ResolveID(parentID)
	if !ok {
		return nil, "", "", trerr.Newf(trerr.TxnNotFound,
			"tropic: transaction %q not found (sharded ids carry an s<shard>- prefix)", parentID).With("id", id)
	}
	if !child {
		return c.subs[s], local, c.router.Requalify(id, s, local), nil
	}
	prec, _, err := c.subs[s].getAt(local, parentID, -1)
	if err != nil {
		return nil, "", "", err
	}
	if k >= len(prec.Children) || prec.Children[k].Shard < 0 || prec.Children[k].Shard >= len(c.subs) {
		return nil, "", "", trerr.Newf(trerr.TxnNotFound,
			"tropic: transaction %s has no child %d", parentID, k).With("id", id)
	}
	return c.subs[prec.Children[k].Shard], id, id, nil
}

// refreshChildren overlays a parent record's ledger with each child's
// live state, so Get/Wait callers see cross-shard progress without
// waiting for the coordinator's next ledger write. Only a child at the
// prepare attempt its entry counts is overlaid (the rule the
// coordinator's ledger sync follows): a child still prepared at an
// attempt wound-wait voided holds no vote. Best-effort: a child read
// failure leaves the coordinator's last known entry.
func (c *Client) refreshChildren(rec *Txn) {
	for k := range rec.Children {
		ref := &rec.Children[k]
		if ref.State.Terminal() || ref.Shard < 0 || ref.Shard >= len(c.subs) {
			continue
		}
		child, _, err := c.subs[ref.Shard].getAt(ref.ID, ref.ID, -1)
		if err != nil || child.Epoch != ref.Epoch {
			continue
		}
		ref.State, ref.Error, ref.Code = child.State, child.Error, child.Code
	}
}

// Close flushes the client's pending submissions and releases its
// store sessions.
func (c *Client) Close() {
	for _, sub := range c.subs {
		sub.b.Close()
		sub.cli.Close()
	}
}

// ValidateProc rejects submissions that could never execute: an empty
// procedure name (submit.invalid_args) or one missing from the registry
// (txn.unknown_procedure).
func (c *Client) ValidateProc(proc string) error {
	if proc == "" {
		return trerr.New(trerr.SubmitInvalidArgs, "tropic: submit: empty procedure name")
	}
	if c.procs != nil {
		if _, ok := c.procs[proc]; !ok {
			return trerr.Newf(trerr.TxnUnknownProcedure,
				"tropic: submit: unknown stored procedure %q", proc).With("proc", proc)
		}
	}
	return nil
}

// Submit initiates a transaction (Figure 2, ①) and returns its id. The
// procedure name is validated against the registry, so an unknown
// procedure is rejected here instead of producing a transaction doomed
// to abort asynchronously.
func (c *Client) Submit(proc string, args ...string) (string, error) {
	if err := c.ValidateProc(proc); err != nil {
		return "", err
	}
	// Route by the submission's resource roots. A single-shard plan
	// submits to its owner; a spanning plan executes as an atomic
	// cross-shard transaction.
	split := c.planner.Split(proc, args)
	if split.CrossShard() {
		// Every participant shard must admit the work: a parent whose
		// children would land in saturated pipelines is shed whole —
		// 2PC holds cross-shard locks for the slowest participant, so
		// overload on any member shard is overload for the transaction.
		for _, s := range split.Shards {
			if err := c.subs[s].admit(); err != nil {
				return "", err
			}
		}
		return c.xSubmit(split, proc, args)
	}
	s := split.Coordinator()
	id, err := c.subs[s].submit(proc, args)
	if err != nil {
		return "", err
	}
	return c.router.QualifyID(s, id), nil
}

// submit writes a single-shard transaction record and its submit
// notice, returning the record's local id.
func (sc *shardClient) submit(proc string, args []string) (string, error) {
	if err := sc.admit(); err != nil {
		return "", err
	}
	now := time.Now()
	rec := &txn.Txn{
		Proc:        proc,
		Args:        args,
		State:       txn.StateInitialized,
		SubmittedAt: now,
		History:     []txn.StateStamp{{State: txn.StateInitialized, At: now}},
	}
	// Record and notice ride ONE atomic batch (no orphaned records),
	// coalesced with every concurrent submitter on this client into
	// shared proposal rounds. The record id is client-generated —
	// session id plus a local counter, unique ensemble-wide — because a
	// sequence-allocated name would only be known after a first,
	// separate commit.
	id := fmt.Sprintf("t-s%xc%08d", sc.cli.SessionID(), sc.seq.Add(1))
	path := proto.TxnsPath + "/" + id
	if err := <-sc.b.MultiAsync(submitOps(path, rec)...); err != nil {
		return "", fmt.Errorf("tropic: submit: %w", err)
	}
	return id, nil
}

// submitOps creates a transaction record and its inputQ submit notice.
func submitOps(path string, rec *txn.Txn) []store.Op {
	return []store.Op{
		store.CreateOp(path, rec.Encode(), 0),
		queue.ItemOp(proto.InputQPath, proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode()),
	}
}

// xSubmit initiates a cross-shard transaction: one PARENT record on the
// coordinator shard (a deterministic hash of the submission over the
// participants, balancing coordination load) naming one child per
// participant shard, created atomically with its submit notice. The
// coordinator's lead controller drives the two-phase commit from there;
// the returned parent id supports Get/Wait/WatchTxn like any other. The
// parent id is client-generated (session id + local counter, a distinct
// "t-x" prefix) so the deterministic child ids can be derived before
// anything is written.
func (c *Client) xSubmit(split shard.Split, proc string, args []string) (string, error) {
	coord := split.CoordinatorFor(proc, args)
	sub := c.subs[coord]
	local := fmt.Sprintf("%s%xc%08d", shard.ParentLocalPrefix, sub.cli.SessionID(), sub.seq.Add(1))
	qualified := c.router.QualifyID(coord, local)
	children := make([]txn.ChildRef, len(split.Shards))
	for k, s := range split.Shards {
		children[k] = txn.ChildRef{ID: shard.ChildID(qualified, k), Shard: s}
	}
	now := time.Now()
	rec := &txn.Txn{
		Proc:        proc,
		Args:        args,
		State:       txn.StateInitialized,
		SubmittedAt: now,
		History:     []txn.StateStamp{{State: txn.StateInitialized, At: now}},
		Children:    children,
	}
	path := proto.TxnsPath + "/" + local
	// Through the coordinator shard's batcher (like single-shard
	// submits): concurrent cross-shard submitters coalesce into shared
	// proposal rounds instead of each paying a private commit.
	if err := <-sub.b.MultiAsync(submitOps(path, rec)...); err != nil {
		return "", fmt.Errorf("tropic: submit cross-shard: %w", err)
	}
	return qualified, nil
}

// Watermark returns the highest store zxid this client's own writes
// have committed at (the maximum across shards). A caller that threads
// this value into GetAt/WaitAt/ListAt — or sends it as the
// X-Tropic-Zxid header over HTTP — is guaranteed to observe all of its
// own writes no matter which replica serves the read.
func (c *Client) Watermark() int64 {
	var max int64
	for _, sub := range c.subs {
		if z := sub.cli.LastWriteZxid(); z > max {
			max = z
		}
	}
	return max
}

// Get fetches the current record of a transaction. An unknown id is
// reported as trerr.TxnNotFound. The read is served through the shard's
// read path under the client's own write watermark on that shard, so it
// always observes this client's completed submissions (session
// consistency) while bypassing the leader whenever a caught-up replica
// or cache entry can answer.
func (c *Client) Get(id string) (*Txn, error) {
	rec, _, err := c.GetAt(id, -1)
	return rec, err
}

// GetAt is Get with an explicit zxid watermark: the read is served from
// any source (cache, follower replica, leader) whose state has applied
// at least minZxid. It returns the zxid the read was actually served at
// which callers chain into follow-up reads for monotonicity. Passing minZxid < 0 substitutes the
// serving shard's own client watermark.
func (c *Client) GetAt(id string, minZxid int64) (*Txn, int64, error) {
	if id == "" {
		return nil, 0, trerr.New(trerr.APIBadRequest, "tropic: get: missing transaction id")
	}
	sub, local, public, err := c.locate(id)
	if err != nil {
		return nil, 0, err
	}
	rec, z, err := sub.getAt(local, public, minZxid)
	if err != nil {
		return nil, z, err
	}
	if rec.IsParent() {
		c.refreshChildren(rec)
	}
	return rec, z, nil
}

// getAt reads the record of the local id under minZxid (< 0: this
// shard's own watermark), naming it public.
func (sc *shardClient) getAt(local, public string, minZxid int64) (*Txn, int64, error) {
	if minZxid < 0 {
		minZxid = sc.cli.LastWriteZxid()
	}
	data, z, err := sc.readRecord(local, minZxid)
	if err != nil {
		return nil, z, err
	}
	rec, err := decodeRecord(public, data)
	if err != nil {
		return nil, 0, err
	}
	return rec, z, nil
}

// readRecord reads the stored bytes of this shard's record id through
// the read path under minZxid, reporting a missing record as
// trerr.TxnNotFound. The bytes are shared with the store: decode them,
// never modify them.
func (sc *shardClient) readRecord(id string, minZxid int64) ([]byte, int64, error) {
	data, _, z, _, err := sc.rp.GetRecord(proto.TxnsPath+"/"+id, minZxid)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			return nil, z, trerr.Wrap(trerr.TxnNotFound, err,
				fmt.Sprintf("transaction %s not found", id)).With("id", id)
		}
		return nil, 0, err
	}
	return data, z, nil
}

// decodeRecord decodes the stored record of id.
func decodeRecord(id string, data []byte) (*Txn, error) {
	rec, err := txn.Decode(data)
	if err != nil {
		return nil, err
	}
	rec.ID = id
	return rec, nil
}

// Wait blocks until the transaction reaches a terminal state and
// returns its final record. An unknown id is reported as
// trerr.TxnNotFound; an elapsed deadline as trerr.TxnWaitTimeout (with
// context.DeadlineExceeded still in the chain).
func (c *Client) Wait(ctx context.Context, id string) (*Txn, error) {
	rec, _, err := c.WaitAt(ctx, id, -1)
	return rec, err
}

// WaitAt is Wait with an explicit zxid watermark (see GetAt; minZxid <
// 0 substitutes the serving shard's own client watermark). The wait
// subscribes to the shard's fan-out multiplexer — one shared store watch
// per record, however many concurrent waiters — and each wakeup re-reads
// through the cache. A wake-up decodes only the record's state; the
// whole record is decoded once, when that state is terminal.
func (c *Client) WaitAt(ctx context.Context, id string, minZxid int64) (*Txn, int64, error) {
	sub, local, public, err := c.locate(id)
	if err != nil {
		return nil, 0, err
	}
	rec, z, err := sub.waitAt(ctx, local, public, minZxid)
	if err != nil {
		return nil, 0, err
	}
	if rec.IsParent() {
		c.refreshChildren(rec)
	}
	return rec, z, nil
}

// waitAt is WaitAt on the shard owning the local id.
func (sc *shardClient) waitAt(ctx context.Context, id, public string, minZxid int64) (*Txn, int64, error) {
	path := proto.TxnsPath + "/" + id
	sub, err := sc.rp.Subscribe(path)
	if err != nil {
		return nil, 0, err
	}
	defer sub.Close()
	if minZxid < 0 {
		minZxid = sc.cli.LastWriteZxid()
	}
	data, z, err := sc.readRecord(id, minZxid)
	for {
		var st State
		if err == nil {
			st, err = txn.DecodeState(data)
		}
		if err != nil {
			return nil, 0, err
		}
		if st.Terminal() {
			rec, err := decodeRecord(public, data)
			if err != nil {
				return nil, 0, err
			}
			sc.lat.ObserveDuration(rec.Latency())
			return rec, z, nil
		}
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, 0, trerr.Wrap(trerr.TxnWaitTimeout, ctx.Err(),
					fmt.Sprintf("tropic: wait %s: deadline elapsed before a terminal state", id)).With("id", id)
			}
			return nil, 0, ctx.Err()
		case _, ok := <-sub.C():
			if !ok {
				return nil, 0, store.ErrSessionExpired
			}
		}
		// Re-read PAST the position just served: the wakeup proves the
		// record changed after zxid z, and a still-cached entry at
		// exactly z would otherwise satisfy the watermark and stall the
		// loop on the state the event superseded.
		data, z, err = sc.readRecord(id, z+1)
	}
}

// SubmitAndWait submits and waits for the outcome.
func (c *Client) SubmitAndWait(ctx context.Context, proc string, args ...string) (*Txn, error) {
	id, err := c.Submit(proc, args...)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// Reload asks the lead controller to synchronize the logical layer from
// the physical state of the target subtree and waits for the outcome
// (§4). Intended for device additions and decommissionings.
func (c *Client) Reload(ctx context.Context, target string) error {
	return c.reconcileRequest(ctx, proto.KindReload, target)
}

// Repair asks the lead controller to drive the physical state of the
// target subtree back to the logical state and waits for the outcome
// (§4). TROPIC invokes this periodically at an operator-chosen
// frequency.
func (c *Client) Repair(ctx context.Context, target string) error {
	return c.reconcileRequest(ctx, proto.KindRepair, target)
}

// reconcileRequest sends a reload or repair to the shard whose
// logical layer must resynchronize: the owner of the target subtree's
// resource root.
func (c *Client) reconcileRequest(ctx context.Context, kind proto.MsgKind, target string) error {
	cli := c.subs[c.router.RouteTarget(target)].cli
	if err := cli.EnsurePath(proto.RepliesPath); err != nil {
		return err
	}
	replyPath, err := cli.Create(proto.RepliesPath+"/r-", nil, store.FlagSequence)
	if err != nil {
		return err
	}
	defer func() { _ = cli.Delete(replyPath, -1) }()
	watch, err := cli.NodeWatch(replyPath)
	if err != nil {
		return err
	}
	defer watch.Close()
	if err := cli.Multi(queue.ItemOp(proto.InputQPath,
		proto.InputMsg{Kind: kind, Target: target, Reply: replyPath}.Encode())); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case ev, ok := <-watch.C():
		if !ok || ev.Type == store.EventSessionExpired {
			return store.ErrSessionExpired
		}
	}
	data, _, err := cli.Get(replyPath)
	if err != nil {
		return err
	}
	reply, err := proto.DecodeReply(data)
	if err != nil {
		return err
	}
	if !reply.OK {
		code := trerr.Code(reply.Code)
		if !code.Valid() {
			code = trerr.ReconcileConflict
		}
		return trerr.New(code,
			fmt.Sprintf("tropic: %s %s: %s", kind, target, reply.Error)).With("target", target)
	}
	return nil
}

// Signal sends a TERM or KILL to a transaction (§4). The signal value
// and the transaction's existence are validated synchronously
// (trerr.TxnInvalidSignal / trerr.TxnNotFound).
func (c *Client) Signal(id string, sig txn.Signal) error {
	if sig != txn.SignalTerm && sig != txn.SignalKill {
		return trerr.Newf(trerr.TxnInvalidSignal,
			"tropic: signal %q: signal must be TERM or KILL", sig)
	}
	if id == "" {
		return trerr.New(trerr.APIBadRequest, "tropic: signal: missing transaction id")
	}
	sub, local, public, err := c.locate(id)
	if err != nil {
		return err
	}
	if shard.IsParentLocal(local) {
		// Parents are pure coordination records — there is no
		// simulation or physical execution to stop; the 2PC decision
		// resolves them. Recognized by the id prefix alone, so the
		// common signal path pays no extra record read.
		return trerr.Newf(trerr.TxnInvalidSignal,
			"tropic: signal %s: cross-shard parents cannot be signalled; signal a child", id).With("id", id)
	}
	rec, _, err := sub.getAt(local, public, -1)
	if err != nil {
		return err
	}
	if rec.IsChild() && (rec.State == txn.StatePrepared || rec.State == txn.StateStarted) {
		// A prepared child voted yes and a started one is past the COMMIT
		// decision: two-phase commit forbids either from aborting
		// unilaterally — one participant rolling back while its siblings
		// commit would silently break the transaction's atomicity.
		// Signals reach cross-shard work only before the vote (the whole
		// transaction then aborts everywhere).
		return trerr.Newf(trerr.TxnInvalidSignal,
			"tropic: signal %s: cross-shard child is %s and cannot abort unilaterally", id, rec.State).With("id", id)
	}
	return sub.cli.Multi(queue.ItemOp(proto.InputQPath, proto.InputMsg{
		Kind:    proto.KindSignal,
		TxnPath: proto.TxnsPath + "/" + local,
		Signal:  string(sig),
	}.Encode()))
}
