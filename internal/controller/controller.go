package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/election"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// Config parameterizes a controller instance.
type Config struct {
	// Name identifies the controller in the leader election.
	Name string
	// Ensemble is the coordination store backing queues, election, and
	// persistent transaction state.
	Ensemble *store.Ensemble
	// Schema defines the data model's entities.
	Schema *model.Schema
	// Procedures is the stored-procedure registry.
	Procedures map[string]Procedure
	// Bootstrap is the initial logical data model, written as the first
	// snapshot if the store has none (typically the device layer's
	// snapshot, or a synthetic tree in logical-only mode).
	Bootstrap *model.Tree
	// CheckpointEvery folds the commit log into a fresh snapshot after
	// this many commits, when no transaction is in flight. 0 disables
	// checkpointing.
	CheckpointEvery int
	// RetainTerminal bounds how many terminal transaction records are
	// kept after a checkpoint (oldest are garbage-collected; their
	// effects live on in the snapshot). 0 keeps all records forever.
	RetainTerminal int
	// IdempotencyTTL bounds how long idempotency entries survive: at
	// checkpoint time, unresolved claims and resolved key→txn mappings
	// older than the TTL are swept, so a submitter that died mid-claim
	// (or a long-gone retry storm) cannot grow the ledger forever. 0
	// disables the sweep.
	IdempotencyTTL time.Duration
	// Reconciler handles reload/repair requests (§4); nil rejects them.
	Reconciler Reconciler
	// Policy selects the todoQ scheduling strategy (§3.1.1). The paper
	// ships FIFO and names the aggressive strategy as future work; both
	// are implemented here (see the scheduling-policy ablation bench).
	Policy SchedulingPolicy
	// BatchMaxOps caps how many inputQ items the leader drains per event
	// round; the round's grouped Multi carries those items' staged
	// effects plus the scheduling pass's admissions, typically a few ops
	// per item (Stats.MaxFlushOps reports the realized sizes). Values
	// ≤ 1 drain one item per round through the same round code (the
	// unbatched arm of the ablation benchmarks). It also bounds the
	// batchers that carry cross-shard sends to peer shards.
	BatchMaxOps int
	// BatchMaxDelay bounds how long a cross-shard send waits in its peer
	// batcher for company (default store.DefaultBatchMaxDelay).
	BatchMaxDelay time.Duration
	// XShard wires the controller into the cross-shard transaction
	// layer: as coordinator for parents whose plan names this shard
	// first, and as participant for child prepares. Nil selects a
	// one-shard map over Ensemble: no peer exists, so a parent naming
	// another shard fails its prepare and aborts.
	XShard *XShardConfig
	// Registry receives the controller's exported instruments (event
	// rounds, flush latency, per-stage counters, 2PC phase timings). Nil
	// uses a private registry, so instrumentation is always live.
	Registry *metrics.Registry
	// Shard is the label value for this controller's exported series
	// ("0" when empty). Replicas of one shard share their series through
	// the registry, so counters stay monotone across failovers.
	Shard string
	// Logf receives diagnostic output; nil silences it.
	Logf func(format string, args ...any)
}

// SchedulingPolicy picks how schedule() treats a deferred transaction.
type SchedulingPolicy int

const (
	// ScheduleFIFO is the paper's policy: a transaction deferred on a
	// resource conflict returns to the front of todoQ and scheduling
	// stalls until the next event — simple and fair, but one conflicted
	// transaction head-of-line-blocks the single-shard work behind it
	// (cross-shard children are still tried; see schedule).
	ScheduleFIFO SchedulingPolicy = iota
	// ScheduleAggressive is the §3.1.1 future-work strategy: when the
	// head defers, the scheduler keeps going and tries the transactions
	// queued behind it. Independent transactions proceed at the cost of
	// extra simulation work (deferred transactions are re-simulated on
	// retry) and possible head-of-queue starvation under persistent
	// conflicts.
	ScheduleAggressive
)

// Stats counts controller activity. Retrieve a consistent copy with
// Controller.Stats.
type Stats struct {
	Accepted   int64
	Committed  int64
	Aborted    int64
	Failed     int64
	Deferrals  int64
	Violations int64
	// BusyNanos accumulates time spent executing logical-layer work
	// (acceptance, simulation, scheduling, cleanup); the Figure 4 CPU
	// metric is BusyNanos over wall time.
	BusyNanos int64
	// ConstraintNanos accumulates time spent in constraint checking
	// during simulation — the §6.2 safety-overhead metric.
	ConstraintNanos int64
	// RollbackNanos accumulates time spent rolling the logical layer
	// back on aborts — the §6.3 robustness-overhead metric.
	RollbackNanos int64
	// Rollbacks counts logical rollbacks performed.
	Rollbacks int64

	// Event-round counters.
	//
	// InBatches counts inputQ drain rounds and InBatchItems the items
	// they carried; their ratio is the achieved event-batch size.
	InBatches    int64
	InBatchItems int64
	// MaxInBatch is the largest single drain.
	MaxInBatch int64
	// Flushes counts grouped Multi commits (staged accepts/cleanups and
	// admission rounds), FlushedOps the store operations they carried,
	// and MaxFlushOps the largest single flush.
	Flushes     int64
	FlushedOps  int64
	MaxFlushOps int64
	// FlushNanos is wall time spent inside grouped flush commits — the
	// group-commit latency the BatchMaxDelay knob bounds upstream.
	FlushNanos int64
}

// ctrlInstruments is the controller's registry-backed instrument
// bundle. The registry is get-or-create, so every replica of a shard
// resolves the same underlying series: whichever replica leads
// increments the shared counters, and a failover continues them
// monotonically instead of restarting from zero.
type ctrlInstruments struct {
	shard      string
	rounds     *metrics.Counter         // event rounds drained from inputQ
	roundItems *metrics.BucketHistogram // items carried per drain round
	flushLat   *metrics.BucketHistogram // grouped Multi commit wall time
	flushOps   *metrics.BucketHistogram // store ops per grouped commit
	stages     *metrics.CounterVec      // {shard, stage} lifecycle outcomes

	xPhase   *metrics.HistogramVec // {shard, phase} 2PC phase durations
	xInDoubt *metrics.Counter      // in-doubt resolutions on this shard
	xParents *metrics.CounterVec   // {shard, outcome} finalized parents

	// Fast-path (coalesced 2PC message flow) instruments.
	xLocalKids *metrics.Counter         // coordinator-local children coalesced into the parent's accept
	xPiggy     *metrics.Counter         // decisions delivered without a decide-notice round trip
	xWounds    *metrics.Counter         // prepares voided and restarted by wound-wait
	xPeerBatch *metrics.BucketHistogram // store ops per per-peer fan-out Multi

	// Record loads (loadTxn): served from the held copy, or decoded from
	// the store because another writer moved the record or none is held.
	loadsHeld, loadsStore *metrics.Counter
}

// mark bumps the exported per-stage counter for this shard.
func (m *ctrlInstruments) mark(stage string) { m.stages.With(m.shard, stage).Inc() }

// newCtrlInstruments resolves the controller's series in reg.
func newCtrlInstruments(reg *metrics.Registry, shard string) ctrlInstruments {
	loads := reg.CounterVec("tropic_controller_record_loads_total",
		"Transaction-record loads of the lead controller by source: held (the copy its last flushed write left, still current) or store (decoded, because another writer moved the record or none was held).",
		"shard", "source")
	return ctrlInstruments{
		shard: shard,
		rounds: reg.CounterVec("tropic_controller_rounds_total",
			"Event rounds the lead controller drained from inputQ.", "shard").With(shard),
		roundItems: reg.HistogramVec("tropic_controller_round_items",
			"inputQ items carried by one event round of the lead controller.",
			metrics.DefSizeBuckets, "shard").With(shard),
		flushLat: reg.HistogramVec("tropic_controller_flush_seconds",
			"Wall time of one grouped Multi commit (staged accepts, cleanups, and admission rounds).",
			nil, "shard").With(shard),
		flushOps: reg.HistogramVec("tropic_controller_flush_ops",
			"Store operations carried by one grouped Multi commit.",
			metrics.DefSizeBuckets, "shard").With(shard),
		stages: reg.CounterVec("tropic_controller_stage_total",
			"Logical-layer stage outcomes: accepted, committed, aborted, failed, deferred, violation.",
			"shard", "stage"),
		xPhase: reg.HistogramVec("tropic_xshard_phase_seconds",
			"Coordinator-side 2PC phase durations: vote is one participant's prepare round trip, prepare is fan-out to durable decision, decide is decision to finalized parent.",
			nil, "shard", "phase"),
		xInDoubt: reg.CounterVec("tropic_xshard_indoubt_total",
			"In-doubt cross-shard resolutions: prepare deadlines forcing a presumed-abort decision, and recovered prepared children consulting the coordinator record.",
			"shard").With(shard),
		xParents: reg.CounterVec("tropic_xshard_parents_total",
			"Finalized cross-shard parent transactions by terminal outcome.",
			"shard", "outcome"),
		xLocalKids: reg.CounterVec("tropic_xshard_local_children_total",
			"Coordinator-local children created in the same grouped Multi as their parent's accept, skipping the cross-store prepare round.",
			"shard").With(shard),
		xPiggy: reg.CounterVec("tropic_xshard_piggyback_total",
			"2PC decisions applied without a decide-notice round trip: read off the parent record by the vote-ack watch, or delivered in memory to a coordinator-local child.",
			"shard").With(shard),
		xWounds: reg.CounterVec("tropic_xshard_wounds_total",
			"Wound-wait resolutions: prepared children of younger cross-shard transactions whose votes this participant revoked at their coordinators, voiding and restarting the prepare to break a lock-order inversion.",
			"shard").With(shard),
		xPeerBatch: reg.HistogramVec("tropic_xshard_peer_batch_ops",
			"Store operations carried by one per-peer cross-shard fan-out Multi.",
			metrics.DefSizeBuckets, "shard").With(shard),
		loadsHeld:  loads.With(shard, "held"),
		loadsStore: loads.With(shard, "store"),
	}
}

// countStage bumps one Stats field under the mutex and mirrors it into
// the exported per-stage counter.
func (c *Controller) countStage(stat *int64, stage string) {
	c.mu.Lock()
	*stat++
	c.mu.Unlock()
	c.met.mark(stage)
}

// Controller is one TROPIC controller replica. All replicas run Run;
// the elected leader executes the logical layer while followers stand
// by to take over (§2.3).
type Controller struct {
	cfg    Config
	cli    *store.Client
	inputQ *queue.Queue
	phyQ   *queue.Queue
	cand   *election.Candidate

	// Leader-only state, rebuilt by recover() on election.
	ltree    *model.Tree
	locks    *lock.Manager
	todo     []*txn.Txn
	inFlight map[string]*txn.Txn
	// prepared tracks cross-shard children that voted yes and hold their
	// locks awaiting the coordinator's 2PC decision. Like inFlight, it
	// is leader-only state rebuilt by recover().
	prepared map[string]*txn.Txn
	// held maps the path of each non-terminal record the leader owns —
	// queued, in flight, prepared, or a parent it coordinates — to its
	// held copy (the object those sets share) and the store version its
	// last flushed write produced, so a load decodes only what another
	// writer changed (loadTxn). Rebuilt empty by recover().
	held map[string]heldRec

	stats     Stats
	met       ctrlInstruments
	leading   atomic.Bool
	todoDepth metrics.Gauge

	mu     sync.Mutex // guards stats snapshotting
	killed atomic.Bool

	// xtMu guards xTimes, the coordinator-side phase clock for parents
	// in flight: when prepares fanned out and when the decision landed,
	// so the prepare→decide→finalize phase durations can be exported;
	// and xDeadlines, each such parent's armed prepare-deadline timer.
	xtMu       sync.Mutex
	xTimes     map[string]*xPhaseClock
	xDeadlines map[string]*time.Timer

	// xmu guards the lazily-connected peer-shard sessions and batchers
	// used by the cross-shard layer, this shard's own included.
	xmu    sync.Mutex
	xpeers map[int]*peer

	// lmu guards localMsgs, the in-memory cross-shard messages the fast
	// path delivers to this controller's own leader loop (a coordinator-
	// local child's vote, a piggybacked decision) without an inputQ
	// write. localWake (capacity 1) kicks the leader's blocking drain.
	lmu       sync.Mutex
	localMsgs []proto.InputMsg
	localWake chan struct{}

	// Leader-goroutine-only round state: resched owes todoQ a
	// scheduling pass without waiting for input (a coordinator-local
	// child or a restarted prepare joined todoQ mid-round, or a failed
	// flush unwound admissions); peerSends stages cross-shard sends so
	// every message bound for one peer in a round rides a single Multi
	// through that peer's batcher.
	resched   bool
	peerSends map[int][]peerSend
	// round is the event round every processRound stages into, and sim
	// the context every scheduling attempt simulates in: both keep
	// their storage from one use to the next (docs/pipeline.md,
	// "Scheduling scratch state").
	round *round
	sim   *Ctx

	// wmu guards wounding, the set of prepared children with a
	// wound-wait vote revocation in flight (dedup across scheduling
	// rounds).
	wmu      sync.Mutex
	wounding map[string]bool
}

// New connects a controller to the ensemble and ensures the store
// layout exists.
func New(cfg Config) (*Controller, error) {
	if cfg.Ensemble == nil || cfg.Schema == nil {
		return nil, errors.New("controller: Ensemble and Schema are required")
	}
	if cfg.Name == "" {
		return nil, errors.New("controller: Name is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cli := cfg.Ensemble.Connect()
	for _, p := range []string{proto.TxnsPath, proto.InputQPath, proto.PhyQPath,
		proto.ElectionPath, proto.CommitLogPath, proto.InconsistentPath, proto.UnusablePath} {
		if err := cli.EnsurePath(p); err != nil {
			cli.Close()
			return nil, fmt.Errorf("controller: layout: %w", err)
		}
	}
	inputQ, err := queue.New(cli, proto.InputQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	phyQ, err := queue.New(cli, proto.PhyQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	cand, err := election.New(cli, proto.ElectionPath, cfg.Name)
	if err != nil {
		cli.Close()
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	label := cfg.Shard
	if label == "" {
		label = "0"
	}
	if cfg.XShard == nil {
		// The one-shard map: this ensemble is shard 0 and no peer
		// answers (Connect opens nothing).
		cfg.XShard = &XShardConfig{
			Router:  shard.NewRouter(shard.NewMap(1)),
			Connect: func(int) *store.Client { return nil },
		}
	}
	c := &Controller{
		cfg:       cfg,
		cli:       cli,
		inputQ:    inputQ,
		phyQ:      phyQ,
		cand:      cand,
		met:       newCtrlInstruments(reg, label),
		localWake: make(chan struct{}, 1),
		round:     newRound(),
		sim:       newCtx(nil, cfg.Schema, nil),
	}
	if cfg.Bootstrap != nil {
		if err := c.writeBootstrapSnapshot(cfg.Bootstrap); err != nil {
			cli.Close()
			return nil, err
		}
	}
	return c, nil
}

// writeBootstrapSnapshot installs the initial model snapshot unless one
// already exists (only the first controller to boot wins).
func (c *Controller) writeBootstrapSnapshot(t *model.Tree) error {
	data, err := t.MarshalSnapshot()
	if err != nil {
		return fmt.Errorf("controller: bootstrap snapshot: %w", err)
	}
	env := proto.Snapshot{Tree: data}
	_, err = c.cli.Create(proto.SnapshotPath, env.Encode(), 0)
	if errors.Is(err, store.ErrNodeExists) {
		return nil
	}
	return err
}

// Run enrolls in the election and serves: followers block awaiting
// leadership; the leader executes the logical layer until ctx is done,
// its session expires, or the ensemble loses quorum.
func (c *Controller) Run(ctx context.Context) error {
	if err := c.cand.Enroll(); err != nil {
		return err
	}
	if err := c.cand.AwaitLeadership(ctx); err != nil {
		return err
	}
	c.cfg.Logf("controller %s: elected leader", c.cfg.Name)
	// Prepare deadlines (recovery arms some) and held copies live only
	// while leading.
	defer c.xStopDeadlines()
	defer func() { c.held = nil }()
	if err := c.recover(); err != nil {
		return fmt.Errorf("controller %s: recover: %w", c.cfg.Name, err)
	}
	// Only a fully recovered controller reports itself leading: its
	// logical model, lock table, and todoQ are rebuilt and it is about
	// to serve. (Recovery time as observed by clients therefore
	// includes state reconstruction, as in the paper's measurement.)
	c.leading.Store(true)
	defer c.leading.Store(false)
	return c.lead(ctx)
}

// Leading reports whether this controller is currently the leader. A
// killed (crashed) controller is never leading, even before its session
// expires.
func (c *Controller) Leading() bool { return c.leading.Load() && !c.killed.Load() }

// Name returns the controller's election identity.
func (c *Controller) Name() string { return c.cfg.Name }

// Kill simulates a controller crash: the store session stops
// heartbeating (ephemeral election node lingers until the session
// timeout, exactly like a crashed machine), and the leader loop dies on
// its next store operation.
func (c *Controller) Kill() {
	c.killed.Store(true)
	c.cli.Kill()
	// The crash takes the controller's cross-shard reach with it: a dead
	// coordinator must not keep delivering prepares or decisions.
	c.xKillPeers()
}

// Close releases the controller's session gracefully.
func (c *Controller) Close() {
	c.xStopDeadlines()
	_ = c.cand.Resign()
	c.xClosePeers()
	c.cli.Close()
}

// Stats returns a copy of the activity counters. The mutex-guarded
// counters and the atomically-updated timing counters are read with
// their respective disciplines (a whole-struct copy would race with the
// atomic writers).
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Accepted:     c.stats.Accepted,
		Committed:    c.stats.Committed,
		Aborted:      c.stats.Aborted,
		Failed:       c.stats.Failed,
		Deferrals:    c.stats.Deferrals,
		Violations:   c.stats.Violations,
		InBatches:    c.stats.InBatches,
		InBatchItems: c.stats.InBatchItems,
		MaxInBatch:   c.stats.MaxInBatch,
		Flushes:      c.stats.Flushes,
		FlushedOps:   c.stats.FlushedOps,
		MaxFlushOps:  c.stats.MaxFlushOps,
		FlushNanos:   c.stats.FlushNanos,
	}
	c.mu.Unlock()
	s.BusyNanos = atomic.LoadInt64(&c.stats.BusyNanos)
	s.ConstraintNanos = atomic.LoadInt64(&c.stats.ConstraintNanos)
	s.RollbackNanos = atomic.LoadInt64(&c.stats.RollbackNanos)
	s.Rollbacks = atomic.LoadInt64(&c.stats.Rollbacks)
	return s
}

// --- Leader loop ------------------------------------------------------

// lead processes inputQ until ctx is done or the session dies. The
// lead controller is the queue's only consumer; each item is deleted
// atomically with the persistent effects of processing it, so a leader
// crash at any point neither loses nor double-applies a message.
//
// Each event round drains up to BatchMaxOps items, stages their
// persistent effects, and commits the round in one grouped Multi
// together with the admissions of the scheduling pass that follows.
// Under a backlog this amortizes the store round trip that otherwise
// dominates per-transaction cost (§6.1) across the whole batch — the
// queues fill while a flush is in flight, so the pipeline is
// self-clocking. A round whose flush fails is unwound and re-run after
// the backoff below against fresh state: its items were never removed
// from inputQ, and its local messages are queued again.
func (c *Controller) lead(ctx context.Context) error {
	// Retry backoff for a persistently failing round: exponential from
	// retryBackoffMin to retryBackoffMax, reset on any clean round.
	// Store latency makes each failed attempt cheap for the leader but
	// expensive for the ensemble, so the pause grows with consecutive
	// failures instead of hot-looping at a flat 1ms.
	backoff := time.Duration(0)
	for {
		items, err := c.takeInput(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		start := time.Now()
		c.noteInBatch(len(items))
		roundErr := c.processRound(items)
		if roundErr != nil {
			if errFatal(roundErr) {
				return roundErr
			}
			if backoff == 0 {
				backoff = retryBackoffMin
			} else if backoff *= 2; backoff > retryBackoffMax {
				backoff = retryBackoffMax
			}
			// The wait is idle time, not work: close the busy window
			// before sleeping and reopen it after, or the Figure 4 CPU
			// proxy would count up to retryBackoffMax per retry as load.
			atomic.AddInt64(&c.stats.BusyNanos, time.Since(start).Nanoseconds())
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			start = time.Now()
		} else {
			backoff = 0
		}
		atomic.AddInt64(&c.stats.BusyNanos, time.Since(start).Nanoseconds())
	}
}

// takeInput blocks for the leader's next work source: drained inputQ
// items, or locally-delivered (in-memory) cross-shard messages, whichever
// is ready first. Local messages are the in-process 2PC messages and
// wound-wait restarts; a pending one wakes the drain out of its store
// watch via localWake, and the round that follows folds it in ahead of
// the store items. With a scheduling pass owed (resched) the take does
// not block: it returns what inputQ holds, possibly nothing.
func (c *Controller) takeInput(ctx context.Context) ([]queue.Item, error) {
	if c.localsPending() {
		return nil, nil
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if c.resched {
		cancel()
	}
	// The waker must exit before takeInput returns. Left running, it
	// could take the token of a local message enqueued during the next
	// take's wait, cancel this call's dead context instead, and leave
	// that message waiting for an unrelated store item. A token it
	// takes before exiting was sent after its message was queued, so
	// the round that follows this take still sees the message.
	stop, exited := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-exited
	}()
	go func() {
		defer close(exited)
		select {
		case <-c.localWake:
			cancel()
		case <-stop:
		}
	}()
	items, err := c.inputQ.TakeHeadBatch(tctx, c.batchMax())
	if err != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil {
		// Woken for local messages or an owed scheduling pass, not
		// cancelled for real. A wake token consumed without pending
		// messages (the race where both a store item and a local message
		// arrived) is harmless: localsPending is re-checked at the top of
		// every take.
		return nil, nil
	}
	return items, err
}

// enqueueLocal delivers a cross-shard message to this controller's own
// leader loop in memory, skipping the store round trip of an inputQ
// write. Safe from any goroutine. Local messages die with the process —
// acceptable because every kind has a durable backstop: lost votes and
// child-dones are recovered by the coordinator's direct ledger sync at
// the prepare deadline, lost decisions are re-delivered (as real
// notices) until the child reports terminal, and a lost restart is sent
// again by the next wound of the same prepare (xWound) or by a new
// leader's in-doubt resolution.
func (c *Controller) enqueueLocal(msg proto.InputMsg) {
	c.lmu.Lock()
	c.localMsgs = append(c.localMsgs, msg)
	c.lmu.Unlock()
	select {
	case c.localWake <- struct{}{}:
	default:
	}
}

// takeLocal drains the pending local messages.
func (c *Controller) takeLocal() []proto.InputMsg {
	c.lmu.Lock()
	msgs := c.localMsgs
	c.localMsgs = nil
	c.lmu.Unlock()
	return msgs
}

// localsPending reports whether local messages await processing.
func (c *Controller) localsPending() bool {
	c.lmu.Lock()
	n := len(c.localMsgs)
	c.lmu.Unlock()
	return n > 0
}

// handleLocal folds locally-delivered cross-shard messages into the
// round ahead of the drained store items: votes, child-dones,
// piggybacked decisions and wound-wait restarts all stage into the
// grouped Multi exactly like their store-delivered twins, and a message
// that staged a write is kept in r.locals so a failed flush can queue
// it again. A message colliding with a record already staged this round
// requeues for the next one; one lost to a transient store error is
// left to its durable backstop.
func (c *Controller) handleLocal(r *round) error {
	var firstErr error
	for _, msg := range c.takeLocal() {
		staged := len(r.ops)
		var err error
		switch msg.Kind {
		case proto.KindXVote, proto.KindXChildDone:
			err = c.stageXParentMsg(r, msg, "")
		case proto.KindXDecide, proto.KindXRestart:
			err = c.stageXChild(r, msg, "")
		default:
			c.cfg.Logf("controller %s: dropping local message kind %q", c.cfg.Name, msg.Kind)
		}
		if len(r.ops) > staged {
			r.locals = append(r.locals, msg)
		}
		if err != nil {
			if errFatal(err) {
				return err
			}
			c.cfg.Logf("controller %s: local %s: %v", c.cfg.Name, msg.Kind, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// stageNotice stages the consumption of the inputQ item at itemPath, or
// nothing for a locally-delivered message ("", no store item to
// consume).
func (c *Controller) stageNotice(r *round, itemPath string) {
	if itemPath != "" {
		r.put(c.inputQ.RemoveOp(itemPath))
	}
}

// loadStaged loads the record a message names for staging into the
// round (loadTxn: the held copy, unless another writer moved it).
// ok=false when there is nothing to stage: the round already has a write
// to the record staged — the message waits for the next round (a local
// one is queued again, a store item just stays queued), so the grouped
// Multi never carries a stale version — or the record is gone and the
// notice is consumed.
func (c *Controller) loadStaged(r *round, msg proto.InputMsg, itemPath string) (rec *txn.Txn, ok bool, err error) {
	if r.staged[msg.TxnPath] {
		if itemPath == "" {
			c.enqueueLocal(msg)
		}
		return nil, false, nil
	}
	rec, err = c.loadTxn(msg.TxnPath)
	if errors.Is(err, store.ErrNoNode) {
		c.stageNotice(r, itemPath)
		return nil, false, nil
	}
	return rec, err == nil, err
}

// processRound handles one drained batch end to end: the items' staged
// effects AND the scheduling pass's admissions all ride one grouped
// Multi — a freshly submitted transaction can go accepted→started→phyQ
// in a single store commit shared with the rest of its round. A failed
// flush ends the round with its error; the lead loop re-runs it. Cross-
// shard sends triggered anywhere in the round are collected per peer
// shard and flushed as one Multi per peer on the way out.
func (c *Controller) processRound(items []queue.Item) error {
	r := c.round
	r.reset() // a round a fatal error ended may still hold what it staged
	c.resched = false
	defer c.xFlushPeerSends()
	err := c.handleLocal(r)
	if err != nil && errFatal(err) {
		return err
	}
	if herr := c.handleRound(r, items); herr != nil {
		if errFatal(herr) {
			return herr
		}
		if err == nil {
			err = herr
		}
	}
	c.scheduleInto(r)
	cleanups := r.cleanups
	if ferr := c.flushRound(r); ferr != nil {
		return ferr
	}
	// The flush's cleanups released locks AFTER the round's scheduling
	// pass ran, and a coordinator-local child may have joined todoQ
	// post-flush (resched). If queued work remains, schedule again now —
	// a deferred transaction must not wait for an input event that may
	// never come to claim locks that are already free.
	resched := c.resched
	c.resched = false
	if (cleanups > 0 || resched) && len(c.todo) > 0 {
		c.scheduleInto(r)
		if serr := c.flushRound(r); serr != nil {
			return serr
		}
	}
	c.todoDepth.Set(int64(len(c.todo)))
	return err
}

// batchMax returns the per-round drain bound.
func (c *Controller) batchMax() int {
	if c.cfg.BatchMaxOps > 1 {
		return c.cfg.BatchMaxOps
	}
	return 1
}

func (c *Controller) noteInBatch(n int) {
	c.met.rounds.Inc()
	c.met.roundItems.Observe(float64(n))
	c.mu.Lock()
	c.stats.InBatches++
	c.stats.InBatchItems += int64(n)
	if int64(n) > c.stats.MaxInBatch {
		c.stats.MaxInBatch = int64(n)
	}
	c.mu.Unlock()
}

// noteFlush records one grouped Multi commit in the batch stats and the
// exported flush histograms.
func (c *Controller) noteFlush(ops int, d time.Duration) {
	c.met.flushOps.Observe(float64(ops))
	c.met.flushLat.ObserveDuration(d)
	c.mu.Lock()
	c.stats.Flushes++
	c.stats.FlushedOps += int64(ops)
	if int64(ops) > c.stats.MaxFlushOps {
		c.stats.MaxFlushOps = int64(ops)
	}
	c.stats.FlushNanos += d.Nanoseconds()
	c.mu.Unlock()
}

// round accumulates the staged persistent effects of one event round:
// store operations to group-commit, the in-memory effects to apply once
// the commit lands, and the in-memory reverts to run if it fails
// validation (e.g. a record's version moved between staging and flush).
type round struct {
	ops   []store.Op
	after []func()
	// undo reverts in-memory changes made while staging; a failed flush
	// runs them in reverse, after unwinding the round's admissions.
	undo []func()
	// staged tracks transaction paths with staged effects, so a second
	// message touching the same record defers to the next round instead
	// of poisoning the grouped Multi with a stale version.
	staged map[string]bool
	// writes maps each record path written this round to the record and
	// the version its last staged write produces: the held copy once the
	// round is durable.
	writes map[string]heldRec
	// locals are the local messages whose writes are staged in ops;
	// queued again if the flush fails (store items need no such care:
	// their removal was in the failed Multi, so they are still queued).
	locals []proto.InputMsg
	// accepted are transactions optimistically appended to todoQ this
	// round (so the same round's scheduling pass can admit them); removed
	// again if the flush fails.
	accepted []*txn.Txn
	// admitted are transactions whose admission (started-state write +
	// phyQ enqueue) is staged in ops; fully unwound — simulation, locks,
	// transition — if the flush fails.
	admitted []*txn.Txn
	// aborted are transactions whose terminal abort write is staged in
	// ops; if the flush fails they revert to accepted and requeue — the
	// state their abort verdict was derived from (e.g. a sibling
	// admission's simulated effects) may have been unwound with the
	// round, so the verdict must be re-derived, not persisted blind.
	aborted []*txn.Txn
	// cleanups counts staged result cleanups, whose deferred lock
	// releases require a post-flush scheduling pass.
	cleanups int
}

func newRound() *round {
	return &round{staged: make(map[string]bool), writes: make(map[string]heldRec)}
}

// reset empties r for the next round, keeping its storage. The slices
// are cleared first so a finished round's records, ops and closures are
// not kept alive by the storage.
func (r *round) reset() {
	clear(r.ops)
	clear(r.after)
	clear(r.undo)
	clear(r.locals)
	clear(r.accepted)
	clear(r.admitted)
	clear(r.aborted)
	r.ops, r.after, r.undo, r.locals = r.ops[:0], r.after[:0], r.undo[:0], r.locals[:0]
	r.accepted, r.admitted, r.aborted = r.accepted[:0], r.admitted[:0], r.aborted[:0]
	clear(r.staged)
	clear(r.writes)
	r.cleanups = 0
}

// put stages ops into the round's own storage; the variadic slice a
// caller passes stays on its stack.
func (r *round) put(ops ...store.Op) { r.ops = append(r.ops, ops...) }

// stage stages ops with the in-memory effects to run once the round is
// durable (after) and to revert if its flush fails (undo); either may be
// nil.
func (r *round) stage(after, undo func(), ops ...store.Op) {
	r.put(ops...)
	if after != nil {
		r.after = append(r.after, after)
	}
	if undo != nil {
		r.undo = append(r.undo, undo)
	}
}

// handleRound processes one drained batch of input messages into the
// round. Submit, result, signal, vote, child-done, deadline, and decide
// notices are staged for the grouped commit; reconciliation requests
// (rare, and running the reconciler against the model as it stands) are
// served directly after flushing whatever is staged, preserving queue
// order. The returned error, if any, is the first retryable failure —
// session and quorum losses, and a failed flush, end the batch at once.
func (c *Controller) handleRound(r *round, items []queue.Item) error {
	var firstErr error
	for _, it := range items {
		msg, err := proto.DecodeInputMsg(it.Data)
		if errors.Is(err, proto.ErrFormat) {
			// An item from before the binary format (a JSON data dir):
			// stop leading, as a JSON record stops recovery, rather than
			// drop a message that may be a worker's result.
			return fmt.Errorf("inputQ item %s: %w", it.Path, err)
		}
		if err != nil {
			c.cfg.Logf("controller %s: dropping bad input item: %v", c.cfg.Name, err)
			c.stageNotice(r, it.Path)
			continue
		}
		switch msg.Kind {
		case proto.KindSubmit:
			err = c.stageAccept(r, msg, it.Path)
		case proto.KindResult:
			err = c.stageCleanup(r, msg, it.Path)
		case proto.KindSignal:
			err = c.stageSignal(r, msg, it.Path)
		case proto.KindXVote, proto.KindXChildDone, proto.KindXTimeout:
			err = c.stageXParentMsg(r, msg, it.Path)
		case proto.KindXDecide:
			err = c.stageXChild(r, msg, it.Path)
		case proto.KindReload, proto.KindRepair:
			// Flush staged work first so the reconciler observes (and its
			// own writes serialize after) everything ahead of it in the
			// queue.
			if ferr := c.flushRound(r); ferr != nil {
				return ferr
			}
			err = c.reconcile(msg, it.Path)
		default:
			c.stageNotice(r, it.Path)
			err = fmt.Errorf("unknown input message kind %q", msg.Kind)
		}
		if err != nil {
			if errFatal(err) {
				return err
			}
			c.cfg.Logf("controller %s: handle %s: %v", c.cfg.Name, msg.Kind, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// errFatal reports errors that must tear the leader loop down: a lost
// session or quorum, and a queue item in a format this build cannot
// read.
func errFatal(err error) bool {
	return errors.Is(err, store.ErrSessionExpired) || errors.Is(err, store.ErrNoQuorum) ||
		errors.Is(err, proto.ErrFormat)
}

// flushRound group-commits everything staged. On success the written
// records become the held copies at the versions their writes produced
// (terminal ones leave the table), and the deferred in-memory effects
// run in staging order (matching what sequential per-item processing
// would have done). On a validation failure (e.g. a record's version
// moved under a staged write) the round is unwound — staged admissions
// roll their simulations, locks, and transitions back, staged aborts and
// optimistic todoQ appends are taken back, the undo list reverts the
// rest, and the written paths leave the table, so the re-run decodes
// them afresh — its local messages are queued again, and the error is
// returned: the round is re-run against fresh state, its store items
// still at the head of inputQ. The owed scheduling pass (resched) makes
// sure the unwound admissions are retried even when no input arrives.
func (c *Controller) flushRound(r *round) error {
	// The flush is done with the round's storage once it returns — the
	// store keeps no reference to the ops (a Multi validates them into a
	// slice of its own), and the post-flush effects and unwinds have run
	// — so the emptied round is reused. The cleanup count survives for
	// processRound's post-flush scheduling pass.
	defer func(cleanups int) {
		r.reset()
		r.cleanups = cleanups
	}(r.cleanups)
	if len(r.ops) == 0 {
		// Nothing to write: the staged effects (a re-sent vote, a
		// redelivered decision) are durable as they stand.
		for _, f := range r.after {
			f()
		}
		return nil
	}
	ops, after, undo, locals, writes := r.ops, r.after, r.undo, r.locals, r.writes
	accepted, admitted, aborted := r.accepted, r.admitted, r.aborted

	start := time.Now()
	err := c.cli.Multi(ops...)
	c.noteFlush(len(ops), time.Since(start))
	if err == nil {
		for path, w := range writes {
			if w.rec.State.Terminal() {
				delete(c.held, path)
			} else {
				c.held[path] = w
			}
		}
		for _, f := range after {
			f()
		}
		return nil
	}
	if errFatal(err) {
		return err
	}
	c.cfg.Logf("controller %s: grouped flush of %d ops failed, re-running the round: %v",
		c.cfg.Name, len(ops), err)

	// Unwind staged admissions in reverse admission order. Transactions
	// whose accept rode this same round are dropped entirely — the re-run
	// re-reads the record and requeues a fresh copy; re-admitting the
	// stale copy too would double-execute them.
	acceptedSet := make(map[*txn.Txn]bool, len(accepted))
	for _, t := range accepted {
		acceptedSet[t] = true
	}
	var requeue, broken []*txn.Txn
	for i := len(admitted) - 1; i >= 0; i-- {
		t := admitted[i]
		if rbErr := rollbackLog(c.ltree, c.cfg.Schema, t.Log); rbErr != nil {
			c.cfg.Logf("controller %s: unwind %s: %v", c.cfg.Name, t.ID, rbErr)
			c.locks.ReleaseAll(t.ID)
			broken = append(broken, t)
			continue
		}
		c.locks.ReleaseAll(t.ID)
		if n := len(t.History); n > 0 && admissionState(t.History[n-1].State) {
			t.History = t.History[:n-1]
		}
		t.State = txn.StateAccepted
		t.Log = nil
		if !acceptedSet[t] {
			requeue = append([]*txn.Txn{t}, requeue...)
		}
	}
	// Staged aborts revert to accepted and requeue for re-evaluation by
	// the next scheduling pass: their verdicts may have been derived from
	// sibling effects that were just unwound. State-independent verdicts
	// (signals, unknown procedures) simply re-abort there.
	for i := len(aborted) - 1; i >= 0; i-- {
		t := aborted[i]
		if n := len(t.History); n > 0 && t.History[n-1].State == txn.StateAborted {
			t.History = t.History[:n-1]
		}
		t.State = txn.StateAccepted
		t.Error, t.Code = "", ""
		if !acceptedSet[t] {
			requeue = append([]*txn.Txn{t}, requeue...)
		}
	}
	// Remove this round's optimistic todoQ appends; the re-run accepts
	// them again from the store.
	if len(accepted) > 0 {
		kept := c.todo[:0]
		for _, t := range c.todo {
			if !acceptedSet[t] {
				kept = append(kept, t)
			}
		}
		c.todo = kept
	}
	c.todo = append(requeue, c.todo...)
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}
	for path := range writes {
		delete(c.held, path)
	}
	for _, msg := range locals {
		c.enqueueLocal(msg)
	}
	c.resched = true
	// An admission whose simulation would not roll back cannot be
	// retried: it aborts, in a round of its own.
	if len(broken) > 0 {
		br := newRound()
		for _, t := range broken {
			c.abortQueued(t, err, br)
		}
		if berr := c.flushRound(br); berr != nil {
			c.cfg.Logf("controller %s: abort unwound admissions: %v", c.cfg.Name, berr)
		}
	}
	return err
}

// scheduleInto runs a scheduling pass whose admissions are staged into
// the round — the group commit of transaction admission. A
// coordinator-local child's yes-vote rides the same Multi as its
// prepare (stageXLocalVote); its post-flush effects are staged after
// the admissions' own, so they run with every child in the batch
// tracked.
func (c *Controller) scheduleInto(r *round) {
	c.scheduleWalk(r)
	pending := r.admitted
	if len(pending) == 0 {
		return
	}
	for _, t := range pending {
		c.stageAdmission(r, t)
	}
	var voted map[*txn.Txn]bool
	r.after = append(r.after, func() {
		for _, t := range pending {
			if voted[t] {
				c.prepared[t.ID] = t
				continue
			}
			c.admitApply(t)
		}
	})
	for _, t := range pending {
		if t.State == txn.StatePrepared && c.stageXLocalVote(r, t) {
			if voted == nil {
				voted = make(map[*txn.Txn]bool)
			}
			voted[t] = true
		}
	}
}

// Retry backoff bounds for the leader loop: the floor matches the old
// flat pause; the cap keeps a stuck head item from freezing signal and
// reconciliation handling for long stretches.
const (
	retryBackoffMin = time.Millisecond
	retryBackoffMax = 100 * time.Millisecond
)

// recoveryAttempts bounds how often recovery re-runs a round whose flush
// failed.
const recoveryAttempts = 3

// reconcile serves a reload or repair request (§4), the one input that
// is not staged into a round: the reconciler reads and writes the model
// and the devices itself.
func (c *Controller) reconcile(msg proto.InputMsg, itemPath string) error {
	var err error
	if c.cfg.Reconciler == nil {
		err = trerr.Newf(trerr.ReconcileUnsupported,
			"%s %s: no reconciler configured", msg.Kind, msg.Target)
	} else if msg.Kind == proto.KindReload {
		err = c.cfg.Reconciler.Reload(c, msg.Target)
	} else {
		err = c.cfg.Reconciler.Repair(c, msg.Target)
	}
	c.reply(msg, err)
	if rerr := c.inputQ.Remove(itemPath); rerr != nil {
		return rerr
	}
	// The request itself is complete even if reconciliation was refused;
	// the refusal went to the reply node.
	if err != nil {
		c.cfg.Logf("controller %s: %s %s: %v", c.cfg.Name, msg.Kind, msg.Target, err)
	}
	return nil
}

// reply delivers a request's outcome to its reply node, if any.
func (c *Controller) reply(msg proto.InputMsg, err error) {
	if msg.Reply == "" {
		return
	}
	r := proto.Reply{OK: err == nil}
	if err != nil {
		r.Error = err.Error()
		code := trerr.CodeOf(err)
		if code == "" {
			// Reconciler implementations return plain errors; classify
			// them under the reconcile area.
			code = trerr.ReconcileConflict
		}
		r.Code = string(code)
	}
	if serr := c.cli.Set(msg.Reply, r.Encode(), -1); serr != nil {
		c.cfg.Logf("controller %s: reply to %s: %v", c.cfg.Name, msg.Reply, serr)
	}
}

// stageAccept moves a submitted transaction into todoQ (Figure 2, ②):
// it validates the submitted record now but defers both the persistent
// transition (staged into the round's grouped Multi, atomically with
// consuming the submit notice) and the accepted count (run only after
// the group commits). A cross-shard parent is accepted by its step
// (parentStep's accept event) instead: it never enters todoQ.
func (c *Controller) stageAccept(r *round, msg proto.InputMsg, itemPath string) error {
	rec, ok, err := c.loadStaged(r, msg, itemPath)
	if !ok {
		return err
	}
	switch {
	case rec.State != txn.StateInitialized:
		// Duplicate submit notice (e.g. the record was already accepted
		// by recovery); drop it.
		c.stageNotice(r, itemPath)
		return nil
	case rec.IsParent():
		return c.stageXParent(r, rec, parentEvent{kind: evAccept}, itemPath)
	}
	return c.stageAcceptTxn(r, rec, msg.TxnPath, itemPath)
}

// stageAcceptTxn stages the accept of initialized record rec, held at
// path, together with the consumption of its notice at itemPath ("" for
// none): the accepted write, and the count once the round is durable.
// Submit notices and recovery's re-accepts share it.
func (c *Controller) stageAcceptTxn(r *round, rec *txn.Txn, path, itemPath string) error {
	if err := rec.Transition(txn.StateAccepted); err != nil {
		return err
	}
	// The todoQ append is optimistic — this round's own scheduling pass
	// may admit the transaction, putting accept and admission in the
	// same grouped commit. flushRound takes the append back if the group
	// fails.
	c.todo = append(c.todo, rec)
	r.accepted = append(r.accepted, rec)
	c.stageNotice(r, itemPath)
	r.stage(func() { c.countStage(&c.stats.Accepted, "accepted") }, nil, c.recordOp(r, path, rec))
	return nil
}

// scheduleOutcome classifies one scheduling attempt.
type scheduleOutcome int

const (
	outcomeRunnable scheduleOutcome = iota
	outcomeConflict
	outcomeAborted
)

// scheduleWalk works through todoQ, staging admissions (r.admitted) and
// the terminal writes of aborted transactions into the round. Under the
// paper's FIFO policy the first transaction deferred on a resource
// conflict holds back the single-shard work queued behind it (the
// deferred transaction stays at the front and scheduling resumes on the
// next event); cross-shard children behind it are still tried. Under
// the aggressive policy it continues past deferred transactions so
// independent work behind them proceeds (§3.1.1).
func (c *Controller) scheduleWalk(r *round) {
	// Deterministic global prepare order: every participant acquires
	// cross-shard child locks in the same order, so two children of
	// different parents contending on two shards cannot deadlock by
	// acquiring in reversed orders (see shard.PrepareLess).
	c.xOrderChildren()
	stalled := false
	i := 0
	for i < len(c.todo) {
		t := c.todo[i]
		if t.Signal == txn.SignalTerm || t.Signal == txn.SignalKill {
			// Even behind a stalled head: a signalled transaction needs no
			// locks, so its abort never waits for the head to run.
			c.todo = append(c.todo[:i], c.todo[i+1:]...)
			c.abortQueued(t, trerr.New(trerr.TxnTerminated, "terminated by operator signal"), r)
			continue
		}
		if stalled && !t.IsChild() {
			i++
			continue
		}
		switch c.trySchedule(t, r) {
		case outcomeRunnable, outcomeAborted:
			c.todo = append(c.todo[:i], c.todo[i+1:]...)
		case outcomeConflict:
			c.countStage(&c.stats.Deferrals, "deferred")
			if c.cfg.Policy == ScheduleFIFO {
				// FIFO holds single-shard work behind the deferred head,
				// but not cross-shard children: another shard waits on
				// their votes, so queueing them behind local work that
				// waits on a prepared child would close a wait-for cycle
				// across shards that wound-wait cannot see.
				stalled = true
			}
			i++ // try the transactions queued behind it
		}
	}
}

// TodoDepth reports the current todoQ length (a gauge updated by the
// leader at the end of every scheduling round).
func (c *Controller) TodoDepth() int64 { return c.todoDepth.Load() }

// trySchedule simulates t against the logical model, checks constraints,
// and attempts to acquire its locks (Figure 2, ③A-③C).
func (c *Controller) trySchedule(t *txn.Txn, r *round) scheduleOutcome {
	t.State = txn.StateAccepted
	t.Log = nil
	cctx := c.sim
	cctx.reset(c.ltree, t)
	proc, ok := c.cfg.Procedures[t.Proc]
	var simErr error
	if !ok {
		simErr = trerr.Newf(trerr.TxnUnknownProcedure, "unknown stored procedure %q", t.Proc)
	} else {
		simErr = proc(cctx)
	}
	atomic.AddInt64(&c.stats.ConstraintNanos, cctx.constraintNanos)
	if simErr != nil {
		// Roll back whatever the simulation applied, then abort (③A).
		c.rollbackTimed(t.ID, cctx.log)
		if errors.Is(simErr, ErrConstraint) {
			c.countStage(&c.stats.Violations, "violation")
		}
		c.abortQueued(t, simErr, r)
		return outcomeAborted
	}
	reqs := cctx.lockRequests()
	if err := c.locks.Acquire(t.ID, reqs); err != nil {
		// Resource conflict: undo the simulation and defer (③B). A
		// cross-shard child blocked by a prepared child it outranks in
		// the global prepare order wounds the holder — otherwise two
		// shards holding each other's locks in reversed orders would both
		// sit out the prepare deadline.
		c.rollbackTimed(t.ID, cctx.log)
		if t.IsChild() {
			c.xMaybeWound(t, reqs)
		}
		t.Log = nil
		return outcomeConflict
	}
	// Runnable (③C): persist state+log and enqueue to phyQ atomically,
	// so a leader crash cannot strand a started transaction outside
	// phyQ or double-enqueue it. The admission is staged, and the whole
	// scheduling round's admissions ride one grouped Multi (group commit
	// of transaction admission) that commits in full or not at all.
	//
	// A cross-shard CHILD stops at prepared instead: simulation and
	// locks are its yes-vote, and it enters phyQ only when the
	// coordinator's commit decision arrives.
	//
	// The record keeps a copy of the log: cctx.log is the next attempt's
	// scratch, and a held record must never alias it.
	t.Log = cctx.copyLog()
	next := txn.StateStarted
	if t.IsChild() {
		c.xMarkForeign(t)
		next = txn.StatePrepared
	}
	if err := t.Transition(next); err != nil {
		c.rollbackTimed(t.ID, cctx.log)
		c.locks.ReleaseAll(t.ID)
		c.abortQueued(t, err, r)
		return outcomeAborted
	}
	r.admitted = append(r.admitted, t)
	return outcomeRunnable
}

// stageAdmission stages the persistent half of one transaction's
// admission: the started-state record write and the phyQ enqueue. A
// prepared cross-shard child persists only its record: it enters phyQ
// at decision time, not now.
func (c *Controller) stageAdmission(r *round, t *txn.Txn) {
	txnPath := c.txnPath(t.ID)
	r.put(c.recordOp(r, txnPath, t))
	if t.State != txn.StatePrepared {
		r.put(c.phyQ.PutOp(proto.PhyMsg{TxnPath: txnPath}.Encode()))
	}
}

// admitApply applies the in-memory half of a persisted admission:
// started transactions are tracked in flight; prepared cross-shard
// children are tracked separately and their yes-vote goes out — only
// after the prepared state is durable, so a vote always implies a
// recoverable prepare.
func (c *Controller) admitApply(t *txn.Txn) {
	if t.State == txn.StatePrepared {
		c.prepared[t.ID] = t
		c.xSendReport(proto.KindXVote, t)
		// Read the decision off the parent record the moment the
		// coordinator's durable decision write lands, instead of waiting
		// for a decide notice through this shard's inputQ.
		c.xWatchDecision(t)
		return
	}
	c.inFlight[t.ID] = t
}

// admissionState reports states written by the admission paths
// (unwound together on a failed flush).
func admissionState(s txn.State) bool {
	return s == txn.StateStarted || s == txn.StatePrepared
}

// rollbackTimed rolls the logical layer back via the execution log,
// accumulating the §6.3 rollback-overhead metric.
func (c *Controller) rollbackTimed(id string, records []txn.LogRecord) {
	start := time.Now()
	if err := rollbackLog(c.ltree, c.cfg.Schema, records); err != nil {
		c.cfg.Logf("controller %s: logical rollback of %s: %v", c.cfg.Name, id, err)
	}
	atomic.AddInt64(&c.stats.RollbackNanos, time.Since(start).Nanoseconds())
	atomic.AddInt64(&c.stats.Rollbacks, 1)
}

// abortQueued marks a not-yet-started transaction aborted and persists
// the terminal state (③A), recording the failure's taxonomy code
// alongside its message. The terminal write is staged into the round,
// after any same-round accept write on the record, at the version that
// write produces.
func (c *Controller) abortQueued(t *txn.Txn, reason error, r *round) {
	t.Error = reason.Error()
	t.Code = string(trerr.CodeOf(reason))
	t.Log = nil
	t.State = txn.StateAccepted // normalize transient deferred state
	if err := t.Transition(txn.StateAborted); err != nil {
		c.cfg.Logf("controller %s: abort %s: %v", c.cfg.Name, t.ID, err)
		return
	}
	// A failed flush reverts the transaction to accepted and requeues it
	// (see flushRound) because the abort verdict may describe unwound
	// state.
	r.stage(func() {
		c.countStage(&c.stats.Aborted, "aborted")
		// A cross-shard child aborted before it could prepare is a NO
		// vote; it goes out only after the terminal state is durable.
		if t.IsChild() {
			c.xSendReport(proto.KindXVote, t)
		}
	}, nil, c.recordOp(r, c.txnPath(t.ID), t))
	r.aborted = append(r.aborted, t)
}

// stageCleanup finishes a transaction whose physical execution
// completed (Figure 2, ⑤A/⑤B). The terminal-state write, notice
// consumption, and (for commits) commit-log entry — or (for failures)
// the inconsistency marks — are staged into the round's grouped Multi,
// and the in-memory effects — lock release, logical rollback, counters
// — run only after the group commits, so a failed flush never rolls the
// logical layer back for a transaction whose record still says started.
func (c *Controller) stageCleanup(r *round, msg proto.InputMsg, itemPath string) error {
	rec, ok, err := c.loadStaged(r, msg, itemPath)
	if !ok {
		return err
	}
	t, tracked := c.inFlight[rec.ID]
	if !tracked || rec.State.Terminal() {
		// A transaction this leader does not own (already finalized —
		// e.g. KILLed — or cleaned up before a failover): drop the
		// notice.
		c.stageNotice(r, itemPath)
		return nil
	}
	outcome := txn.State(msg.Outcome)
	switch outcome {
	case txn.StateCommitted, txn.StateAborted, txn.StateFailed:
	default:
		c.stageNotice(r, itemPath)
		return fmt.Errorf("result notice for %s with outcome %q", rec.ID, msg.Outcome)
	}

	if err := rec.Transition(outcome); err != nil {
		return err
	}
	rec.Error, rec.Code, rec.UndoneThrough = msg.Error, msg.Code, msg.UndoneThrough
	if outcome == txn.StateCommitted {
		// Early lock handoff (⑤A): a committed transaction's logical
		// effects are already final in ltree and its physical execution
		// has finished, so nothing the locks protect can still change.
		// Releasing before this round's scheduling pass lets a waiting
		// transaction's admission ride the SAME grouped commit as this
		// terminal write — the lock handoff costs zero extra store
		// rounds. If the flush fails, the admissions that used the freed
		// locks are unwound with it and the undo takes the locks back, so
		// no transaction is admitted on them before this commit is durable.
		c.locks.ReleaseAll(rec.ID)
		doneInline := false
		c.stageNotice(r, itemPath)
		r.stage(
			func() {
				delete(c.inFlight, rec.ID)
				c.countStage(&c.stats.Committed, "committed")
				if rec.IsChild() && !doneInline {
					c.xSendReport(proto.KindXChildDone, rec)
				}
				c.maybeCheckpoint()
			},
			func() {
				reqs := lockRequestsFromLog(c.ltree, c.cfg.Schema, t.Log)
				if err := c.locks.Acquire(rec.ID, reqs); err != nil {
					c.cfg.Logf("controller %s: re-lock %s: %v", c.cfg.Name, rec.ID, err)
				}
			},
			c.recordOp(r, msg.TxnPath, rec),
			store.CreateOp(proto.CommitLogPrefix,
				proto.CommitLogEntry{TxnPath: msg.TxnPath}.Encode(), store.FlagSequence),
		)
		if rec.IsChild() {
			// A coordinator-local child's done-report can ride this same
			// round: the ledger write (and the parent's finalize, when
			// this report completes the set) joins the grouped Multi that
			// persists the child's terminal state.
			doneInline = c.stageXChildDoneLocal(r, rec)
		}
		return nil
	}
	var marks []string
	if outcome == txn.StateFailed {
		// The failed state and the marks that deny further transactions
		// on the diverged paths (§4) commit together: a leader crash can
		// never leave one durable without the other.
		marks = c.loggedPaths(t.Log)
	}
	return c.stageUnwind(r, t, rec, msg.TxnPath, itemPath, marks)
}

// stageUnwind stages the end of in-flight transaction t as aborted or
// failed: its terminal write rec at path, the consumption of the notice
// at itemPath ("" for none), and the inconsistency marks of the model
// paths in marks. The logical rollback must not happen before the
// terminal state is persisted, so it — with the marks in the logical
// tree, the count and the lock release — runs once the round is durable
// (finishCleanup), and the round schedules once more afterwards
// (r.cleanups) so freed locks are claimable without waiting for another
// input event. Nothing is staged if a mark cannot be read.
func (c *Controller) stageUnwind(r *round, t, rec *txn.Txn, path, itemPath string, marks []string) error {
	var create []string
	for _, p := range marks {
		zpath := inconsistentNode(p)
		if r.staged[zpath] || slices.Contains(create, zpath) {
			continue
		}
		marked, _, err := c.cli.Exists(zpath)
		if err != nil {
			return err
		}
		if !marked {
			// A Create of an existing mark would fail the whole round.
			create = append(create, zpath)
		}
	}
	c.stageNotice(r, itemPath)
	r.put(c.recordOp(r, path, rec))
	for _, zpath := range create {
		r.staged[zpath] = true
		r.put(store.CreateOp(zpath, nil, 0))
	}
	r.cleanups++
	r.stage(func() { c.finishCleanup(t, rec, marks) }, nil)
	return nil
}

// finishCleanup applies the in-memory half of a persisted terminal
// transition (Figure 2, ⑤B) for an aborted or failed transaction: the
// logical rollback, the inconsistency marks committed with the record
// (marks), the count, and the lock release.
func (c *Controller) finishCleanup(t, rec *txn.Txn, marks []string) {
	delete(c.inFlight, rec.ID)
	// A cross-shard child's terminal outcome feeds the coordinator's
	// ledger (the parent finalizes when every child has reported).
	if rec.IsChild() {
		defer c.xSendReport(proto.KindXChildDone, rec)
	}
	c.rollbackTimed(t.ID, t.Log)
	// The physical layer may not match the rolled-back logical one (an
	// undo failed partway, or a KILL left the worker running): further
	// transactions on the written paths are denied until reconciliation
	// (§4).
	for _, p := range marks {
		if n, err := c.ltree.Get(p); err == nil {
			n.Inconsistent = true
		}
	}
	if rec.State == txn.StateFailed {
		c.countStage(&c.stats.Failed, "failed")
	} else {
		c.countStage(&c.stats.Aborted, "aborted")
	}
	c.locks.ReleaseAll(rec.ID)
}

// stageSignal applies a TERM or KILL operator signal (§4) to the record
// it names, staging every write into the round with the notice's
// consumption:
//
//   - a queued transaction persists the signal, at the version read, and
//     its todoQ copy is marked so this round's scheduling pass aborts it
//     before simulation, in the same Multi; the persisted signal covers a
//     record whose submit notice is still queued, and a failover;
//   - TERM on a started transaction persists the signal; its worker stops
//     and rolls back, and its aborted result is cleaned up as usual;
//   - KILL on a started transaction aborts it in the logical layer only,
//     as a cleanup with outcome aborted: the worker may still be
//     executing, so the paths its log writes are marked inconsistent in
//     the same commit, for repair to reconcile.
//
// Parents, terminal records, and prepared or started cross-shard children
// are left alone: a child past its vote may not abort unilaterally (the
// client refuses such signals; one racing past that check is dropped
// here, and the 2PC decision resolves the child either way).
func (c *Controller) stageSignal(r *round, msg proto.InputMsg, itemPath string) error {
	rec, ok, err := c.loadStaged(r, msg, itemPath)
	if !ok {
		return err
	}
	sig := txn.Signal(msg.Signal)
	path := msg.TxnPath
	switch {
	case rec.IsParent(), rec.State.Terminal():
		// Nothing to stop.
	case rec.State == txn.StatePrepared, rec.IsChild() && rec.State == txn.StateStarted:
		c.cfg.Logf("controller %s: dropping %s signal for %s cross-shard child %s", c.cfg.Name, sig, rec.State, rec.ID)
	case rec.State == txn.StateStarted && sig == txn.SignalKill:
		t, running := c.inFlight[rec.ID]
		if !running {
			break
		}
		if err := rec.Transition(txn.StateAborted); err != nil {
			return err
		}
		rec.Signal, rec.Error, rec.Code = sig, "killed by operator", string(trerr.TxnTerminated)
		return c.stageUnwind(r, t, rec, path, itemPath, c.loggedPaths(t.Log))
	default:
		// The queued copy is marked for this round's scheduling pass. It
		// is rec, the held copy, unless a failed flush made the load
		// decode.
		q := rec
		for _, t := range c.todo {
			if t.ID == rec.ID {
				q = t
				break
			}
		}
		prev, qprev := rec.Signal, q.Signal
		rec.Signal, q.Signal = sig, sig
		c.stageNotice(r, itemPath)
		r.stage(nil, func() { rec.Signal, q.Signal = prev, qprev }, c.recordOp(r, path, rec))
		return nil
	}
	c.stageNotice(r, itemPath)
	return nil
}

// loggedPaths lists, once each, the model paths an execution log wrote.
func (c *Controller) loggedPaths(records []txn.LogRecord) []string {
	var paths []string
	seen := make(map[string]bool)
	for _, r := range records {
		def, _ := resolveDef(c.ltree, c.cfg.Schema, r)
		for _, p := range touchedPathsRecord(def, r) {
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	return paths
}

// inconsistentNode is the store node persisting an inconsistency mark.
func inconsistentNode(path string) string {
	return proto.InconsistentPath + "/" + proto.EncodePath(path)
}

// Reconciler handles the two §4 reconciliation mechanisms on behalf of
// the lead controller. Implementations run on the controller's event
// goroutine, serialized with scheduling, and must respect the lock
// table (no reconciliation under subtrees with in-flight transactions).
type Reconciler interface {
	// Reload performs physical→logical synchronization of the target
	// subtree.
	Reload(c *Controller, target string) error
	// Repair performs logical→physical synchronization of the target
	// subtree.
	Repair(c *Controller, target string) error
}

// Schema exposes the data model schema for reconciliation.
func (c *Controller) Schema() *model.Schema { return c.cfg.Schema }

// MarkUnusable flags a node whose reconciliation failed due to hardware
// faults; future transactions must not use it (§4).
func (c *Controller) MarkUnusable(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Unusable = true
	}
	zpath := proto.UnusablePath + "/" + proto.EncodePath(path)
	if _, err := c.cli.Create(zpath, nil, 0); err != nil && !errors.Is(err, store.ErrNodeExists) {
		c.cfg.Logf("controller %s: persist unusable %s: %v", c.cfg.Name, path, err)
	}
}

// ClearUnusable removes the unusable mark (e.g. after hardware
// replacement and reload).
func (c *Controller) ClearUnusable(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Unusable = false
	}
	zpath := proto.UnusablePath + "/" + proto.EncodePath(path)
	if err := c.cli.Delete(zpath, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
		c.cfg.Logf("controller %s: clear unusable %s: %v", c.cfg.Name, path, err)
	}
}

// ClearInconsistent removes the divergence mark after reconciliation.
func (c *Controller) ClearInconsistent(path string) {
	if n, err := c.ltree.Get(path); err == nil {
		n.Inconsistent = false
	}
	if err := c.cli.Delete(inconsistentNode(path), -1); err != nil && !errors.Is(err, store.ErrNoNode) {
		c.cfg.Logf("controller %s: clear inconsistent %s: %v", c.cfg.Name, path, err)
	}
}

// --- Checkpointing ----------------------------------------------------

// maybeCheckpoint folds the commit log into a fresh snapshot when
// enough commits accumulated and no transaction is in flight (the
// logical tree then contains exactly the committed state).
func (c *Controller) maybeCheckpoint() {
	// Prepared cross-shard children block checkpointing like in-flight
	// transactions: their (uncommitted) simulated effects are in the
	// tree, and a snapshot must contain exactly the committed state.
	if c.cfg.CheckpointEvery <= 0 || len(c.inFlight) > 0 || len(c.prepared) > 0 {
		return
	}
	entries, err := c.cli.Children(proto.CommitLogPath)
	if err != nil || len(entries) < c.cfg.CheckpointEvery {
		return
	}
	if err := c.checkpoint(entries); err != nil {
		c.cfg.Logf("controller %s: checkpoint: %v", c.cfg.Name, err)
	}
}

func (c *Controller) checkpoint(entries []string) error {
	data, err := c.ltree.MarshalSnapshot()
	if err != nil {
		return err
	}
	// Children lists names in ascending order: the last is the newest.
	env := proto.Snapshot{Tree: data, LastCommitSeq: entries[len(entries)-1]}
	if err := c.cli.Set(proto.SnapshotPath, env.Encode(), -1); err != nil {
		return err
	}
	// Prune folded commit-log entries.
	for _, name := range entries {
		if err := c.cli.Delete(proto.CommitLogPath+"/"+name, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
			return err
		}
	}
	if c.cfg.RetainTerminal > 0 {
		if err := c.gcTxnRecords(); err != nil {
			return err
		}
	}
	c.gcIdempotencyClaims()
	return nil
}

// gcTxnRecords deletes the oldest terminal transaction records beyond
// the retention bound. Safe only after a checkpoint: the records'
// effects are folded into the snapshot, so recovery no longer needs
// them (non-terminal records are never touched). Cross-shard records
// additionally respect the 2PC ledger across shards — see gcReapable.
func (c *Controller) gcTxnRecords() error {
	ids, err := c.cli.Children(proto.TxnsPath) // ascending: oldest first
	if err != nil {
		return err
	}
	var terminal []string
	for _, id := range ids {
		rec, err := c.loadTxn(proto.TxnsPath + "/" + id)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		if rec.State.Terminal() && c.gcReapable(rec) {
			terminal = append(terminal, id)
		}
	}
	if len(terminal) <= c.cfg.RetainTerminal {
		return nil
	}
	for _, id := range terminal[:len(terminal)-c.cfg.RetainTerminal] {
		if err := c.cli.Delete(proto.TxnsPath+"/"+id, -1); err != nil && !errors.Is(err, store.ErrNoNode) {
			return err
		}
	}
	return nil
}

// gcIdempotencyClaims sweeps idempotency entries past the configured
// TTL: unresolved claims whose submitter died between claiming the key
// and registering its transaction, and resolved key→txn mappings old
// enough that any retry storm has surely passed (their transaction
// record is typically GC'd by then anyway). Deletes are version-checked
// so a racing re-claim of the key is never clobbered; failures are
// ignored — the next checkpoint sweeps again.
func (c *Controller) gcIdempotencyClaims() {
	ttl := c.cfg.IdempotencyTTL
	if ttl <= 0 {
		return
	}
	keys, err := c.cli.Children(proto.IdempotencyPath)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-ttl)
	for _, key := range keys {
		path := proto.IdempotencyPath + "/" + key
		data, stat, err := c.cli.Get(path)
		if err != nil {
			continue
		}
		var ent struct {
			ClaimedAt time.Time `json:"claimedAt"`
		}
		if json.Unmarshal(data, &ent) != nil || ent.ClaimedAt.IsZero() {
			continue
		}
		if ent.ClaimedAt.After(cutoff) {
			continue
		}
		_ = c.cli.Delete(path, stat.Version)
	}
}

// --- Recovery (§2.3) --------------------------------------------------

// recover rebuilds the leader's in-memory state from persistent storage:
// logical tree = snapshot + commit-log replay + re-simulation of
// in-flight transactions; lock table = write sets of in-flight
// transactions; todoQ = accepted records in store order, then the
// initialized ones the first recovery round re-accepts.
func (c *Controller) recover() error {
	c.locks = lock.NewManager()
	c.inFlight = make(map[string]*txn.Txn)
	c.prepared = make(map[string]*txn.Txn)
	c.held = make(map[string]heldRec)
	c.todo = nil

	// 1. Base snapshot.
	data, _, err := c.cli.Get(proto.SnapshotPath)
	if err != nil {
		if errors.Is(err, store.ErrNoNode) {
			return errors.New("no model snapshot: platform was never bootstrapped")
		}
		return err
	}
	env, err := proto.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	c.ltree, err = model.UnmarshalSnapshot(env.Tree)
	if err != nil {
		return err
	}

	// 2. Replay committed transactions newer than the snapshot, in
	// commit order.
	entries, err := c.cli.Children(proto.CommitLogPath) // ascending
	if err != nil {
		return err
	}
	for _, name := range entries {
		if env.LastCommitSeq != "" && name <= env.LastCommitSeq {
			continue
		}
		edata, _, err := c.cli.Get(proto.CommitLogPath + "/" + name)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		entry, err := proto.DecodeCommitLogEntry(edata)
		if err != nil {
			return err
		}
		rec, err := c.loadTxn(entry.TxnPath)
		if err != nil {
			return err
		}
		if err := replayLog(c.ltree, c.cfg.Schema, rec.Log); err != nil {
			return fmt.Errorf("replay committed %s: %w", rec.ID, err)
		}
	}

	// 3. Restore inconsistency and unusable marks.
	marks, err := c.cli.Children(proto.InconsistentPath)
	if err != nil {
		return err
	}
	for _, name := range marks {
		if n, err := c.ltree.Get(proto.DecodePath(name)); err == nil {
			n.Inconsistent = true
		}
	}
	marks, err = c.cli.Children(proto.UnusablePath)
	if err != nil {
		return err
	}
	for _, name := range marks {
		if n, err := c.ltree.Get(proto.DecodePath(name)); err == nil {
			n.Unusable = true
		}
	}

	// 4. Scan transaction records.
	ids, err := c.cli.Children(proto.TxnsPath) // ascending
	if err != nil {
		return err
	}
	// pending are the records every recovery round re-reads and stages:
	// initialized records, re-accepted (a coordinator-local child has no
	// submit notice; a still-pending notice becomes a harmless
	// duplicate), and open cross-shard parents, resumed — they never
	// enter todoQ.
	var pending []string
	var xInDoubt []*txn.Txn
	for _, id := range ids {
		rec, err := c.loadTxn(proto.TxnsPath + "/" + id)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			return err
		}
		switch {
		case rec.State.Terminal():
		case rec.IsParent():
			pending = append(pending, id)
			// The deadline is a backstop should every recovery round fail.
			c.xArmTimeout(id)
		case rec.State == txn.StateInitialized:
			pending = append(pending, id)
		case rec.State == txn.StateAccepted || rec.State == txn.StateDeferred:
			c.todo = append(c.todo, rec)
		case rec.State == txn.StateStarted || rec.State == txn.StatePrepared:
			// Re-apply the simulated effects and re-take the locks. A
			// started transaction's worker will (or already did) deliver a
			// result notice; a prepared cross-shard child is in doubt until
			// it is resolved against its coordinator record below.
			if err := replayLog(c.ltree, c.cfg.Schema, rec.Log); err != nil {
				return fmt.Errorf("replay %s %s: %w", rec.State, rec.ID, err)
			}
			reqs := lockRequestsFromLog(c.ltree, c.cfg.Schema, rec.Log)
			if err := c.locks.Acquire(rec.ID, reqs); err != nil {
				return fmt.Errorf("re-lock %s %s: %w", rec.State, rec.ID, err)
			}
			if rec.State == txn.StateStarted {
				c.inFlight[rec.ID] = rec
				continue
			}
			c.prepared[rec.ID] = rec
			xInDoubt = append(xInDoubt, rec)
		}
	}
	// Resolve in-doubt prepares against their coordinator records, and
	// stage the pending records, in the round that also carries the first
	// scheduling pass, every write at the version it was read at. A round
	// that fails (a wound's CAS on a parent landed in between) re-runs
	// against fresh records; locks released by its aborts are claimed by
	// the owed scheduling pass (resched). The cross-shard sends of the
	// round go out when recovery ends.
	defer c.xFlushPeerSends()
	for attempt := 1; ; attempt++ {
		r := newRound()
		for _, t := range xInDoubt {
			if _, ok := c.prepared[t.ID]; ok {
				c.stageXResolve(r, t)
			}
		}
		for _, id := range pending {
			path := c.txnPath(id)
			rec, err := c.loadTxn(path)
			switch {
			case err != nil:
			case rec.IsParent():
				err = c.stageXParent(r, rec, parentEvent{kind: evResume, seen: c.xReadChildren(rec)}, "")
			case rec.State == txn.StateInitialized:
				err = c.stageAcceptTxn(r, rec, path, "")
			}
			if err != nil {
				c.cfg.Logf("controller %s: recover %s: %v", c.cfg.Name, id, err)
			}
		}
		c.scheduleInto(r)
		err := c.flushRound(r)
		if errFatal(err) {
			return err
		}
		if err == nil || attempt == recoveryAttempts {
			if err != nil {
				c.cfg.Logf("controller %s: recovery round: %v", c.cfg.Name, err)
			}
			break
		}
	}
	c.todoDepth.Set(int64(len(c.todo)))
	c.cfg.Logf("controller %s: recovered %d in-flight, %d prepared, %d queued, model %d nodes",
		c.cfg.Name, len(c.inFlight), len(c.prepared), len(c.todo), c.ltree.Size())
	return nil
}

// --- Store helpers ----------------------------------------------------

func (c *Controller) txnPath(id string) string {
	if strings.HasPrefix(id, proto.TxnsPath) {
		return id
	}
	return proto.TxnsPath + "/" + id
}

// heldRec is the leader's held copy of one record it owns: the record,
// and the store version its last flushed write produced. At every round
// boundary Encode(rec) is what the store holds at that version: the
// leader goroutine, the copy's one owner, changes it only to stage a
// write (recordOp) or undoes the change, and a failed flush drops it.
type heldRec struct {
	rec *txn.Txn
	ver int32
}

// loadTxn loads the record at path. Its stat decides the source: while
// the version is the one the leader's last flushed write produced, the
// held copy is the record and nothing is decoded. Otherwise — another
// writer moved it (a wound's CAS on a parent's ledger), or nothing is
// held (a submitted record, recovery, a failed flush) — the record is
// decoded and, unless terminal, becomes the held copy.
func (c *Controller) loadTxn(path string) (*txn.Txn, error) {
	data, stat, err := c.cli.Get(path)
	if err != nil {
		return nil, err
	}
	if h, ok := c.held[path]; ok && h.ver == stat.Version {
		c.met.loadsHeld.Inc()
		return h.rec, nil
	}
	c.met.loadsStore.Inc()
	rec, err := txn.Decode(data)
	if err != nil {
		return nil, err
	}
	// The record's identity is its store node name; fill it in so
	// submitters don't need a second write after sequence allocation.
	rec.ID = path[strings.LastIndexByte(path, '/')+1:]
	if rec.State.Terminal() {
		delete(c.held, path)
	} else {
		c.held[path] = heldRec{rec: rec, ver: stat.Version}
	}
	return rec, nil
}

// recordOp stages rec's write to its record at path into the round and
// returns the op. The write expects the version of the round's previous
// write there, else the held version, so it fails the round if another
// writer got in between; a record no longer held (a failed flush dropped
// it) is loaded first. rec becomes the held copy once the round is
// durable.
func (c *Controller) recordOp(r *round, path string, rec *txn.Txn) store.Op {
	w, ok := r.writes[path]
	if !ok {
		if _, held := c.held[path]; !held {
			if _, err := c.loadTxn(path); err != nil {
				c.cfg.Logf("controller %s: reload %s: %v", c.cfg.Name, path, err)
			}
		}
		w = c.held[path]
	}
	r.staged[path] = true
	r.writes[path] = heldRec{rec: rec, ver: w.ver + 1}
	return store.SetOp(path, rec.Encode(), w.ver)
}

// LogicalTree exposes the leader's logical model for reconciliation and
// tests. It must only be accessed while the controller is quiescent or
// from reconciliation hooks running on the leader goroutine.
func (c *Controller) LogicalTree() *model.Tree { return c.ltree }

// LockManager exposes the leader's lock table for tests.
func (c *Controller) LockManager() *lock.Manager { return c.locks }

// Client exposes the controller's store client for platform plumbing.
func (c *Controller) Client() *store.Client { return c.cli }
