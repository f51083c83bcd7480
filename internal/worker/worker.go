// Package worker implements TROPIC's physical layer (paper §3.2).
// Workers dequeue started transactions from phyQ and replay their
// execution logs against the devices. If every action succeeds the
// transaction commits; if an action fails the worker executes the undo
// actions of the already-applied prefix in reverse chronological order,
// reporting aborted (full rollback) or failed (an undo itself failed,
// leaving a cross-layer inconsistency for reconciliation).
package worker

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// Executor is the device-API surface a worker drives. device.Cloud
// implements it; NoopExecutor bypasses devices for logical-only mode
// (§5).
type Executor interface {
	Execute(path, action string, args []string) error
}

// NoopExecutor is the logical-only mode executor: every physical action
// succeeds after an optional simulated latency. TROPIC's large-scale
// experiments (§6.1) run in this mode.
type NoopExecutor struct {
	// Latency is the simulated duration of each device call.
	Latency time.Duration
}

// Execute implements Executor.
func (n NoopExecutor) Execute(path, action string, args []string) error {
	if n.Latency > 0 {
		time.Sleep(n.Latency)
	}
	return nil
}

// Config parameterizes a worker.
type Config struct {
	// Name identifies the worker in logs.
	Name string
	// Ensemble is the coordination store.
	Ensemble *store.Ensemble
	// Executor performs physical actions.
	Executor Executor
	// Threads is the number of concurrent execution goroutines
	// (TROPIC runs one worker with multiple threads, §6). Default 1.
	Threads int
	// ClaimBatch is how many phyQ items one thread claims per store
	// round trip (default 1). Claims above 1 amortize the queue's
	// claim-delete commit across the batch; the claimed items execute
	// sequentially on the claiming thread.
	ClaimBatch int
	// BatchMaxOps bounds the worker's store batcher, through which every
	// claim and outcome report commits, so concurrent threads' writes
	// coalesce into group commits (bounded by BatchMaxOps operations or
	// BatchMaxDelay of waiting). ≤ 1 is a batch of one: each write
	// commits alone.
	BatchMaxOps int
	// BatchMaxDelay bounds how long a write waits for company (default
	// store.DefaultBatchMaxDelay).
	BatchMaxDelay time.Duration
	// Registry, when non-nil, receives the worker's Prometheus families
	// (claim waits, execute timings, per-outcome counters, report
	// group-commit sizes), labeled with Shard.
	Registry *metrics.Registry
	// Shard is the "shard" label value for exported metrics ("0" when
	// empty).
	Shard string
	// Logf receives diagnostics; nil silences.
	Logf func(format string, args ...any)
}

// Stats counts worker activity.
type Stats struct {
	Committed int64
	Aborted   int64
	Failed    int64
	Actions   int64
	Undos     int64
}

// Worker executes transactions physically.
type Worker struct {
	cfg     Config
	cli     *store.Client
	phyQ    *queue.Queue
	inQ     *queue.Queue
	batcher *store.Batcher
	stats   Stats

	// Exported metric instruments (always non-nil; backed by a private
	// registry when Config.Registry is absent).
	claimLat *metrics.BucketHistogram
	execLat  *metrics.BucketHistogram
	outcomes *metrics.CounterVec
}

// New connects a worker to the ensemble.
func New(cfg Config) (*Worker, error) {
	if cfg.Ensemble == nil || cfg.Executor == nil {
		return nil, errors.New("worker: Ensemble and Executor are required")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cli := cfg.Ensemble.Connect()
	for _, p := range []string{proto.PhyQPath, proto.InputQPath, proto.CommitLogPath} {
		if err := cli.EnsurePath(p); err != nil {
			cli.Close()
			return nil, fmt.Errorf("worker: layout: %w", err)
		}
	}
	phyQ, err := queue.New(cli, proto.PhyQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	inQ, err := queue.New(cli, proto.InputQPath)
	if err != nil {
		cli.Close()
		return nil, err
	}
	w := &Worker{cfg: cfg, cli: cli, phyQ: phyQ, inQ: inQ}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	shard := cfg.Shard
	if shard == "" {
		shard = "0"
	}
	w.claimLat = reg.HistogramVec("tropic_worker_claim_wait_seconds",
		"Time a worker thread spent claiming phyQ work, including idle waiting for work to arrive.",
		nil, "shard").With(shard)
	w.execLat = reg.HistogramVec("tropic_worker_execute_seconds",
		"Wall time replaying one transaction's execution log against the devices (including rollback).",
		nil, "shard").With(shard)
	w.outcomes = reg.CounterVec("tropic_worker_outcomes_total",
		"Physical execution outcomes reported to the controller, by outcome state and taxonomy code.",
		"shard", "outcome", "code")
	groupOps := reg.HistogramVec("tropic_store_group_commit_ops",
		"Operations carried by one store group commit, by submitting component.",
		metrics.DefSizeBuckets, "shard", "source").With(shard, "worker")
	groupLat := reg.HistogramVec("tropic_store_group_commit_seconds",
		"Wall time of one store group commit, by submitting component.",
		nil, "shard", "source").With(shard, "worker")
	w.batcher = cli.NewBatcher(store.BatcherConfig{
		MaxOps:   max(1, cfg.BatchMaxOps),
		MaxDelay: cfg.BatchMaxDelay,
		OnFlush: func(ops int, d time.Duration) {
			groupOps.Observe(float64(ops))
			groupLat.ObserveDuration(d)
		},
	})
	return w, nil
}

// Run serves phyQ with the configured number of threads until ctx is
// done.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errCh := make(chan error, w.cfg.Threads)
	for i := 0; i < w.cfg.Threads; i++ {
		wg.Add(1)
		go func(thread int) {
			defer wg.Done()
			errCh <- w.serve(ctx, thread)
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return ctx.Err()
}

// Close releases the worker's store session, flushing any batched
// reports first.
func (w *Worker) Close() {
	w.batcher.Close()
	w.cli.Close()
}

// Stats returns a copy of the counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Committed: atomic.LoadInt64(&w.stats.Committed),
		Aborted:   atomic.LoadInt64(&w.stats.Aborted),
		Failed:    atomic.LoadInt64(&w.stats.Failed),
		Actions:   atomic.LoadInt64(&w.stats.Actions),
		Undos:     atomic.LoadInt64(&w.stats.Undos),
	}
}

func (w *Worker) serve(ctx context.Context, thread int) error {
	claim := w.cfg.ClaimBatch
	if claim < 1 {
		claim = 1
	}
	for {
		claimStart := time.Now()
		// The claim commit rides the shared batcher, grouping with
		// sibling threads' claims and outcome reports.
		batch, err := w.phyQ.TakeBatch(ctx, claim, w.batcher)
		if err == nil {
			w.claimLat.ObserveDuration(time.Since(claimStart))
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		// Execute the claimed run, then wait for its batched reports: the
		// batcher coalesces this thread's notices with its siblings', and
		// not claiming more work before the acks land bounds how much a
		// crashed worker can leave unreported.
		var acks []<-chan error
		for _, data := range batch {
			msg, err := proto.DecodePhyMsg(data)
			if err != nil {
				w.cfg.Logf("worker %s/%d: bad phyQ item: %v", w.cfg.Name, thread, err)
				continue
			}
			execStart := time.Now()
			ack, err := w.execute(msg.TxnPath)
			w.execLat.ObserveDuration(time.Since(execStart))
			if err != nil {
				if errors.Is(err, store.ErrSessionExpired) || errors.Is(err, store.ErrNoQuorum) {
					return err
				}
				w.cfg.Logf("worker %s/%d: execute %s: %v", w.cfg.Name, thread, msg.TxnPath, err)
			}
			if ack != nil {
				acks = append(acks, ack)
			}
		}
		for _, ack := range acks {
			if err := <-ack; err != nil {
				if errors.Is(err, store.ErrSessionExpired) || errors.Is(err, store.ErrNoQuorum) {
					return err
				}
				w.cfg.Logf("worker %s/%d: report: %v", w.cfg.Name, thread, err)
			}
		}
	}
}

// execute replays one transaction's log against the devices (Figure 2,
// step 4) and reports the result to the controller via inputQ. The
// returned channel delivers the report's group-commit outcome (nil
// channel: nothing was reported).
func (w *Worker) execute(txnPath string) (<-chan error, error) {
	rec, _, err := w.loadTxn(txnPath)
	if err != nil {
		return nil, err
	}
	if rec.State != txn.StateStarted {
		// Already finalized (e.g. KILLed by the controller); drop.
		return nil, nil
	}

	// attempted is the log index the forward pass stopped at (exclusive):
	// everything before it that this worker owns was applied. Foreign
	// records — actions another shard's child of the same cross-shard
	// transaction executes — are skipped in both directions: each worker
	// applies, and therefore undoes, only its own shard's actions.
	attempted := len(rec.Log)
	var actErr error
	for i, r := range rec.Log {
		if r.Foreign {
			continue
		}
		// Honor operator TERM signals between actions (§4): stop and
		// roll back gracefully.
		if sig, err := w.currentSignal(txnPath); err == nil && sig == txn.SignalTerm {
			actErr = trerr.New(trerr.TxnTerminated, "terminated by operator signal")
			attempted = i
			break
		}
		if err := w.cfg.Executor.Execute(r.Path, r.Action, r.Args); err != nil {
			actErr = trerr.Newf(trerr.TxnPhysicalFailure,
				"action %d (%s at %s): %w", i+1, r.Action, r.Path, err)
			attempted = i
			break
		}
		atomic.AddInt64(&w.stats.Actions, 1)
	}

	if actErr == nil {
		return w.report(txnPath, txn.StateCommitted, nil, 0), nil
	}

	// Roll back the applied prefix in reverse chronological order. If
	// an undo fails we stop immediately — undo actions may have
	// temporal dependencies (§3.2 footnote) — and report failed.
	undone := 0
	var undoErr error
	for i := attempted - 1; i >= 0; i-- {
		r := rec.Log[i]
		if r.Foreign {
			continue
		}
		if r.Undo == "" {
			undoErr = fmt.Errorf("action %s at %s has no undo", r.Action, r.Path)
			break
		}
		if err := w.cfg.Executor.Execute(r.UndoTarget(), r.Undo, r.UndoArgs); err != nil {
			undoErr = fmt.Errorf("undo %s at %s: %w", r.Undo, r.UndoTarget(), err)
			break
		}
		atomic.AddInt64(&w.stats.Undos, 1)
		undone++
	}

	if undoErr == nil {
		return w.report(txnPath, txn.StateAborted, actErr, undone), nil
	}
	return w.report(txnPath, txn.StateFailed,
		trerr.Newf(trerr.TxnRollbackFailed, "%v; rollback stopped: %v", actErr, undoErr), undone), nil
}

// report notifies the controller of the physical outcome through
// inputQ. Per Figure 2, the *controller* marks the record terminal
// during cleanup — the worker only executes and reports; the failure's
// taxonomy code rides along so it survives into the record. The notice
// coalesces with other threads' reports into one group commit and the
// returned channel carries its outcome.
func (w *Worker) report(txnPath string, outcome txn.State, outcomeErr error, undone int) <-chan error {
	switch outcome {
	case txn.StateCommitted:
		atomic.AddInt64(&w.stats.Committed, 1)
	case txn.StateAborted:
		atomic.AddInt64(&w.stats.Aborted, 1)
	case txn.StateFailed:
		atomic.AddInt64(&w.stats.Failed, 1)
	}
	shard := w.cfg.Shard
	if shard == "" {
		shard = "0"
	}
	code := string(trerr.CodeOf(outcomeErr))
	if code == "" {
		code = "none"
	}
	w.outcomes.With(shard, string(outcome), code).Inc()
	msg := proto.InputMsg{
		Kind:          proto.KindResult,
		TxnPath:       txnPath,
		Outcome:       string(outcome),
		UndoneThrough: undone,
	}
	if outcomeErr != nil {
		msg.Error = outcomeErr.Error()
		msg.Code = string(trerr.CodeOf(outcomeErr))
	}
	return w.batcher.MultiAsync(w.inQ.PutOp(msg.Encode()))
}

func (w *Worker) currentSignal(txnPath string) (txn.Signal, error) {
	data, _, err := w.cli.Get(txnPath)
	if err != nil {
		return txn.SignalNone, err
	}
	// Signal-only decode: this runs before every physical action, and
	// the full record (log, history) is irrelevant here.
	return txn.DecodeSignal(data)
}

func (w *Worker) loadTxn(path string) (*txn.Txn, store.Stat, error) {
	data, stat, err := w.cli.Get(path)
	if err != nil {
		return nil, stat, err
	}
	rec, err := txn.Decode(data)
	if err != nil {
		return nil, stat, err
	}
	rec.ID = path[strings.LastIndexByte(path, '/')+1:]
	return rec, stat, nil
}
