package controller_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/worker"
)

// batchRig is a two-controller, one-worker harness with the batched
// pipeline enabled, for failover tests under grouped commits.
type batchRig struct {
	ens   *store.Ensemble
	ctrls []*controller.Controller
	wrk   *worker.Worker
	cli   *store.Client
	wg    sync.WaitGroup
}

func newBatchRig(t *testing.T, counters, batchMaxOps, claimBatch int, policy controller.SchedulingPolicy, exec worker.Executor) *batchRig {
	t.Helper()
	ens := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 150 * time.Millisecond})
	if exec == nil {
		exec = worker.NoopExecutor{}
	}
	r := &batchRig{ens: ens, cli: ens.Connect()}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		c, err := controller.New(controller.Config{
			Name:        fmt.Sprintf("ctrl-%d", i),
			Ensemble:    ens,
			Schema:      counterSchema(),
			Procedures:  counterProcs(),
			Bootstrap:   counterModel(counters),
			Policy:      policy,
			BatchMaxOps: batchMaxOps,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.ctrls = append(r.ctrls, c)
		r.wg.Add(1)
		go func() { defer r.wg.Done(); _ = c.Run(ctx) }()
	}
	w, err := worker.New(worker.Config{
		Name: "w0", Ensemble: ens, Executor: exec, Threads: 4,
		ClaimBatch: claimBatch, BatchMaxOps: batchMaxOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.wrk = w
	r.wg.Add(1)
	go func() { defer r.wg.Done(); _ = w.Run(ctx) }()
	if !eventually(5*time.Second, func() bool { return r.leader() != nil }) {
		t.Fatal("no controller ever led")
	}
	t.Cleanup(func() {
		cancel()
		r.wg.Wait()
		r.cli.Close()
		for _, c := range r.ctrls {
			c.Close()
		}
		w.Close()
		ens.Close()
	})
	return r
}

func (r *batchRig) leader() *controller.Controller {
	for _, c := range r.ctrls {
		if c.Leading() {
			return c
		}
	}
	return nil
}

func (r *batchRig) submit(t *testing.T, proc string, args ...string) string {
	t.Helper()
	rec := &txn.Txn{Proc: proc, Args: args, State: txn.StateInitialized, SubmittedAt: time.Now()}
	path, err := r.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = r.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	return path
}

func (r *batchRig) wait(t *testing.T, path string) *txn.Txn {
	t.Helper()
	return waitTerminal(t, r.cli, path, 15*time.Second)
}

// TestScheduleAggressiveConflictHeavy drives the §3.1.1 aggressive
// policy through a conflict-heavy workload under the batched pipeline: a
// chain of transactions serialized on one counter (each deferring while
// its predecessor executes) plus independent transactions behind them in
// todoQ. The independent work must commit without waiting for the whole
// chain (no head-of-line blocking), the deferred head must not starve
// (the chain completes), and every deferral's re-simulation must leave
// the logical layer exact — any leaked or double-applied simulation
// shows up in the final counter values.
func TestScheduleAggressiveConflictHeavy(t *testing.T) {
	const chainLen, indep = 3, 4 // the max-3 constraint caps the chain
	// Claim size 1: the property under test is the CONTROLLER's policy;
	// a worker thread hoarding a claimed batch would blur the timing.
	r := newBatchRig(t, 1+indep, 16, 1, controller.ScheduleAggressive,
		&slowExecutor{delay: 80 * time.Millisecond})

	// The chain serializes on /c0; the independent set spreads over the
	// rest. Everything is submitted up front, chain first, so the
	// independent transactions sit BEHIND the conflicted head in todoQ.
	var chain, others []string
	for i := 0; i < chainLen; i++ {
		chain = append(chain, r.submit(t, "incN", "/c0", "1"))
	}
	for i := 0; i < indep; i++ {
		others = append(others, r.submit(t, "incN", fmt.Sprintf("/c%d", 1+i), "1"))
	}

	finishedAt := func(rec *txn.Txn) time.Time {
		for _, st := range rec.History {
			if st.State == rec.State {
				return st.At
			}
		}
		t.Fatalf("txn %s history lacks terminal stamp: %+v", rec.ID, rec.History)
		return time.Time{}
	}
	var indepDone, chainDone time.Time
	for _, p := range others {
		rec := r.wait(t, p)
		if rec.State != txn.StateCommitted {
			t.Fatalf("independent txn %s: %s (%s)", p, rec.State, rec.Error)
		}
		if at := finishedAt(rec); at.After(indepDone) {
			indepDone = at
		}
	}
	for _, p := range chain {
		rec := r.wait(t, p)
		if rec.State != txn.StateCommitted {
			t.Fatalf("chain txn %s: %s (%s)", p, rec.State, rec.Error)
		}
		if at := finishedAt(rec); at.After(chainDone) {
			chainDone = at
		}
	}
	// No head-of-line blocking: every independent transaction finished
	// before the serialized chain did (the chain alone needs
	// chainLen × 80ms of lock-serialized physical time; the independent
	// set fans out over the worker threads in a fraction of that).
	if !indepDone.Before(chainDone) {
		t.Fatalf("independent work (done %v) waited for the conflicted chain (done %v)",
			indepDone, chainDone)
	}
	lead := r.leader()
	if lead == nil {
		t.Fatal("no leader")
	}
	if st := lead.Stats(); st.Deferrals == 0 {
		t.Fatal("conflict-heavy workload produced no deferrals")
	}
	// Re-simulation correctness: exact final values.
	tree := lead.LogicalTree()
	if n, err := tree.Get("/c0"); err != nil || n.GetInt("value") != chainLen {
		t.Fatalf("/c0 = %v (%v), want %d", n, err, chainLen)
	}
	for i := 0; i < indep; i++ {
		p := fmt.Sprintf("/c%d", 1+i)
		if n, err := tree.Get(p); err != nil || n.GetInt("value") != 1 {
			t.Fatalf("%s = %v (%v), want 1", p, n, err)
		}
	}
}

// TestBatchBoundaryCrashRecovery kills the lead controller in the middle
// of a grouped-commit workload and checks the batch-atomicity invariant
// across failover: every transaction reaches exactly one terminal state,
// no phyQ entry is lost (nothing stuck in started) or duplicated (no
// device action runs twice), and the recovered logical model equals the
// committed effects exactly.
func TestBatchBoundaryCrashRecovery(t *testing.T) {
	const counters, perCounter = 8, 3
	r := newBatchRig(t, counters, 16, 4, controller.ScheduleFIFO,
		&slowExecutor{delay: 3 * time.Millisecond})

	var paths []string
	for round := 0; round < perCounter; round++ {
		for c := 0; c < counters; c++ {
			paths = append(paths, r.submit(t, "incN", fmt.Sprintf("/c%d", c), "1"))
		}
	}
	total := len(paths)

	// Let the pipeline get mid-flight, then crash the leader: the kill
	// lands between grouped flushes of a live batch stream.
	if !eventually(5*time.Second, func() bool { return r.wrk.Stats().Committed >= int64(total)/4 }) {
		t.Fatal("pipeline never got going")
	}
	old := r.leader()
	if old == nil {
		t.Fatal("no leader to kill")
	}
	old.Kill()

	for _, p := range paths {
		rec := r.wait(t, p)
		if rec.State != txn.StateCommitted {
			t.Fatalf("txn %s: %s (%s)", p, rec.State, rec.Error)
		}
	}
	// No duplicated phyQ entries: each transaction's single action ran
	// exactly once on the devices.
	if got := r.wrk.Stats().Actions; got != int64(total) {
		t.Fatalf("device actions = %d, want exactly %d (phyQ duplicated or lost work)", got, total)
	}
	// The new leader's recovered model carries exactly the committed
	// effects.
	var lead *controller.Controller
	if !eventually(5*time.Second, func() bool {
		lead = r.leader()
		return lead != nil && lead != old
	}) {
		t.Fatal("no failover leader")
	}
	tree := lead.LogicalTree()
	for c := 0; c < counters; c++ {
		p := fmt.Sprintf("/c%d", c)
		if n, err := tree.Get(p); err != nil || n.GetInt("value") != perCounter {
			t.Fatalf("%s = %v (%v), want %d", p, n, err, perCounter)
		}
	}
	// Queues fully drained: nothing stranded by the crash.
	for _, qp := range []string{proto.InputQPath, proto.PhyQPath} {
		names, err := r.cli.Children(qp)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 0 {
			t.Fatalf("%s still holds %v", qp, names)
		}
	}
}
