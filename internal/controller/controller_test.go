package controller_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/worker"
)

// counterSchema is a minimal data model: counter nodes with inc/dec
// actions and a non-negative, bounded-value constraint.
func counterSchema() *model.Schema {
	s := model.NewSchema()
	s.Entity("root")
	s.Entity("counter").
		Action(&model.ActionDef{
			Name: "inc",
			Simulate: func(t *model.Tree, path string, args []string) error {
				n, err := t.Get(path)
				if err != nil {
					return err
				}
				n.Attrs["value"] = n.GetInt("value") + 1
				return nil
			},
			Undo: "dec",
		}).
		Action(&model.ActionDef{
			Name: "dec",
			Simulate: func(t *model.Tree, path string, args []string) error {
				n, err := t.Get(path)
				if err != nil {
					return err
				}
				n.Attrs["value"] = n.GetInt("value") - 1
				return nil
			},
			Undo: "inc",
		}).
		Constrain(model.Constraint{
			Name: "max-3",
			Check: func(t *model.Tree, path string, n *model.Node) error {
				if n.GetInt("value") > 3 {
					return fmt.Errorf("value %d > 3", n.GetInt("value"))
				}
				return nil
			},
		})
	return s
}

func counterModel(counters int) *model.Tree {
	t := model.NewTree()
	for i := 0; i < counters; i++ {
		if _, err := t.Create(fmt.Sprintf("/c%d", i), "counter", map[string]any{"value": int64(0)}); err != nil {
			panic(err)
		}
	}
	return t
}

// counterProcs: "incN <path> <times>" increments a counter repeatedly;
// "touchTwo <a> <b>" increments two counters in one transaction.
func counterProcs() map[string]controller.Procedure {
	return map[string]controller.Procedure{
		"incN": func(c *controller.Ctx) error {
			times := 1
			fmt.Sscanf(c.Arg(1), "%d", &times)
			for i := 0; i < times; i++ {
				if err := c.Do(c.Arg(0), "inc"); err != nil {
					return err
				}
			}
			return nil
		},
		"touchTwo": func(c *controller.Ctx) error {
			if err := c.Do(c.Arg(0), "inc"); err != nil {
				return err
			}
			return c.Do(c.Arg(1), "inc")
		},
		"readThenInc": func(c *controller.Ctx) error {
			if _, err := c.Read(c.Arg(0)); err != nil {
				return err
			}
			return c.Do(c.Arg(1), "inc")
		},
	}
}

// rig is a single-controller, single-worker harness over the counter
// schema with a scriptable executor.
type rig struct {
	ens    *store.Ensemble
	ctrl   *controller.Controller
	wrk    *worker.Worker
	cli    *store.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// scriptedExecutor lets tests fail specific physical actions.
type scriptedExecutor struct {
	mu   sync.Mutex
	fail map[string]error // "action" -> error
}

func (s *scriptedExecutor) Execute(path, action string, args []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fail[action]; err != nil {
		return err
	}
	return nil
}

func (s *scriptedExecutor) setFail(action string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail == nil {
		s.fail = map[string]error{}
	}
	s.fail[action] = err
}

func newRig(t *testing.T, counters int, exec worker.Executor) *rig {
	t.Helper()
	ens := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 200 * time.Millisecond})
	if exec == nil {
		exec = worker.NoopExecutor{}
	}
	c, err := controller.New(controller.Config{
		Name:       "ctrl-0",
		Ensemble:   ens,
		Schema:     counterSchema(),
		Procedures: counterProcs(),
		Bootstrap:  counterModel(counters),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := worker.New(worker.Config{Name: "w0", Ensemble: ens, Executor: exec, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{ens: ens, ctrl: c, wrk: w, cli: ens.Connect(), cancel: cancel}
	r.wg.Add(2)
	go func() { defer r.wg.Done(); _ = c.Run(ctx) }()
	go func() { defer r.wg.Done(); _ = w.Run(ctx) }()
	if !eventually(5*time.Second, c.Leading) {
		t.Fatal("controller never led")
	}
	t.Cleanup(func() {
		cancel()
		r.wg.Wait()
		r.cli.Close()
		c.Close()
		w.Close()
		ens.Close()
	})
	return r
}

func (r *rig) submit(t *testing.T, proc string, args ...string) string {
	t.Helper()
	rec := &txn.Txn{Proc: proc, Args: args, State: txn.StateInitialized, SubmittedAt: time.Now()}
	path, err := r.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func (r *rig) wait(t *testing.T, path string) *txn.Txn {
	t.Helper()
	return waitTerminal(t, r.cli, path, 10*time.Second)
}

// waitTerminal polls the record at path until it is terminal.
func waitTerminal(t *testing.T, cli *store.Client, path string, timeout time.Duration) *txn.Txn {
	t.Helper()
	var rec *txn.Txn
	if !eventually(timeout, func() bool {
		rec = readTxn(t, cli, path)
		return rec.State.Terminal()
	}) {
		t.Fatalf("txn %s stuck in %s", path, rec.State)
	}
	return rec
}

// readTxn reads and decodes the record at path.
func readTxn(t *testing.T, cli *store.Client, path string) *txn.Txn {
	t.Helper()
	data, _, err := cli.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := txn.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// eventually polls cond every millisecond until it holds or timeout
// passes, and reports whether it held.
func eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		<-tick.C
	}
	return true
}

func TestLifecycleCommit(t *testing.T) {
	r := newRig(t, 2, nil)
	rec := r.wait(t, r.submit(t, "incN", "/c0", "2"))
	if rec.State != txn.StateCommitted {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	if len(rec.Log) != 2 || rec.Log[0].Action != "inc" || rec.Log[0].Undo != "dec" {
		t.Fatalf("log = %v", rec.Log)
	}
	if got := r.ctrl.LogicalTree(); !got.Exists("/c0") {
		t.Fatal("model lost c0")
	}
	n, _ := r.ctrl.LogicalTree().Get("/c0")
	if n.GetInt("value") != 2 {
		t.Fatalf("c0 = %d, want 2", n.GetInt("value"))
	}
}

func TestLifecycleConstraintAbort(t *testing.T) {
	r := newRig(t, 1, nil)
	// 5 increments blow the max-3 constraint at step 4; the logical
	// layer must be fully rolled back and no lock held.
	rec := r.wait(t, r.submit(t, "incN", "/c0", "5"))
	if rec.State != txn.StateAborted {
		t.Fatalf("state = %s", rec.State)
	}
	n, _ := r.ctrl.LogicalTree().Get("/c0")
	if n.GetInt("value") != 0 {
		t.Fatalf("c0 = %d after abort, want 0", n.GetInt("value"))
	}
	if r.ctrl.LockManager().LockCount() != 0 {
		t.Fatal("locks leaked")
	}
	st := r.ctrl.Stats()
	if st.Violations != 1 || st.Aborted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLifecyclePhysicalAbort(t *testing.T) {
	exec := &scriptedExecutor{}
	exec.setFail("inc", errors.New("device down"))
	r := newRig(t, 1, exec)
	rec := r.wait(t, r.submit(t, "incN", "/c0", "2"))
	if rec.State != txn.StateAborted {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	n, _ := r.ctrl.LogicalTree().Get("/c0")
	if n.GetInt("value") != 0 {
		t.Fatalf("c0 = %d after physical abort", n.GetInt("value"))
	}
	// Next transaction on the same counter still works.
	exec.setFail("inc", nil)
	rec = r.wait(t, r.submit(t, "incN", "/c0", "1"))
	if rec.State != txn.StateCommitted {
		t.Fatalf("followup = %s", rec.State)
	}
}

func TestLifecycleUndoFailureMarksFailed(t *testing.T) {
	// The transaction's first inc succeeds physically, its second inc
	// fails, and the compensating dec fails too → terminal state
	// "failed" and both touched counters quarantined (§4).
	ce := &countingExecutor{failOn: map[string]int{"inc": 2}, alwaysFail: map[string]bool{"dec": true}}
	r := newRig(t, 2, ce)
	rec := r.wait(t, r.submit(t, "touchTwo", "/c0", "/c1"))
	if rec.State != txn.StateFailed {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	// Follow-up transactions on the quarantined nodes abort.
	rec = r.wait(t, r.submit(t, "incN", "/c0", "1"))
	if rec.State != txn.StateAborted {
		t.Fatalf("txn on inconsistent node = %s", rec.State)
	}
}

// countingExecutor fails the Nth invocation of an action, and any
// action listed in alwaysFail.
type countingExecutor struct {
	mu         sync.Mutex
	counts     map[string]int
	failOn     map[string]int
	alwaysFail map[string]bool
}

func (c *countingExecutor) Execute(path, action string, args []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[action]++
	if c.alwaysFail[action] {
		return fmt.Errorf("injected permanent failure on %s", action)
	}
	if n := c.failOn[action]; n != 0 && c.counts[action] == n {
		return fmt.Errorf("injected failure on %s #%d", action, n)
	}
	return nil
}

func TestFIFOConflictDeferral(t *testing.T) {
	// Two transactions on the same counter: the second defers while the
	// first holds the lock, then runs. Both commit; final value 2.
	slow := &slowExecutor{delay: 60 * time.Millisecond}
	r := newRig(t, 1, slow)
	p1 := r.submit(t, "incN", "/c0", "1")
	p2 := r.submit(t, "incN", "/c0", "1")
	rec1, rec2 := r.wait(t, p1), r.wait(t, p2)
	if rec1.State != txn.StateCommitted || rec2.State != txn.StateCommitted {
		t.Fatalf("states = %s/%s", rec1.State, rec2.State)
	}
	n, _ := r.ctrl.LogicalTree().Get("/c0")
	if n.GetInt("value") != 2 {
		t.Fatalf("c0 = %d, want 2", n.GetInt("value"))
	}
	if r.ctrl.Stats().Deferrals == 0 {
		t.Fatal("no deferral recorded despite conflict")
	}
}

type slowExecutor struct{ delay time.Duration }

func (s *slowExecutor) Execute(path, action string, args []string) error {
	time.Sleep(s.delay)
	return nil
}

func TestIndependentTxnsOverlap(t *testing.T) {
	// Transactions on distinct counters must not defer each other.
	r := newRig(t, 4, &slowExecutor{delay: 30 * time.Millisecond})
	var paths []string
	for i := 0; i < 4; i++ {
		paths = append(paths, r.submit(t, "incN", fmt.Sprintf("/c%d", i), "1"))
	}
	for _, p := range paths {
		if rec := r.wait(t, p); rec.State != txn.StateCommitted {
			t.Fatalf("state = %s", rec.State)
		}
	}
	if d := r.ctrl.Stats().Deferrals; d != 0 {
		t.Fatalf("deferrals = %d, want 0 for disjoint txns", d)
	}
}

func TestReadLockBlocksWriter(t *testing.T) {
	// readThenInc reads /c0 and writes /c1; while it is in flight, a
	// writer of /c0 must defer (R ‖ W conflict) — the §3.1.3 isolation.
	r := newRig(t, 2, &slowExecutor{delay: 80 * time.Millisecond})
	p1 := r.submit(t, "readThenInc", "/c0", "/c1")
	// The writer is submitted only once the reader executes, holding its
	// read lock.
	if !eventually(5*time.Second, func() bool {
		s := readTxn(t, r.cli, p1).State
		return s == txn.StateStarted || s.Terminal()
	}) {
		t.Fatal("reader never started")
	}
	p2 := r.submit(t, "incN", "/c0", "1")
	if rec := r.wait(t, p1); rec.State != txn.StateCommitted {
		t.Fatalf("reader = %s", rec.State)
	}
	if rec := r.wait(t, p2); rec.State != txn.StateCommitted {
		t.Fatalf("writer = %s", rec.State)
	}
	if r.ctrl.Stats().Deferrals == 0 {
		t.Fatal("writer was not deferred behind reader")
	}
}

func TestUnknownProcedureAborts(t *testing.T) {
	r := newRig(t, 1, nil)
	rec := r.wait(t, r.submit(t, "nope"))
	if rec.State != txn.StateAborted || rec.Error == "" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestDuplicateSubmitNoticeIgnored(t *testing.T) {
	r := newRig(t, 1, nil)
	path := r.submit(t, "incN", "/c0", "1")
	// Duplicate notice for the same record.
	if _, err := r.cli.Create(proto.InputQPath+"/item-",
		proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	rec := r.wait(t, path)
	if rec.State != txn.StateCommitted {
		t.Fatalf("state = %s", rec.State)
	}
	// The duplicate is consumed once inputQ is empty.
	if !eventually(5*time.Second, func() bool {
		items, err := r.cli.Children(proto.InputQPath)
		return err == nil && len(items) == 0
	}) {
		t.Fatal("the duplicate notice never drained")
	}
	n, _ := r.ctrl.LogicalTree().Get("/c0")
	if n.GetInt("value") != 1 {
		t.Fatalf("c0 = %d, want 1 (duplicate executed?)", n.GetInt("value"))
	}
}

func TestCheckpointGCsTerminalRecords(t *testing.T) {
	ens := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 200 * time.Millisecond})
	c, err := controller.New(controller.Config{
		Name:            "ctrl-0",
		Ensemble:        ens,
		Schema:          counterSchema(),
		Procedures:      counterProcs(),
		Bootstrap:       counterModel(2),
		CheckpointEvery: 2,
		RetainTerminal:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := worker.New(worker.Config{Name: "w", Ensemble: ens, Executor: worker.NoopExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = c.Run(ctx) }()
	go func() { defer wg.Done(); _ = w.Run(ctx) }()
	cli := ens.Connect()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		cli.Close()
		c.Close()
		w.Close()
		ens.Close()
	})
	if !eventually(5*time.Second, c.Leading) {
		t.Fatal("no leader")
	}
	r := &rig{ens: ens, ctrl: c, wrk: w, cli: cli}
	for i := 0; i < 6; i++ {
		rec := r.wait(t, r.submit(t, "incN", fmt.Sprintf("/c%d", i%2), "1"))
		if rec.State != txn.StateCommitted {
			t.Fatalf("txn %d: %s (%s)", i, rec.State, rec.Error)
		}
	}
	// The last checkpoint has settled once it folded the commit log;
	// then count records and log entries.
	if !eventually(5*time.Second, func() bool {
		entries, err := cli.Children(proto.CommitLogPath)
		return err == nil && len(entries) == 0
	}) {
		t.Fatal("the last checkpoint never folded the commit log")
	}
	ids, err := cli.Children(proto.TxnsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) > 3 { // retained 2 + possibly one not yet folded
		t.Fatalf("txn records not GCed: %d remain (%v)", len(ids), ids)
	}
	entries, err := cli.Children(proto.CommitLogPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) >= 6 {
		t.Fatalf("commit log not pruned: %d entries", len(entries))
	}
	// The model still reflects all six commits (via the snapshot).
	n0, _ := c.LogicalTree().Get("/c0")
	n1, _ := c.LogicalTree().Get("/c1")
	if n0.GetInt("value")+n1.GetInt("value") != 6 {
		t.Fatalf("c0+c1 = %d, want 6", n0.GetInt("value")+n1.GetInt("value"))
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newRig(t, 2, nil)
	r.wait(t, r.submit(t, "incN", "/c0", "1"))
	r.wait(t, r.submit(t, "incN", "/c0", "9")) // constraint abort
	st := r.ctrl.Stats()
	if st.Accepted != 2 || st.Committed != 1 || st.Aborted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyNanos <= 0 || st.ConstraintNanos <= 0 {
		t.Fatalf("timing stats not accumulated: %+v", st)
	}
	if st.Rollbacks == 0 || st.RollbackNanos <= 0 {
		t.Fatalf("rollback stats not accumulated: %+v", st)
	}
}
