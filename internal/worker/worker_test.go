package worker_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/worker"
)

// recordingExecutor captures the exact call sequence and can fail
// chosen (action, invocation) pairs.
type recordingExecutor struct {
	mu    sync.Mutex
	calls []string
	fail  map[string]bool // "action" or "action#N"
}

func (r *recordingExecutor) Execute(path, action string, args []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, fmt.Sprintf("%s@%s", action, path))
	n := 0
	for _, c := range r.calls {
		if len(c) >= len(action) && c[:len(action)] == action {
			n++
		}
	}
	if r.fail[action] || r.fail[fmt.Sprintf("%s#%d", action, n)] {
		return fmt.Errorf("injected: %s", action)
	}
	return nil
}

func (r *recordingExecutor) sequence() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

// harness: ensemble + worker + helpers to enqueue started transactions
// and read the result notice.
type harness struct {
	ens *store.Ensemble
	cli *store.Client
	inQ *queue.Queue
	b   *store.Batcher // the notice claims commit through it
}

func newHarness(t *testing.T, exec worker.Executor) *harness {
	t.Helper()
	ens := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 300 * time.Millisecond})
	w, err := worker.New(worker.Config{Name: "w", Ensemble: ens, Executor: exec, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	cli := ens.Connect()
	if err := cli.EnsurePath(proto.TxnsPath); err != nil {
		t.Fatal(err)
	}
	inQ, err := queue.New(cli, proto.InputQPath)
	if err != nil {
		t.Fatal(err)
	}
	b := cli.NewBatcher(store.BatcherConfig{MaxOps: 1})
	t.Cleanup(func() {
		cancel()
		<-done
		b.Close()
		cli.Close()
		w.Close()
		ens.Close()
	})
	return &harness{ens: ens, cli: cli, inQ: inQ, b: b}
}

// enqueue persists a started transaction and puts it on phyQ.
func (h *harness) enqueue(t *testing.T, rec *txn.Txn) string {
	t.Helper()
	rec.State = txn.StateStarted
	path, err := h.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.cli.Create(proto.PhyQPath+"/item-",
		proto.PhyMsg{TxnPath: path}.Encode(), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	return path
}

// result blocks for the worker's result notice.
func (h *harness) result(t *testing.T) proto.InputMsg {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	data, err := h.inQ.TakeBatch(ctx, 1, h.b)
	if err != nil {
		t.Fatalf("no result notice: %v", err)
	}
	msg, err := proto.DecodeInputMsg(data[0])
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func spawnLog() []txn.LogRecord {
	return []txn.LogRecord{
		{Seq: 1, Path: "/storageRoot/s", Action: "cloneImage", Args: []string{"tmpl", "img"}, Undo: "removeImage", UndoArgs: []string{"img"}},
		{Seq: 2, Path: "/storageRoot/s", Action: "exportImage", Args: []string{"img"}, Undo: "unexportImage", UndoArgs: []string{"img"}},
		{Seq: 3, Path: "/vmRoot/h", Action: "importImage", Args: []string{"img"}, Undo: "unimportImage", UndoArgs: []string{"img"}},
		{Seq: 4, Path: "/vmRoot/h", Action: "createVM", Args: []string{"vm", "img"}, Undo: "removeVM", UndoArgs: []string{"vm"}},
		{Seq: 5, Path: "/vmRoot/h", Action: "startVM", Args: []string{"vm"}, Undo: "stopVM", UndoArgs: []string{"vm"}},
	}
}

func TestWorkerCommitsAndWritesCommitLogAtomically(t *testing.T) {
	exec := &recordingExecutor{}
	h := newHarness(t, exec)
	h.enqueue(t, &txn.Txn{Proc: "spawnVM", Log: spawnLog(), SubmittedAt: time.Now()})
	msg := h.result(t)
	if msg.Kind != proto.KindResult || msg.Outcome != string(txn.StateCommitted) {
		t.Fatalf("msg = %+v", msg)
	}
	want := []string{
		"cloneImage@/storageRoot/s", "exportImage@/storageRoot/s",
		"importImage@/vmRoot/h", "createVM@/vmRoot/h", "startVM@/vmRoot/h",
	}
	got := exec.sequence()
	if len(got) != len(want) {
		t.Fatalf("calls = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %s, want %s", i, got[i], want[i])
		}
	}
	// The worker never writes the txn record; that is the controller's
	// cleanup job (Figure 2 step 5).
	data, _, _ := h.cli.Get(msg.TxnPath)
	rec, _ := txn.Decode(data)
	if rec.State != txn.StateStarted {
		t.Fatalf("worker mutated the record to %s", rec.State)
	}
}

func TestWorkerUndoReverseOrder(t *testing.T) {
	// Fail the 5th action: the undos of #4..#1 run in reverse order.
	exec := &recordingExecutor{fail: map[string]bool{"startVM": true}}
	h := newHarness(t, exec)
	h.enqueue(t, &txn.Txn{Proc: "spawnVM", Log: spawnLog(), SubmittedAt: time.Now()})
	msg := h.result(t)
	if msg.Outcome != string(txn.StateAborted) {
		t.Fatalf("outcome = %s (%s)", msg.Outcome, msg.Error)
	}
	if msg.UndoneThrough != 4 {
		t.Fatalf("undoneThrough = %d", msg.UndoneThrough)
	}
	got := exec.sequence()
	wantTail := []string{
		"removeVM@/vmRoot/h", "unimportImage@/vmRoot/h",
		"unexportImage@/storageRoot/s", "removeImage@/storageRoot/s",
	}
	if len(got) != 5+4 {
		t.Fatalf("calls = %v", got)
	}
	for i, w := range wantTail {
		if got[5+i] != w {
			t.Fatalf("undo %d = %s, want %s (reverse chronological order)", i, got[5+i], w)
		}
	}
}

func TestWorkerUndoFailureReportsFailed(t *testing.T) {
	// Action 3 fails; undo of action 2 fails → failed, and per §3.2 the
	// remaining undo (action 1) must NOT run.
	exec := &recordingExecutor{fail: map[string]bool{"importImage": true, "unexportImage": true}}
	h := newHarness(t, exec)
	h.enqueue(t, &txn.Txn{Proc: "spawnVM", Log: spawnLog(), SubmittedAt: time.Now()})
	msg := h.result(t)
	if msg.Outcome != string(txn.StateFailed) {
		t.Fatalf("outcome = %s", msg.Outcome)
	}
	if msg.UndoneThrough != 0 {
		t.Fatalf("undoneThrough = %d", msg.UndoneThrough)
	}
	for _, c := range exec.sequence() {
		if c == "removeImage@/storageRoot/s" {
			t.Fatal("undo continued past a failed undo")
		}
	}
	if msg.Error == "" {
		t.Fatal("failed without error description")
	}
}

func TestWorkerSkipsTerminalTxn(t *testing.T) {
	exec := &recordingExecutor{}
	h := newHarness(t, exec)
	// A KILLed transaction is already terminal when dequeued.
	rec := &txn.Txn{Proc: "spawnVM", Log: spawnLog(), SubmittedAt: time.Now()}
	rec.State = txn.StateAborted
	path, err := h.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.cli.Create(proto.PhyQPath+"/item-",
		proto.PhyMsg{TxnPath: path}.Encode(), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if calls := exec.sequence(); len(calls) != 0 {
		t.Fatalf("worker executed a terminal txn: %v", calls)
	}
	if n, _ := h.inQ.Len(); n != 0 {
		t.Fatalf("worker reported a skipped txn (%d notices)", n)
	}
}

func TestWorkerHonorsTermSignal(t *testing.T) {
	// Slow executor + TERM set after the first action: the worker stops
	// between actions and rolls back the applied prefix.
	exec := &slowRecordingExecutor{delay: 50 * time.Millisecond}
	h := newHarness(t, exec)
	path := h.enqueue(t, &txn.Txn{Proc: "spawnVM", Log: spawnLog(), SubmittedAt: time.Now()})
	time.Sleep(20 * time.Millisecond) // inside action 1
	// Set the TERM signal on the record (what the controller does).
	data, stat, err := h.cli.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := txn.Decode(data)
	rec.Signal = txn.SignalTerm
	if err := h.cli.Set(path, rec.Encode(), stat.Version); err != nil {
		t.Fatal(err)
	}
	msg := h.result(t)
	if msg.Outcome != string(txn.StateAborted) {
		t.Fatalf("outcome = %s", msg.Outcome)
	}
	calls := exec.sequence()
	// At least one forward action ran, and each ran action has a
	// matching undo afterwards (prefix rollback).
	forward := 0
	for _, c := range calls {
		switch c {
		case "cloneImage@/storageRoot/s", "exportImage@/storageRoot/s",
			"importImage@/vmRoot/h", "createVM@/vmRoot/h", "startVM@/vmRoot/h":
			forward++
		}
	}
	if forward == 0 || forward == 5 {
		t.Fatalf("TERM did not interrupt execution: %v", calls)
	}
	if len(calls) != 2*forward {
		t.Fatalf("rollback incomplete: %d forward, %d total calls", forward, len(calls))
	}
}

type slowRecordingExecutor struct {
	recordingExecutor
	delay time.Duration
}

func (s *slowRecordingExecutor) Execute(path, action string, args []string) error {
	time.Sleep(s.delay)
	return s.recordingExecutor.Execute(path, action, args)
}

func TestWorkerCompetingThreadsExactlyOnce(t *testing.T) {
	exec := &recordingExecutor{}
	ens := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 300 * time.Millisecond})
	defer ens.Close()
	// Two separate workers share phyQ; each item must execute once.
	var done []func()
	for i := 0; i < 2; i++ {
		w, err := worker.New(worker.Config{Name: fmt.Sprintf("w%d", i), Ensemble: ens, Executor: exec, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ch := make(chan struct{})
		go func() { defer close(ch); _ = w.Run(ctx) }()
		wc := w
		done = append(done, func() { cancel(); <-ch; wc.Close() })
	}
	defer func() {
		for _, d := range done {
			d()
		}
	}()

	cli := ens.Connect()
	defer cli.Close()
	if err := cli.EnsurePath(proto.TxnsPath); err != nil {
		t.Fatal(err)
	}
	inQ, err := queue.New(cli, proto.InputQPath)
	if err != nil {
		t.Fatal(err)
	}
	const txns = 10
	for i := 0; i < txns; i++ {
		rec := &txn.Txn{
			Proc:  "one",
			State: txn.StateStarted,
			Log: []txn.LogRecord{{
				Seq: 1, Path: "/vmRoot/h", Action: "startVM",
				Args: []string{fmt.Sprintf("vm%d", i)}, Undo: "stopVM",
			}},
			SubmittedAt: time.Now(),
		}
		path, err := cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Create(proto.PhyQPath+"/item-",
			proto.PhyMsg{TxnPath: path}.Encode(), store.FlagSequence); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b := cli.NewBatcher(store.BatcherConfig{MaxOps: 1})
	defer b.Close()
	for i := 0; i < txns; i++ {
		if _, err := inQ.TakeBatch(ctx, 1, b); err != nil {
			t.Fatalf("notice %d: %v", i, err)
		}
	}
	if calls := exec.sequence(); len(calls) != txns {
		t.Fatalf("%d actions executed, want %d (exactly once)", len(calls), txns)
	}
}

func TestNoopExecutorLatency(t *testing.T) {
	e := worker.NoopExecutor{Latency: 30 * time.Millisecond}
	start := time.Now()
	if err := e.Execute("/x", "y", nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("latency not applied")
	}
	if err := (worker.NoopExecutor{}).Execute("/x", "y", nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	if _, err := worker.New(worker.Config{}); err == nil {
		t.Fatal("config without ensemble accepted")
	}
	ens := store.NewEnsemble(store.Config{})
	defer ens.Close()
	if _, err := worker.New(worker.Config{Ensemble: ens}); err == nil {
		t.Fatal("config without executor accepted")
	}
}

var errSentinel = errors.New("x")

func TestRecordingExecutorSelfTest(t *testing.T) {
	// Meta-test for the harness executor's Nth-failure logic.
	r := &recordingExecutor{fail: map[string]bool{"a#2": true}}
	if err := r.Execute("/p", "a", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Execute("/p", "a", nil); err == nil {
		t.Fatal("second call should fail")
	}
	_ = errSentinel
}
