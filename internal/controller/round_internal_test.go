package controller

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// newRoundController builds an unstarted controller on shard 0 of two,
// recovered from its bootstrap snapshot (ctxTree) so event rounds can be
// driven step by step.
func newRoundController(t *testing.T) *Controller {
	t.Helper()
	ens := store.NewEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond})
	t.Cleanup(func() { ens.Close() })
	return roundControllerOn(t, ens, "r0")
}

// roundControllerOn is newRoundController over an existing ensemble: a
// second one recovers the state a first one left, as a new leader does.
func roundControllerOn(t *testing.T, ens *store.Ensemble, name string) *Controller {
	t.Helper()
	c, err := New(Config{
		Name:      name,
		Ensemble:  ens,
		Schema:    ctxSchema(),
		Bootstrap: ctxTree(),
		Procedures: map[string]Procedure{
			"put":  func(cx *Ctx) error { return cx.Do(cx.Arg(0), "put", cx.Arg(1)) },
			"link": func(cx *Ctx) error { return cx.Do(cx.Arg(0), "link", cx.Arg(1)) },
		},
		BatchMaxOps: 32,
		XShard:      &XShardConfig{Self: 0, Router: shard.NewRouter(shard.NewMap(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.recover(); err != nil {
		t.Fatal(err)
	}
	return c
}

// submitRecord stores an initialized transaction record and queues its
// submit notice, returning the record path.
func submitRecord(t *testing.T, c *Controller, proc string, args ...string) string {
	t.Helper()
	rec := &txn.Txn{Proc: proc, Args: args, State: txn.StateInitialized, SubmittedAt: time.Now()}
	path, err := c.cli.Create(proto.TxnPrefix, rec.Encode(), store.FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	queueMsg(t, c, proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path})
	return path
}

func queueMsg(t *testing.T, c *Controller, msg proto.InputMsg) {
	t.Helper()
	if _, err := c.cli.Create(proto.InputQPath+"/"+queue.ItemPrefix, msg.Encode(), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
}

// runRounds runs event rounds the way the lead loop does until inputQ
// and the local messages are drained.
func runRounds(t *testing.T, c *Controller) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if n, _ := c.inputQ.Len(); n == 0 && !c.localsPending() {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		items, err := c.takeInput(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.processRound(items); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	t.Fatal("rounds never drained the input")
}

// bumpVersion rewrites the node at path unchanged, moving its version
// under any write staged at the old one, so the round carrying that
// write fails its flush.
func bumpVersion(t *testing.T, cli *store.Client, path string) {
	t.Helper()
	data, _, err := cli.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Set(path, data, -1); err != nil {
		t.Fatal(err)
	}
}

// loadRecord decodes the record the store holds at path, bypassing the
// controller's held copies.
func loadRecord(t *testing.T, c *Controller, path string) (*txn.Txn, store.Stat) {
	t.Helper()
	data, stat, err := c.cli.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := txn.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return rec, stat
}

// TestFailedFlushReRunsRound: a round whose grouped flush fails (a
// staged record's version moved) is unwound — no admission, simulated
// effect, or early lock handoff survives, its store items are still at
// the head of inputQ, and its local message is queued again — and
// re-running it commits every transaction exactly once.
func TestFailedFlushReRunsRound(t *testing.T) {
	c := newRoundController(t)
	p0 := submitRecord(t, c, "put", "/b2", "fig")
	runRounds(t, c)
	if rec, _ := loadRecord(t, c, p0); rec.State != txn.StateStarted {
		t.Fatalf("p0 = %s, want started", rec.State)
	}
	// One round: p0's commit hands its /b2 lock to p3; p2 defers behind
	// p1 on /b1; a local vote lands in a parent's ledger.
	queueMsg(t, c, proto.InputMsg{Kind: proto.KindResult, TxnPath: p0, Outcome: string(txn.StateCommitted)})
	p1 := submitRecord(t, c, "put", "/b1", "apple")
	p3 := submitRecord(t, c, "put", "/b2", "lime")
	p2 := submitRecord(t, c, "put", "/b1", "kiwi")
	parentPath := proto.TxnsPath + "/t-9"
	parent := &txn.Txn{ID: "t-9", State: txn.StateAccepted, Children: []txn.ChildRef{
		{ID: "s0-t-9.c0", Shard: 0},
		{ID: "s0-t-9.c1", Shard: 1},
	}}
	if _, err := c.cli.Create(parentPath, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	vote := proto.InputMsg{Kind: proto.KindXVote, TxnPath: parentPath, ChildIndex: 1,
		Outcome: string(txn.StatePrepared)}
	c.enqueueLocal(vote)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := c.inputQ.TakeHeadBatch(ctx, c.batchMax())
	if err != nil || len(items) != 4 {
		t.Fatalf("take: %d items, %v", len(items), err)
	}
	r := newRound()
	if err := c.handleLocal(r); err != nil {
		t.Fatal(err)
	}
	if err := c.handleRound(r, items); err != nil {
		t.Fatal(err)
	}
	c.scheduleInto(r)
	if len(r.admitted) != 2 || len(c.todo) != 1 {
		t.Fatalf("round staged %d admissions and deferred %d, want 2 and 1", len(r.admitted), len(c.todo))
	}
	bumpVersion(t, c.cli, p1) // under its staged accept

	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	if len(c.todo) != 0 || len(c.inFlight) != 1 {
		t.Fatalf("unwound round left todo %d, in flight %d", len(c.todo), len(c.inFlight))
	}
	for p, want := range map[string]string{"/b1": "pear", "/b2": "fig"} {
		if n, _ := c.ltree.Get(p); n.GetString("item") != want {
			t.Fatalf("simulation not unwound: %s holds %q, want %q", p, n.GetString("item"), want)
		}
	}
	probe := []lock.Request{{Path: "/b2", Mode: lock.W}}
	if ce := c.locks.WouldConflict("probe", probe); ce == nil || c.txnPath(ce.Holder) != p0 {
		t.Fatalf("/b2 lock after failed flush: %v, want held by p0", ce)
	}
	if ce := c.locks.WouldConflict("probe", []lock.Request{{Path: "/b1", Mode: lock.W}}); ce != nil {
		t.Fatalf("/b1 still locked after failed flush: %v", ce)
	}
	head, err := c.inputQ.TakeHeadBatch(ctx, c.batchMax())
	if err != nil || len(head) != len(items) {
		t.Fatalf("inputQ head after failed flush = %+v (%v), want %+v", head, err, items)
	}
	for i := range items {
		if head[i].Path != items[i].Path {
			t.Fatalf("inputQ head after failed flush = %+v, want %+v", head, items)
		}
	}
	if !c.resched {
		t.Fatal("failed flush owes no scheduling pass")
	}
	if locals := c.takeLocal(); len(locals) != 1 || locals[0] != vote {
		t.Fatalf("local messages after failed flush = %+v, want the vote", locals)
	} else {
		c.enqueueLocal(locals[0])
	}

	runRounds(t, c)
	for p, want := range map[string]txn.State{p0: txn.StateCommitted, p1: txn.StateStarted,
		p3: txn.StateStarted, p2: txn.StateAccepted} {
		if rec, _ := loadRecord(t, c, p); rec.State != want {
			t.Fatalf("%s = %s, want %s", p, rec.State, want)
		}
	}
	if len(c.todo) != 1 || c.txnPath(c.todo[0].ID) != p2 {
		t.Fatalf("todo = %v, want p2 once", c.todo)
	}
	names, err := c.cli.Children(proto.PhyQPath)
	if err != nil {
		t.Fatal(err)
	}
	enqueued := map[string]int{}
	for _, name := range names {
		data, _, err := c.cli.Get(proto.PhyQPath + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := proto.DecodePhyMsg(data)
		if err != nil {
			t.Fatal(err)
		}
		enqueued[msg.TxnPath]++
	}
	if len(names) != 3 || enqueued[p0] != 1 || enqueued[p1] != 1 || enqueued[p3] != 1 {
		t.Fatalf("phyQ entries %v, want p0, p1, p3 once each", enqueued)
	}
	if st := c.Stats(); st.Accepted != 4 || st.Committed != 1 {
		t.Fatalf("accepted %d, committed %d; want 4 and 1", st.Accepted, st.Committed)
	}
	if rec, _ := loadRecord(t, c, parentPath); rec.Children[1].State != txn.StatePrepared {
		t.Fatalf("re-run lost the vote: ledger %+v", rec.Children)
	}
}

// TestFailedDecideFlushCountsPiggybackOnce: a piggybacked commit
// decision whose round fails to flush leaves the child prepared with its
// previous DecisionVia and counts nothing; the re-run round counts the
// decision once.
func TestFailedDecideFlushCountsPiggybackOnce(t *testing.T) {
	c := newRoundController(t)
	child, path := prepareChild(t, c)
	prepared := child.Encode()
	if _, err := c.cli.Create(path, prepared, 0); err != nil {
		t.Fatal(err)
	}
	before := c.met.xPiggy.Load()
	c.enqueueLocal(proto.InputMsg{Kind: proto.KindXDecide, TxnPath: path,
		Decision: txn.DecisionCommit, Via: "local"})
	r := newRound()
	if err := c.handleLocal(r); err != nil {
		t.Fatal(err)
	}
	bumpVersion(t, c.cli, path) // under the staged promotion
	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	if got := c.met.xPiggy.Load() - before; got != 0 {
		t.Fatalf("failed flush counted %d piggybacked decisions", got)
	}
	if child.State != txn.StatePrepared || child.DecisionVia != "" {
		t.Fatalf("unwound child: %s via %q, want prepared via \"\"", child.State, child.DecisionVia)
	}

	runRounds(t, c)
	if got := c.met.xPiggy.Load() - before; got != 1 {
		t.Fatalf("re-run decide counted %d piggybacked decisions, want 1", got)
	}
	if rec, _ := loadRecord(t, c, path); rec.State != txn.StateStarted || rec.DecisionVia != "local" {
		t.Fatalf("stored child: %s via %q, want started via local", rec.State, rec.DecisionVia)
	}
}

// TestFailedCleanupMarksCommitWithRecord: the inconsistency marks of a
// failed transaction are created in the same commit as its failed
// state, so no crash can leave one durable without the other; a path
// already marked is not created again (which would fail the round).
func TestFailedCleanupMarksCommitWithRecord(t *testing.T) {
	c := newRoundController(t)
	path := submitRecord(t, c, "link", "/b1", "/b2")
	runRounds(t, c)
	if _, ok := c.inFlight[path[len(proto.TxnsPath)+1:]]; !ok {
		t.Fatal("transaction not started")
	}
	if _, err := c.cli.Create(inconsistentNode("/b2"), nil, 0); err != nil {
		t.Fatal(err)
	}
	queueMsg(t, c, proto.InputMsg{Kind: proto.KindResult, TxnPath: path,
		Outcome: string(txn.StateFailed), Error: "undo failed"})
	runRounds(t, c)

	rec, stat := loadRecord(t, c, path)
	if rec.State != txn.StateFailed {
		t.Fatalf("state = %s, want failed", rec.State)
	}
	for _, p := range []string{"/b1", "/b2"} {
		ok, mark, err := c.cli.Exists(inconsistentNode(p))
		if err != nil || !ok {
			t.Fatalf("mark for %s: %v %v", p, ok, err)
		}
		if fresh := p == "/b1"; fresh != (mark.Czxid == stat.Mzxid) {
			t.Fatalf("mark for %s created at zxid %d, failed state written at %d",
				p, mark.Czxid, stat.Mzxid)
		}
		if n, _ := c.ltree.Get(p); !n.Inconsistent {
			t.Fatalf("%s not marked in the logical tree", p)
		}
	}
	if n := c.locks.LockCount(); n != 0 {
		t.Fatalf("%d locks held after the failure", n)
	}
}

// TestFailedFlushAfterRoundReuse: the controller stages every round
// into one reused round. After a flush succeeded in that storage, a round
// that fails its flush unwinds exactly what it staged — the transaction
// an earlier round admitted keeps its simulated effect, lock, held copy
// and place in flight — and the round is empty again for the re-run,
// which admits the failed round's transaction once.
func TestFailedFlushAfterRoundReuse(t *testing.T) {
	c := newRoundController(t)
	p1 := submitRecord(t, c, "put", "/b1", "apple")
	runRounds(t, c)
	r := c.round
	if len(r.ops) != 0 || len(r.after) != 0 || len(r.admitted) != 0 || len(r.writes) != 0 || cap(r.ops) == 0 {
		t.Fatalf("flushed round holds %d ops (cap %d), %d effects, %d admissions, %d writes; want empty, storage kept",
			len(r.ops), cap(r.ops), len(r.after), len(r.admitted), len(r.writes))
	}

	p2 := submitRecord(t, c, "put", "/b2", "lime")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := c.inputQ.TakeHeadBatch(ctx, c.batchMax())
	if err != nil {
		t.Fatal(err)
	}
	r.reset()
	if err := c.handleRound(r, items); err != nil {
		t.Fatal(err)
	}
	c.scheduleInto(r)
	if len(r.admitted) != 1 || c.txnPath(r.admitted[0].ID) != p2 {
		t.Fatalf("round admitted %v, want p2 alone", r.admitted)
	}
	bumpVersion(t, c.cli, p2) // under its staged accept
	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	if len(r.ops) != 0 || len(r.undo) != 0 || len(r.accepted) != 0 || len(r.staged) != 0 {
		t.Fatalf("failed round left %d ops, %d undos, %d accepts, %d staged paths", len(r.ops), len(r.undo),
			len(r.accepted), len(r.staged))
	}
	checkHeld(t, c)
	if _, ok := c.held[p1]; !ok || len(c.inFlight) != 1 || len(c.todo) != 0 {
		t.Fatalf("after the failed round: p1 held %v, %d in flight, %d queued; want p1 alone in flight",
			ok, len(c.inFlight), len(c.todo))
	}
	for p, want := range map[string]string{"/b1": "apple", "/b2": "plum"} {
		if n, _ := c.ltree.Get(p); n.GetString("item") != want {
			t.Fatalf("%s holds %q, want %q", p, n.GetString("item"), want)
		}
	}
	if ce := c.locks.WouldConflict("probe", []lock.Request{{Path: "/b1", Mode: lock.W}}); ce == nil || c.txnPath(ce.Holder) != p1 {
		t.Fatalf("/b1 lock after the failed round: %v, want held by p1", ce)
	}
	if ce := c.locks.WouldConflict("probe", []lock.Request{{Path: "/b2", Mode: lock.W}}); ce != nil {
		t.Fatalf("/b2 still locked after the failed round: %v", ce)
	}

	runRounds(t, c)
	checkHeld(t, c)
	for p, want := range map[string]txn.State{p1: txn.StateStarted, p2: txn.StateStarted} {
		if rec, _ := loadRecord(t, c, p); rec.State != want {
			t.Fatalf("%s = %s, want %s", p, rec.State, want)
		}
	}
	if st := c.Stats(); st.Accepted != 2 || len(c.inFlight) != 2 {
		t.Fatalf("accepted %d with %d in flight, want 2 and 2", st.Accepted, len(c.inFlight))
	}
}

// TestJSONMessagesRejected: a data dir written before the binary message
// format holds JSON queue items and commit-log entries. A JSON inputQ
// item ends the leader's round with proto.ErrFormat, as fatally as a
// lost session, and stays queued rather than dropped; a JSON commit-log
// entry fails recovery with the same error.
func TestJSONMessagesRejected(t *testing.T) {
	c := newRoundController(t)
	if _, err := c.cli.Create(proto.InputQPath+"/"+queue.ItemPrefix,
		[]byte(`{"kind":"submit","txnPath":"/tropic/txns/t-0000000001"}`), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := c.takeInput(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.processRound(items); !errors.Is(err, proto.ErrFormat) || !errFatal(err) {
		t.Fatalf("round over a JSON inputQ item: err = %v, want fatal ErrFormat", err)
	}
	if n, _ := c.inputQ.Len(); n != 1 {
		t.Fatalf("inputQ holds %d items after the rejected round, want 1", n)
	}

	if _, err := c.cli.Create(proto.CommitLogPrefix,
		[]byte(`{"txnPath":"/tropic/txns/t-0000000001"}`), store.FlagSequence); err != nil {
		t.Fatal(err)
	}
	if err := c.recover(); !errors.Is(err, proto.ErrFormat) {
		t.Fatalf("recovery over a JSON commit-log entry: err = %v, want ErrFormat", err)
	}
}
