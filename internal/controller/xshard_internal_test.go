package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// newXController builds an unstarted two-shard controller whose
// in-memory state (model, locks, prepared set) is initialized the way
// leader recovery leaves it, so 2PC handlers can be driven directly.
func newXController(t *testing.T) *Controller {
	t.Helper()
	ens := store.NewEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond})
	c, err := New(Config{
		Name:     "x0",
		Ensemble: ens,
		Schema:   ctxSchema(),
		XShard:   &XShardConfig{Self: 0, Router: shard.NewRouter(shard.NewMap(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ens.Close()
	})
	c.ltree = ctxTree()
	c.locks = lock.NewManager()
	c.prepared = make(map[string]*txn.Txn)
	c.held = make(map[string]heldRec)
	return c
}

// TestXRestartVoidsPrepare: a restart at a later epoch persists the
// child as accepted at that epoch, rolls its simulation back, releases
// its locks, and requeues it; a restart at an epoch the child already
// has, or for a child no longer prepared, does nothing.
func TestXRestartVoidsPrepare(t *testing.T) {
	c := newXController(t)
	child, path := prepareChild(t, c)
	if _, err := c.cli.Create(path, child.Encode(), 0); err != nil {
		t.Fatal(err)
	}

	restart := func(epoch int) {
		t.Helper()
		if err := restartChild(c, proto.InputMsg{Kind: proto.KindXRestart, TxnPath: path, Epoch: epoch}); err != nil {
			t.Fatalf("restart at epoch %d: %v", epoch, err)
		}
	}
	restart(0)
	if child.State != txn.StatePrepared || c.locks.LockCount() == 0 {
		t.Fatalf("restart at the current epoch acted: %s, %d locks", child.State, c.locks.LockCount())
	}
	restart(1)
	checkRestarted(t, c, child, path, 1)
	restart(2) // no longer prepared: nothing to void
	if child.Epoch != 1 || len(c.todo) != 1 {
		t.Fatalf("restart of an accepted child acted: epoch %d, todo %d", child.Epoch, len(c.todo))
	}
}

// TestXWoundResendsLostRestart: when the child's own write fails, a
// restart leaves it prepared at its old epoch although the parent ledger
// has already voided that attempt. The next wound of the same prepare
// finds the ledger ahead of the child and sends the restart again,
// instead of taking the attempt for voided and leaving its locks held
// until the prepare deadline.
func TestXWoundResendsLostRestart(t *testing.T) {
	c := newXController(t)
	child, path := prepareChild(t, c)
	prepared := child.Encode()
	if _, err := c.cli.Create(path, prepared, 0); err != nil {
		t.Fatal(err)
	}
	// The record's version moves under the staged restart, so its round
	// fails, and the message is lost, as after a transient store error.
	r := newRound()
	if err := c.stageXChild(r, proto.InputMsg{Kind: proto.KindXRestart, TxnPath: path, Epoch: 1}, ""); err != nil {
		t.Fatal(err)
	}
	bumpVersion(t, c.cli, path)
	if err := c.flushRound(r); err == nil {
		t.Fatal("restart with a failing write reported success")
	}
	if child.State != txn.StatePrepared || child.Epoch != 0 || c.locks.LockCount() == 0 {
		t.Fatalf("failed restart acted: %s epoch %d, %d locks", child.State, child.Epoch, c.locks.LockCount())
	}
	// The first wound's CAS already moved the ledger entry to epoch 1.
	parent := &txn.Txn{ID: "t-1", State: txn.StateAccepted, Children: []txn.ChildRef{
		{ID: "s0-t-1.c0", Shard: 0},
		{ID: child.ID, Shard: 1, Epoch: 1},
	}}
	if _, err := c.cli.Create(proto.TxnsPath+"/t-1", parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}

	c.xWound(child)
	deadline := time.Now().Add(5 * time.Second)
	for !c.localsPending() {
		if time.Now().After(deadline) {
			t.Fatal("wound of a voided attempt sent no restart")
		}
		time.Sleep(time.Millisecond)
	}
	for _, msg := range c.takeLocal() {
		if msg.Kind != proto.KindXRestart || msg.Epoch != 1 {
			t.Fatalf("wound sent %s at epoch %d, want a restart at epoch 1", msg.Kind, msg.Epoch)
		}
		if err := restartChild(c, msg); err != nil {
			t.Fatal(err)
		}
	}
	checkRestarted(t, c, child, path, 1)
	if data, _, err := c.cli.Get(proto.TxnsPath + "/t-1"); err != nil {
		t.Fatal(err)
	} else if p, err := txn.Decode(data); err != nil || p.Children[1].Epoch != 1 {
		t.Fatalf("resend moved the ledger: %+v, %v", p, err)
	}
}

// TestXDeadlineTimerStops: a parent's prepare-deadline timer is stopped
// when the parent finalizes and when the controller stops leading, so
// neither fires; one left armed fires its deadline check into inputQ.
func TestXDeadlineTimerStops(t *testing.T) {
	c := newXController(t)
	c.cfg.XShard.PrepareTimeout = 20 * time.Millisecond
	parent := &txn.Txn{ID: "t-1", State: txn.StateAccepted}
	if _, err := c.cli.Create(c.txnPath(parent.ID), parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		t.Helper()
		n, err := c.inputQ.Len()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for name, stop := range map[string]func(){
		"finalized":       func() { c.xClockFinalized(parent.ID) },
		"stopped leading": c.xStopDeadlines,
	} {
		c.xArmTimeout(parent.ID)
		c.xArmTimeout(parent.ID) // a re-arm replaces the deadline
		if n := c.XDeadlinesArmed(); n != 1 {
			t.Fatalf("%s: %d deadlines armed, want 1", name, n)
		}
		stop()
		if n := c.XDeadlinesArmed(); n != 0 {
			t.Fatalf("%s: %d deadlines still armed", name, n)
		}
		time.Sleep(5 * c.xTimeoutDur())
		if n := queued(); n != 0 {
			t.Fatalf("%s: a stopped deadline fired (%d inputQ items)", name, n)
		}
	}

	c.xArmTimeout(parent.ID)
	deadline := time.Now().Add(5 * time.Second)
	for queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("an armed deadline never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if n := c.XDeadlinesArmed(); n != 0 {
		t.Fatalf("%d deadlines armed after the last fired", n)
	}
}

// restartChild runs a restart message through its executor in an event
// round of its own.
func restartChild(c *Controller, msg proto.InputMsg) error {
	r := newRound()
	if err := c.stageXChild(r, msg, ""); err != nil {
		return err
	}
	return c.flushRound(r)
}

// prepareChild leaves child s0-t-1.c1 prepared in c's memory: its
// simulation applied to /b1, its locks held, and tracked as prepared. It
// returns the child and its record path; the record is not stored.
func prepareChild(t *testing.T, c *Controller) (*txn.Txn, string) {
	t.Helper()
	child := &txn.Txn{ID: "s0-t-1.c1", Parent: "s0-t-1", Proc: "p", State: txn.StateAccepted}
	cctx := newCtx(c.ltree, c.cfg.Schema, child)
	if err := cctx.Do("/b1", "put", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := c.locks.Acquire(child.ID, cctx.lockRequests()); err != nil {
		t.Fatal(err)
	}
	if err := child.Transition(txn.StatePrepared); err != nil {
		t.Fatal(err)
	}
	c.prepared[child.ID] = child
	return child, c.txnPath(child.ID)
}

// checkRestarted asserts that a restart voided child's prepare: the
// stored record is accepted at epoch, the simulation is rolled back, the
// locks are free, and the child is queued again.
func checkRestarted(t *testing.T, c *Controller, child *txn.Txn, path string, epoch int) {
	t.Helper()
	data, _, err := c.cli.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := txn.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if stored.State != txn.StateAccepted || stored.Epoch != epoch || stored.Log != nil {
		t.Fatalf("stored record: state %s epoch %d log %v", stored.State, stored.Epoch, stored.Log)
	}
	if n, _ := c.ltree.Get("/b1"); n.GetString("item") != "pear" {
		t.Fatalf("simulation not rolled back: /b1 holds %q", n.GetString("item"))
	}
	if n := c.locks.LockCount(); n != 0 {
		t.Fatalf("%d locks still held", n)
	}
	if _, ok := c.prepared[child.ID]; ok {
		t.Fatal("child still tracked as prepared")
	}
	if len(c.todo) != 1 || c.todo[0] != child {
		t.Fatalf("todo = %v, want the restarted child", c.todo)
	}
}

// TestXPeerBatcherFollowsBatchMaxOps: the batchers that carry 2PC
// sends to peer shards take the platform's batch bound, so at
// BatchMaxOps=1 every cross-shard send commits alone, like every other
// write; a larger bound still coalesces sends queued behind a commit in
// flight. Each commit round is one WAL fsync, which is what is counted.
func TestXPeerBatcherFollowsBatchMaxOps(t *testing.T) {
	const sends = 8
	for _, tc := range []struct {
		maxOps int
		rounds func(int64) bool
		want   string
	}{
		{1, func(n int64) bool { return n == sends }, "one per send"},
		{32, func(n int64) bool { return n < sends }, "fewer than sends"},
	} {
		ens, err := store.OpenEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond,
			CommitLatency: 5 * time.Millisecond, DataDir: t.TempDir(), SyncPolicy: store.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Name:        "x0",
			Ensemble:    ens,
			Schema:      ctxSchema(),
			BatchMaxOps: tc.maxOps,
			XShard:      &XShardConfig{Self: 0, Router: shard.NewRouter(shard.NewMap(2))},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.xPeer(0)
		if err != nil {
			t.Fatal(err)
		}
		before := ens.PersistStats().Fsyncs
		var chs []<-chan error
		for i := 0; i < sends; i++ {
			chs = append(chs, p.b.MultiAsync(store.CreateOp(fmt.Sprintf("/peer-send-%d", i), nil, 0)))
		}
		for _, ch := range chs {
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		}
		if n := ens.PersistStats().Fsyncs - before; !tc.rounds(n) {
			t.Errorf("BatchMaxOps=%d: %d sends took %d commit rounds, want %s", tc.maxOps, sends, n, tc.want)
		}
		c.Close()
		ens.Close()
	}
}

// TestOneShardParentNamingPeerAborts: a controller built without an
// XShard config runs on the one-shard map. A hand-written parent there
// that names shard 1 — which no map of one shard has — fails its
// prepare to that shard, aborts at the prepare deadline along with its
// coordinator-local child, and leaves no lock held.
func TestOneShardParentNamingPeerAborts(t *testing.T) {
	ens := store.NewEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond})
	c, err := New(Config{
		Name:       "solo",
		Ensemble:   ens,
		Schema:     ctxSchema(),
		Bootstrap:  ctxTree(),
		Procedures: map[string]Procedure{"put": func(cx *Ctx) error { return cx.Do(cx.Arg(0), "put", cx.Arg(1)) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := c.cfg.XShard
	if x == nil || x.Self != 0 || x.Router.Shards() != 1 {
		t.Fatalf("resolved XShard = %+v, want shard 0 of a one-shard map", x)
	}
	x.PrepareTimeout = 100 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = c.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
		c.Close()
		ens.Close()
	})

	const parent = "t-x1c00000001"
	rec := &txn.Txn{
		Proc: "put", Args: []string{"/b1", "apple"}, State: txn.StateInitialized, SubmittedAt: time.Now(),
		Children: []txn.ChildRef{
			{ID: shard.ChildID(parent, 0), Shard: 0},
			{ID: shard.ChildID(parent, 1), Shard: 1},
		},
	}
	cli := ens.Connect()
	defer cli.Close()
	path := proto.TxnsPath + "/" + parent
	if err := cli.Multi(
		store.CreateOp(path, rec.Encode(), 0),
		store.CreateOp(proto.InputQPath+"/"+queue.ItemPrefix,
			proto.InputMsg{Kind: proto.KindSubmit, TxnPath: path}.Encode(), store.FlagSequence),
	); err != nil {
		t.Fatal(err)
	}
	final := func(p string) *txn.Txn {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if data, _, err := cli.Get(p); err == nil {
				r, err := txn.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				if r.State.Terminal() {
					return r
				}
			}
			if time.Now().After(deadline) {
				data, _, err := cli.Get(p)
				r, _ := txn.Decode(data)
				t.Fatalf("%s never reached a terminal state: %+v %v", p, r, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got := final(path); got.State != txn.StateAborted {
		t.Fatalf("parent ended %s (%s), want aborted", got.State, got.Error)
	}
	if kid := final(proto.TxnsPath + "/" + shard.ChildID(parent, 0)); kid.State != txn.StateAborted {
		t.Fatalf("coordinator-local child ended %s, want aborted", kid.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.LockManager().LockCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d locks still held after the abort", c.LockManager().LockCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n, _ := c.LogicalTree().Get("/b1"); n.GetString("item") != "pear" {
		t.Fatalf("/b1 holds %q after the abort, want the rolled-back pear", n.GetString("item"))
	}
}

// TestXOrderChildrenAllocs: the prepare-order pass runs on every
// scheduling round of every controller, so over a todo queue without
// two children to sort it allocates nothing.
func TestXOrderChildrenAllocs(t *testing.T) {
	c := newXController(t)
	for i := 0; i < 16; i++ {
		c.todo = append(c.todo, &txn.Txn{ID: fmt.Sprintf("t-s1c%08d", i)})
	}
	c.todo = append(c.todo, &txn.Txn{ID: "s0-t-x1c00000001.c0", Parent: "s0-t-x1c00000001"})
	if n := testing.AllocsPerRun(100, c.xOrderChildren); n != 0 {
		t.Fatalf("xOrderChildren over a child-free todo: %v allocs, want 0", n)
	}
}
