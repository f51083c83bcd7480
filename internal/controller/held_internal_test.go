package controller

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
)

// checkHeld asserts the held-copy invariant: every record in the table
// encodes to the bytes the store holds at its path, at the held version.
func checkHeld(t *testing.T, c *Controller) {
	t.Helper()
	for path, h := range c.held {
		data, stat, err := c.cli.Get(path)
		if err != nil {
			t.Fatalf("held %s: %v", path, err)
		}
		if stat.Version != h.ver {
			t.Fatalf("held %s at version %d, the store at %d", path, h.ver, stat.Version)
		}
		if !bytes.Equal(h.rec.Encode(), data) {
			t.Fatalf("held %s (%s) is not what the store holds", path, h.rec.State)
		}
		if h.rec.State.Terminal() {
			t.Fatalf("held %s is terminal", path)
		}
	}
}

// storeLoads counts the record loads c decoded from the store.
func storeLoads(c *Controller) int64 { return c.met.loadsStore.Load() }

// result queues the worker's report that the transaction at path ended
// with outcome.
func result(t *testing.T, c *Controller, path string, outcome txn.State) {
	t.Helper()
	queueMsg(t, c, proto.InputMsg{Kind: proto.KindResult, TxnPath: path, Outcome: string(outcome)})
}

// localParent stores an initialized cross-shard parent at t-9 whose one
// child is coordinator-local, and queues its submit notice.
func localParent(t *testing.T, c *Controller) (parentPath, childPath string) {
	t.Helper()
	parentPath = proto.TxnsPath + "/t-9"
	parent := &txn.Txn{Proc: "put", Args: []string{"/b1", "apple"}, State: txn.StateInitialized,
		Children: []txn.ChildRef{{ID: "s0-t-9.c0", Shard: 0}}}
	if _, err := c.cli.Create(parentPath, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	queueMsg(t, c, proto.InputMsg{Kind: proto.KindSubmit, TxnPath: parentPath})
	return parentPath, proto.TxnsPath + "/s0-t-9.c0"
}

// TestHeldOneStoreLoadPerSpawn: a spawn-shaped transaction — accept and
// admission in one round, cleanup in a later one — decodes its record
// once, at the accept; its cleanup loads the held copy. A cross-shard
// parent with a coordinator-local child decodes once too: the child is
// created held, and every later load of either record is served held.
func TestHeldOneStoreLoadPerSpawn(t *testing.T) {
	c := newRoundController(t)
	p1 := submitRecord(t, c, "put", "/b1", "apple")
	p2 := submitRecord(t, c, "put", "/b2", "lime")
	runRounds(t, c)
	checkHeld(t, c)
	if len(c.held) != 2 || len(c.inFlight) != 2 {
		t.Fatalf("held %d records with %d in flight, want 2 and 2", len(c.held), len(c.inFlight))
	}
	result(t, c, p1, txn.StateCommitted)
	result(t, c, p2, txn.StateCommitted)
	runRounds(t, c)
	checkHeld(t, c)
	if n := storeLoads(c); n != 2 {
		t.Fatalf("two transactions decoded %d records, want 2", n)
	}
	if n := c.met.loadsHeld.Load(); n != 2 {
		t.Fatalf("two cleanups loaded %d held copies, want 2", n)
	}

	parentPath, childPath := localParent(t, c)
	runRounds(t, c)
	checkHeld(t, c)
	if rec, _ := loadRecord(t, c, childPath); rec.State != txn.StateStarted {
		t.Fatalf("local child = %s, want started", rec.State)
	}
	result(t, c, childPath, txn.StateCommitted)
	runRounds(t, c)
	if rec, _ := loadRecord(t, c, parentPath); rec.State != txn.StateCommitted {
		t.Fatalf("parent = %s, want committed", rec.State)
	}
	if n := storeLoads(c) - 2; n != 1 {
		t.Fatalf("a parent with a local child decoded %d records, want 1", n)
	}
}

// TestHeldLogsOwnTheirStorage: every scheduling attempt simulates into
// the controller's one scratch log, and an admitted record keeps a copy.
// Two spawns admitted in one round and two more in the next (on the
// locks the first two hand over) each hold their own log: no held copy
// shares storage with the scratch or with another record, and every one
// encodes to the bytes the store holds.
func TestHeldLogsOwnTheirStorage(t *testing.T) {
	c := newRoundController(t)
	p1 := submitRecord(t, c, "put", "/b1", "apple")
	p2 := submitRecord(t, c, "put", "/b2", "lime")
	runRounds(t, c)
	checkHeld(t, c)
	result(t, c, p1, txn.StateCommitted)
	result(t, c, p2, txn.StateCommitted)
	p3 := submitRecord(t, c, "put", "/b1", "kiwi")
	p4 := submitRecord(t, c, "put", "/b2", "fig")
	runRounds(t, c)
	checkHeld(t, c)
	scratch := c.sim.log[:cap(c.sim.log)]
	owner := map[*txn.LogRecord]string{}
	for _, p := range []string{p3, p4} {
		h, ok := c.held[p]
		if !ok || h.rec.State != txn.StateStarted || len(h.rec.Log) != 1 || cap(h.rec.Log) != 1 {
			t.Fatalf("%s held %v: %+v, want started with a log of exactly 1", p, ok, h.rec)
		}
		at := &h.rec.Log[0]
		for i := range scratch {
			if at == &scratch[i] {
				t.Fatalf("%s's log aliases the scratch log", p)
			}
		}
		if other, dup := owner[at]; dup {
			t.Fatalf("%s and %s share a log", p, other)
		}
		owner[at] = p
	}
	if a, b := c.held[p3].rec.Log[0].Args[0], c.held[p4].rec.Log[0].Args[0]; a != "kiwi" || b != "fig" {
		t.Fatalf("held logs put %q and %q, want kiwi and fig", a, b)
	}
}

// TestHeldForeignWriteDecodes: a record another writer moved is decoded
// again, and the write that follows goes out at the fresh version — for
// a started transaction whose version moved, and for a parent whose
// ledger a wound revoked a vote on.
func TestHeldForeignWriteDecodes(t *testing.T) {
	c := newRoundController(t)
	path := submitRecord(t, c, "put", "/b1", "apple")
	runRounds(t, c)
	bumpVersion(t, c.cli, path)
	_, bumped := loadRecord(t, c, path)
	before := storeLoads(c)
	result(t, c, path, txn.StateCommitted)
	runRounds(t, c)
	if n := storeLoads(c) - before; n != 1 {
		t.Fatalf("cleanup after a foreign write decoded %d records, want 1", n)
	}
	if rec, stat := loadRecord(t, c, path); rec.State != txn.StateCommitted || stat.Version != bumped.Version+1 {
		t.Fatalf("record %s at version %d, want committed at %d", rec.State, stat.Version, bumped.Version+1)
	}

	// A parent held after a vote; a wound's CAS then revokes that vote at
	// attempt 0 (as xWound does), and the child's vote at attempt 1 must
	// land on the fresh ledger.
	parentPath := proto.TxnsPath + "/t-9"
	parent := &txn.Txn{ID: "t-9", State: txn.StateAccepted, Children: []txn.ChildRef{
		{ID: "s0-t-9.c0", Shard: 0},
		{ID: "s0-t-9.c1", Shard: 1},
	}}
	if _, err := c.cli.Create(parentPath, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	vote := func(epoch int) {
		c.enqueueLocal(proto.InputMsg{Kind: proto.KindXVote, TxnPath: parentPath, ChildIndex: 1,
			Outcome: string(txn.StatePrepared), Epoch: epoch})
		runRounds(t, c)
		checkHeld(t, c)
	}
	vote(0)
	if h := c.held[parentPath]; h.rec == nil || h.rec.Children[1].State != txn.StatePrepared {
		t.Fatalf("parent not held with the vote: %+v", h)
	}
	wounded, stat := loadRecord(t, c, parentPath)
	wounded.Children[1].Epoch, wounded.Children[1].State = 1, ""
	if err := c.cli.Set(parentPath, wounded.Encode(), stat.Version); err != nil {
		t.Fatal(err)
	}
	before = storeLoads(c)
	vote(1)
	if n := storeLoads(c) - before; n != 1 {
		t.Fatalf("a vote after the wound decoded %d records, want 1", n)
	}
	rec, after := loadRecord(t, c, parentPath)
	if ref := rec.Children[1]; after.Version != stat.Version+2 || ref.Epoch != 1 || ref.State != txn.StatePrepared {
		t.Fatalf("parent at version %d with entry 1 %s at epoch %d; want version %d, prepared at epoch 1",
			after.Version, ref.State, ref.Epoch, stat.Version+2)
	}
}

// TestHeldFailedFlushDropsStaged: a round carrying a cleanup, the
// admission it hands its lock to, and a 2PC vote fails its flush. Every
// record it wrote leaves the table, every other held copy still equals
// the store, and the re-run — which decodes the dropped records again —
// commits the right states.
func TestHeldFailedFlushDropsStaged(t *testing.T) {
	c := newRoundController(t)
	other := submitRecord(t, c, "put", "/b2", "fig")
	done := submitRecord(t, c, "put", "/b1", "apple")
	runRounds(t, c)
	waiting := submitRecord(t, c, "put", "/b1", "kiwi")
	runRounds(t, c)
	parentPath := proto.TxnsPath + "/t-9"
	parent := &txn.Txn{ID: "t-9", State: txn.StateAccepted, Children: []txn.ChildRef{
		{ID: "s0-t-9.c0", Shard: 0},
		{ID: "s0-t-9.c1", Shard: 1},
	}}
	if _, err := c.cli.Create(parentPath, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	vote := func(k int) {
		c.enqueueLocal(proto.InputMsg{Kind: proto.KindXVote, TxnPath: parentPath, ChildIndex: k,
			Outcome: string(txn.StatePrepared)})
	}
	vote(1)
	runRounds(t, c)
	checkHeld(t, c)
	if len(c.held) != 4 {
		t.Fatalf("held %d records, want 4", len(c.held))
	}

	result(t, c, done, txn.StateCommitted)
	vote(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := c.inputQ.TakeHeadBatch(ctx, c.batchMax())
	if err != nil {
		t.Fatal(err)
	}
	r := newRound()
	if err := c.handleLocal(r); err != nil {
		t.Fatal(err)
	}
	if err := c.handleRound(r, items); err != nil {
		t.Fatal(err)
	}
	c.scheduleInto(r)
	if len(r.admitted) != 1 || len(r.writes) != 3 {
		t.Fatalf("round staged %d admissions and %d record writes, want 1 and 3", len(r.admitted), len(r.writes))
	}
	bumpVersion(t, c.cli, waiting) // under its staged admission
	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	checkHeld(t, c)
	for _, p := range []string{done, waiting, parentPath} {
		if _, ok := c.held[p]; ok {
			t.Fatalf("failed flush left %s held", p)
		}
	}
	if _, ok := c.held[other]; !ok {
		t.Fatal("failed flush dropped a record it did not write")
	}

	before := storeLoads(c)
	runRounds(t, c)
	checkHeld(t, c)
	if n := storeLoads(c) - before; n != 3 {
		t.Fatalf("re-run decoded %d records, want the 3 dropped ones", n)
	}
	for p, want := range map[string]txn.State{done: txn.StateCommitted, waiting: txn.StateStarted,
		other: txn.StateStarted, parentPath: txn.StateDeciding} {
		if rec, _ := loadRecord(t, c, p); rec.State != want {
			t.Fatalf("%s = %s, want %s", p, rec.State, want)
		}
	}
}

// TestHeldNewLeaderStartsEmpty: a leader that loses its leadership drops
// its table, and the next leader builds its own from the store: every
// copy its recovery holds was decoded.
func TestHeldNewLeaderStartsEmpty(t *testing.T) {
	ens := store.NewEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond})
	t.Cleanup(func() { ens.Close() })
	c := roundControllerOn(t, ens, "r0")
	submitRecord(t, c, "put", "/b1", "apple")
	submitRecord(t, c, "put", "/b2", "lime")
	runRounds(t, c)
	if len(c.held) != 2 {
		t.Fatalf("held %d records, want 2", len(c.held))
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- c.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Leading() {
		if time.Now().After(deadline) {
			t.Fatal("controller never led")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want canceled", err)
	}
	if c.held != nil {
		t.Fatalf("a controller no longer leading holds %d records", len(c.held))
	}

	next := roundControllerOn(t, ens, "r1")
	if len(next.held) != 2 || next.met.loadsHeld.Load() != 0 {
		t.Fatalf("new leader holds %d records after %d held loads, want 2 and 0",
			len(next.held), next.met.loadsHeld.Load())
	}
	checkHeld(t, next)
}

// TestHeldEmptyAtQuiescence: once every transaction is terminal — aborted
// at scheduling, committed, killed, and a cross-shard parent with its
// local child — the table is empty.
func TestHeldEmptyAtQuiescence(t *testing.T) {
	c := newRoundController(t)
	committed := submitRecord(t, c, "put", "/b1", "apple")
	killed := submitRecord(t, c, "put", "/b2", "lime")
	submitRecord(t, c, "nope")
	runRounds(t, c)
	result(t, c, committed, txn.StateCommitted)
	queueMsg(t, c, signalMsg(killed, txn.SignalKill))
	runRounds(t, c)
	checkHeld(t, c)
	_, childPath := localParent(t, c)
	runRounds(t, c)
	result(t, c, childPath, txn.StateCommitted)
	runRounds(t, c)
	checkHeld(t, c)
	if len(c.held) != 0 || len(c.todo) != 0 || len(c.inFlight) != 0 || len(c.prepared) != 0 {
		t.Fatalf("quiescent controller holds %d records (todo %d, in flight %d, prepared %d)",
			len(c.held), len(c.todo), len(c.inFlight), len(c.prepared))
	}
}
