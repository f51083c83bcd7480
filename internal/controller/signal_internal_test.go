package controller

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// signalMsg is the operator-signal notice for the record at path.
func signalMsg(path string, sig txn.Signal) proto.InputMsg {
	return proto.InputMsg{Kind: proto.KindSignal, TxnPath: path, Signal: string(sig)}
}

// heldAndDeferred leaves two transactions on /b1 in c: the first started,
// holding the lock, and the second queued behind it.
func heldAndDeferred(t *testing.T, c *Controller) (held, deferred string) {
	t.Helper()
	held = submitRecord(t, c, "put", "/b1", "apple")
	runRounds(t, c)
	deferred = submitRecord(t, c, "put", "/b1", "kiwi")
	runRounds(t, c)
	if rec, _ := loadRecord(t, c, held); rec.State != txn.StateStarted {
		t.Fatalf("held = %s, want started", rec.State)
	}
	if len(c.todo) != 1 || c.txnPath(c.todo[0].ID) != deferred {
		t.Fatalf("todo = %v, want the deferred transaction", c.todo)
	}
	return held, deferred
}

// takeRound drains inputQ and stages one event round from it the way
// processRound does, leaving the flush to the caller.
func takeRound(t *testing.T, c *Controller) *round {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := c.inputQ.TakeHeadBatch(ctx, c.batchMax())
	if err != nil {
		t.Fatal(err)
	}
	r := newRound()
	if err := c.handleRound(r, items); err != nil {
		t.Fatal(err)
	}
	c.scheduleInto(r)
	return r
}

func checkTerminated(t *testing.T, c *Controller, path string, sig txn.Signal) {
	t.Helper()
	rec, _ := loadRecord(t, c, path)
	if rec.State != txn.StateAborted || rec.Code != string(trerr.TxnTerminated) || rec.Signal != sig {
		t.Fatalf("%s: %s (%s, %q) signal %q; want aborted (%s) signal %q",
			path, rec.State, rec.Code, rec.Error, rec.Signal, trerr.TxnTerminated, sig)
	}
}

// TestSignalRidesRoundMulti: a drained batch holding a submit, a TERM on
// a queued transaction and a TERM on a started one commits as one
// grouped Multi: the submit's accept and admission, both persisted
// signals, the queued transaction's abort, and the three notices'
// removals.
func TestSignalRidesRoundMulti(t *testing.T) {
	c := newRoundController(t)
	held, deferred := heldAndDeferred(t, c)
	fresh := submitRecord(t, c, "put", "/b2", "lime")
	queueMsg(t, c, signalMsg(deferred, txn.SignalTerm))
	queueMsg(t, c, signalMsg(held, txn.SignalTerm))
	before := c.Stats().Flushes

	runRounds(t, c)
	if n := c.Stats().Flushes - before; n != 1 {
		t.Fatalf("the batch took %d flushes, want 1", n)
	}
	checkTerminated(t, c, deferred, txn.SignalTerm)
	if rec, _ := loadRecord(t, c, held); rec.State != txn.StateStarted || rec.Signal != txn.SignalTerm {
		t.Fatalf("held: %s signal %q, want started with TERM persisted", rec.State, rec.Signal)
	}
	if rec, _ := loadRecord(t, c, fresh); rec.State != txn.StateStarted {
		t.Fatalf("fresh = %s, want started", rec.State)
	}
	if n, _ := c.inputQ.Len(); n != 0 || len(c.todo) != 0 {
		t.Fatalf("inputQ holds %d items and todo %d after the round", n, len(c.todo))
	}
}

// TestSignalSurvivesFailedFlushAndFailover: the notice of a TERM on a
// deferred transaction is consumed only with the round that persists the
// signal. When that round's flush fails and its leader is replaced, the
// new leader finds the notice still queued and aborts the transaction.
func TestSignalSurvivesFailedFlushAndFailover(t *testing.T) {
	ens := store.NewEnsemble(store.Config{Replicas: 1, SessionTimeout: 200 * time.Millisecond})
	t.Cleanup(func() { ens.Close() })
	c := roundControllerOn(t, ens, "r0")
	_, deferred := heldAndDeferred(t, c)
	queueMsg(t, c, signalMsg(deferred, txn.SignalTerm))
	fresh := submitRecord(t, c, "put", "/b2", "lime")

	r := takeRound(t, c)
	bumpVersion(t, c.cli, fresh) // under its staged accept
	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	c.Kill()

	next := roundControllerOn(t, ens, "r1")
	runRounds(t, next)
	checkTerminated(t, next, deferred, txn.SignalTerm)
	if rec, _ := loadRecord(t, next, fresh); rec.State != txn.StateStarted {
		t.Fatalf("fresh = %s, want started", rec.State)
	}
}

// TestSignalKillCommitsWithMarks: a KILL on a started transaction is a
// cleanup with outcome aborted. Its round failing leaves everything as it
// was — record started, locks held, simulated effect in the logical tree,
// no inconsistency mark — and the re-run commits the abort and the marks
// together before rolling the logical layer back.
func TestSignalKillCommitsWithMarks(t *testing.T) {
	c := newRoundController(t)
	path := submitRecord(t, c, "put", "/b1", "apple")
	runRounds(t, c)
	queueMsg(t, c, signalMsg(path, txn.SignalKill))

	r := takeRound(t, c)
	bumpVersion(t, c.cli, path) // under the staged abort
	if err := c.flushRound(r); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("flush err = %v, want ErrBadVersion", err)
	}
	if rec, _ := loadRecord(t, c, path); rec.State != txn.StateStarted || rec.Signal != txn.SignalNone {
		t.Fatalf("after the failed round: %s signal %q, want started without a signal", rec.State, rec.Signal)
	}
	probe := []lock.Request{{Path: "/b1", Mode: lock.W}}
	if ce := c.locks.WouldConflict("probe", probe); ce == nil || c.txnPath(ce.Holder) != path {
		t.Fatalf("/b1 lock after the failed round: %v, want held by the killed transaction", ce)
	}
	n, _ := c.ltree.Get("/b1")
	if n.GetString("item") != "apple" || n.Inconsistent {
		t.Fatalf("/b1 after the failed round: %q inconsistent=%v, want apple, consistent",
			n.GetString("item"), n.Inconsistent)
	}
	if marked, _, _ := c.cli.Exists(inconsistentNode("/b1")); marked {
		t.Fatal("the failed round left a mark")
	}

	runRounds(t, c)
	checkTerminated(t, c, path, txn.SignalKill)
	_, stat := loadRecord(t, c, path)
	marked, mark, err := c.cli.Exists(inconsistentNode("/b1"))
	if err != nil || !marked || mark.Czxid != stat.Mzxid {
		t.Fatalf("mark for /b1: %v %v, created at zxid %d, abort written at %d", marked, err, mark.Czxid, stat.Mzxid)
	}
	if n, _ = c.ltree.Get("/b1"); n.GetString("item") != "pear" || !n.Inconsistent {
		t.Fatalf("/b1 after the kill: %q inconsistent=%v, want pear, inconsistent",
			n.GetString("item"), n.Inconsistent)
	}
	if n := c.locks.LockCount(); n != 0 {
		t.Fatalf("%d locks held after the kill", n)
	}
	if _, ok := c.inFlight[path[len(proto.TxnsPath)+1:]]; ok {
		t.Fatal("the killed transaction is still tracked in flight")
	}
}

// TestSignalDropsForPreparedChild: a signal racing past the client's
// check onto a prepared cross-shard child is consumed without touching
// the child, which only its coordinator's decision may end.
func TestSignalDropsForPreparedChild(t *testing.T) {
	c := newRoundController(t)
	child, path := prepareChild(t, c)
	if _, err := c.cli.Create(path, child.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	before, _ := loadRecord(t, c, path)
	queueMsg(t, c, signalMsg(path, txn.SignalKill))
	runRounds(t, c)
	after, _ := loadRecord(t, c, path)
	if after.State != txn.StatePrepared || after.Signal != before.Signal || c.prepared[child.ID] != child {
		t.Fatalf("child after a KILL: %s signal %q, tracked %v", after.State, after.Signal, c.prepared[child.ID] != nil)
	}
}

// TestSignalAbortsBehindDeferredHead: under FIFO a transaction queued
// behind a deferred head waits, but a TERM still aborts it in the round
// that persists the signal, not once the head has run.
func TestSignalAbortsBehindDeferredHead(t *testing.T) {
	c := newRoundController(t)
	_, deferred := heldAndDeferred(t, c)
	behind := submitRecord(t, c, "put", "/b2", "lime")
	runRounds(t, c)
	if len(c.todo) != 2 {
		t.Fatalf("todo = %v, want the deferred head and the transaction behind it", c.todo)
	}
	queueMsg(t, c, signalMsg(behind, txn.SignalTerm))
	runRounds(t, c)
	checkTerminated(t, c, behind, txn.SignalTerm)
	if len(c.todo) != 1 || c.txnPath(c.todo[0].ID) != deferred {
		t.Fatalf("todo = %v, want the deferred head alone", c.todo)
	}
}
