package controller

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
)

// TestXVoteCountsOnlyCurrentEpoch: a yes-vote from a prepare attempt
// wound-wait voided (an older epoch than the ledger's) is ignored, the
// current attempt's yes counts, and a no-vote counts whatever its epoch
// — an aborted child is final.
func TestXVoteCountsOnlyCurrentEpoch(t *testing.T) {
	rec := &txn.Txn{ID: "t-1", State: txn.StateAccepted, Children: []txn.ChildRef{
		{ID: "s0-t-1.c0", Shard: 0, Epoch: 1},
		{ID: "s0-t-1.c1", Shard: 1, Epoch: 3},
	}}
	vote := func(k, epoch int, outcome txn.State) parentOut {
		t.Helper()
		out, err := parentStep(rec, parentEvent{kind: evVote, child: k, state: outcome, epoch: epoch})
		if err != nil {
			t.Fatalf("vote %d@%d %s: %v", k, epoch, outcome, err)
		}
		return out
	}
	if out := vote(0, 0, txn.StatePrepared); out.write || rec.Children[0].State != "" {
		t.Fatalf("voided attempt's yes counted: %+v, ledger %+v", out, rec.Children[0])
	}
	if out := vote(0, 1, txn.StatePrepared); !out.write || rec.Children[0].State != txn.StatePrepared {
		t.Fatalf("current attempt's yes not counted: %+v, ledger %+v", out, rec.Children[0])
	}
	out := vote(1, 0, txn.StateAborted)
	if !out.decided || rec.Decision != txn.DecisionAbort || rec.Children[1].State != txn.StateAborted {
		t.Fatalf("no-vote not final: %+v, decision %q, ledger %+v", out, rec.Decision, rec.Children[1])
	}
}

// curEpoch is the prepare attempt every ledger entry of the step tables
// counts.
const curEpoch = 1

// entry is one value a ledger entry takes in the step tables, together
// with what a direct read of its child's record finds.
type entry int

const (
	entUnvoted   entry = iota // no vote; the child is (re-)preparing
	entPrepared               // yes at the current attempt
	entStale                  // a wound cleared the vote; the child is still prepared at the voided attempt
	entCommitted              // terminal outcomes
	entAborted
	entFailed
	numEntries
)

func (e entry) state() txn.State {
	return [...]txn.State{"", txn.StatePrepared, "", txn.StateCommitted, txn.StateAborted, txn.StateFailed}[e]
}

// read is what the deadline's or the resume's direct read of the child
// finds.
func (e entry) read() childRead {
	switch e {
	case entUnvoted:
		return childRead{state: txn.StateAccepted, epoch: curEpoch}
	case entStale:
		return childRead{state: txn.StatePrepared, epoch: curEpoch - 1}
	}
	return childRead{state: e.state(), epoch: curEpoch}
}

// ledgers lists every assignment of entry values to n children.
func ledgers(n int) [][]entry {
	if n == 0 {
		return [][]entry{nil}
	}
	var all [][]entry
	for _, rest := range ledgers(n - 1) {
		for e := entry(0); e < numEntries; e++ {
			all = append(all, append([]entry{e}, rest...))
		}
	}
	return all
}

// stepParent builds a parent in the given state over the ledger.
func stepParent(state txn.State, decision string, ledger []entry) *txn.Txn {
	rec := &txn.Txn{ID: "t-1", State: state, Decision: decision}
	for k, e := range ledger {
		rec.Children = append(rec.Children, txn.ChildRef{
			ID: fmt.Sprintf("s0-t-1.c%d", k), Shard: k % 2, State: e.state(), Epoch: curEpoch,
		})
	}
	return rec
}

// stepEvents lists every event applied to a parent over the ledger: from
// each child a yes at the current and at a voided attempt, a no, and
// each terminal outcome; then the deadline and the resume with the
// children's records as they are, and the accept.
func stepEvents(ledger []entry) []parentEvent {
	var evs []parentEvent
	seen := make([]childRead, len(ledger))
	for k, e := range ledger {
		seen[k] = e.read()
		evs = append(evs,
			parentEvent{kind: evVote, child: k, state: txn.StatePrepared, epoch: curEpoch},
			parentEvent{kind: evVote, child: k, state: txn.StatePrepared, epoch: curEpoch - 1},
			parentEvent{kind: evVote, child: k, state: txn.StateAborted, epoch: curEpoch, err: "no"},
		)
		for _, s := range []txn.State{txn.StateCommitted, txn.StateAborted, txn.StateFailed} {
			evs = append(evs, parentEvent{kind: evChildDone, child: k, state: s})
		}
	}
	return append(evs, parentEvent{kind: evDeadline, seen: seen}, parentEvent{kind: evResume, seen: seen},
		parentEvent{kind: evAccept})
}

func allEntries(rec *txn.Txn, s txn.State) bool {
	for _, ref := range rec.Children {
		if ref.State != s {
			return false
		}
	}
	return true
}

// TestXParentStepTable applies every event to parents of 2 and 3
// children in every state over every ledger, and checks the atomic
// commit rules on each step: the decision is commit iff every entry is
// prepared at the current attempt; a parent is decided at most once; it
// finalizes committed iff every child committed; a terminal parent never
// changes; a yes at a voided attempt changes nothing; only an accept or
// a resume accepts, and only an initialized parent, sending prepares to
// unvoted children only; an accept of a parent past initialized changes
// nothing; and the step asks for a write iff it changed the record.
func TestXParentStepTable(t *testing.T) {
	parents := []struct {
		state    txn.State
		decision string
	}{
		{txn.StateInitialized, ""},
		{txn.StateAccepted, ""},
		{txn.StateDeciding, txn.DecisionCommit},
		{txn.StateDeciding, txn.DecisionAbort},
		{txn.StateCommitted, txn.DecisionCommit},
		{txn.StateAborted, txn.DecisionAbort},
		{txn.StateFailed, txn.DecisionCommit},
	}
	steps := 0
	for _, n := range []int{2, 3} {
		for _, ledger := range ledgers(n) {
			for _, p := range parents {
				for _, ev := range stepEvents(ledger) {
					rec := stepParent(p.state, p.decision, ledger)
					before := rec.Encode()
					out, err := parentStep(rec, ev)
					name := fmt.Sprintf("%s/%q ledger %v event %+v", p.state, p.decision, ledger, ev)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkParentStep(t, name, p.state, p.decision, ev, rec, before, out)
					steps++
				}
			}
		}
	}
	t.Logf("%d steps", steps)
}

func checkParentStep(t *testing.T, name string, state txn.State, decision string, ev parentEvent,
	rec *txn.Txn, before []byte, out parentOut) {
	t.Helper()
	changed := !bytes.Equal(before, rec.Encode())
	if out.write != changed {
		t.Fatalf("%s: write=%v but the record changed=%v", name, out.write, changed)
	}
	staleYes := ev.kind == evVote && ev.state == txn.StatePrepared && ev.epoch != curEpoch
	if staleYes && (changed || !reflect.DeepEqual(out, parentOut{})) {
		t.Fatalf("%s: a yes at a voided attempt acted: %+v", name, out)
	}
	if state.Terminal() && (changed || out.decided || out.finalized || out.rearm || len(out.prepare) > 0) {
		t.Fatalf("%s: a terminal parent changed: %+v", name, out)
	}
	opens := ev.kind == evAccept || ev.kind == evResume
	if out.accepted != (opens && state == txn.StateInitialized) {
		t.Fatalf("%s: accepted=%v out of %s", name, out.accepted, state)
	}
	if ev.kind == evAccept && state != txn.StateInitialized && (changed || !reflect.DeepEqual(out, parentOut{})) {
		t.Fatalf("%s: an accept of a %s parent acted: %+v", name, state, out)
	}
	if len(out.prepare) > 0 && !opens {
		t.Fatalf("%s: prepares sent on a %v event", name, ev.kind)
	}
	unvoted := 0
	for _, ref := range rec.Children {
		if ref.State == "" {
			unvoted++
		}
	}
	for _, k := range out.prepare {
		if rec.Children[k].State != "" {
			t.Fatalf("%s: prepare to child %d, %q in the ledger", name, k, rec.Children[k].State)
		}
	}
	if opens && (state == txn.StateInitialized || state == txn.StateAccepted && ev.kind == evResume) &&
		len(out.prepare) != unvoted {
		t.Fatalf("%s: prepares to %v with %d children unvoted", name, out.prepare, unvoted)
	}
	if decision != "" && (out.decided || rec.Decision != decision) {
		t.Fatalf("%s: decided twice: %q -> %q", name, decision, rec.Decision)
	}
	if (rec.Decision != decision) != out.decided {
		t.Fatalf("%s: decision %q -> %q with decided=%v", name, decision, rec.Decision, out.decided)
	}
	if out.decided && (rec.Decision == txn.DecisionCommit) != allEntries(rec, txn.StatePrepared) {
		t.Fatalf("%s: decided %q over ledger %+v", name, rec.Decision, rec.Children)
	}
	if out.indoubt && (!out.decided || ev.kind != evDeadline) {
		t.Fatalf("%s: indoubt outside a deadline decision", name)
	}
	if out.finalized != (!state.Terminal() && rec.State.Terminal()) {
		t.Fatalf("%s: %s -> %s with finalized=%v", name, state, rec.State, out.finalized)
	}
	if out.finalized && (rec.State == txn.StateCommitted) != allEntries(rec, txn.StateCommitted) {
		t.Fatalf("%s: finalized %s over ledger %+v", name, rec.State, rec.Children)
	}
	if out.rearm && rec.State.Terminal() {
		t.Fatalf("%s: rearmed a terminal parent", name)
	}
	if out.eager && !out.decided {
		t.Fatalf("%s: eager fan-out without a decision", name)
	}
	for _, k := range out.deliver {
		if rec.Decision == "" {
			t.Fatalf("%s: delivery to child %d without a decision", name, k)
		}
		if rec.Children[k].State != txn.StatePrepared && k != ev.child {
			t.Fatalf("%s: delivery to child %d, %q in the ledger", name, k, rec.Children[k].State)
		}
	}
	if ev.kind == evVote && ev.state == txn.StatePrepared && !staleYes && rec.Decision == txn.DecisionAbort &&
		len(out.deliver) == 0 && !out.eager {
		t.Fatalf("%s: a late yes got no abort", name)
	}
}

// TestXParentStepMalformed: a report naming no ledger entry, or with an
// outcome no report carries, is refused without touching the record.
func TestXParentStepMalformed(t *testing.T) {
	for _, ev := range []parentEvent{
		{kind: evVote, child: 2, state: txn.StatePrepared},
		{kind: evVote, child: -1, state: txn.StateAborted},
		{kind: evVote, child: 0, state: txn.StateStarted},
		{kind: evChildDone, child: 0, state: txn.StatePrepared},
	} {
		rec := stepParent(txn.StateAccepted, "", []entry{entUnvoted, entPrepared})
		before := rec.Encode()
		if _, err := parentStep(rec, ev); !errors.Is(err, errXMalformed) || !bytes.Equal(before, rec.Encode()) {
			t.Fatalf("%+v: err %v, record changed %v", ev, err, !bytes.Equal(before, rec.Encode()))
		}
	}
}

// TestXChildStepTable applies every event to a child in every state:
// only a prepared child moves — commit to started and into physical
// execution, abort to aborted with its simulation rolled back, a restart
// at a later attempt back to accepted without its simulation — and a
// restart at an attempt the child has reached changes nothing.
func TestXChildStepTable(t *testing.T) {
	log := []txn.LogRecord{{Path: "/b1", Action: "put"}}
	events := []childEvent{
		{decision: txn.DecisionCommit},
		{decision: txn.DecisionCommit, via: "inline"},
		{decision: txn.DecisionAbort},
		{decision: txn.DecisionAbort, via: "ack", err: "child c0 aborted", code: "xshard.prepare_failed"},
		{restart: true, epoch: curEpoch - 1},
		{restart: true, epoch: curEpoch},
		{restart: true, epoch: curEpoch + 1},
	}
	for _, state := range []txn.State{txn.StateAccepted, txn.StatePrepared, txn.StateStarted,
		txn.StateCommitted, txn.StateAborted} {
		for _, ev := range events {
			c := &txn.Txn{ID: "s0-t-1.c1", Parent: "s0-t-1", State: state, Epoch: curEpoch, Log: log}
			before := c.Encode()
			out, err := childStep(c, ev)
			name := fmt.Sprintf("%s child, event %+v", state, ev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.write == bytes.Equal(before, c.Encode()) {
				t.Fatalf("%s: write=%v disagrees with the record", name, out.write)
			}
			if out.piggy != (out.write && ev.via != "") || out.piggy && c.DecisionVia != ev.via {
				t.Fatalf("%s: piggy=%v via %q", name, out.piggy, c.DecisionVia)
			}
			switch {
			case state != txn.StatePrepared, ev.restart && ev.epoch <= curEpoch:
				if !reflect.DeepEqual(out, childOut{}) {
					t.Fatalf("%s: acted: %+v", name, out)
				}
			case ev.restart:
				if c.State != txn.StateAccepted || c.Epoch != ev.epoch || c.Log != nil ||
					!out.requeue || out.done || out.execute || len(out.rollback) != len(log) {
					t.Fatalf("%s: restarted to %s@%d log %v: %+v", name, c.State, c.Epoch, c.Log, out)
				}
			case ev.decision == txn.DecisionCommit:
				if c.State != txn.StateStarted || !out.execute || out.done || out.requeue || out.rollback != nil {
					t.Fatalf("%s: committed to %s: %+v", name, c.State, out)
				}
			default:
				if c.State != txn.StateAborted || c.Error == "" || c.Code == "" ||
					ev.err != "" && (c.Error != ev.err || c.Code != ev.code) ||
					!out.done || out.execute || out.requeue || len(out.rollback) != len(log) {
					t.Fatalf("%s: aborted to %s (%q, %q): %+v", name, c.State, c.Error, c.Code, out)
				}
			}
		}
	}
	c := &txn.Txn{ID: "s0-t-1.c1", State: txn.StatePrepared}
	before := c.Encode()
	if _, err := childStep(c, childEvent{decision: "maybe"}); !errors.Is(err, errXMalformed) {
		t.Fatalf("decision %q: err %v", "maybe", err)
	}
	if c.State != txn.StatePrepared || !bytes.Equal(before, c.Encode()) {
		t.Fatalf("a malformed decision moved the child to %s", c.State)
	}
}

// TestXResumeKeepsWoundEpoch: recovery resumes a parent from the copy its
// record scan holds. A wound's CAS landing in between — entry 1 moved to
// attempt 1 with its yes cleared — must survive the resume: the resume's
// write carries the held version, so its round fails instead of writing
// the voided yes back and deciding commit on it, and the re-run against
// the fresh record decides nothing.
func TestXResumeKeepsWoundEpoch(t *testing.T) {
	c := newXController(t)
	path := proto.TxnsPath + "/t-1"
	parent := stepParent(txn.StateAccepted, "", []entry{entPrepared, entPrepared})
	for k := range parent.Children {
		parent.Children[k].Epoch = 0
	}
	if _, err := c.cli.Create(path, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	stale, err := c.loadTxn(path)
	if err != nil {
		t.Fatal(err)
	}
	parent.Children[1].Epoch, parent.Children[1].State = 1, ""
	if err := c.cli.Set(path, parent.Encode(), 0); err != nil {
		t.Fatal(err)
	}

	resume := func(rec *txn.Txn) error {
		r := newRound()
		if err := c.stageXParent(r, rec, parentEvent{kind: evResume, seen: c.xReadChildren(rec)}, ""); err != nil {
			t.Fatal(err)
		}
		return c.flushRound(r)
	}
	check := func(when string) {
		t.Helper()
		got, _ := loadRecord(t, c, path)
		if ref := got.Children[1]; ref.Epoch != 1 || ref.State != "" || got.Decision != "" {
			t.Fatalf("%s: entry 1 %s at epoch %d, decision %q; want unvoted at epoch 1, undecided",
				when, ref.State, ref.Epoch, got.Decision)
		}
	}
	if err := resume(stale); !errors.Is(err, store.ErrBadVersion) {
		t.Fatalf("resume from the stale copy: err %v, want ErrBadVersion", err)
	}
	check("after the stale resume")
	fresh, err := c.loadTxn(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := resume(fresh); err != nil {
		t.Fatal(err)
	}
	check("after the re-run")
}
