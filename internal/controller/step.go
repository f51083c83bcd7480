package controller

// The cross-shard commit protocol as two step functions: parentStep
// moves a coordinator's parent record through one event, childStep a
// participant's prepared child. Both are pure — no store I/O, no sends,
// no metrics. Each returns what its executor (stageXParent, stageXChild
// in xshard.go) does: the record write it stages into the event round,
// at the version the record was read at, and the effects it runs once
// that round's flush is durable. docs/cross-shard.md tabulates both.

import (
	"errors"
	"fmt"

	"repro/internal/txn"
	"repro/tropic/trerr"
)

// errXMalformed marks a report or decision that names no ledger entry
// or carries an outcome no child can have; its notice is consumed
// without touching a record.
var errXMalformed = errors.New("malformed cross-shard message")

// parentEventKind names what happened to a parent.
type parentEventKind int

const (
	// evVote: a participant reports its prepare — prepared (yes) or
	// aborted (no) — for one prepare attempt (epoch).
	evVote parentEventKind = iota
	// evChildDone: a child reports its terminal outcome.
	evChildDone
	// evDeadline: the prepare deadline fired. An undecided parent is
	// decided; children that never voted make it a presumed abort.
	evDeadline
	// evResume: a new leader picks the parent up after a failover.
	evResume
	// evAccept: the parent's submit notice. A duplicate, for a parent
	// past initialized, changes nothing.
	evAccept
)

// report reports whether k is a child's report (a vote or a child-done)
// rather than an event that looks at the whole ledger.
func (k parentEventKind) report() bool { return k == evVote || k == evChildDone }

// parentEvent is one input to parentStep.
type parentEvent struct {
	kind parentEventKind
	// child, state, err, code and epoch carry a vote or child-done: the
	// ledger entry, the reported state, and the prepare attempt a vote
	// speaks for.
	child     int
	state     txn.State
	err, code string
	epoch     int
	// seen holds, for a deadline or a resume, what a direct read of each
	// child's record found (xReadChildren), indexed like Children.
	seen []childRead
}

// childRead is what a direct read of one child's record found: its
// state, attempt and outcome (state empty when the read failed), or
// that no record exists.
type childRead struct {
	state     txn.State
	epoch     int
	err, code string
	missing   bool
}

// parentOut is what one parentStep asks of its executor.
type parentOut struct {
	// write: the record changed and must be persisted.
	write bool
	// accepted: an accept, or a resume of a parent found initialized,
	// accepted it.
	accepted bool
	// firstVote: the vote is its child's first word, one prepare round
	// trip.
	firstVote bool
	// decided: this event recorded the decision; indoubt: a deadline
	// decided abort with a child that never voted.
	decided, indoubt bool
	// finalized: the parent reached its terminal state.
	finalized bool
	// prepare lists the unvoted children an accept or a resume sends a
	// prepare to.
	prepare []int
	// deliver lists the children the decision goes to. eager marks the
	// first fan-out of a vote's decision, which skips remote children:
	// each reads the decision off the parent write through its watch.
	deliver []int
	eager   bool
	// rearm: the parent is still open; arm its next deadline.
	rearm bool
}

// parentStep applies one event to parent rec in place. A vote or
// child-done fills its ledger entry; an accept or a resume accepts an
// initialized parent and prepares its unvoted children; a deadline or a
// resume first syncs the ledger with the children's own records. The
// parent then decides once every child has voted — or at the deadline,
// whatever is missing — and finalizes once every child is terminal. A
// terminal parent never changes, but a late yes-vote still gets the
// abort it missed.
func parentStep(rec *txn.Txn, ev parentEvent) (parentOut, error) {
	var out parentOut
	switch ev.kind {
	case evVote, evChildDone:
		k := ev.child
		if k < 0 || k >= len(rec.Children) ||
			!(ev.state.Terminal() || ev.kind == evVote && ev.state == txn.StatePrepared) {
			return out, fmt.Errorf("%w: report for %s child %d with outcome %q", errXMalformed, rec.ID, k, ev.state)
		}
		ref := &rec.Children[k]
		yes := ev.kind == evVote && ev.state == txn.StatePrepared
		if yes && ev.epoch != ref.Epoch {
			// A yes from a prepare attempt wound-wait has since voided: the
			// child is back in todoQ (or about to be) and votes again.
			return out, nil
		}
		if rec.State.Terminal() {
			if yes && rec.Decision == txn.DecisionAbort {
				out.deliver = []int{k}
			}
			return out, nil
		}
		if ref.State == "" || !ref.State.Terminal() && (ev.kind == evChildDone || ev.state.Terminal()) {
			out.firstVote = ref.State == "" && ev.kind == evVote
			ref.State, ref.Error, ref.Code = ev.state, ev.err, ev.code
			out.write = true
		}
	default:
		if rec.State.Terminal() || ev.kind == evAccept && rec.State != txn.StateInitialized {
			return out, nil
		}
		if ev.kind != evDeadline && rec.State == txn.StateInitialized {
			// An accept; or a resume, whose old leader never saw the submit
			// notice (a pending one becomes a harmless duplicate).
			if err := rec.Transition(txn.StateAccepted); err != nil {
				return out, err
			}
			out.accepted, out.write = true, true
		}
		if syncLedger(rec, ev.seen) {
			out.write = true
		}
		if ev.kind != evDeadline && rec.State == txn.StateAccepted {
			// An accept's prepares go out for the first time; a resume's
			// may never have landed, and sending one again is idempotent.
			for k, ref := range rec.Children {
				if ref.State == "" {
					out.prepare = append(out.prepare, k)
				}
			}
		}
	}
	if rec.State == txn.StateAccepted && (ev.kind == evDeadline || ev.kind != evChildDone && xAllVoted(rec)) {
		indoubt, err := xRecordDecision(rec)
		if err != nil {
			return out, err
		}
		out.write, out.decided, out.indoubt = true, true, indoubt
	}
	if rec.State == txn.StateDeciding && xAllTerminal(rec) {
		if err := xFinalizeParent(rec); err != nil {
			return out, err
		}
		out.write, out.finalized = true, true
	}
	switch {
	case out.decided && ev.kind == evVote:
		out.deliver, out.eager = xPreparedChildren(rec), true
	case !ev.kind.report():
		// Re-delivery to every child the ledger still shows prepared;
		// never eager, so it reaches participants whose watch died with a
		// crash.
		if rec.Decision != "" {
			out.deliver = xPreparedChildren(rec)
		}
	case ev.kind == evVote && ev.state == txn.StatePrepared && rec.Decision == txn.DecisionAbort:
		// A yes landing after an abort decision: its shard holds locks
		// nobody releases unless told, and its decision watch may have
		// fired before the decision landed.
		out.deliver = []int{ev.child}
	}
	out.rearm = !rec.State.Terminal() && (out.decided || !ev.kind.report())
	return out, nil
}

// syncLedger folds what direct reads of the children's records found
// into the ledger: votes and outcomes whose notices were lost in transit.
// Failed reads leave entries untouched.
func syncLedger(rec *txn.Txn, seen []childRead) (changed bool) {
	for k := range rec.Children {
		if k >= len(seen) {
			break
		}
		ref, s := &rec.Children[k], seen[k]
		switch {
		case ref.State.Terminal():
		case s.missing:
			if ref.State == "" && rec.State == txn.StateDeciding && rec.Decision == txn.DecisionAbort {
				// The decision is abort and this child was never created (its
				// prepare send was lost): it can never prepare, so record it
				// aborted — otherwise the ledger never completes and the
				// parent re-arms its deadline forever. If the prepare lands
				// late after all, the child's vote meets the abort decision
				// and is aborted through the late-vote delivery.
				ref.State = txn.StateAborted
				ref.Error = "never prepared before the abort decision"
				ref.Code = string(trerr.XShardInDoubtTimeout)
				changed = true
			}
		case s.state == txn.StatePrepared && s.epoch != ref.Epoch:
			// A prepare wound-wait voided; its restart is pending.
		case (s.state == txn.StatePrepared || s.state.Terminal()) && ref.State != s.state:
			ref.State, ref.Error, ref.Code = s.state, s.err, s.code
			changed = true
		}
	}
	return changed
}

// xAllVoted reports whether every child has a ledger entry (vote or
// terminal outcome).
func xAllVoted(rec *txn.Txn) bool {
	for _, ref := range rec.Children {
		if ref.State == "" {
			return false
		}
	}
	return true
}

// xAllTerminal reports whether every child's ledger entry is terminal.
func xAllTerminal(rec *txn.Txn) bool {
	for _, ref := range rec.Children {
		if !ref.State.Terminal() {
			return false
		}
	}
	return true
}

// xPreparedChildren lists the children the ledger shows prepared: those
// a decision still has to reach (aborted voters are terminal already;
// started and terminal children have it).
func xPreparedChildren(rec *txn.Txn) []int {
	var ks []int
	for k, ref := range rec.Children {
		if ref.State == txn.StatePrepared {
			ks = append(ks, k)
		}
	}
	return ks
}

// xRecordDecision derives the 2PC decision from the parent's ledger and
// moves the parent to deciding; persisting the record IS the durable
// decision. Commit iff every child voted yes; a no-vote aborts with
// xshard.prepare_failed; otherwise some child never voted, which only a
// deadline decides on: a presumed abort (indoubt) with
// xshard.indoubt_timeout.
func xRecordDecision(rec *txn.Txn) (indoubt bool, err error) {
	noVote, abortVote := -1, -1
	for k, ref := range rec.Children {
		switch {
		case ref.State == "":
			if noVote == -1 {
				noVote = k
			}
		case ref.State != txn.StatePrepared:
			if abortVote == -1 {
				abortVote = k
			}
		}
	}
	switch {
	case noVote == -1 && abortVote == -1:
		rec.Decision = txn.DecisionCommit
	case abortVote >= 0:
		ref := rec.Children[abortVote]
		rec.Decision = txn.DecisionAbort
		rec.Code = string(trerr.XShardPrepareFailed)
		if ref.Code != "" {
			// Keep the participant's own classification reachable.
			rec.Error = fmt.Sprintf("child %s aborted during prepare (%s): %s", ref.ID, ref.Code, ref.Error)
		} else {
			rec.Error = fmt.Sprintf("child %s aborted during prepare: %s", ref.ID, ref.Error)
		}
	default:
		rec.Decision = txn.DecisionAbort
		rec.Code = string(trerr.XShardInDoubtTimeout)
		rec.Error = fmt.Sprintf("child %s did not vote before the prepare deadline", rec.Children[noVote].ID)
		indoubt = true
	}
	return indoubt, rec.Transition(txn.StateDeciding)
}

// xFinalizeParent folds the completed ledger into the parent's own
// terminal state: committed iff every child committed; failed if any
// child failed (a cross-layer inconsistency on that shard); aborted
// otherwise. Decision-time Error/Code (prepare_failed, indoubt_timeout)
// are preserved; a post-decision physical failure adopts the child's.
func xFinalizeParent(rec *txn.Txn) error {
	outcome := txn.StateCommitted
	carry := -1
	for k, ref := range rec.Children {
		switch ref.State {
		case txn.StateFailed:
			outcome = txn.StateFailed
			carry = k
		case txn.StateAborted:
			if outcome == txn.StateCommitted {
				outcome = txn.StateAborted
				if carry == -1 {
					carry = k
				}
			}
		}
	}
	if outcome != txn.StateCommitted && rec.Error == "" && carry >= 0 {
		ref := rec.Children[carry]
		rec.Error = fmt.Sprintf("child %s: %s", ref.ID, ref.Error)
		rec.Code = ref.Code
		if rec.Code == "" {
			rec.Code = string(trerr.XShardPrepareFailed)
		}
	}
	return rec.Transition(outcome)
}

// childEvent is one input to childStep: the coordinator's decision, or a
// restart that voids the prepare after wound-wait revoked its vote.
type childEvent struct {
	// restart: the coordinator's ledger counts attempt epoch now.
	restart bool
	epoch   int
	// decision is txn.DecisionCommit or txn.DecisionAbort, with the
	// parent's err and code for an abort; via names how it skipped the
	// decide-notice round trip ("local", "inline", "ack"), or is empty.
	decision  string
	via       string
	err, code string
}

// childOut is what one childStep asks of its executor.
type childOut struct {
	// write: the record changed and must be persisted.
	write bool
	// execute: committed — enqueue physical execution (phyQ) with the
	// write, and track the child in flight.
	execute bool
	// rollback is the simulation to roll back, with the locks released,
	// after an abort or a restart.
	rollback []txn.LogRecord
	// done: aborted — count it and report the outcome to the coordinator.
	done bool
	// requeue: restarted — rejoin todoQ for a fresh prepare.
	requeue bool
	// piggy: the decision skipped the decide-notice round trip.
	piggy bool
}

// childStep applies one event to prepared child t in place. Commit moves
// it to started, the only way a cross-shard child enters phyQ, so
// physical execution stays exactly-once. Abort ends it. A restart at a
// later attempt returns it to accepted without its simulation. A child
// no longer prepared, or a restart at an attempt it has reached, stays
// as it is.
func childStep(t *txn.Txn, ev childEvent) (childOut, error) {
	var out childOut
	if t.State != txn.StatePrepared {
		return out, nil
	}
	switch {
	case ev.restart:
		if ev.epoch <= t.Epoch {
			return out, nil
		}
		out.rollback = t.Log
		if err := t.Restart(ev.epoch); err != nil {
			return out, err
		}
		out.write, out.requeue = true, true
		return out, nil
	case ev.decision == txn.DecisionCommit:
		if err := t.Transition(txn.StateStarted); err != nil {
			return out, err
		}
		out.execute = true
	case ev.decision == txn.DecisionAbort:
		t.Error, t.Code = ev.err, ev.code
		if t.Error == "" {
			t.Error = "cross-shard transaction aborted"
		}
		if t.Code == "" {
			t.Code = string(trerr.XShardPrepareFailed)
		}
		if err := t.Transition(txn.StateAborted); err != nil {
			return out, err
		}
		out.rollback, out.done = t.Log, true
	default:
		return out, fmt.Errorf("%w: decision %q for %s", errXMalformed, ev.decision, t.ID)
	}
	if ev.via != "" {
		t.DecisionVia = ev.via
		out.piggy = true
	}
	out.write = true
	return out, nil
}
