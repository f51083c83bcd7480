// Package txn defines TROPIC's transaction representation: the state
// machine of Figure 2, the execution log of Table 1, and the binary codec
// (codec.go) used to persist transaction records in the replicated
// coordination store so that a new lead controller can restore in-flight
// work after a failover (paper §2.3). The struct's JSON tags describe the
// gateway's API bodies, which the JSON codec (json.go) writes and reads
// by hand; storage does not use JSON.
package txn

import (
	"fmt"
	"time"

	"repro/tropic/trerr"
)

// State is a transaction's position in the Figure 2 life cycle.
type State string

const (
	// StateInitialized: submitted by a client, enqueued to inputQ (①).
	StateInitialized State = "initialized"
	// StateAccepted: dequeued by the leader into todoQ (②).
	StateAccepted State = "accepted"
	// StateDeferred: hit a resource conflict; requeued at the front of
	// todoQ for retry (③B). Transient — persisted as accepted.
	StateDeferred State = "deferred"
	// StateStarted: simulated successfully, locks held, enqueued to
	// phyQ for physical execution (③C).
	StateStarted State = "started"
	// StatePrepared: a cross-shard CHILD that simulated successfully and
	// holds its locks, but votes instead of executing — it awaits the
	// coordinator's two-phase-commit decision before entering phyQ
	// (commit) or rolling back (abort).
	StatePrepared State = "prepared"
	// StateDeciding: a cross-shard PARENT whose COMMIT/ABORT decision is
	// durably recorded (the Decision field); it awaits every child's
	// terminal outcome before finalizing.
	StateDeciding State = "deciding"
	// StateCommitted: all physical actions succeeded (⑤A). Terminal.
	StateCommitted State = "committed"
	// StateAborted: constraint violation during simulation (③A) or a
	// physical action failed and undo succeeded (⑤B); no effect remains.
	// Terminal.
	StateAborted State = "aborted"
	// StateFailed: a physical action failed and an undo action also
	// failed; the logical layer is rolled back but the physical layer is
	// only partially rolled back, leaving a cross-layer inconsistency for
	// reconciliation (§4). Terminal.
	StateFailed State = "failed"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateCommitted || s == StateAborted || s == StateFailed
}

// LogRecord is one entry of a transaction's execution log (Table 1): the
// action applied during simulation, to be replayed physically, plus the
// undo action used for rollback in both layers.
type LogRecord struct {
	Seq      int      `json:"seq"`
	Path     string   `json:"path"`
	Action   string   `json:"action"`
	Args     []string `json:"args,omitempty"`
	Undo     string   `json:"undo,omitempty"`
	UndoArgs []string `json:"undoArgs,omitempty"`
	// UndoPath is where the undo action executes when it differs from
	// Path (e.g. reverse migration runs at the destination host).
	UndoPath string `json:"undoPath,omitempty"`
	// Foreign marks an action another shard's child of the same
	// cross-shard transaction executes physically. The record still
	// participates in logical simulation, locking, and rollback on this
	// shard (every child keeps a whole-transaction view of its tree),
	// but workers skip it, so across all children each physical action
	// runs exactly once — on the shard owning its path.
	Foreign bool `json:"foreign,omitempty"`
}

// UndoTarget returns the path the undo action executes at.
func (r LogRecord) UndoTarget() string {
	if r.UndoPath != "" {
		return r.UndoPath
	}
	return r.Path
}

// String renders a record like a row of Table 1.
func (r LogRecord) String() string {
	return fmt.Sprintf("%d  %s  %s%v  undo=%s%v", r.Seq, r.Path, r.Action, r.Args, r.Undo, r.UndoArgs)
}

// Txn is a transaction record. The authoritative copy lives in the
// coordination store at StorePath; controllers cache it in memory.
type Txn struct {
	// ID is the store-assigned identifier (the sequence suffix of the
	// record node), unique and monotonically increasing.
	ID string `json:"id"`
	// Proc and Args identify the stored-procedure invocation.
	Proc string   `json:"proc"`
	Args []string `json:"args,omitempty"`
	// State is the current Figure 2 state.
	State State `json:"state"`
	// Log is the execution log generated by logical simulation.
	Log []LogRecord `json:"log,omitempty"`
	// UndoneThrough, set by a worker during physical rollback, is the
	// number of undo actions successfully executed (counting from the
	// last applied action backwards). Used to diagnose failed states.
	UndoneThrough int `json:"undoneThrough,omitempty"`
	// Error describes why the transaction aborted or failed.
	Error string `json:"error,omitempty"`
	// Code is the trerr taxonomy code classifying Error (e.g.
	// "txn.constraint_violation"), carried from the failure site all the
	// way into the gateway's JSON body. Empty for committed transactions.
	Code string `json:"code,omitempty"`
	// SubmittedAt/CompletedAt bound the latency measurement (§6.1).
	SubmittedAt time.Time `json:"submittedAt"`
	CompletedAt time.Time `json:"completedAt,omitempty"`
	// History timestamps every persisted state transition, in order.
	// (Transient in-memory states — deferred retries — are not
	// recorded.)
	History []StateStamp `json:"history,omitempty"`
	// Signal carries an operator TERM/KILL request (§4).
	Signal Signal `json:"signal,omitempty"`

	// Parent, on a cross-shard CHILD record, is the shard-qualified id
	// of the parent transaction whose coordinator shard holds the
	// durable 2PC decision.
	Parent string `json:"parent,omitempty"`
	// Participants, on a child record, lists every participating shard
	// (ascending; [0] is the coordinator) so the child can assign
	// physical actions whose paths no participant owns to exactly one
	// executor (the coordinator's child).
	Participants []int `json:"participants,omitempty"`
	// Children, on a cross-shard PARENT record, is the coordinator's
	// ledger: one entry per per-shard sub-transaction, updated as votes
	// and terminal outcomes arrive. The parent is committed iff every
	// child committed.
	Children []ChildRef `json:"children,omitempty"`
	// Decision is the durable two-phase-commit decision on a parent
	// record (DecisionCommit or DecisionAbort), written atomically with
	// the transition to StateDeciding. Recovery on any shard resolves
	// in-doubt prepared children by consulting it.
	Decision string `json:"decision,omitempty"`
	// DecisionVia, on a child record, stamps how the 2PC decision
	// reached this participant: "local" (a coordinator-local child whose
	// decision rode the coordinator's own event round), "ack" (read off
	// the parent record by the vote-ack watch), or "" (a decide notice
	// through the participant's inputQ — the slow path, and every
	// redelivery). Observability for the fast-path ablation; never a
	// correctness input.
	DecisionVia string `json:"decisionVia,omitempty"`
	// Epoch, on a child record, numbers its prepare attempts: 0 for the
	// first, one more each time wound-wait voids a prepare and sends the
	// child back to todoQ (Restart). Its votes carry the epoch, and the
	// coordinator counts only votes matching its ledger entry's.
	Epoch int `json:"epoch,omitempty"`
}

// Two-phase-commit decisions recorded on a cross-shard parent.
const (
	DecisionCommit = "commit"
	DecisionAbort  = "abort"
)

// ChildRef is one entry of a cross-shard parent's child ledger.
type ChildRef struct {
	// ID is the child's full transaction id ("<parent>.c<k>"), which is
	// also its record's node name on the participant shard.
	ID string `json:"id"`
	// Shard is the participant shard hosting (and executing) the child.
	Shard int `json:"shard"`
	// State is the child's last state known to the coordinator: empty
	// until the child votes, then prepared/aborted (the vote), then its
	// terminal outcome.
	State State `json:"state,omitempty"`
	// Error and Code describe a child's abort/failure, carried into the
	// parent's own Error/Code when the parent finalizes.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Epoch is the child's prepare attempt the coordinator counts. A
	// wound bumps it (clearing the vote) while the parent is undecided,
	// so a yes-vote from the voided attempt that is still in flight is
	// ignored when it lands.
	Epoch int `json:"epoch,omitempty"`
}

// IsParent reports whether t is a cross-shard parent (coordinator)
// record.
func (t *Txn) IsParent() bool { return len(t.Children) > 0 }

// IsChild reports whether t is a cross-shard child record.
func (t *Txn) IsChild() bool { return t.Parent != "" }

// StateStamp records when a transaction entered a state.
type StateStamp struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

// Signal is an operator intervention on a stalled transaction (§4).
type Signal string

const (
	// SignalNone: no intervention.
	SignalNone Signal = ""
	// SignalTerm aborts the transaction via graceful rollback in both
	// layers, preserving cross-layer consistency.
	SignalTerm Signal = "TERM"
	// SignalKill aborts immediately in the logical layer only; any
	// resulting cross-layer inconsistency is left to repair.
	SignalKill Signal = "KILL"
)

// validTransitions enumerates the Figure 2 edges plus the cross-shard
// extensions: children may leave accepted/deferred into prepared (vote
// yes, locks held), then either start (commit decision) or abort (abort
// decision); parents move accepted → deciding when the 2PC decision is
// durably recorded and finalize from there.
var validTransitions = map[State][]State{
	StateInitialized: {StateAccepted},
	StateAccepted:    {StateStarted, StateAborted, StateDeferred, StatePrepared, StateDeciding},
	StateDeferred:    {StateStarted, StateAborted, StateDeferred, StatePrepared},
	StatePrepared:    {StateStarted, StateAborted},
	StateDeciding:    {StateCommitted, StateAborted, StateFailed},
	StateStarted:     {StateCommitted, StateAborted, StateFailed},
}

// Transition moves the record to next, enforcing the Figure 2 edges,
// and stamps the transition time into History.
func (t *Txn) Transition(next State) error {
	for _, allowed := range validTransitions[t.State] {
		if allowed == next {
			t.State = next
			now := time.Now()
			if next.Terminal() {
				t.CompletedAt = now
			}
			t.History = append(t.History, StateStamp{State: next, At: now})
			return nil
		}
	}
	return trerr.Newf(trerr.TxnIllegalTransition,
		"txn %s: illegal transition %s -> %s", t.ID, t.State, next)
}

// Restart voids a prepared cross-shard child's prepare after wound-wait
// revoked its vote at the coordinator: the record returns to accepted,
// without its simulation log, as prepare attempt epoch. It is not a
// Figure 2 edge — no decision moves prepared back to accepted — but
// the undoing of one, so Transition does not offer it.
func (t *Txn) Restart(epoch int) error {
	if t.State != StatePrepared || epoch <= t.Epoch {
		return trerr.Newf(trerr.TxnIllegalTransition,
			"txn %s: cannot restart %s child at epoch %d as epoch %d", t.ID, t.State, t.Epoch, epoch)
	}
	t.State = StateAccepted
	t.Log = nil
	t.Epoch = epoch
	t.History = append(t.History, StateStamp{State: StateAccepted, At: time.Now()})
	return nil
}

// Latency returns the submission-to-completion duration, the paper's
// per-transaction latency metric (§6.1), or 0 if not yet terminal.
func (t *Txn) Latency() time.Duration {
	if t.CompletedAt.IsZero() {
		return 0
	}
	return t.CompletedAt.Sub(t.SubmittedAt)
}
