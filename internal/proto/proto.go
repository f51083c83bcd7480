// Package proto pins down the shared coordination-store layout and the
// message formats exchanged between TROPIC's clients, controllers, and
// workers. Everything here is persisted, so all components — including a
// freshly elected leader — agree on where transaction state lives.
package proto

import (
	"encoding/json"
	"fmt"
)

// Store layout. All TROPIC state hangs under Root.
const (
	// Root is the base path of all TROPIC znodes.
	Root = "/tropic"
	// TxnsPath holds one sequence node per transaction record.
	TxnsPath = Root + "/txns"
	// TxnPrefix is the sequence-node prefix of transaction records.
	TxnPrefix = TxnsPath + "/t-"
	// InputQPath is the queue feeding the lead controller: client
	// submissions and worker completion notices (Figure 1's inputQ).
	InputQPath = Root + "/inputQ"
	// PhyQPath is the queue feeding the physical workers (phyQ).
	PhyQPath = Root + "/phyQ"
	// ElectionPath hosts the controller leader election.
	ElectionPath = Root + "/election"
	// SnapshotPath stores the latest committed logical-model checkpoint.
	SnapshotPath = Root + "/model-snapshot"
	// CommitLogPath holds one sequence node per committed transaction,
	// in commit order; replayed over the snapshot during recovery.
	CommitLogPath = Root + "/commitLog"
	// CommitLogPrefix is the sequence-node prefix of commit-log entries.
	CommitLogPrefix = CommitLogPath + "/c-"
	// InconsistentPath records model paths currently marked inconsistent
	// (cross-layer divergence, §4), so the marks survive controller
	// failover. Child names are EncodePath-encoded model paths.
	InconsistentPath = Root + "/inconsistent"
	// UnusablePath records model paths marked unusable after failed
	// reconciliation (§4). Same encoding as InconsistentPath.
	UnusablePath = Root + "/unusable"
	// RepliesPath hosts reply nodes for request/response exchanges
	// (reconciliation results).
	RepliesPath = Root + "/replies"
	// IdempotencyPath maps client-supplied idempotency keys to the
	// transaction id a key's first submission produced, so resubmissions
	// dedup instead of double-executing. Child names are the keys.
	IdempotencyPath = Root + "/idempotency"
)

// EncodePath turns a model path into a legal znode name (slashes are not
// allowed inside names).
func EncodePath(modelPath string) string {
	out := make([]byte, 0, len(modelPath))
	for i := 0; i < len(modelPath); i++ {
		if modelPath[i] == '/' {
			out = append(out, '|')
		} else {
			out = append(out, modelPath[i])
		}
	}
	return string(out)
}

// DecodePath reverses EncodePath.
func DecodePath(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		if name[i] == '|' {
			out = append(out, '/')
		} else {
			out = append(out, name[i])
		}
	}
	return string(out)
}

// MsgKind discriminates inputQ messages.
type MsgKind string

const (
	// KindSubmit: a client submitted a new transaction (Figure 2, ①).
	KindSubmit MsgKind = "submit"
	// KindResult: a worker finished a transaction's physical execution
	// (Figure 2, step 4 feeding step 5).
	KindResult MsgKind = "result"
	// KindSignal: an operator sent TERM/KILL to a transaction (§4).
	KindSignal MsgKind = "signal"
	// KindReload: an operator requested physical→logical reconciliation
	// for a subtree (§4).
	KindReload MsgKind = "reload"
	// KindRepair: an operator requested logical→physical reconciliation
	// (§4).
	KindRepair MsgKind = "repair"

	// Cross-shard two-phase-commit messages. PREPARE requests reuse
	// KindSubmit pointed at the child record (a child is accepted and
	// scheduled like any submission; its Parent field makes the
	// scheduler stop at prepared instead of started).

	// KindXVote: a participant reports its child's vote to the
	// coordinator (TxnPath = parent record, ChildIndex = which child,
	// Outcome = "prepared" for yes / "aborted" for no).
	KindXVote MsgKind = "xvote"
	// KindXDecide: the coordinator delivers the durable COMMIT/ABORT
	// decision to a prepared child (TxnPath = child record, Decision =
	// commit|abort).
	KindXDecide MsgKind = "xdecide"
	// KindXChildDone: a participant reports a child's terminal outcome
	// to the coordinator (TxnPath = parent record, ChildIndex, Outcome).
	KindXChildDone MsgKind = "xchilddone"
	// KindXTimeout: a coordinator-local deadline check for a cross-shard
	// parent (TxnPath = parent record): an undecided parent past its
	// prepare deadline is aborted; a decided one re-delivers its
	// decision to children still outstanding.
	KindXTimeout MsgKind = "xtimeout"
	// KindXRestart: wound-wait revoked a prepared child's vote at its
	// coordinator (TxnPath = child record, Epoch = the attempt the
	// coordinator now counts); the participant voids the prepare and
	// requeues the child. Delivered in memory to the participant's own
	// leader loop, never through a store queue.
	KindXRestart MsgKind = "xrestart"
)

// InputMsg is one inputQ item, stored in the binary message format
// (codec.go).
type InputMsg struct {
	Kind MsgKind
	// TxnPath locates the transaction record (submit/result/signal).
	TxnPath string
	// Target is the model subtree for reload/repair requests.
	Target string
	// Signal carries "TERM" or "KILL" for KindSignal.
	Signal string
	// Reply, when set, names a znode the controller writes a Reply
	// into once the request completes (reload/repair).
	Reply string
	// Outcome is the physical execution result for KindResult:
	// "committed", "aborted", or "failed". The controller, not the
	// worker, writes the terminal state to the record during cleanup
	// (Figure 2, step 5).
	Outcome string
	// Error is the failure description accompanying aborted/failed
	// outcomes.
	Error string
	// Code is the trerr taxonomy code classifying Error.
	Code string
	// UndoneThrough counts the undo actions that succeeded during
	// physical rollback.
	UndoneThrough int
	// ChildIndex identifies which child of a cross-shard parent a
	// KindXVote/KindXChildDone message concerns.
	ChildIndex int
	// Decision carries the coordinator's 2PC decision for KindXDecide
	// (txn.DecisionCommit or txn.DecisionAbort).
	Decision string
	// Epoch is the child's prepare attempt a KindXVote speaks for, and
	// the attempt a KindXRestart moves the child to.
	Epoch int
	// Via records how a KindXDecide reached the participant when it
	// skipped the decide-notice round trip: "local" for a coordinator-
	// local child whose decision rode the coordinator's own event round,
	// "ack" for a decision read off the parent record by the vote-ack
	// watch. Empty for a store-delivered decide notice.
	Via string
}

// Reply reports the outcome of a reload/repair request.
type Reply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the trerr taxonomy code classifying Error.
	Code string `json:"code,omitempty"`
}

// Encode serializes the reply.
func (r Reply) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("proto: encode reply: %v", err))
	}
	return b
}

// DecodeReply parses a reply.
func DecodeReply(data []byte) (Reply, error) {
	var r Reply
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("proto: decode reply: %w", err)
	}
	return r, nil
}

// PhyMsg is one phyQ item: a transaction ready for physical execution.
type PhyMsg struct {
	TxnPath string
}

// CommitLogEntry records one committed transaction in commit order.
type CommitLogEntry struct {
	TxnPath string
}

// Snapshot is the persisted logical-model checkpoint: the committed tree
// plus the commit-log sequence number it already includes, so recovery
// replays only later entries.
type Snapshot struct {
	// Tree is a model snapshot (model.Tree.MarshalSnapshot output).
	Tree json.RawMessage `json:"tree"`
	// LastCommitSeq names the last commit-log entry folded into Tree
	// ("" when none).
	LastCommitSeq string `json:"lastCommitSeq,omitempty"`
}

// Encode serializes the snapshot envelope.
func (s Snapshot) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("proto: encode snapshot: %v", err))
	}
	return b
}

// DecodeSnapshot parses a snapshot envelope.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("proto: decode snapshot: %w", err)
	}
	return s, nil
}
