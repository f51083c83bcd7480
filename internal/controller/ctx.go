// Package controller implements TROPIC's logical layer (paper §3.1): the
// lead controller accepts transactions from inputQ, schedules them from
// todoQ, simulates their stored procedures against the logical data
// model with constraint checking, runs multi-granularity concurrency
// control, hands runnable transactions to the physical layer via phyQ,
// and performs cleanup (commit bookkeeping or undo-based rollback) when
// results come back. It also implements the replicated-state recovery
// protocol that lets a newly elected leader resume exactly where the
// failed one stopped (§2.3).
package controller

import (
	"fmt"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// Procedure is a stored procedure: orchestration logic composed of
// queries (Ctx.Read and friends) and actions (Ctx.Do). It runs during
// logical simulation; the actions it records are later replayed against
// physical devices by a worker.
type Procedure func(c *Ctx) error

// ErrConstraint wraps constraint violations detected during simulation;
// they abort the transaction (Figure 2, ③A). It carries the
// txn.constraint_violation taxonomy code through to the API.
var ErrConstraint = trerr.New(trerr.TxnConstraintViolation, "constraint violation")

// ErrAbort lets a stored procedure abort its own transaction with a
// domain reason (e.g. "no host has capacity"). It carries the
// txn.procedure_abort taxonomy code through to the API.
var ErrAbort = trerr.New(trerr.TxnProcedureAbort, "aborted by procedure")

// Ctx is the execution context a stored procedure runs in. It tracks
// the reads and writes of the simulation so the scheduler can derive
// lock requests, and records the execution log (Table 1). The lead
// controller keeps one Ctx and resets it for every scheduling attempt,
// so its maps and slices are scratch storage: log, touched and reqs are
// valid until the next reset, and whatever outlives the attempt is
// copied out of them.
type Ctx struct {
	tree   *model.Tree
	schema *model.Schema
	rec    *txn.Txn

	reads  map[string]bool
	writes map[string]bool
	// log is the execution log of the simulation so far.
	log []txn.LogRecord
	// touched is Do's write set; reqs is lockRequests' result.
	touched []string
	reqs    []lock.Request

	// constraintNanos measures time spent in constraint checks, the
	// §6.2 per-transaction safety overhead.
	constraintNanos int64
}

func newCtx(tree *model.Tree, schema *model.Schema, rec *txn.Txn) *Ctx {
	return &Ctx{
		tree:   tree,
		schema: schema,
		rec:    rec,
		reads:  make(map[string]bool),
		writes: make(map[string]bool),
	}
}

// reset readies c to simulate rec against tree, keeping its storage.
func (c *Ctx) reset(tree *model.Tree, rec *txn.Txn) {
	c.tree, c.rec = tree, rec
	clear(c.reads)
	clear(c.writes)
	clear(c.log)
	c.log = c.log[:0]
	c.constraintNanos = 0
}

// copyLog returns the execution log in a slice of its own, exactly
// sized: the record keeps it, while c.log is reused.
func (c *Ctx) copyLog() []txn.LogRecord {
	if len(c.log) == 0 {
		return nil
	}
	out := make([]txn.LogRecord, len(c.log))
	copy(out, c.log)
	return out
}

// Args returns the transaction's arguments.
func (c *Ctx) Args() []string { return c.rec.Args }

// Arg returns the i'th argument or "" when absent.
func (c *Ctx) Arg(i int) string {
	if i < 0 || i >= len(c.rec.Args) {
		return ""
	}
	return c.rec.Args[i]
}

// Read is a query: it returns the node at path and records a read lock
// intent on it. The returned node must not be mutated by procedures —
// all mutations go through Do.
func (c *Ctx) Read(path string) (*model.Node, error) {
	n, err := c.tree.Get(path)
	if err != nil {
		return nil, err
	}
	if err := c.checkUsable(path, n); err != nil {
		return nil, err
	}
	c.reads[path] = true
	return n, nil
}

// Exists is a query testing node existence (records a read on the
// parent, whose membership was inspected).
func (c *Ctx) Exists(path string) bool {
	c.reads[model.ParentPath(path)] = true
	return c.tree.Exists(path)
}

// Children is a query returning the sorted child names of path.
func (c *Ctx) Children(path string) ([]string, error) {
	n, err := c.Read(path)
	if err != nil {
		return nil, err
	}
	return n.SortedChildren(), nil
}

// checkUsable denies access to nodes marked inconsistent or unusable by
// reconciliation (§4): transactions involving inconsistent data abort.
func (c *Ctx) checkUsable(path string, n *model.Node) error {
	if n.Inconsistent {
		return fmt.Errorf("%w: node %s is inconsistent pending reconciliation", ErrAbort, path)
	}
	if n.Unusable {
		return fmt.Errorf("%w: node %s is marked unusable", ErrAbort, path)
	}
	for i := 1; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		anc := path[:i]
		an, err := c.tree.Get(anc)
		if err != nil {
			continue
		}
		if an.Inconsistent || an.Unusable {
			return fmt.Errorf("%w: ancestor %s of %s is inconsistent/unusable", ErrAbort, anc, path)
		}
	}
	return nil
}

// Do simulates one action at path and appends it to the execution log.
// The action's entity definition supplies the logical state transition,
// the undo action, and any additional touched paths (e.g. the
// destination host of a migration). After the transition, every
// constraint relevant to the touched paths is checked; a violation
// returns ErrConstraint and the caller (the scheduler) rolls the whole
// transaction back.
func (c *Ctx) Do(path, action string, args ...string) error {
	n, err := c.tree.Get(path)
	if err != nil {
		return fmt.Errorf("action %s at %s: %w", action, path, err)
	}
	if err := c.checkUsable(path, n); err != nil {
		return err
	}
	_, def, err := c.schema.ActionFor(c.tree, path, action)
	if err != nil {
		return err
	}
	c.touched = appendTouched(c.touched[:0], def, path, args)
	touched := c.touched
	for _, p := range touched[1:] { // [0] is path itself, already checked
		if tn, err := c.tree.Get(p); err == nil {
			if err := c.checkUsable(p, tn); err != nil {
				return err
			}
		}
	}
	// Derive the undo before applying the action so it can capture the
	// pre-state it must restore.
	undoArgs := args
	if def.UndoArgs != nil {
		undoArgs = def.UndoArgs(c.tree, path, args)
	}
	undoPath := ""
	if def.UndoAt != nil {
		undoPath = def.UndoAt(path, args)
	}
	if err := def.Simulate(c.tree, path, args); err != nil {
		return fmt.Errorf("action %s at %s: %w", action, path, err)
	}
	// Record the action as soon as it applied: if the constraint check
	// below fails, the scheduler rolls back *via this log*, so the
	// mutation must already be in it.
	c.log = append(c.log, txn.LogRecord{
		Seq:      len(c.log) + 1,
		Path:     path,
		Action:   action,
		Args:     append([]string(nil), args...),
		Undo:     def.Undo,
		UndoArgs: append([]string(nil), undoArgs...),
		UndoPath: undoPath,
	})
	for _, p := range touched {
		c.writes[p] = true
	}
	checkStart := time.Now()
	for _, p := range touched {
		if err := c.schema.CheckConstraints(c.tree, p); err != nil {
			c.constraintNanos += time.Since(checkStart).Nanoseconds()
			return fmt.Errorf("%w: %v", ErrConstraint, err)
		}
	}
	c.constraintNanos += time.Since(checkStart).Nanoseconds()
	return nil
}

// appendTouched appends the action's write set to dst: its target path
// plus any extra paths the definition declares (always with path first).
func appendTouched(dst []string, def *model.ActionDef, path string, args []string) []string {
	dst = append(dst, path)
	if def.Touches != nil {
		dst = append(dst, def.Touches(path, args)...)
	}
	return dst
}

// lockRequests derives the transaction's lock set per §3.1.3: W on every
// written object, R on every queried object, and R on the highest
// constrained ancestor of each write (ancestor intention locks are added
// by the lock manager itself). The result is valid until the next reset.
func (c *Ctx) lockRequests() []lock.Request {
	reqs := c.reqs[:0]
	for p := range c.writes {
		reqs = append(reqs, lock.Request{Path: p, Mode: lock.W})
		if hca := c.schema.HighestConstrainedAncestor(c.tree, p); hca != "" {
			reqs = append(reqs, lock.Request{Path: hca, Mode: lock.R})
		}
	}
	for p := range c.reads {
		reqs = append(reqs, lock.Request{Path: p, Mode: lock.R})
	}
	c.reqs = reqs
	return reqs
}

// rollbackLog undoes simulated actions in reverse chronological order by
// simulating each record's undo action (§3.1.2). records is the prefix
// of the execution log that was applied.
func rollbackLog(tree *model.Tree, schema *model.Schema, records []txn.LogRecord) error {
	for i := len(records) - 1; i >= 0; i-- {
		r := records[i]
		if r.Undo == "" {
			return fmt.Errorf("controller: action %s at %s has no undo", r.Action, r.Path)
		}
		at := r.UndoTarget()
		_, def, err := schema.ActionFor(tree, at, r.Undo)
		if err != nil {
			return fmt.Errorf("controller: resolve undo %s at %s: %w", r.Undo, at, err)
		}
		if err := def.Simulate(tree, at, r.UndoArgs); err != nil {
			return fmt.Errorf("controller: simulate undo %s at %s: %w", r.Undo, at, err)
		}
	}
	return nil
}

// replayLog re-applies a persisted execution log to a tree, used by
// recovery (re-simulating committed and in-flight transactions) without
// re-running the stored procedure. Constraints are not re-checked: the
// log was generated under a successful simulation and isolation
// guarantees its effects still apply.
func replayLog(tree *model.Tree, schema *model.Schema, records []txn.LogRecord) error {
	for _, r := range records {
		_, def, err := schema.ActionFor(tree, r.Path, r.Action)
		if err != nil {
			return fmt.Errorf("controller: replay %s at %s: %w", r.Action, r.Path, err)
		}
		if err := def.Simulate(tree, r.Path, r.Args); err != nil {
			return fmt.Errorf("controller: replay %s at %s: %w", r.Action, r.Path, err)
		}
	}
	return nil
}

// lockRequestsFromLog rebuilds a started transaction's lock set from its
// persisted execution log during recovery. Read locks are not
// reconstructed — the transaction's simulation is already done, so only
// its writes still matter for isolation against new transactions.
func lockRequestsFromLog(tree *model.Tree, schema *model.Schema, records []txn.LogRecord) []lock.Request {
	var reqs []lock.Request
	seen := make(map[string]bool)
	for _, r := range records {
		def, _ := resolveDef(tree, schema, r)
		for _, p := range touchedPathsRecord(def, r) {
			if seen[p] {
				continue
			}
			seen[p] = true
			reqs = append(reqs, lock.Request{Path: p, Mode: lock.W})
			if hca := schema.HighestConstrainedAncestor(tree, p); hca != "" {
				reqs = append(reqs, lock.Request{Path: hca, Mode: lock.R})
			}
		}
	}
	return reqs
}

func resolveDef(tree *model.Tree, schema *model.Schema, r txn.LogRecord) (*model.ActionDef, error) {
	_, def, err := schema.ActionFor(tree, r.Path, r.Action)
	return def, err
}

func touchedPathsRecord(def *model.ActionDef, r txn.LogRecord) []string {
	if def == nil {
		return []string{r.Path}
	}
	return appendTouched(nil, def, r.Path, r.Args)
}
