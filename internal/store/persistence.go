package store

import (
	"sort"
	"time"

	"repro/internal/store/persist"
)

// Re-exported persistence vocabulary, so store users configure
// durability without importing the persist package.
type (
	// SyncPolicy selects the WAL fsync policy (SyncAlways | SyncNone).
	SyncPolicy = persist.SyncPolicy
	// PersistStats are the durability counters (WAL appends, fsyncs,
	// snapshots, recovery timing).
	PersistStats = persist.Stats
)

// WAL fsync policies.
const (
	// SyncAlways fsyncs every append (default; survives machine crashes).
	SyncAlways = persist.SyncAlways
	// SyncNone leaves flushing to the OS (survives process crashes only).
	SyncNone = persist.SyncNone
)

// ParseSyncPolicy parses a sync-policy flag value ("always" | "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	return persist.ParseSyncPolicy(s)
}

// PersistStats returns the durability counters, all zero when the
// ensemble runs without a DataDir.
func (e *Ensemble) PersistStats() PersistStats {
	if e.pstore == nil {
		return PersistStats{}
	}
	return e.pstore.Stats()
}

// LastRecovery reports how long the most recent crash recovery took
// (zero when none happened or persistence is off).
func (e *Ensemble) LastRecovery() time.Duration {
	if e.pstore == nil {
		return 0
	}
	return e.pstore.LastRecovery()
}

// recoverFromDisk rebuilds ensemble state from the data directory:
// latest valid snapshot, then the WAL tail, then a cleanup pass that
// expires every pre-crash session. It leaves the WAL rolled to a fresh
// segment and ready for appends. Called from OpenEnsemble before the
// ensemble serves; no locking needed.
func (e *Ensemble) recoverFromDisk() error {
	start := time.Now()

	// 1. Latest valid snapshot, if any.
	payload, snapZxid, err := e.pstore.LoadSnapshot()
	if err != nil {
		return err
	}
	if payload != nil {
		if e.tree, e.nextSess, err = decodeTreeSnapshot(payload); err != nil {
			return err
		}
	}

	// 2. Replay the WAL tail. Records the snapshot already covers are
	// skipped inside Replay; a torn or corrupt tail ends the log there.
	last, err := e.pstore.Replay(snapZxid, func(zxid int64, rec []byte) error {
		op, err := decodeOp(rec)
		if err != nil {
			return err
		}
		applyOp(e.tree, op, zxid, nil)
		e.nextSess = max(e.nextSess, maxSessionOf(op))
		return nil
	})
	if err != nil {
		return err
	}
	e.zxid = max(snapZxid, last)

	// 3. New records go to a fresh segment (never append after a
	// possibly-torn tail).
	if err := e.pstore.Roll(e.zxid + 1); err != nil {
		return err
	}

	// 4. Every pre-crash session is dead: reap its ephemerals exactly as
	// a session expiry would, so election nodes and queue-consumer marks
	// vanish and controller re-election fires on restart just as it does
	// on failover. The expiries are themselves logged (log-before-apply),
	// so a crash during or after recovery replays the same cleanup.
	var owners []int64
	collectOwners(e.tree.root, map[int64]bool{}, &owners)
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, sess := range owners {
		op := Op{kind: opExpireSession, session: sess}
		e.zxid++
		if err := e.pstore.Append(e.zxid, e.encodeLocked(op)); err != nil {
			return err
		}
		applyOp(e.tree, op, e.zxid, nil)
	}
	e.applied = e.zxid

	// 5. Compact everything recovery accepted into a fresh snapshot,
	// through the same capture and stream as a commit-time snapshot, but
	// waited for. This is a correctness step, not an optimization: replay
	// stops at the first torn or corrupt record, so if a damaged segment
	// were left in place, a LATER recovery would stop there and never
	// reach the records this incarnation is about to write. The snapshot
	// supersedes the damaged tail and its prune deletes it.
	if e.zxid > 0 {
		if err := e.captureLocked(); err != nil {
			return err
		}
		if err := e.writeSnapshot(); err != nil {
			return err
		}
		// A fresh data dir is initialization, not a recovery; only count
		// the pass when there was state to recover.
		e.pstore.ObserveRecovery(time.Since(start))
	}
	return nil
}

// collectOwners gathers the distinct session ids owning ephemeral nodes
// in the recovered tree.
func collectOwners(n *znode, seen map[int64]bool, out *[]int64) {
	for _, child := range n.children {
		if child.ephemeralOwner != 0 && !seen[child.ephemeralOwner] {
			seen[child.ephemeralOwner] = true
			*out = append(*out, child.ephemeralOwner)
		}
		collectOwners(child, seen, out)
	}
}

// maybeSnapshotLocked starts a snapshot once SnapshotEvery appends have
// accumulated since the last one started. Called with e.mu held, right
// after a commit applied, so the tree is exactly the state at e.zxid.
//
// Under the lock it only rolls the WAL to e.zxid+1 and captures the
// tree's persistent nodes, copying no path or payload bytes. A
// goroutine then streams the capture into the snapshot file while
// commits go on, and prunes the segments it covers once the file is
// durable. At most one snapshot is in flight: one that falls due while
// another is written starts on the first commit after it lands.
//
// A failed roll trips the persist layer's fail-stop and surfaces on the
// next commit. A failed write is absorbed: the WAL still holds every
// committed record, so durability is unaffected — only recovery time
// stops improving — and the next snapshot falls due SnapshotEvery
// appends later.
func (e *Ensemble) maybeSnapshotLocked(appends int) {
	if e.cfg.SnapshotEvery <= 0 {
		return
	}
	e.sinceSnap += appends
	if e.sinceSnap < e.cfg.SnapshotEvery {
		return
	}
	if e.snapDone != nil {
		select {
		case <-e.snapDone:
		default:
			return // one is in flight
		}
	}
	e.sinceSnap = 0
	if e.captureLocked() != nil {
		return
	}
	done := make(chan struct{})
	e.snapDone = done
	go func() {
		defer close(done)
		if e.snapHook != nil {
			e.snapHook()
		}
		_ = e.writeSnapshot() // absorbed: see above
	}()
}

// captureLocked rolls the WAL to e.zxid+1 and captures the tree as of
// e.zxid into e.snap: the commit-lock half of a snapshot. Called with
// e.mu held (or before the ensemble serves) and no snapshot in flight.
func (e *Ensemble) captureLocked() error {
	if err := e.pstore.Roll(e.zxid + 1); err != nil {
		return err
	}
	e.snap.capture(e.tree, e.zxid, e.nextSess)
	return nil
}

// writeSnapshot streams e.snap into the snapshot file and, once it is
// durable, prunes the segments and snapshots it supersedes: the half of
// a snapshot that runs off the commit lock.
func (e *Ensemble) writeSnapshot() error {
	defer e.snap.release()
	return e.pstore.WriteSnapshot(e.snap.zxid, e.snap.encode)
}
