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
// expires every pre-crash session. It leaves the WAL rotated to a fresh
// segment and ready for appends. Called from OpenEnsemble before the
// ensemble serves; no locking needed.
func (e *Ensemble) recoverFromDisk() error {
	start := time.Now()

	// 1. Latest valid snapshot, if any.
	payload, snapZxid, err := e.pstore.LoadSnapshot()
	if err != nil {
		return err
	}
	t := newTree()
	var nextSess int64
	if payload != nil {
		if t, nextSess, err = decodeTreeSnapshot(payload); err != nil {
			return err
		}
	}

	// 2. Replay the WAL tail. Records the snapshot already covers are
	// skipped inside Replay; a torn or corrupt tail ends the log there.
	maxSess := nextSess
	last, err := e.pstore.Replay(snapZxid, func(zxid int64, rec []byte) error {
		op, err := decodeOp(rec)
		if err != nil {
			return err
		}
		applyOp(t, op, zxid, nil)
		if s := maxSessionOf(op); s > maxSess {
			maxSess = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.zxid = snapZxid
	if last > e.zxid {
		e.zxid = last
	}
	e.nextSess = maxSess

	// 3. New records go to a fresh segment (never append after a
	// possibly-torn tail).
	if err := e.pstore.StartAppending(e.zxid + 1); err != nil {
		return err
	}

	// 4. Every pre-crash session is dead: reap its ephemerals exactly as
	// a session expiry would, so election nodes and queue-consumer marks
	// vanish and controller re-election fires on restart just as it does
	// on failover. The expiries are themselves logged (log-before-apply),
	// so a crash during or after recovery replays the same cleanup.
	var owners []int64
	collectOwners(t.root, map[int64]bool{}, &owners)
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, sess := range owners {
		op := Op{kind: opExpireSession, session: sess}
		e.zxid++
		if err := e.pstore.Append(e.zxid, e.encodeLocked(op)); err != nil {
			return err
		}
		applyOp(t, op, e.zxid, nil)
	}

	// 5. Compact everything recovery accepted into a fresh snapshot and
	// rotate the log. This is a correctness step, not an optimization:
	// replay stops at the first torn or corrupt record, so if a damaged
	// segment were left in place, a LATER recovery would stop there and
	// never reach the records this incarnation is about to write. The
	// snapshot supersedes the damaged tail and rotation deletes it.
	if e.zxid > 0 {
		if err := e.pstore.Snapshot(e.zxid, e.snapshotPayload(t)); err != nil {
			return err
		}
	}

	// 6. Serve the recovered tree.
	e.tree, e.applied = t, e.zxid
	// A fresh data dir is initialization, not a recovery; only count the
	// pass when there was state to recover.
	if e.zxid > 0 {
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

// snapshotPayload encodes t for a snapshot into a buffer reused across
// snapshots, so the multi-megabyte payload is not allocated afresh each
// time; it grows only when the tree outgrows every earlier snapshot.
// Called with e.mu held (or before the ensemble serves); the bytes are
// valid until the next call.
func (e *Ensemble) snapshotPayload(t *tree) []byte {
	e.snapBuf = encodeTreeSnapshot(e.snapBuf[:0], t, e.nextSess)
	return e.snapBuf
}

// maybeSnapshotLocked writes a snapshot and rotates the WAL once enough
// appends accumulated since the last one. Called with e.mu held, right
// after a commit applied; the tree is therefore exactly the state at
// e.zxid. A failure to write the snapshot file is absorbed
// (the WAL still holds every committed record, so durability is
// unaffected — only recovery time stops improving); a failure during
// the rotation that follows trips the persist layer's fail-stop and
// surfaces on the next commit. Either way the counter resets, so a
// persistently failing snapshot is retried once per SnapshotEvery
// appends rather than on every commit.
func (e *Ensemble) maybeSnapshotLocked() {
	if e.cfg.SnapshotEvery <= 0 {
		return
	}
	e.sinceSnap++
	if e.sinceSnap < e.cfg.SnapshotEvery {
		return
	}
	e.sinceSnap = 0
	_ = e.pstore.Snapshot(e.zxid, e.snapshotPayload(e.tree))
}
