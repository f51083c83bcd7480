package store

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store/persist"
)

// Config parameterizes an ensemble.
type Config struct {
	// Replicas is the ensemble size; writes require a strict majority of
	// replicas alive. Defaults to 3, matching TROPIC's deployment.
	Replicas int
	// SessionTimeout is how long a session survives without heartbeats
	// before the ensemble expires it and reaps its ephemeral nodes. This
	// is TROPIC's failure-detection knob: controller failover time is
	// dominated by it (paper §6.4). Defaults to 500ms.
	SessionTimeout time.Duration
	// CommitLatency simulates the I/O cost of one quorum round
	// (proposal + majority acknowledgment). The paper observes that
	// ZooKeeper API calls, not logical simulation, dominate transaction
	// overhead; setting this non-zero reproduces that regime. Defaults
	// to 0 (no artificial latency).
	CommitLatency time.Duration
	// TickInterval is how often the ensemble checks for expired
	// sessions. Defaults to SessionTimeout/4.
	TickInterval time.Duration
	// DataDir, when non-empty, makes the ensemble durable: every
	// committed write is appended to a write-ahead log in this directory
	// before it is applied, and on startup the ensemble recovers from
	// the latest snapshot plus the WAL tail (pre-crash sessions are
	// expired so ephemeral cleanup and re-election fire exactly as on
	// failover). Empty (the default) keeps the ensemble purely
	// in-memory with no disk I/O.
	DataDir string
	// SyncPolicy selects when the WAL is fsynced (SyncAlways, the
	// default, or SyncNone). Ignored without DataDir.
	SyncPolicy SyncPolicy
	// SnapshotEvery writes a full-tree snapshot and truncates the WAL
	// after this many logged writes. Defaults to 4096 when DataDir is
	// set; negative disables snapshotting. Ignored without DataDir.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 500 * time.Millisecond
	}
	if c.TickInterval <= 0 {
		c.TickInterval = c.SessionTimeout / 4
	}
	if c.DataDir != "" && c.SnapshotEvery == 0 {
		c.SnapshotEvery = 4096
	}
	return c
}

// opKind enumerates the write operations sequenced by the ensemble.
type opKind int

const (
	opCreate opKind = iota
	opSet
	opDelete
	opExpireSession
	opMulti
)

// Op is a single write in a Multi batch. The store takes ownership of
// Data once the op is handed to a write (Create, Set, Multi, MultiAll,
// or a Batcher): an applied op installs Data itself as the node's
// contents, shared by every replica and handed out uncopied by reads,
// so the caller must not modify it afterwards.
type Op struct {
	kind    opKind
	Path    string
	Data    []byte
	Flags   int
	Version int32
	ops     []Op
	session int64
	// resolvedName is filled in during validation for sequence nodes so
	// that the applied op, and its WAL record, is fully determined.
	resolvedName string
}

// CreateOp builds a create operation for Multi.
func CreateOp(path string, data []byte, flags int) Op {
	return Op{kind: opCreate, Path: path, Data: data, Flags: flags}
}

// SetOp builds a conditional set for Multi. Version -1 disables the check.
func SetOp(path string, data []byte, version int32) Op {
	return Op{kind: opSet, Path: path, Data: data, Version: version}
}

// DeleteOp builds a conditional delete for Multi. Version -1 disables the
// check.
func DeleteOp(path string, version int32) Op {
	return Op{kind: opDelete, Path: path, Version: version}
}

// session tracks one client connection.
type session struct {
	id        int64
	timeout   time.Duration
	lastBeat  time.Time
	expired   bool
	closed    bool
	expiredCh chan struct{}
}

// Ensemble is the replicated coordination service.
//
// Every live replica applies each committed op synchronously under the
// commit lock, so their trees are always identical; the ensemble keeps
// that state once. A replica is a liveness member: it counts towards
// the write quorum and may serve follower reads while alive. A stopped
// replica misses nothing it must later replay — on restart it is
// current at once, as a ZooKeeper follower is after a SNAP sync from
// its leader.
type Ensemble struct {
	cfg Config

	mu       sync.Mutex // the commit lock
	alive    []atomic.Bool
	zxid     int64
	sessions map[int64]*session
	nextSess int64
	watches  *watchTable
	closed   bool
	walBuf   []byte       // WAL record encoding, reused under mu
	fired    firedWatches // watch events of the commit in hand, reused under mu

	// treeMu guards tree and applied. Writers (commit, recovery) hold mu
	// AND treeMu; follower reads take only treeMu.RLock, so they never
	// contend with the commit lock — the whole point of the follower
	// read path. The lock order is always mu → treeMu.
	treeMu  sync.RWMutex
	tree    *tree
	applied int64 // zxid of the last op applied to tree

	stopTick chan struct{}
	tickDone chan struct{}

	// Durability (nil without Config.DataDir).
	pstore    *persist.Store
	sinceSnap int           // WAL appends since the last snapshot started
	snap      snapCapture   // the snapshot being written; reused
	snapDone  chan struct{} // closed when the last snapshot started has landed
	snapHook  func()        // tests: run by the snapshot goroutine before it writes

	// stats
	commits int64
}

// NewEnsemble creates and starts an ensemble with all replicas alive.
// It is the in-memory constructor: cfg.DataDir must be empty (durable
// ensembles recover from disk and can fail — use OpenEnsemble).
func NewEnsemble(cfg Config) *Ensemble {
	e, err := OpenEnsemble(cfg)
	if err != nil {
		// Only reachable with a DataDir, whose callers must use
		// OpenEnsemble and handle the error.
		panic("store: NewEnsemble with DataDir: " + err.Error())
	}
	return e
}

// OpenEnsemble creates and starts an ensemble. With cfg.DataDir set it
// first recovers all persistent state from the directory (snapshot +
// WAL tail) and expires every pre-crash session, then serves with every
// committed write logged before it is applied.
func OpenEnsemble(cfg Config) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	e := &Ensemble{
		cfg:      cfg,
		alive:    make([]atomic.Bool, cfg.Replicas),
		sessions: make(map[int64]*session),
		watches:  newWatchTable(),
		tree:     newTree(),
		stopTick: make(chan struct{}),
		tickDone: make(chan struct{}),
	}
	for i := range e.alive {
		e.alive[i].Store(true)
	}
	if cfg.DataDir != "" {
		ps, err := persist.Open(cfg.DataDir, cfg.SyncPolicy)
		if err != nil {
			return nil, err
		}
		e.pstore = ps
		if err := e.recoverFromDisk(); err != nil {
			ps.Close()
			return nil, fmt.Errorf("store: recover %s: %w", cfg.DataDir, err)
		}
	}
	go e.tickLoop()
	return e, nil
}

// Close shuts the ensemble down. All subsequent operations fail with
// ErrClosed; a snapshot being written lands before Close returns. The
// returned error reports a failed final WAL flush — the shutdown
// itself always completes, but a caller that persists state must not
// tell its operator the tail is durable when it is not.
func (e *Ensemble) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, s := range e.sessions {
		if !s.expired {
			s.expired = true
			close(s.expiredCh)
		}
	}
	snapDone := e.snapDone
	e.mu.Unlock()
	close(e.stopTick)
	<-e.tickDone
	if snapDone != nil {
		<-snapDone // the snapshot in flight lands before its store closes
	}
	if e.pstore != nil {
		// No further commits are possible (closed is set); flush the WAL
		// tail so everything committed survives the shutdown.
		return e.pstore.Close()
	}
	return nil
}

func (e *Ensemble) tickLoop() {
	defer close(e.tickDone)
	t := time.NewTicker(e.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stopTick:
			return
		case now := <-t.C:
			e.expireSessions(now)
		}
	}
}

// expireSessions reaps sessions whose heartbeat lapsed. Reaping a session
// is itself a committed operation so that every replica deletes the same
// ephemeral nodes at the same point in the total order.
func (e *Ensemble) expireSessions(now time.Time) {
	e.mu.Lock()
	var victims []int64
	for id, s := range e.sessions {
		if !s.expired && !s.closed && now.Sub(s.lastBeat) > s.timeout {
			victims = append(victims, id)
		}
	}
	e.mu.Unlock()
	for _, id := range victims {
		e.ExpireSession(id)
	}
}

// ExpireSession forcibly expires a session, deleting its ephemeral nodes.
// Exposed for fault-injection in tests and the failover benchmarks.
func (e *Ensemble) ExpireSession(id int64) {
	e.mu.Lock()
	s, ok := e.sessions[id]
	if !ok || s.expired {
		e.mu.Unlock()
		return
	}
	s.expired = true
	op := Op{kind: opExpireSession, session: id}
	if _, err := e.commitLocked(op); err != nil {
		// Without quorum we cannot reap ephemerals; the session stays
		// marked expired and its client errors out, matching ZooKeeper
		// behavior during ensemble unavailability.
		s.expired = true
	}
	close(s.expiredCh)
	e.mu.Unlock()
	e.watches.expireSession(id)
}

// aliveCount returns how many replicas are alive.
func (e *Ensemble) aliveCount() int {
	n := 0
	for i := range e.alive {
		if e.alive[i].Load() {
			n++
		}
	}
	return n
}

// leaderTree returns the tree for a read under the commit lock, or
// ErrNoQuorum when no replica is alive to serve it.
func (e *Ensemble) leaderTree() (*tree, error) {
	if e.aliveCount() == 0 {
		return nil, ErrNoQuorum
	}
	return e.tree, nil
}

// StopReplica simulates a replica crash: it stops counting towards the
// write quorum and stops serving reads.
func (e *Ensemble) StopReplica(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i >= 0 && i < len(e.alive) {
		e.alive[i].Store(false)
	}
}

// StartReplica restarts a stopped replica. It is current at once: the
// state it rejoins already holds every committed op.
func (e *Ensemble) StartReplica(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i >= 0 && i < len(e.alive) {
		e.alive[i].Store(true)
	}
}

// Zxid reports the id of the most recently sequenced write. A client
// that has observed state as of Zxid can demand it back from any
// replica via the watermark argument of the follower-read API.
func (e *Ensemble) Zxid() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.zxid
}

// followerRead serves fn against the replicated state as applied by
// any live replica, WITHOUT taking the ensemble commit lock. The tree's
// read lock is held for the duration of fn, so fn sees it frozen
// exactly at the returned zxid. served=false means no live replica has
// applied minZxid (it is ahead of every commit, or none is alive) and
// the caller must fall through to a leader read; fn's own error (e.g.
// ErrNoNode) is a real result, not a reason to fall through.
func (e *Ensemble) followerRead(minZxid int64, fn func(*tree) error) (zxid int64, served bool, err error) {
	if e.aliveCount() == 0 {
		return 0, false, nil
	}
	e.treeMu.RLock()
	defer e.treeMu.RUnlock()
	if e.applied < minZxid {
		return 0, false, nil
	}
	return e.applied, true, fn(e.tree)
}

// applyLocked applies a validated op to the tree at the current zxid,
// recording the watch events it triggers in e.fired. Caller holds e.mu.
func (e *Ensemble) applyLocked(op Op) {
	e.treeMu.Lock()
	applyOp(e.tree, op, e.zxid, &e.fired)
	e.applied = e.zxid
	e.treeMu.Unlock()
}

// encodeLocked encodes a resolved op for a WAL record into a buffer
// reused across commits; the bytes are valid until the next call.
// Caller holds e.mu.
func (e *Ensemble) encodeLocked(op Op) []byte {
	e.walBuf = encodeOp(e.walBuf[:0], op)
	return e.walBuf
}

// commitLocked validates op against the tree, sequences it, and
// applies it, returning the resolved op (sequence names filled in).
// Caller holds e.mu.
func (e *Ensemble) commitLocked(op Op) (Op, error) {
	if e.closed {
		return Op{}, ErrClosed
	}
	if e.aliveCount()*2 <= len(e.alive) {
		return Op{}, ErrNoQuorum
	}
	resolved, err := validateOp(e.tree, op)
	if err != nil {
		return Op{}, err
	}
	if e.cfg.CommitLatency > 0 {
		// One quorum round: proposal broadcast + majority ack. Simulated
		// under the commit lock because ZooKeeper serializes writes
		// through its leader pipeline; this is what makes store I/O the
		// throughput bottleneck, as observed in the paper.
		time.Sleep(e.cfg.CommitLatency)
	}
	e.zxid++
	if e.pstore != nil {
		// Log-before-apply: the record must be on the log (and, under
		// SyncAlways, on stable storage) before any replica observes the
		// mutation. On failure the write is rejected — nothing applied
		// it — and the persist layer goes fail-stop, so every later write
		// fails too. The zxid is NOT reused: the failed record's frame
		// may be fully on disk (e.g. write ok, fsync failed) and will
		// then reappear on recovery, so its id must stay unique.
		if err := e.pstore.Append(e.zxid, e.encodeLocked(resolved)); err != nil {
			return Op{}, err
		}
	}
	e.fired.reset()
	e.applyLocked(resolved)
	e.commits++
	if e.pstore != nil {
		e.maybeSnapshotLocked(1)
	}
	e.watches.fire(&e.fired)
	return resolved, nil
}

// commitAllLocked commits several independent op groups in ONE proposal
// round: one quorum-latency charge, one WAL fsync, and one watch-delivery
// pass, instead of one of each per group. This is the same amortization
// the WAL layer's group fsync applies to disk writes, lifted to the
// ensemble's commit pipeline — the ZooKeeper round trips the paper
// identifies as the dominant per-transaction cost (§6.1).
//
// Each group is atomic on its own (validated exactly like a Multi); a
// group that fails validation is skipped with its error demultiplexed to
// its slot, without affecting its siblings. Later groups observe the
// effects of earlier successful groups, exactly as if the groups had
// committed back-to-back.
//
// Durability ordering: every group's record is written to the WAL before
// the group is applied, but the single fsync happens after the whole run
// is applied. On the happy path no client can observe the relaxation —
// reads and watch deliveries happen only after the run is synced and
// e.mu released. If the sync itself fails, the whole round is reported
// failed, its watches are NOT fired, no snapshot is taken, and the
// persist layer goes fail-stop: the round's effects linger in the
// ensemble's memory (they cannot be unapplied), but no later write can
// commit behind the indeterminate tail, so the divergence is terminal —
// including for callers that retry, whose retries fail too. This is one
// step weaker than the single-op path (which rejects before applying);
// it is the price of validating each group against its predecessors'
// effects. Caller holds e.mu.
func (e *Ensemble) commitAllLocked(groups [][]Op) []error {
	errs := make([]error, len(groups))
	fill := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if e.closed {
		return fill(ErrClosed)
	}
	if e.aliveCount()*2 <= len(e.alive) {
		return fill(ErrNoQuorum)
	}
	if e.cfg.CommitLatency > 0 {
		// ONE quorum round for the whole batch: proposal broadcast +
		// majority ack, with every group riding the same proposal.
		time.Sleep(e.cfg.CommitLatency)
	}
	e.fired.reset()
	var applied []int
	var walFailed error
	for gi, ops := range groups {
		if walFailed != nil {
			// Fail-stop: nothing may commit behind a torn WAL frame.
			errs[gi] = walFailed
			continue
		}
		resolved, err := validateOp(e.tree, Op{kind: opMulti, ops: ops})
		if err != nil {
			errs[gi] = err
			continue
		}
		e.zxid++
		if e.pstore != nil {
			if err := e.pstore.AppendNoSync(e.zxid, e.encodeLocked(resolved)); err != nil {
				errs[gi] = err
				walFailed = err
				continue
			}
		}
		e.applyLocked(resolved)
		e.commits++
		applied = append(applied, gi)
	}
	if e.pstore != nil && len(applied) > 0 {
		if err := e.pstore.SyncGroup(); err != nil {
			// Report the round failed and surface none of it: no watch
			// fires, no snapshot of state whose log record may not be
			// durable. Fail-stop prevents anything committing after it.
			for _, gi := range applied {
				errs[gi] = err
			}
			return errs
		}
		e.maybeSnapshotLocked(len(applied))
	}
	e.watches.fire(&e.fired)
	return errs
}

// validateOp checks an op against the tree and resolves sequence-node
// names so the op applies deterministically, on replay too.
func validateOp(t *tree, op Op) (Op, error) {
	switch op.kind {
	case opCreate:
		if err := validPath(op.Path); err != nil {
			return op, err
		}
		if op.Path == "/" {
			return op, fmt.Errorf("%w: cannot create root", ErrBadPath)
		}
		parent, err := t.lookup(parentPath(op.Path))
		if err != nil {
			return op, err
		}
		if parent.ephemeralOwner != 0 {
			return op, fmt.Errorf("%w: parent of %s", ErrEphemeralChildren, op.Path)
		}
		name := baseName(op.Path)
		if op.Flags&FlagSequence != 0 {
			name = fmt.Sprintf("%s%010d", name, parent.seqCounter)
		}
		if _, exists := parent.children[name]; exists {
			return op, fmt.Errorf("%w: %s", ErrNodeExists, parentPath(op.Path)+"/"+name)
		}
		op.resolvedName = name
		return op, nil
	case opSet:
		n, err := t.lookup(op.Path)
		if err != nil {
			return op, err
		}
		if op.Version >= 0 && n.version != op.Version {
			return op, fmt.Errorf("%w: %s has version %d, want %d", ErrBadVersion, op.Path, n.version, op.Version)
		}
		return op, nil
	case opDelete:
		n, err := t.lookup(op.Path)
		if err != nil {
			return op, err
		}
		if op.Version >= 0 && n.version != op.Version {
			return op, fmt.Errorf("%w: %s has version %d, want %d", ErrBadVersion, op.Path, n.version, op.Version)
		}
		if len(n.children) > 0 {
			return op, fmt.Errorf("%w: %s", ErrNotEmpty, op.Path)
		}
		return op, nil
	case opExpireSession:
		return op, nil
	case opMulti:
		// Validate sub-ops so later ops see the effects of earlier ones
		// (exactly as ZooKeeper's multi does) using a lightweight
		// overlay — copying the tree would make every Multi O(tree),
		// which at cloud scale is the difference between microseconds
		// and seconds per transaction.
		mv := newMultiValidator(t)
		resolved := make([]Op, len(op.ops))
		for i, sub := range op.ops {
			r, err := mv.validate(sub)
			if err != nil {
				return op, fmt.Errorf("multi op %d: %w", i, err)
			}
			resolved[i] = r
		}
		op.ops = resolved
		return op, nil
	default:
		return op, fmt.Errorf("store: unknown op kind %d", op.kind)
	}
}

// applyOp applies a validated, resolved op to a tree. When fired is
// non-nil, watch events triggered by the mutation are recorded in it.
// Applied data is never modified in place: a create or set installs
// op.Data itself, which the store owns from the write on (see Op), and
// that is what lets reads return it without a copy.
func applyOp(t *tree, op Op, zxid int64, fired *firedWatches) {
	switch op.kind {
	case opCreate:
		parent, err := t.lookup(parentPath(op.Path))
		if err != nil {
			return // cannot happen for validated ops
		}
		if op.Flags&FlagSequence != 0 {
			parent.seqCounter++
		}
		n := newZnode(op.resolvedName)
		n.data = op.Data
		n.czxid, n.mzxid = zxid, zxid
		n.ephemeralOwner = op.session
		parent.addChild(n)
		if fired != nil {
			full := childFullPath(op.Path, op.resolvedName)
			fired.add(full, EventCreated)
			fired.addChild(parentPath(op.Path))
		}
	case opSet:
		n, err := t.lookup(op.Path)
		if err != nil {
			return
		}
		n.data = op.Data
		n.version++
		n.mzxid = zxid
		if fired != nil {
			fired.add(op.Path, EventDataChanged)
		}
	case opDelete:
		parent, err := t.lookup(parentPath(op.Path))
		if err != nil {
			return
		}
		parent.removeChild(baseName(op.Path))
		if fired != nil {
			fired.add(op.Path, EventDeleted)
			fired.addChild(parentPath(op.Path))
		}
	case opExpireSession:
		var eph []string
		collectEphemerals(t.root, "", op.session, &eph)
		// Delete deepest-first so parents empty out before removal.
		for i := len(eph) - 1; i >= 0; i-- {
			applyOp(t, Op{kind: opDelete, Path: eph[i], Version: -1}, zxid, fired)
		}
	case opMulti:
		for _, sub := range op.ops {
			applyOp(t, sub, zxid, fired)
		}
	}
}

// childFullPath joins the parent-derived path of a create op with the
// resolved (possibly sequence-suffixed) final name.
func childFullPath(requested, resolvedName string) string {
	if baseName(requested) == resolvedName {
		return requested // not a sequence node
	}
	pp := parentPath(requested)
	if pp == "/" {
		return "/" + resolvedName
	}
	return pp + "/" + resolvedName
}

// Health summarizes ensemble availability for readiness probes.
type Health struct {
	// Replicas is the configured ensemble size.
	Replicas int `json:"replicas"`
	// Alive is how many replicas are currently alive.
	Alive int `json:"alive"`
	// Quorum reports whether a strict majority is alive (writes can
	// commit).
	Quorum bool `json:"quorum"`
	// Sessions is the number of live client sessions.
	Sessions int `json:"sessions"`
}

// Health returns a snapshot of ensemble availability.
func (e *Ensemble) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	alive := e.aliveCount()
	return Health{
		Replicas: len(e.alive),
		Alive:    alive,
		Quorum:   alive*2 > len(e.alive),
		Sessions: len(e.sessions),
	}
}

// WatchCounts reports outstanding node and child watch registrations,
// for leak tests and the stats surface.
func (e *Ensemble) WatchCounts() (node, child int) {
	return e.watches.counts()
}

// Commits reports how many write operations the ensemble has committed.
func (e *Ensemble) Commits() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commits
}

// String summarizes ensemble state for debugging.
func (e *Ensemble) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "ensemble{replicas=%d alive=%d zxid=%d sessions=%d}",
		len(e.alive), e.aliveCount(), e.zxid, len(e.sessions))
	return b.String()
}
