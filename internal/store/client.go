package store

import (
	"errors"
	"sync/atomic"
	"time"
)

// Client is a session-scoped handle to the ensemble. It corresponds to a
// ZooKeeper client connection: ephemeral nodes created through it live
// exactly as long as its session, and it heartbeats automatically until
// closed or killed.
type Client struct {
	ens       *Ensemble
	sessionID int64
	sess      *session // for lock-free expiry checks on the read path
	stopBeat  chan struct{}
	beatDone  chan struct{}
	killed    atomic.Bool

	// lastWrite is the zxid of this session's most recent committed
	// write — the session-consistency watermark follower reads carry.
	lastWrite atomic.Int64
}

// Connect opens a new session against the ensemble with the ensemble's
// configured session timeout.
func (e *Ensemble) Connect() *Client {
	e.mu.Lock()
	e.nextSess++
	id := e.nextSess
	s := &session{
		id:        id,
		timeout:   e.cfg.SessionTimeout,
		lastBeat:  time.Now(),
		expiredCh: make(chan struct{}),
	}
	e.sessions[id] = s
	e.mu.Unlock()

	c := &Client{
		ens:       e,
		sessionID: id,
		sess:      s,
		stopBeat:  make(chan struct{}),
		beatDone:  make(chan struct{}),
	}
	go c.heartbeatLoop(s)
	return c
}

func (c *Client) heartbeatLoop(s *session) {
	defer close(c.beatDone)
	interval := s.timeout / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopBeat:
			return
		case <-s.expiredCh:
			return
		case now := <-t.C:
			c.ens.mu.Lock()
			if !s.expired && !s.closed {
				s.lastBeat = now
			}
			c.ens.mu.Unlock()
		}
	}
}

// SessionID returns the client's session id.
func (c *Client) SessionID() int64 { return c.sessionID }

// ExpiredCh is closed when the ensemble expires this session.
func (c *Client) ExpiredCh() <-chan struct{} {
	c.ens.mu.Lock()
	defer c.ens.mu.Unlock()
	s, ok := c.ens.sessions[c.sessionID]
	if !ok {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return s.expiredCh
}

// Close ends the session gracefully: ephemeral nodes are reaped
// immediately and the heartbeat loop stops.
func (c *Client) Close() {
	c.ens.ExpireSession(c.sessionID)
	select {
	case <-c.stopBeat:
	default:
		close(c.stopBeat)
	}
	<-c.beatDone
}

// Kill simulates a client crash: all further operations through this
// client fail immediately (the process is dead), heartbeats stop, and
// the session is left to expire on its own — so ephemeral nodes linger
// for up to the session timeout, exactly the failure-detection delay
// that dominates TROPIC's controller recovery time (§6.4).
func (c *Client) Kill() {
	c.killed.Store(true)
	select {
	case <-c.stopBeat:
	default:
		close(c.stopBeat)
	}
	<-c.beatDone
}

// checkSession returns ErrSessionExpired if the session is gone or the
// client crashed. Caller holds e.mu.
func (c *Client) checkSessionLocked() error {
	if c.killed.Load() {
		return ErrSessionExpired
	}
	s, ok := c.ens.sessions[c.sessionID]
	if !ok || s.expired {
		return ErrSessionExpired
	}
	return nil
}

// checkSessionFast is checkSessionLocked without the ensemble lock, for
// the follower-read path: crash flag plus the session's expiry channel,
// both safe to consult lock-free.
func (c *Client) checkSessionFast() error {
	if c.killed.Load() {
		return ErrSessionExpired
	}
	select {
	case <-c.sess.expiredCh:
		return ErrSessionExpired
	default:
		return nil
	}
}

// noteWrite records a committed write's zxid as the session watermark.
// Caller holds e.mu (so reading e.zxid is safe); the watermark itself is
// atomic because the read path consults it lock-free.
func (c *Client) noteWriteLocked() {
	if z := c.ens.zxid; z > c.lastWrite.Load() {
		c.lastWrite.Store(z)
	}
}

// LastWriteZxid reports the zxid of the session's most recent committed
// write — the minimum position a session-consistent read must observe.
func (c *Client) LastWriteZxid() int64 { return c.lastWrite.Load() }

// Create creates a znode and returns its final path (which differs from
// the requested path for sequence nodes). The store owns data from the
// call on (see Op).
func (c *Client) Create(path string, data []byte, flags int) (string, error) {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return "", err
	}
	op := Op{kind: opCreate, Path: path, Data: data, Flags: flags}
	if flags&FlagEphemeral != 0 {
		op.session = c.sessionID
	}
	resolved, err := e.commitLocked(op)
	if err != nil {
		return "", err
	}
	c.noteWriteLocked()
	return childFullPath(path, resolved.resolvedName), nil
}

// Set updates a znode's data. version -1 skips the compare-and-set check.
// The store owns data from the call on (see Op).
func (c *Client) Set(path string, data []byte, version int32) error {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return err
	}
	if _, err := e.commitLocked(Op{kind: opSet, Path: path, Data: data, Version: version}); err != nil {
		return err
	}
	c.noteWriteLocked()
	return nil
}

// Delete removes a znode. version -1 skips the compare-and-set check.
func (c *Client) Delete(path string, version int32) error {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return err
	}
	if _, err := e.commitLocked(Op{kind: opDelete, Path: path, Version: version}); err != nil {
		return err
	}
	c.noteWriteLocked()
	return nil
}

// Multi atomically applies a batch of write operations: either all apply
// in order or none do. The store owns each op's Data from the call on,
// whether or not the batch applies (see Op).
func (c *Client) Multi(ops ...Op) error {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return err
	}
	for i := range ops {
		if ops[i].kind == opCreate && ops[i].Flags&FlagEphemeral != 0 {
			ops[i].session = c.sessionID
		}
	}
	if _, err := e.commitLocked(Op{kind: opMulti, ops: ops}); err != nil {
		return err
	}
	c.noteWriteLocked()
	return nil
}

// MultiAll commits several independent Multi batches in one ensemble
// proposal round, returning each batch's demultiplexed error (position-
// matched). Each batch is atomic on its own; a failed batch does not
// affect its siblings, and later batches see the effects of earlier
// successful ones. This is the group-commit primitive behind the
// Batcher: one quorum round and one WAL fsync amortized over every
// batch in the group.
func (c *Client) MultiAll(groups ...[]Op) []error {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		errs := make([]error, len(groups))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for _, ops := range groups {
		for i := range ops {
			if ops[i].kind == opCreate && ops[i].Flags&FlagEphemeral != 0 {
				ops[i].session = c.sessionID
			}
		}
	}
	errs := e.commitAllLocked(groups)
	for _, err := range errs {
		if err == nil {
			c.noteWriteLocked()
			break
		}
	}
	return errs
}

// Get returns a znode's data and stat. The data is shared with the
// store, not copied: the caller must not modify it. It keeps its bytes
// after later writes (a set installs new data rather than overwriting),
// and the same holds for GetZ, GetAt and the read path's cache.
func (c *Client) Get(path string) ([]byte, Stat, error) {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return nil, Stat{}, err
	}
	t, err := e.leaderTree()
	if err != nil {
		return nil, Stat{}, err
	}
	n, err := t.lookup(path)
	if err != nil {
		return nil, Stat{}, err
	}
	return n.data, n.stat(), nil
}

// GetZ is Get plus the position of the read: the zxid the returned
// state is current as of. It reads under the commit lock, so the zxid
// is the ensemble's latest.
func (c *Client) GetZ(path string) ([]byte, Stat, int64, error) {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return nil, Stat{}, 0, err
	}
	t, err := e.leaderTree()
	if err != nil {
		return nil, Stat{}, 0, err
	}
	n, err := t.lookup(path)
	if err != nil {
		return nil, Stat{}, e.zxid, err
	}
	return n.data, n.stat(), e.zxid, nil
}

// GetAt is the follower read: it serves path as applied by any live
// replica, when that is at least minZxid — without touching the
// ensemble commit lock, so reads do not queue behind writes — and
// falls through to a leader read when the watermark is ahead of every
// commit. The returned zxid is the position the read is current as of
// (≥ minZxid); a caller that threads it into its next read gets
// session consistency across the whole replica set. fromFollower
// reports which path served, for metrics and the ablation experiments.
func (c *Client) GetAt(path string, minZxid int64) (data []byte, st Stat, zxid int64, fromFollower bool, err error) {
	if err := c.checkSessionFast(); err != nil {
		return nil, Stat{}, 0, false, err
	}
	z, served, rerr := c.ens.followerRead(minZxid, func(t *tree) error {
		n, lerr := t.lookup(path)
		if lerr != nil {
			return lerr
		}
		data, st = n.data, n.stat()
		return nil
	})
	if served {
		return data, st, z, true, rerr
	}
	data, st, z, err = c.GetZ(path)
	return data, st, z, false, err
}

// Exists reports whether a znode exists.
func (c *Client) Exists(path string) (bool, Stat, error) {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return false, Stat{}, err
	}
	t, err := e.leaderTree()
	if err != nil {
		return false, Stat{}, err
	}
	n, err := t.lookup(path)
	if err != nil {
		return false, Stat{}, nil
	}
	return true, n.stat(), nil
}

// Children returns every child name of a znode in ascending
// lexicographic order, which for sequence nodes is also creation order.
// The names are copied from the node's ordered child index; nothing is
// sorted on the read.
func (c *Client) Children(path string) ([]string, error) {
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return nil, err
	}
	t, err := e.leaderTree()
	if err != nil {
		return nil, err
	}
	n, err := t.lookup(path)
	if err != nil {
		return nil, err
	}
	return n.childNames(), nil
}

// ChildrenPage is the paged listing read: at most limit child names of
// path greater than after ("" starts at the first), in ascending order,
// as of a position ≥ minZxid. It seeks the node's ordered child index,
// so a page costs O(log n + limit) however many children path has. It
// keeps GetAt's watermark contract: served by any live replica that has
// applied minZxid, without the commit lock, and otherwise by the leader
// (so a minZxid beyond every commit forces a leader read). The returned
// zxid is the position the page is current as of; ErrNoNode carries
// the zxid the absence was observed at.
func (c *Client) ChildrenPage(path, after string, limit int, minZxid int64) (names []string, zxid int64, fromFollower bool, err error) {
	if err := c.checkSessionFast(); err != nil {
		return nil, 0, false, err
	}
	page := func(t *tree) error {
		n, lerr := t.lookup(path)
		if lerr != nil {
			return lerr
		}
		names = n.index.appendAfter(make([]string, 0, max(0, min(limit, len(n.children)))), after, limit)
		return nil
	}
	z, served, rerr := c.ens.followerRead(minZxid, page)
	if served {
		return names, z, true, rerr
	}
	e := c.ens
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkSessionLocked(); err != nil {
		return nil, 0, false, err
	}
	t, err := e.leaderTree()
	if err != nil {
		return nil, 0, false, err
	}
	err = page(t)
	return names, e.zxid, false, err
}

// NodeWatch arms a watch on create/delete/set of path (see Watch).
// One NodeWatch fans out to arbitrarily many read-path subscribers,
// which keeps 100k concurrent watch streams at O(records) store watches
// instead of O(sessions).
func (c *Client) NodeWatch(path string) (*Watch, error) {
	return c.watch(c.ens.watches.node, path)
}

// ChildWatch arms a watch on membership changes of path's children (see
// Watch). A blocking queue take arms one ChildWatch for its whole wait.
func (c *Client) ChildWatch(path string) (*Watch, error) {
	return c.watch(c.ens.watches.child, path)
}

func (c *Client) watch(m map[string][]*watcher, path string) (*Watch, error) {
	if err := validPath(path); err != nil {
		return nil, err
	}
	w := &watcher{ch: make(chan Event, 1), session: c.sessionID}
	c.ens.watches.add(m, path, w)
	return &Watch{path: path, w: w, m: m, wt: c.ens.watches}, nil
}

// EnsurePath creates path and any missing ancestors as persistent nodes.
// It is idempotent.
func (c *Client) EnsurePath(path string) error {
	if err := validPath(path); err != nil {
		return err
	}
	for i := 2; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if _, err := c.Create(path[:i], nil, 0); err != nil && !isNodeExists(err) {
			return err
		}
	}
	return nil
}

func isNodeExists(err error) bool {
	return errors.Is(err, ErrNodeExists)
}
