// Package lock implements TROPIC's pessimistic concurrency control: a
// multi-granularity locking scheme over the hierarchical data model
// (paper §3.1.3, following Gray's intention-lock protocol).
//
// A transaction acquires W (write) or R (read) locks on the objects its
// actions and queries touch, and intention locks (IW/IR) on every
// ancestor of those objects. Intention locks summarize descendant
// locking so conflicts are detected high in the tree: IW conflicts with
// R and W, IR conflicts with W, and W conflicts with everything. A
// transaction additionally takes an R lock on the highest constrained
// ancestor of each written object, freezing the subtree a constraint
// check depends on.
//
// Acquisition is all-or-nothing at schedule time: either every requested
// lock is granted atomically or none are and the transaction is deferred
// (requeued at the front of todoQ). Because transactions never wait
// while holding locks, deadlock is impossible by construction.
//
// The table is flat: path → holders (owner, modes as a bitmask) and
// owner → paths. Emptied slices are recycled and requests are expanded
// into a scratch slice, so steady acquire/release allocates nothing.
package lock

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Mode is a lock mode.
type Mode int

const (
	// IR is an intention-read lock taken on ancestors of R-locked nodes.
	IR Mode = iota
	// IW is an intention-write lock taken on ancestors of W-locked nodes.
	IW
	// R is a shared read lock.
	R
	// W is an exclusive write lock.
	W
)

// String renders the mode like the paper ("R", "W", "IR", "IW").
func (m Mode) String() string {
	if m.bit() == 0 {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return [...]string{IR: "IR", IW: "IW", R: "R", W: "W"}[m]
}

// bit returns m's bit in a mode set, 0 for a mode outside IR..W.
func (m Mode) bit() uint8 {
	if m < IR || m > W {
		return 0
	}
	return 1 << m
}

// conflictsWith[m] is the set of modes another transaction may not hold
// on a node while m is granted there:
//
//	   | IR | IW | R | W
//	IR | ✓  | ✓  | ✓ | ✗
//	IW | ✓  | ✓  | ✗ | ✗
//	R  | ✓  | ✗  | ✓ | ✗
//	W  | ✗  | ✗  | ✗ | ✗
var conflictsWith = [...]uint8{
	IR: 1 << W,
	IW: 1<<R | 1<<W,
	R:  1<<IW | 1<<W,
	W:  1<<IR | 1<<IW | 1<<R | 1<<W,
}

// compatible reports whether two modes held by different transactions
// can coexist on the same node.
func compatible(a, b Mode) bool { return conflictsWith[a]&b.bit() == 0 }

// Request asks for one lock.
type Request struct {
	Path string
	Mode Mode
}

// holder records the modes one transaction holds on one node.
type holder struct {
	owner string
	modes uint8 // bit per Mode
}

// Manager tracks all locks. It is safe for concurrent use, though in
// TROPIC only the lead controller calls it.
type Manager struct {
	mu sync.Mutex
	// nodes maps path -> its holders, one entry per owner.
	nodes map[string][]holder
	// owned maps owner -> the paths it holds, each once.
	owned map[string][]string
	// Emptied slices kept for reuse, and the expansion scratch slice.
	spareHolders [][]holder
	sparePaths   [][]string
	expanded     []Request
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		nodes: make(map[string][]holder),
		owned: make(map[string][]string),
	}
}

// ConflictError reports the first conflicting lock found during Acquire.
type ConflictError struct {
	Path      string
	Requested Mode
	Holder    string
	Held      Mode
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("lock conflict at %s: requested %s, %s holds %s",
		e.Path, e.Requested, e.Holder, e.Held)
}

// ExpandRequests converts object-level lock intents into the full
// multi-granularity request set: each R/W on a path implies IR/IW on all
// ancestors. Per path the mode set is then reduced: W subsumes all other
// modes, R or IW subsume IR, and {R, IW} is kept as a pair (the classic
// SIX combination — a transaction that reads a subtree while writing
// inside it must hold both so that neither concurrent readers of the
// subtree nor concurrent writers below it are admitted). The result is
// sorted by path, then mode.
func ExpandRequests(reqs []Request) []Request {
	return expandInto(nil, reqs)
}

// expandInto is ExpandRequests appending into out[:0]: every request and
// its ancestors' intents, sorted, then each path's run merged in place.
func expandInto(out, reqs []Request) []Request {
	out = out[:0]
	for _, r := range reqs {
		out = append(out, r)
		intent := IR
		if r.Mode == W || r.Mode == IW {
			intent = IW
		}
		for i := 1; i < len(r.Path); i++ {
			if r.Path[i] == '/' {
				out = append(out, Request{Path: r.Path[:i], Mode: intent})
			}
		}
	}
	slices.SortFunc(out, func(a, b Request) int {
		return cmp.Or(strings.Compare(a.Path, b.Path), cmp.Compare(a.Mode, b.Mode))
	})
	// A run emits at most as many requests as it has, so writing at n
	// never overtakes the run being read.
	n := 0
	for i := 0; i < len(out); {
		path, set := out[i].Path, uint8(0)
		for ; i < len(out) && out[i].Path == path; i++ {
			set |= out[i].Mode.bit()
		}
		if set&W.bit() != 0 {
			set = W.bit()
		} else if set != IR.bit() {
			set &^= IR.bit()
		}
		for m := IR; m <= W; m++ {
			if set&m.bit() != 0 {
				out[n] = Request{Path: path, Mode: m}
				n++
			}
		}
	}
	return out[:n]
}

// conflicts expands reqs into the scratch slice and returns one
// ConflictError per distinct (path, holder) pair that keeps owner from
// the expanded locks, in request order, stopping after limit of them
// (limit < 0: all). A transaction never conflicts with itself. The
// caller holds mu.
func (m *Manager) conflicts(owner string, reqs []Request, limit int) []*ConflictError {
	m.expanded = expandInto(m.expanded, reqs)
	var out []*ConflictError
	for _, r := range m.expanded {
	holders:
		for _, h := range m.nodes[r.Path] {
			clash := h.modes & conflictsWith[r.Mode]
			if h.owner == owner || clash == 0 {
				continue
			}
			// The expansion is sorted by path, so this path's earlier
			// conflicts are the last ones in out.
			for k := len(out) - 1; k >= 0 && out[k].Path == r.Path; k-- {
				if out[k].Holder == h.owner {
					continue holders
				}
			}
			held := Mode(bits.TrailingZeros8(clash))
			out = append(out, &ConflictError{Path: r.Path, Requested: r.Mode, Holder: h.owner, Held: held})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// Acquire grants every request to owner atomically, or grants nothing
// and returns a *ConflictError naming the first conflict. Requests are
// expanded to include ancestor intention locks. Re-acquiring locks the
// owner already holds is permitted (a transaction never conflicts with
// itself).
func (m *Manager) Acquire(owner string, reqs []Request) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ces := m.conflicts(owner, reqs, 1); len(ces) > 0 {
		return ces[0]
	}
	paths := m.owned[owner]
grant:
	for _, r := range m.expanded {
		hs, ok := m.nodes[r.Path]
		for i := range hs {
			if hs[i].owner == owner {
				hs[i].modes |= r.Mode.bit()
				continue grant
			}
		}
		if !ok && len(m.spareHolders) > 0 {
			hs = m.spareHolders[len(m.spareHolders)-1]
			m.spareHolders = m.spareHolders[:len(m.spareHolders)-1]
		}
		m.nodes[r.Path] = append(hs, holder{owner: owner, modes: r.Mode.bit()})
		if paths == nil && len(m.sparePaths) > 0 {
			paths = m.sparePaths[len(m.sparePaths)-1]
			m.sparePaths = m.sparePaths[:len(m.sparePaths)-1]
		}
		paths = append(paths, r.Path)
	}
	if len(paths) > 0 {
		m.owned[owner] = paths
	}
	return nil
}

// WouldConflict reports whether Acquire would fail, without acquiring.
// The controller uses this during simulation replay on recovery.
func (m *Manager) WouldConflict(owner string, reqs []Request) *ConflictError {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ces := m.conflicts(owner, reqs, 1); len(ces) > 0 {
		return ces[0]
	}
	return nil
}

// Conflicts returns every conflicting (path, holder) pair Acquire would
// trip over, one ConflictError per distinct pair, without acquiring
// anything. Where Acquire and WouldConflict stop at the first conflict,
// this enumerates them all — the wound-wait path needs every holder
// standing between a high-priority cross-shard child and its locks, not
// just the first one found.
func (m *Manager) Conflicts(owner string, reqs []Request) []*ConflictError {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conflicts(owner, reqs, -1)
}

// ReleaseAll frees every lock held by owner (transaction cleanup, step 5
// in Figure 2).
func (m *Manager) ReleaseAll(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths, ok := m.owned[owner]
	if !ok {
		return
	}
	for _, path := range paths {
		hs := slices.DeleteFunc(m.nodes[path], func(h holder) bool { return h.owner == owner })
		if len(hs) > 0 {
			m.nodes[path] = hs
			continue
		}
		delete(m.nodes, path)
		m.spareHolders = append(m.spareHolders, hs)
	}
	delete(m.owned, owner)
	clear(paths)
	m.sparePaths = append(m.sparePaths, paths[:0])
}

// OwnerCount reports how many distinct transactions hold locks.
func (m *Manager) OwnerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.owned)
}

// LockCount reports the total number of (path, owner) lock entries, for
// tests asserting lock hygiene.
func (m *Manager) LockCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, hs := range m.nodes {
		n += len(hs)
	}
	return n
}

// Dump renders the lock table for debugging.
func (m *Manager) Dump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for _, p := range slices.Sorted(maps.Keys(m.nodes)) {
		fmt.Fprintf(&b, "%s:", p)
		hs := slices.SortedFunc(slices.Values(m.nodes[p]), func(a, b holder) int {
			return strings.Compare(a.owner, b.owner)
		})
		for _, h := range hs {
			for mode := IR; mode <= W; mode++ {
				if h.modes&mode.bit() != 0 {
					fmt.Fprintf(&b, " %s=%s", h.owner, mode)
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
