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
package lock

import (
	"fmt"
	"sort"
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
	switch m {
	case IR:
		return "IR"
	case IW:
		return "IW"
	case R:
		return "R"
	case W:
		return "W"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compatible reports whether two modes held by different transactions
// can coexist on the same node.
//
//	   | IR | IW | R | W
//	IR | ✓  | ✓  | ✓ | ✗
//	IW | ✓  | ✓  | ✗ | ✗
//	R  | ✓  | ✗  | ✓ | ✗
//	W  | ✗  | ✗  | ✗ | ✗
func compatible(a, b Mode) bool {
	switch {
	case a == W || b == W:
		return false
	case a == IW && b == R, a == R && b == IW:
		return false
	default:
		return true
	}
}

// Request asks for one lock.
type Request struct {
	Path string
	Mode Mode
}

// holder records the modes one transaction holds on one node.
type holder struct {
	modes map[Mode]int // mode -> acquisition count (for idempotent re-requests)
}

// Manager tracks all locks. It is safe for concurrent use, though in
// TROPIC only the lead controller calls it.
type Manager struct {
	mu sync.Mutex
	// nodes maps path -> owner -> holder.
	nodes map[string]map[string]*holder
	// owned maps owner -> set of paths, for O(owned) release.
	owned map[string]map[string]bool
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		nodes: make(map[string]map[string]*holder),
		owned: make(map[string]map[string]bool),
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
// subtree nor concurrent writers below it are admitted).
func ExpandRequests(reqs []Request) []Request {
	modes := make(map[string]map[Mode]bool)
	add := func(path string, m Mode) {
		set, ok := modes[path]
		if !ok {
			set = make(map[Mode]bool, 2)
			modes[path] = set
		}
		set[m] = true
	}
	for _, r := range reqs {
		add(r.Path, r.Mode)
		intent := IR
		if r.Mode == W || r.Mode == IW {
			intent = IW
		}
		for _, anc := range ancestors(r.Path) {
			add(anc, intent)
		}
	}
	var out []Request
	for p, set := range modes {
		switch {
		case set[W]:
			out = append(out, Request{Path: p, Mode: W})
		default:
			if set[R] {
				out = append(out, Request{Path: p, Mode: R})
			}
			if set[IW] {
				out = append(out, Request{Path: p, Mode: IW})
			}
			if set[IR] && !set[R] && !set[IW] {
				out = append(out, Request{Path: p, Mode: IR})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

func ancestors(path string) []string {
	var out []string
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			out = append(out, path[:i])
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
	full := ExpandRequests(reqs)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range full {
		for other, h := range m.nodes[r.Path] {
			if other == owner {
				continue
			}
			for held := range h.modes {
				if !compatible(r.Mode, held) {
					return &ConflictError{Path: r.Path, Requested: r.Mode, Holder: other, Held: held}
				}
			}
		}
	}
	for _, r := range full {
		byOwner, ok := m.nodes[r.Path]
		if !ok {
			byOwner = make(map[string]*holder)
			m.nodes[r.Path] = byOwner
		}
		h, ok := byOwner[owner]
		if !ok {
			h = &holder{modes: make(map[Mode]int)}
			byOwner[owner] = h
		}
		h.modes[r.Mode]++
		paths, ok := m.owned[owner]
		if !ok {
			paths = make(map[string]bool)
			m.owned[owner] = paths
		}
		paths[r.Path] = true
	}
	return nil
}

// WouldConflict reports whether Acquire would fail, without acquiring.
// The controller uses this during simulation replay on recovery.
func (m *Manager) WouldConflict(owner string, reqs []Request) *ConflictError {
	full := ExpandRequests(reqs)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range full {
		for other, h := range m.nodes[r.Path] {
			if other == owner {
				continue
			}
			for held := range h.modes {
				if !compatible(r.Mode, held) {
					return &ConflictError{Path: r.Path, Requested: r.Mode, Holder: other, Held: held}
				}
			}
		}
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
	full := ExpandRequests(reqs)
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool)
	var out []*ConflictError
	for _, r := range full {
		for other, h := range m.nodes[r.Path] {
			if other == owner {
				continue
			}
			for held := range h.modes {
				if compatible(r.Mode, held) {
					continue
				}
				key := r.Path + "\x00" + other
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, &ConflictError{Path: r.Path, Requested: r.Mode, Holder: other, Held: held})
			}
		}
	}
	return out
}

// ReleaseAll frees every lock held by owner (transaction cleanup, step 5
// in Figure 2).
func (m *Manager) ReleaseAll(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for path := range m.owned[owner] {
		byOwner := m.nodes[path]
		delete(byOwner, owner)
		if len(byOwner) == 0 {
			delete(m.nodes, path)
		}
	}
	delete(m.owned, owner)
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
	for _, byOwner := range m.nodes {
		n += len(byOwner)
	}
	return n
}

// Dump renders the lock table for debugging.
func (m *Manager) Dump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.nodes))
	for p := range m.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s:", p)
		owners := make([]string, 0, len(m.nodes[p]))
		for o := range m.nodes[p] {
			owners = append(owners, o)
		}
		sort.Strings(owners)
		for _, o := range owners {
			for mode, cnt := range m.nodes[p][o].modes {
				if cnt > 0 {
					fmt.Fprintf(&b, " %s=%s", o, mode)
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
