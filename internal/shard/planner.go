package shard

import (
	"slices"
	"strconv"
	"strings"
)

// Planner turns a submission into a cross-shard execution plan: which
// shards participate (the owners of the submission's resource roots),
// which of them coordinates the two-phase commit (the lowest-numbered
// participant), and how the per-shard sub-transactions — "children" —
// are named. Where Router.Route answers "which single shard owns this
// submission, if any", Planner.Split answers the general question and
// never rejects: a single-shard submission yields a one-participant
// plan, identical to Route's answer.
type Planner struct {
	m *Map
}

// NewPlanner wraps a Map.
func NewPlanner(m *Map) *Planner { return &Planner{m: m} }

// Split is a submission's placement plan.
type Split struct {
	// Shards are the participating shard indexes in ascending order.
	// Shards[0] is the coordinator: the durable parent record (and the
	// 2PC decision) live on it.
	Shards []int
}

// CrossShard reports whether the plan spans more than one shard.
func (s Split) CrossShard() bool { return len(s.Shards) > 1 }

// Coordinator returns the default coordinating shard: the
// lowest-numbered participant.
func (s Split) Coordinator() int { return s.Shards[0] }

// CoordinatorFor picks the participant that coordinates a submission
// with the given identity (its procedure and arguments): an FNV-1a
// hash spreads the 2PC hot path — parent record, vote ledger, decision
// write, finalize — across the participants instead of concentrating
// every plan's coordination on its lowest-numbered shard (at two
// shards that would make shard 0 coordinate ALL spanning work). The
// choice is deterministic per (proc, args), so idempotent
// resubmissions place their key claim on the same shard; every other
// component derives the coordinator from the parent id prefix and
// needs no policy agreement.
func (s Split) CoordinatorFor(proc string, args []string) int {
	if len(s.Shards) == 1 {
		return s.Shards[0]
	}
	h := uint32(2166136261)
	mix := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint32(str[i])
			h *= 16777619
		}
		h ^= 0xff // separator: ("ab","c") != ("a","bc")
		h *= 16777619
	}
	mix(proc)
	for _, a := range args {
		mix(a)
	}
	return s.Shards[h%uint32(len(s.Shards))]
}

// Split derives the plan of a submission from its path-shaped
// arguments: every argument with a leading '/' contributes its resource
// root, and each distinct root adds the shard owning it. A submission
// with no path arguments routes by its procedure name, exactly like
// Router.Route, so repeated invocations land on one deterministic
// shard. Every submission goes through it, so it allocates only the
// participant list: submissions carry a handful of arguments, and a
// linear scan dedupes them.
func (p *Planner) Split(proc string, args []string) Split {
	shards := make([]int, 0, 2) // most plans span one shard or two
	for i, a := range args {
		if len(a) == 0 || a[0] != '/' {
			continue
		}
		root := RootOf(a)
		if rootSeen(args[:i], root) {
			continue
		}
		shards = addShard(shards, p.m.Shard(root))
	}
	if len(shards) == 0 {
		shards = addShard(shards, p.m.Shard(proc))
	}
	return Split{Shards: shards}
}

// rootSeen reports whether one of the path arguments in args has the
// resource root root.
func rootSeen(args []string, root string) bool {
	for _, a := range args {
		if len(a) != 0 && a[0] == '/' && RootOf(a) == root {
			return true
		}
	}
	return false
}

// addShard inserts s into the ascending set shards.
func addShard(shards []int, s int) []int {
	i := 0
	for i < len(shards) && shards[i] < s {
		i++
	}
	if i < len(shards) && shards[i] == s {
		return shards
	}
	return slices.Insert(shards, i, s)
}

// ParentLocalPrefix prefixes the client-generated local id of every
// cross-shard parent ("t-x<session>c<seq>"). Single-shard local ids are
// store-sequence ("t-0000000042") or batched client-generated
// ("t-s<session>c<seq>") and never start with it, so a parent is
// recognizable from its id alone — no record read needed.
const ParentLocalPrefix = "t-x"

// IsParentLocal reports whether a shard-local id names a cross-shard
// parent.
func IsParentLocal(local string) bool {
	return strings.HasPrefix(local, ParentLocalPrefix)
}

// childSep separates a parent transaction id from a child index. Parent
// ids never contain a dot, so the rightmost ".c<digits>" suffix is
// unambiguous.
const childSep = ".c"

// ChildID names the k'th child of a cross-shard parent. The parent id
// is the shard-qualified id returned by Submit ("s0-t-ab12c00000001"),
// so child ids are platform-unique and deterministic: every component —
// client, coordinator, participants — derives the same names from the
// plan without further coordination. The child's record is stored under
// this full id on its PARTICIPANT shard (which the parent record's
// child ledger names); the "s<coordinator>-" prefix locates the parent,
// not the child.
func ChildID(parent string, k int) string {
	return parent + childSep + strconv.Itoa(k)
}

// ParseChildID splits a child id into its parent id and child index.
// ok is false for ids without a well-formed ".c<digits>" suffix.
func ParseChildID(id string) (parent string, k int, ok bool) {
	i := strings.LastIndex(id, childSep)
	if i <= 0 || i+len(childSep) >= len(id) {
		return "", 0, false
	}
	digits := id[i+len(childSep):]
	for j := 0; j < len(digits); j++ {
		if digits[j] < '0' || digits[j] > '9' {
			return "", 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return "", 0, false
	}
	return id[:i], n, true
}

// IsChildID reports whether id names a cross-shard child.
func IsChildID(id string) bool {
	_, _, ok := ParseChildID(id)
	return ok
}

// PrepareLess defines the deterministic global prepare order over
// cross-shard children: by parent id (lexicographic — parent ids embed
// their coordinator shard and a client-unique sequence, so the order is
// total and identical on every shard), then by child index. Every
// participant acquiring child locks in this order cannot create a
// cross-shard lock-order inversion with another participant doing the
// same; the wound-wait path only has to resolve races that slipped in
// before both children were queued.
func PrepareLess(aID, bID string) bool {
	ap, ak, aok := ParseChildID(aID)
	bp, bk, bok := ParseChildID(bID)
	if !aok || !bok {
		return aID < bID
	}
	if ap != bp {
		return ap < bp
	}
	return ak < bk
}
