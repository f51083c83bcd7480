// Package shard partitions the orchestration platform horizontally: a
// consistent-hash Map assigns transaction resource-root paths to N
// independent shards (each a full ensemble + controller + worker
// pipeline), and a Router derives the owning shard of a submission from
// its arguments and formats/parses shard-qualified transaction ids.
//
// The unit of placement is the RESOURCE ROOT — the host-level node of a
// model path ("/vmRoot/vmHost00003/vm7" roots at "/vmRoot/vmHost00003")
// — so every transaction on a host lands on the same shard regardless
// of which of its descendants it touches. Each shard is an independent
// ACID domain: a transaction whose resource roots map to different
// shards has no owning shard (Router.Route reports
// trerr.ShardCrossShard), and the Planner splits it into one child per
// participant shard for two-phase commit, so atomicity across shards is
// explicit rather than silently weakened.
package shard

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the ring points each shard contributes. More
// virtual nodes flatten the key distribution (the balance property
// test pins the achieved tolerance) at the cost of a larger ring; 128
// keeps per-shard load within a few percent of uniform for realistic
// host counts.
const DefaultVirtualNodes = 128

// Map consistent-hashes string keys (resource roots) onto shard
// indexes [0, Shards). It is immutable after construction and safe for
// concurrent use.
//
// The ring construction is growth-stable: shard i's virtual nodes hash
// the same positions regardless of how many shards exist, so resizing
// N→N+1 only moves the keys the new shard's points capture (≈ 1/(N+1)
// of the space) — everything else stays put. The minimal-movement
// property test pins this.
type Map struct {
	shards int
	ring   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewMap builds a map over n shards with DefaultVirtualNodes ring
// points per shard. n < 1 is treated as 1.
func NewMap(n int) *Map { return NewMapVirtual(n, DefaultVirtualNodes) }

// NewMapVirtual builds a map with an explicit virtual-node count per
// shard (for tests probing the balance/vnode trade-off).
func NewMapVirtual(n, vnodes int) *Map {
	if n < 1 {
		n = 1
	}
	if vnodes < 1 {
		vnodes = 1
	}
	m := &Map{shards: n, ring: make([]ringPoint, 0, n*vnodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			m.ring = append(m.ring, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d#vn-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		// Ties (astronomically rare with 64-bit hashes) break
		// deterministically toward the lower shard so every Map built
		// with the same parameters routes identically.
		return m.ring[i].shard < m.ring[j].shard
	})
	return m
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.shards }

// Shard maps a key to its owning shard: the first ring point at or
// clockwise-after the key's hash.
func (m *Map) Shard(key string) int {
	if m.shards == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0 // wrap around the ring
	}
	return m.ring[i].shard
}

// hashKey is FNV-1a 64 with a murmur-style finalizer. FNV alone
// clusters its high bits on short, similar strings (host names, vnode
// labels), which skews ring arcs badly; the avalanche mix spreads the
// points uniformly. Deliberately seed-free and process-independent:
// ids and cursors embed shard indexes, so routing must be a pure
// function of the key.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return fmix64(h)
}

// fmix64 is MurmurHash3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// RootOf extracts the resource root of a model path: its first two
// components ("/vmRoot/vmHost00003/vm7" → "/vmRoot/vmHost00003"). A
// single-component path roots at itself; non-path strings (no leading
// slash) are returned unchanged and hash as opaque keys.
func RootOf(path string) string {
	if len(path) == 0 || path[0] != '/' {
		return path
	}
	// Skip the leading slash, then keep through the second component.
	i := strings.IndexByte(path[1:], '/')
	if i < 0 {
		return path // "/vmRoot"
	}
	j := strings.IndexByte(path[i+2:], '/')
	if j < 0 {
		return path // "/vmRoot/vmHost00003"
	}
	return path[:i+2+j]
}
