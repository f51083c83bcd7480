package shard

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/tropic/trerr"
)

// Router makes the platform's routing decisions over a Map: which
// shard owns a submission (from its path-shaped arguments), which owns
// a reconciliation target, and how the platform names what each shard
// holds — transaction ids, List cursors, data directories and
// component names.
//
// A one-shard map is the paper's deployment. Its names stay
// unqualified — ids and cursors carry no shard prefix, the store writes
// at the data directory itself, components have their plain names — so
// the data directories, ids and cursors of one-shard deployments stay
// valid. Those rules live only here, so a platform of N ≥ 1 shards runs
// one code path.
type Router struct {
	m *Map
}

// NewRouter wraps a Map.
func NewRouter(m *Map) *Router { return &Router{m: m} }

// Map exposes the underlying shard map.
func (r *Router) Map() *Map { return r.m }

// Shards returns the shard count.
func (r *Router) Shards() int { return r.m.Shards() }

// Route derives the owning shard of a submission. Every path-shaped
// argument (leading '/') contributes its resource root; roots mapping
// to different shards report trerr.ShardCrossShard — no single shard
// owns the submission, and the Planner splits it into per-shard
// children instead. A submission with no path arguments routes by its
// procedure name, so repeated invocations still land on one
// deterministic shard.
func (r *Router) Route(proc string, args []string) (int, error) {
	shard := -1
	var firstRoot string
	for _, a := range args {
		if len(a) == 0 || a[0] != '/' {
			continue
		}
		root := RootOf(a)
		s := r.m.Shard(root)
		if shard == -1 {
			shard, firstRoot = s, root
			continue
		}
		if s != shard {
			return 0, trerr.Newf(trerr.ShardCrossShard,
				"shard: transaction spans shards %d (%s) and %d (%s); "+
					"a transaction must address resources of a single shard",
				shard, firstRoot, s, root).
				With("proc", proc).With("rootA", firstRoot).With("rootB", root)
		}
	}
	if shard == -1 {
		return r.m.Shard(proc), nil
	}
	return shard, nil
}

// RouteTarget returns the shard owning a reconciliation target path.
func (r *Router) RouteTarget(target string) int {
	return r.m.Shard(RootOf(target))
}

// idSep separates the shard prefix from the shard-local id. Local ids
// ("t-0000000042", "t-s3c00000007") never start with a bare "s<digits>-"
// prefix, so the format is unambiguous.
const idPrefix = "s"

// FormatID qualifies a shard-local transaction id with its shard
// ("t-0000000042" on shard 2 → "s2-t-0000000042"). Shard-local ids are
// sequence counters scoped to one ensemble, so the same local id exists
// on every shard; the prefix is what makes ids platform-unique.
func FormatID(shard int, local string) string {
	return idPrefix + strconv.Itoa(shard) + "-" + local
}

// ParseID splits a shard-qualified id into its shard index and local
// id. ok is false for ids without a well-formed "s<shard>-" prefix or
// with a shard index outside [0, shards).
func ParseID(id string, shards int) (shard int, local string, ok bool) {
	if !strings.HasPrefix(id, idPrefix) {
		return 0, "", false
	}
	rest := id[len(idPrefix):]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 || dash == len(rest)-1 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:dash])
	if err != nil || n < 0 || n >= shards {
		return 0, "", false
	}
	return n, rest[dash+1:], true
}

// QualifyID makes shard s's local id platform-unique: FormatID's
// "s<shard>-" form on a map of several shards, the local id itself on a
// one-shard map.
func (r *Router) QualifyID(s int, local string) string {
	if r.m.shards == 1 {
		return local
	}
	return FormatID(s, local)
}

// Requalify returns QualifyID(s, local) for an id ResolveID split into
// s and local, reusing id itself when it is in that form already, so the
// common lookup allocates nothing. An id with a non-canonical shard
// prefix ("s01-", "s+1-") is rebuilt.
func (r *Router) Requalify(id string, s int, local string) string {
	prefix, ok := strings.CutSuffix(id, local)
	if ok && (r.m.shards == 1 && prefix == "" || r.m.shards > 1 && prefix == idPrefix+strconv.Itoa(s)+"-") {
		return id
	}
	return r.QualifyID(s, local)
}

// ResolveID inverts QualifyID: the shard owning a platform id and the
// id local to it. ok is false for an id of a multi-shard map without a
// well-formed "s<shard>-" prefix (see ParseID); on a one-shard map
// every id is local to shard 0.
func (r *Router) ResolveID(id string) (s int, local string, ok bool) {
	if r.m.shards == 1 {
		return 0, id, true
	}
	return ParseID(id, r.m.shards)
}

// FormatCursor encodes a List position: after the local id local of
// shard s ("s<shard>:<local>" on a map of several shards, where the
// walk goes shard by shard; the local id itself on a one-shard map).
// The format is opaque to callers: cursors round-trip.
func (r *Router) FormatCursor(s int, local string) string {
	if r.m.shards == 1 {
		return local
	}
	return idPrefix + strconv.Itoa(s) + ":" + local
}

// ParseCursor inverts FormatCursor. ok is false for a malformed cursor
// or one naming a shard outside the map.
func (r *Router) ParseCursor(cursor string) (s int, local string, ok bool) {
	if r.m.shards == 1 {
		return 0, cursor, true
	}
	rest, found := strings.CutPrefix(cursor, idPrefix)
	if !found {
		return 0, "", false
	}
	digits, local, found := strings.Cut(rest, ":")
	if !found || digits == "" {
		return 0, "", false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || n >= r.m.shards {
		return 0, "", false
	}
	return n, local, true
}

// Dir is shard i's durable-store directory under base: base itself on a
// one-shard map, base/shard-NN otherwise. An empty base (an in-memory
// store) stays empty.
func (r *Router) Dir(base string, i int) string {
	if base == "" || r.m.shards == 1 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("shard-%02d", i))
}

// NamePrefix prefixes the names of shard i's components ("s1-ctrl-0"),
// so logs attribute cleanly; empty on a one-shard map.
func (r *Router) NamePrefix(i int) string {
	if r.m.shards == 1 {
		return ""
	}
	return idPrefix + strconv.Itoa(i) + "-"
}
