package shard

import (
	"strconv"
	"strings"

	"repro/tropic/trerr"
)

// Router makes the platform's routing decisions over a Map: which
// shard owns a submission (from its path-shaped arguments), which owns
// a reconciliation target, and how shard-qualified transaction ids are
// formatted and parsed.
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
