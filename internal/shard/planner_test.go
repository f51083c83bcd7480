package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/tropic/trerr"
)

// randomLocalID generates ids shaped like the platform's real local
// ids: store-sequence ("t-0000000042"), batched client-generated
// ("t-s3fc00000007"), and cross-shard parent ("t-xa1c00000003") forms.
func randomLocalID(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("t-%010d", rng.Intn(1_000_000))
	case 1:
		return fmt.Sprintf("t-s%xc%08d", rng.Int63n(1<<20), rng.Intn(1_000_000))
	default:
		return fmt.Sprintf("t-x%xc%08d", rng.Int63n(1<<20), rng.Intn(1_000_000))
	}
}

// TestIDRoundTripProperty: FormatID/ParseID round-trip every realistic
// (shard, local) pair, and ParseID rejects what FormatID never emits.
func TestIDRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		shards := 1 + rng.Intn(16)
		s := rng.Intn(shards)
		local := randomLocalID(rng)
		id := FormatID(s, local)
		gs, glocal, ok := ParseID(id, shards)
		if !ok || gs != s || glocal != local {
			t.Fatalf("round-trip (%d, %q) → %q → (%d, %q, %v)", s, local, id, gs, glocal, ok)
		}
		// A shard index at or beyond the shard count never parses.
		if _, _, ok := ParseID(FormatID(shards, local), shards); ok {
			t.Fatalf("ParseID accepted out-of-range shard %d of %d", shards, shards)
		}
	}
	for _, bad := range []string{"", "t-42", "s-t-1", "sx-t-1", "s1", "s1-", "1-t-5"} {
		if _, _, ok := ParseID(bad, 8); ok {
			t.Errorf("ParseID(%q) = ok, want reject", bad)
		}
	}
}

// TestChildIDRoundTripProperty: ChildID/ParseChildID round-trip over
// random parents and indexes, and plain ids never parse as children.
func TestChildIDRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		parent := FormatID(rng.Intn(8), randomLocalID(rng))
		k := rng.Intn(64)
		id := ChildID(parent, k)
		gp, gk, ok := ParseChildID(id)
		if !ok || gp != parent || gk != k {
			t.Fatalf("round-trip (%q, %d) → %q → (%q, %d, %v)", parent, k, id, gp, gk, ok)
		}
		if !IsChildID(id) {
			t.Fatalf("IsChildID(%q) = false", id)
		}
		// The parent itself is never a child id.
		if IsChildID(parent) {
			t.Fatalf("IsChildID(%q) = true for a parent", parent)
		}
	}
	for _, bad := range []string{"", "t-42", "s0-t-42", ".c1", "x.c", "x.c-1", "x.c1x", "t-s3c00000007"} {
		if _, _, ok := ParseChildID(bad); ok {
			t.Errorf("ParseChildID(%q) = ok, want reject", bad)
		}
	}
}

// TestRouteByProcDeterministic: submissions with no path-shaped
// arguments route deterministically by procedure name — equal inputs
// agree across independently built routers, and Split concurs.
func TestRouteByProcDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		shards := 1 + rng.Intn(12)
		proc := fmt.Sprintf("proc%d", rng.Intn(50))
		args := []string{"novalue", fmt.Sprint(rng.Intn(100))} // nothing path-shaped
		a := NewRouter(NewMap(shards))
		b := NewRouter(NewMap(shards))
		sa, err := a.Route(proc, args)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Route(proc, args)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("proc %q routed to %d and %d on identical maps", proc, sa, sb)
		}
		split := NewPlanner(a.Map()).Split(proc, args)
		if len(split.Shards) != 1 || split.Shards[0] != sa {
			t.Fatalf("Split(%q) = %v, Route = %d", proc, split.Shards, sa)
		}
	}
}

// randomPaths builds arg lists mixing path-shaped and opaque arguments.
func randomPaths(rng *rand.Rand) []string {
	n := 1 + rng.Intn(5)
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			args = append(args, fmt.Sprintf("opaque%d", rng.Intn(10)))
			continue
		}
		root := fmt.Sprintf("/vmRoot/host%05d", rng.Intn(40))
		if rng.Intn(2) == 0 {
			root += fmt.Sprintf("/vm%d", rng.Intn(8))
		}
		args = append(args, root)
	}
	return args
}

// TestRouteAgreesWithSplit: for every input, Route and Split agree —
// single-shard plans route to exactly Split's coordinator, and
// cross-shard plans are exactly the inputs Route rejects with
// shard.cross_shard.
func TestRouteAgreesWithSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	crossSeen := 0
	for i := 0; i < 3000; i++ {
		shards := 1 + rng.Intn(8)
		m := NewMap(shards)
		r, p := NewRouter(m), NewPlanner(m)
		proc := fmt.Sprintf("proc%d", rng.Intn(10))
		args := randomPaths(rng)
		split := p.Split(proc, args)
		routed, err := r.Route(proc, args)
		if split.CrossShard() {
			crossSeen++
			if !errors.Is(err, trerr.ShardCrossShard) {
				t.Fatalf("Split spans %v but Route(%q, %v) = (%d, %v)", split.Shards, proc, args, routed, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Route(%q, %v) = %v with single-shard split %v", proc, args, err, split.Shards)
		}
		if routed != split.Coordinator() {
			t.Fatalf("Route(%q, %v) = %d, Split coordinator = %d", proc, args, routed, split.Coordinator())
		}
	}
	if crossSeen == 0 {
		t.Fatal("generator produced no cross-shard inputs; property vacuous")
	}
}

// TestSplitPartition: Split's participants are exactly the sorted set
// of the shards owning the submission's distinct resource roots (the
// procedure name's owner for a path-free submission), and the
// coordinator is the lowest.
func TestSplitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 1000; i++ {
		shards := 1 + rng.Intn(8)
		m := NewMap(shards)
		p := NewPlanner(m)
		args := randomPaths(rng)
		split := p.Split("proc", args)
		owners := make(map[int]bool)
		for _, a := range args {
			if len(a) != 0 && a[0] == '/' {
				owners[m.Shard(RootOf(a))] = true
			}
		}
		if len(owners) == 0 {
			owners[m.Shard("proc")] = true
		}
		want := make([]int, 0, len(owners))
		for s := range owners {
			want = append(want, s)
		}
		sort.Ints(want)
		if !slices.Equal(split.Shards, want) {
			t.Fatalf("Split(%v).Shards = %v, want the owners %v", args, split.Shards, want)
		}
		if split.Coordinator() != split.Shards[0] {
			t.Fatalf("coordinator %d != lowest participant %d", split.Coordinator(), split.Shards[0])
		}
	}
}

// BenchmarkPlannerSplit times one spawnVM-shaped Split, the call every
// submission makes: a storage host and a compute host path plus two
// plain arguments. At one shard it allocates only the participant list.
func BenchmarkPlannerSplit(b *testing.B) {
	args := []string{"/storageRoot/storageHost0000", "/vmRoot/vmHost00000", "vm1", "1024"}
	for _, shards := range []int{1, 2} {
		p := NewPlanner(NewMap(shards))
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := p.Split("spawnVM", args); len(s.Shards) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// TestPlannerSplitAllocs pins BenchmarkPlannerSplit's one-shard figure:
// a single-shard submission pays one allocation for its plan.
func TestPlannerSplitAllocs(t *testing.T) {
	args := []string{"/storageRoot/storageHost0000", "/vmRoot/vmHost00000", "vm1", "1024"}
	p := NewPlanner(NewMap(1))
	if n := testing.AllocsPerRun(100, func() { p.Split("spawnVM", args) }); n > 1 {
		t.Fatalf("one-shard Split: %v allocs/op, want ≤ 1", n)
	}
}
