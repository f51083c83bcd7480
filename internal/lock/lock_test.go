package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCompatibilityMatrix(t *testing.T) {
	// Paper footnote 1: IW conflicts with R/W; IR conflicts with W.
	cases := []struct {
		a, b Mode
		ok   bool
	}{
		{IR, IR, true}, {IR, IW, true}, {IR, R, true}, {IR, W, false},
		{IW, IR, true}, {IW, IW, true}, {IW, R, false}, {IW, W, false},
		{R, IR, true}, {R, IW, false}, {R, R, true}, {R, W, false},
		{W, IR, false}, {W, IW, false}, {W, R, false}, {W, W, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.ok {
			t.Errorf("compatible(%s,%s) = %v, want %v", c.a, c.b, got, c.ok)
		}
	}
}

func TestExpandAddsIntentionLocks(t *testing.T) {
	reqs := ExpandRequests([]Request{{Path: "/a/b/c", Mode: W}})
	want := map[string]Mode{"/a": IW, "/a/b": IW, "/a/b/c": W}
	if len(reqs) != len(want) {
		t.Fatalf("expanded = %v", reqs)
	}
	for _, r := range reqs {
		if want[r.Path] != r.Mode {
			t.Errorf("got %s on %s, want %s", r.Mode, r.Path, want[r.Path])
		}
	}
}

func TestExpandSIXCombination(t *testing.T) {
	// R on a subtree + W inside it must keep both R and IW on the
	// subtree root (SIX), not collapse to one.
	reqs := ExpandRequests([]Request{
		{Path: "/a/b", Mode: R},
		{Path: "/a/b/c", Mode: W},
	})
	var modes []Mode
	for _, r := range reqs {
		if r.Path == "/a/b" {
			modes = append(modes, r.Mode)
		}
	}
	if len(modes) != 2 {
		t.Fatalf("modes on /a/b = %v, want [R IW] pair", modes)
	}
	hasR, hasIW := false, false
	for _, m := range modes {
		hasR = hasR || m == R
		hasIW = hasIW || m == IW
	}
	if !hasR || !hasIW {
		t.Fatalf("modes on /a/b = %v, want R and IW", modes)
	}
}

func TestExpandWSubsumes(t *testing.T) {
	reqs := ExpandRequests([]Request{
		{Path: "/a", Mode: W},
		{Path: "/a", Mode: R},
		{Path: "/a", Mode: IR},
	})
	if len(reqs) != 1 || reqs[0].Mode != W {
		t.Fatalf("expanded = %v, want single W", reqs)
	}
}

func TestAcquireConflictAndRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("t1", []Request{{Path: "/vmRoot/h1/vm1", Mode: W}}); err != nil {
		t.Fatalf("t1 acquire: %v", err)
	}
	// Same leaf: conflict.
	err := m.Acquire("t2", []Request{{Path: "/vmRoot/h1/vm1", Mode: W}})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("t2 acquire err = %v, want ConflictError", err)
	}
	if ce.Holder != "t1" {
		t.Fatalf("conflict holder = %s", ce.Holder)
	}
	// Sibling leaf: compatible via intention locks.
	if err := m.Acquire("t2", []Request{{Path: "/vmRoot/h1/vm2", Mode: W}}); err != nil {
		t.Fatalf("sibling acquire: %v", err)
	}
	// Subtree read conflicts with existing descendant write.
	if err := m.Acquire("t3", []Request{{Path: "/vmRoot/h1", Mode: R}}); err == nil {
		t.Fatal("R over written subtree granted")
	}
	m.ReleaseAll("t1")
	m.ReleaseAll("t2")
	if err := m.Acquire("t3", []Request{{Path: "/vmRoot/h1", Mode: R}}); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	m.ReleaseAll("t3")
	if m.LockCount() != 0 || m.OwnerCount() != 0 {
		t.Fatalf("locks leaked: %s", m.Dump())
	}
}

func TestAllOrNothingAcquire(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("t1", []Request{{Path: "/a/x", Mode: W}}); err != nil {
		t.Fatal(err)
	}
	before := m.LockCount()
	// t2 wants a free leaf AND a conflicting one: nothing may be granted.
	err := m.Acquire("t2", []Request{
		{Path: "/a/free", Mode: W},
		{Path: "/a/x", Mode: R},
	})
	if err == nil {
		t.Fatal("conflicting batch granted")
	}
	if m.LockCount() != before {
		t.Fatalf("partial grant: %s", m.Dump())
	}
}

func TestSelfCompatibility(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("t1", []Request{{Path: "/a/b", Mode: W}}); err != nil {
		t.Fatal(err)
	}
	// Same owner re-requests overlapping and stronger locks: fine.
	if err := m.Acquire("t1", []Request{{Path: "/a/b", Mode: R}, {Path: "/a", Mode: R}}); err != nil {
		t.Fatalf("self re-acquire: %v", err)
	}
}

func TestReadersShareWritersDont(t *testing.T) {
	m := NewManager()
	for i := 0; i < 5; i++ {
		owner := fmt.Sprintf("r%d", i)
		if err := m.Acquire(owner, []Request{{Path: "/a/b", Mode: R}}); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if err := m.Acquire("w", []Request{{Path: "/a/b", Mode: W}}); err == nil {
		t.Fatal("writer admitted among readers")
	}
	if err := m.Acquire("w", []Request{{Path: "/a/c", Mode: W}}); err != nil {
		t.Fatalf("writer on free sibling: %v", err)
	}
}

func TestConstraintAncestorReadLockBlocksDescendantWrites(t *testing.T) {
	// The scheduler takes R on the highest constrained ancestor of a
	// write (e.g. the vmHost for a VM spawn). Another transaction
	// writing any descendant must then be deferred.
	m := NewManager()
	err := m.Acquire("t1", []Request{
		{Path: "/vmRoot/h1", Mode: R},     // constraint ancestor
		{Path: "/vmRoot/h1/vm1", Mode: W}, // the write itself
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("t2", []Request{{Path: "/vmRoot/h1/vm2", Mode: W}}); err == nil {
		t.Fatal("descendant write admitted under constraint R lock")
	}
	// A pure reader of another VM is fine (R ‖ R, IR ‖ IW-free).
	if err := m.Acquire("t3", []Request{{Path: "/vmRoot/h1/vm1", Mode: R}}); err == nil {
		t.Fatal("read of W-locked vm admitted")
	}
	if err := m.Acquire("t4", []Request{{Path: "/vmRoot/h2/vmX", Mode: W}}); err != nil {
		t.Fatalf("unrelated host write: %v", err)
	}
}

func TestWouldConflictDoesNotAcquire(t *testing.T) {
	m := NewManager()
	m.Acquire("t1", []Request{{Path: "/a", Mode: W}})
	if ce := m.WouldConflict("t2", []Request{{Path: "/a", Mode: R}}); ce == nil {
		t.Fatal("WouldConflict missed conflict")
	}
	if ce := m.WouldConflict("t1", []Request{{Path: "/a", Mode: R}}); ce != nil {
		t.Fatalf("self WouldConflict: %v", ce)
	}
	// WouldConflict must not change the lock table: only t1's W on /a.
	if m.LockCount() != 1 {
		t.Fatalf("WouldConflict acquired locks: %s", m.Dump())
	}
}

// Property: after any sequence of acquires and releases, no two distinct
// owners hold incompatible modes on the same path.
func TestInvariantNoIncompatibleHolders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		paths := []string{"/a", "/a/b", "/a/b/c", "/a/d", "/e", "/e/f"}
		modes := []Mode{R, W, IR, IW}
		owners := []string{"t1", "t2", "t3"}
		for i := 0; i < 200; i++ {
			owner := owners[rng.Intn(len(owners))]
			if rng.Intn(5) == 0 {
				m.ReleaseAll(owner)
				continue
			}
			req := Request{Path: paths[rng.Intn(len(paths))], Mode: modes[rng.Intn(len(modes))]}
			_ = m.Acquire(owner, []Request{req}) // conflicts allowed to fail
		}
		// Verify invariant over the final table.
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, hs := range m.nodes {
			type hm struct {
				owner string
				mode  Mode
			}
			var all []hm
			for _, h := range hs {
				for mode := IR; mode <= W; mode++ {
					if h.modes&mode.bit() != 0 {
						all = append(all, hm{h.owner, mode})
					}
				}
			}
			for i := 0; i < len(all); i++ {
				for j := i + 1; j < len(all); j++ {
					if all[i].owner != all[j].owner && !compatible(all[i].mode, all[j].mode) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAcquireRelease(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			owner := fmt.Sprintf("t%d", id)
			path := fmt.Sprintf("/root/h%d/vm", id%4)
			for i := 0; i < 100; i++ {
				if err := m.Acquire(owner, []Request{{Path: path, Mode: W}}); err == nil {
					m.ReleaseAll(owner)
				}
			}
		}(w)
	}
	wg.Wait()
	// At most the final holders remain; release them all.
	for w := 0; w < 8; w++ {
		m.ReleaseAll(fmt.Sprintf("t%d", w))
	}
	if m.LockCount() != 0 {
		t.Fatalf("locks leaked: %s", m.Dump())
	}
}

// expandReference is the map-based expansion the flat one replaced: a
// mode set per path and ancestor, reduced per path, sorted.
func expandReference(reqs []Request) []Request {
	modes := make(map[string]map[Mode]bool)
	add := func(path string, m Mode) {
		if modes[path] == nil {
			modes[path] = make(map[Mode]bool, 2)
		}
		modes[path][m] = true
	}
	for _, r := range reqs {
		add(r.Path, r.Mode)
		intent := IR
		if r.Mode == W || r.Mode == IW {
			intent = IW
		}
		for i := 1; i < len(r.Path); i++ {
			if r.Path[i] == '/' {
				add(r.Path[:i], intent)
			}
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

// decodeRequests turns fuzz bytes into requests: each ';'-separated
// field is a mode digit followed by a path, so out-of-range modes,
// empty paths and doubled slashes all occur.
func decodeRequests(data string) []Request {
	var reqs []Request
	for _, f := range strings.Split(data, ";") {
		if f == "" {
			continue
		}
		reqs = append(reqs, Request{Path: f[1:], Mode: Mode(int(f[0]) - '0')})
	}
	return reqs
}

// FuzzExpandRequests: the flat expansion yields the reference's requests
// in the reference's order, for any input.
func FuzzExpandRequests(f *testing.F) {
	for _, seed := range []string{
		"3/a/b/c",
		"2/a/b;3/a/b/c",
		"3/a;2/a;0/a",
		"2/vmRoot/h1;3/vmRoot/h1/vm1;3/storageRoot/s1",
		"0/a/b;1/a/c;2/a;9/a/d;7/e",
		"3/a//b/;2;1/",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		reqs := decodeRequests(data)
		got, want := ExpandRequests(reqs), expandReference(reqs)
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ExpandRequests(%v)\n got %v\nwant %v", reqs, got, want)
		}
		m := NewManager()
		m.mu.Lock()
		scratch := m.conflicts("t", reqs, -1)
		m.mu.Unlock()
		if len(scratch) != 0 || !reflect.DeepEqual(m.expanded, got) {
			t.Fatalf("scratch expansion %v, want %v", m.expanded, got)
		}
	})
}

// TestAcquireAllocs pins the allocations of a spawn-shaped admission (a
// W on a storage host and a compute host, R on the constrained host) and
// its release, once the table has settled: the scratch expansion and the
// recycled holder and path slices leave only map upkeep.
func TestAcquireAllocs(t *testing.T) {
	m := NewManager()
	// Three transactions in flight on other hosts share the roots.
	for i := 0; i < 3; i++ {
		if err := m.Acquire(fmt.Sprintf("bg%d", i), []Request{
			{Path: fmt.Sprintf("/vmRoot/vmHost%05d", i), Mode: W},
			{Path: fmt.Sprintf("/storageRoot/storageHost%04d", i), Mode: W},
		}); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []Request{
		{Path: "/storageRoot/storageHost0009", Mode: W},
		{Path: "/vmRoot/vmHost00009", Mode: W},
		{Path: "/vmRoot/vmHost00009", Mode: R},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Acquire("t-9", reqs); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll("t-9")
	})
	if allocs > 1 {
		t.Fatalf("Acquire+ReleaseAll = %.1f allocs, want at most 1", allocs)
	}
	if m.OwnerCount() != 3 || m.LockCount() != 3*4 {
		t.Fatalf("table after the run: %s", m.Dump())
	}
}

// TestConflictsOnePerPathHolder: Conflicts reports each blocking holder
// once per path, even where the request set asks two modes of that path
// (SIX) and the holder blocks both, and lists every distinct holder.
func TestConflictsOnePerPathHolder(t *testing.T) {
	m := NewManager()
	for _, o := range []string{"a", "b"} {
		if err := m.Acquire(o, []Request{{Path: "/h/" + o, Mode: W}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire("c", []Request{{Path: "/h", Mode: R}}); err == nil {
		t.Fatal("R over written subtree granted")
	}
	// R on /h plus W below it asks {IW, R} on /h: a and b (IW holders)
	// block the R; /h/a and /h/b block the W.
	got := m.Conflicts("t", []Request{{Path: "/h", Mode: R}, {Path: "/h/a", Mode: W}, {Path: "/h/b", Mode: W}})
	var pairs []string
	for _, ce := range got {
		pairs = append(pairs, fmt.Sprintf("%s@%s:%s/%s", ce.Holder, ce.Path, ce.Requested, ce.Held))
	}
	want := []string{"a@/h:R/IW", "b@/h:R/IW", "a@/h/a:W/W", "b@/h/b:W/W"}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("conflicts = %v, want %v", pairs, want)
	}
	if ce := m.WouldConflict("t", []Request{{Path: "/h", Mode: R}}); ce == nil || ce.Holder != "a" {
		t.Fatalf("first conflict = %v, want holder a", ce)
	}
}
