package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// checkIndex verifies the structural invariants of a child index and
// that it holds exactly the children map's names and nodes.
func checkIndex(t *testing.T, n *znode) {
	t.Helper()
	var all []string
	for k, c := range n.index.chunks {
		if len(c) == 0 || len(c) > chunkCap {
			t.Fatalf("chunk %d holds %d names, want 1..%d", k, len(c), chunkCap)
		}
		for _, en := range c {
			if en.node != n.children[en.name] || en.node.name != en.name {
				t.Fatalf("index entry %q does not hold the child of that name", en.name)
			}
			all = append(all, en.name)
		}
	}
	if !slices.IsSorted(all) || len(slices.Compact(slices.Clone(all))) != len(all) {
		t.Fatalf("index names not strictly ascending")
	}
	if len(all) != len(n.children) {
		t.Fatalf("index holds %d names, children map %d", len(all), len(n.children))
	}
	for _, name := range all {
		if _, ok := n.children[name]; !ok {
			t.Fatalf("index name %q not in the children map", name)
		}
	}
}

// wantPage is the reference page: the sorted keys of the model after
// `after`, at most limit of them.
func wantPage(sorted []string, after string, limit int) []string {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > after })
	out := sorted[i:]
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// checkPages compares ChildrenPage and Children with the model on
// seeded cursors and limits, and the tree's index with its invariants.
func checkPages(t *testing.T, e *Ensemble, c *Client, dir string, model map[string]bool, rng *rand.Rand) {
	t.Helper()
	sorted := make([]string, 0, len(model))
	for name := range model {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	all, err := c.Children(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(all, sorted) {
		t.Fatalf("Children = %d names, want the %d sorted keys", len(all), len(sorted))
	}
	for i := 0; i < 40; i++ {
		var after string
		switch rng.Intn(4) {
		case 0: // from the start
		case 1:
			if len(sorted) > 0 {
				after = sorted[rng.Intn(len(sorted))]
			}
		case 2:
			after = fmt.Sprintf("%c%06d", "ars"[rng.Intn(3)], rng.Intn(4000))
		default:
			after = "zzz" // past every name
		}
		limit := 1 + rng.Intn(300)
		got, _, _, err := c.ChildrenPage(dir, after, limit, c.LastWriteZxid())
		if err != nil {
			t.Fatal(err)
		}
		if want := wantPage(sorted, after, limit); !slices.Equal(got, want) {
			t.Fatalf("ChildrenPage(after=%q, limit=%d) = %v\nwant %v", after, limit, got, want)
		}
	}
	e.treeMu.RLock()
	n, err := e.tree.lookup(dir)
	if err == nil {
		checkIndex(t, n)
	}
	e.treeMu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestChildIndexPagesMatchSortedKeys is the property test of the
// ordered child index: under seeded random sequence creates, ascending
// and out-of-order creates, random deletes and queue-head deletes,
// every page equals the matching run of the sorted children, and the
// order survives recovery from a snapshot plus the WAL tail.
func TestChildIndexPagesMatchSortedKeys(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			e := openDurable(t, dir, 97)
			c := e.Connect()
			createOrFail(t, c, "/d", nil, 0)
			model := map[string]bool{}
			next := 0
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 3: // sequence node
					p, err := c.Create("/d/s", nil, FlagSequence)
					if err != nil {
						t.Fatal(err)
					}
					model[baseName(p)] = true
				case r < 5: // ascending id
					name := fmt.Sprintf("a%06d", next)
					next++
					createOrFail(t, c, "/d/"+name, nil, 0)
					model[name] = true
				case r < 7: // out of order
					name := fmt.Sprintf("r%06d", rng.Intn(4000))
					if !model[name] {
						createOrFail(t, c, "/d/"+name, nil, 0)
						model[name] = true
					}
				default: // delete: a random name, or the queue head
					if len(model) == 0 {
						continue
					}
					names, _, _, err := c.ChildrenPage("/d", "", 1, 0)
					if err != nil {
						t.Fatal(err)
					}
					victim := names[0]
					if r == 9 {
						for name := range model {
							victim = name
							break
						}
					}
					if err := c.Delete("/d/"+victim, -1); err != nil {
						t.Fatal(err)
					}
					delete(model, victim)
				}
				if op%500 == 499 {
					checkPages(t, e, c, "/d", model, rng)
				}
			}
			checkPages(t, e, c, "/d", model, rng)
			c.Close()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2 := openDurable(t, dir, 97)
			defer e2.Close()
			c2 := e2.Connect()
			defer c2.Close()
			checkPages(t, e2, c2, "/d", model, rng)
		})
	}
}

// TestChildIndexSplitsAndDrops drives one index through full-chunk
// splits at every position and deletes down to empty.
func TestChildIndexSplitsAndDrops(t *testing.T) {
	var x childIndex
	rng := rand.New(rand.NewSource(7))
	var names []string
	for _, i := range rng.Perm(5 * chunkCap) {
		name := fmt.Sprintf("n%05d", i)
		x.insert(newZnode(name))
		names = append(names, name)
	}
	sort.Strings(names)
	if got := x.appendAfter(nil, "", len(names)+1); !slices.Equal(got, names) {
		t.Fatalf("after random inserts the index is out of order")
	}
	for _, c := range x.chunks {
		if len(c) == 0 || len(c) > chunkCap {
			t.Fatalf("chunk of %d names", len(c))
		}
	}
	x.remove("absent")
	for _, i := range rng.Perm(len(names)) {
		x.remove(names[i])
	}
	if len(x.chunks) != 0 {
		t.Fatalf("%d chunks left after deleting every name", len(x.chunks))
	}
}

// TestChildIndexQueueChurnAllocatesNothing: a directory that drains
// and refills, as a work queue does on every transaction, reuses its
// chunk instead of allocating one per refill.
func TestChildIndexQueueChurnAllocatesNothing(t *testing.T) {
	var x childIndex
	nodes := []*znode{newZnode("item-0000000001"), newZnode("item-0000000002")}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		x.insert(nodes[i%2])
		x.remove(nodes[i%2].name)
		i++
	}); n != 0 {
		t.Errorf("an insert and delete on an empty index allocate %.0f times", n)
	}
}

// TestChildrenPageUnderConcurrentCommits pages a directory while
// commits create and delete its children: every page is strictly
// ascending and continues strictly after its cursor, so a walk never
// returns a name twice. Run under -race it also checks that paging
// takes only the tree's read lock correctly against applies.
func TestChildrenPageUnderConcurrentCommits(t *testing.T) {
	e := newTestEnsemble(t)
	w := e.Connect()
	defer w.Close()
	createOrFail(t, w, "/txns", nil, 0)
	for i := 0; i < 200; i++ {
		createOrFail(t, w, fmt.Sprintf("/txns/t%06d", i), nil, 0)
	}

	done := make(chan struct{})
	go func() { // writer: append new ids, delete old ones
		defer close(done)
		for i := 200; i < 3200; i++ {
			if _, err := w.Create(fmt.Sprintf("/txns/t%06d", i), nil, 0); err != nil {
				t.Error(err)
				return
			}
			if err := w.Delete(fmt.Sprintf("/txns/t%06d", i-200+rand.Intn(150)), -1); err != nil && !errors.Is(err, ErrNoNode) {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { <-done }()

	r := e.Connect()
	defer r.Close()
	for walks := 0; ; walks++ {
		select {
		case <-done:
			if walks >= 3 {
				return
			}
		default:
		}
		seen := map[string]bool{}
		after := ""
		for {
			names, _, _, err := r.ChildrenPage("/txns", after, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) == 0 {
				break
			}
			for _, name := range names {
				if name <= after || seen[name] {
					t.Fatalf("page after %q returned %q out of order or twice", after, name)
				}
				seen[name] = true
				after = name
			}
		}
	}
}

// TestChildrenPageCostIsPerPage: a 20-name page of a 10k-child
// directory allocates one slice of 20 names, not a copy of all 10k.
func TestChildrenPageCostIsPerPage(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	createOrFail(t, c, "/txns", nil, 0)
	for i := 0; i < 10_000; i += 100 {
		ops := make([]Op, 100)
		for j := range ops {
			ops[j] = CreateOp(fmt.Sprintf("/txns/t%06d", i+j), nil, 0)
		}
		if err := c.Multi(ops...); err != nil {
			t.Fatal(err)
		}
	}
	after := "t004999"
	page := func() {
		names, _, _, err := c.ChildrenPage("/txns", after, 20, 0)
		if err != nil || len(names) != 20 || names[0] != "t005000" {
			t.Fatalf("page = %v, %v", names, err)
		}
	}
	if n := testing.AllocsPerRun(100, page); n > 3 {
		t.Errorf("a 20-name page allocates %.0f times, want ≤ 3", n)
	}
	const runs = 1000
	var before, after2 runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		page()
	}
	runtime.ReadMemStats(&after2)
	// 20 string headers are 320 bytes; a copy of the whole directory
	// would be 160 KB.
	if per := (after2.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
		t.Errorf("a 20-name page of 10k children allocates %d bytes, want O(20 names)", per)
	}
}
