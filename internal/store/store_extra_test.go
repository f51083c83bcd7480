package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/tropic/trerr"
)

func TestWatchCreateBeforeNodeExists(t *testing.T) {
	// The election recipe watches a predecessor path that may be
	// created later; the watch must fire on creation.
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	w, err := c.NodeWatch("/later")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustCreate(t, c, "/later", "v")
	if ev := recvEvent(t, w.C()); ev.Type != EventCreated || ev.Path != "/later" {
		t.Fatalf("event = %+v", ev)
	}
}

// TestNodeWatchArmedBeforeExists: the arm-then-read pattern every waiter
// uses (election, reconcile replies, idempotency keys) misses no change
// that lands after the read, whether the node exists or not yet.
func TestNodeWatchArmedBeforeExists(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/a", "")
	w, err := c.NodeWatch("/a")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if ok, _, err := c.Exists("/a"); err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
	if err := c.Delete("/a", -1); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, w.C()); ev.Type != EventDeleted {
		t.Fatalf("event = %+v", ev)
	}
	// Non-existent path: watch fires on later create.
	w2, err := c.NodeWatch("/b")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if ok, _, err := c.Exists("/b"); err != nil || ok {
		t.Fatalf("exists missing: %v %v", ok, err)
	}
	mustCreate(t, c, "/b", "")
	if ev := recvEvent(t, w2.C()); ev.Type != EventCreated {
		t.Fatalf("event = %+v", ev)
	}
}

func TestEphemeralSequenceCombination(t *testing.T) {
	// Election candidates are ephemeral AND sequential.
	e := newTestEnsemble(t)
	c1, c2 := e.Connect(), e.Connect()
	defer c2.Close()
	mustCreate(t, c1, "/el", "")
	p1, err := c1.Create("/el/n-", []byte("a"), FlagEphemeral|FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Create("/el/n-", []byte("b"), FlagEphemeral|FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if p1 >= p2 {
		t.Fatalf("sequence order: %s >= %s", p1, p2)
	}
	c1.Close() // reaps only c1's node
	names, err := c2.Children("/el")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || "/el/"+names[0] != p2 {
		t.Fatalf("children = %v", names)
	}
}

func TestMultiWithSequenceResolution(t *testing.T) {
	// The controller's cleanup batches a sequence create (commit-log
	// entry) with sets and deletes; every replica must resolve the same
	// name.
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/log", "")
	mustCreate(t, c, "/state", "0")
	err := c.Multi(
		CreateOp("/log/c-", []byte("entry"), FlagSequence),
		SetOp("/state", []byte("1"), -1),
	)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := c.Children("/log")
	if len(names) != 1 || names[0] != "c-0000000000" {
		t.Fatalf("children = %v", names)
	}
	// All replicas agree (route reads to a different replica by
	// stopping earlier ones).
	e.StopReplica(0)
	names2, _ := c.Children("/log")
	if len(names2) != 1 || names2[0] != names[0] {
		t.Fatalf("replica divergence: %v vs %v", names2, names)
	}
}

// TestWatchFiresOnceAcrossMultipleChanges: changes made while nobody
// reads coalesce into one pending wakeup; the watch stays armed for the
// next change.
func TestWatchFiresOnceAcrossMultipleChanges(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/q", "")
	w, err := c.ChildWatch("/q")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		mustCreate(t, c, fmt.Sprintf("/q/x%d", i), "")
	}
	if ev := recvEvent(t, w.C()); ev.Type != EventChildrenChanged {
		t.Fatalf("event = %+v", ev)
	}
	select {
	case ev, ok := <-w.C():
		t.Fatalf("second delivery for one burst: %+v (open=%v)", ev, ok)
	default:
	}
	mustCreate(t, c, "/q/y", "")
	if ev := recvEvent(t, w.C()); ev.Type != EventChildrenChanged {
		t.Fatalf("event after the burst = %+v", ev)
	}
}

// TestWatchesOnOnePathAllStayArmed: one change to a path watched several
// times delivers to every watcher and leaves each armed for the next
// change; closing them returns the watch table to its baseline.
func TestWatchesOnOnePathAllStayArmed(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/q", "")
	_, base := e.WatchCounts()
	var ws []*Watch
	for i := 0; i < 3; i++ {
		w, err := c.ChildWatch("/q")
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for _, name := range []string{"/q/a", "/q/b"} {
		mustCreate(t, c, name, "")
		for i, w := range ws {
			if ev := recvEvent(t, w.C()); ev.Type != EventChildrenChanged {
				t.Fatalf("watch %d after %s: event = %+v", i, name, ev)
			}
		}
		if _, child := e.WatchCounts(); child != base+3 {
			t.Fatalf("child watches = %d, want %d", child, base+3)
		}
	}
	for _, w := range ws {
		w.Close()
	}
	if _, child := e.WatchCounts(); child != base {
		t.Fatalf("child watches = %d after Close, want %d", child, base)
	}
}

func TestSessionWatchExpiry(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	mustCreate(t, c, "/a", "")
	w, err := c.NodeWatch("/a")
	if err != nil {
		t.Fatal(err)
	}
	e.ExpireSession(c.SessionID())
	if ev := recvEvent(t, w.C()); ev.Type != EventSessionExpired {
		t.Fatalf("event = %+v", ev)
	}
	if _, open := <-w.C(); open {
		t.Fatal("watch channel open after session expiry")
	}
	if node, _ := e.WatchCounts(); node != 0 {
		t.Fatalf("node watches = %d after expiry, want 0", node)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	e := newTestEnsemble(t)
	setup := e.Connect()
	mustCreate(t, setup, "/c", "")
	setup.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := e.Connect()
			defer c.Close()
			for i := 0; i < 30; i++ {
				path := fmt.Sprintf("/c/w%d-%d", id, i)
				if _, err := c.Create(path, []byte("x"), 0); err != nil {
					errCh <- err
					return
				}
				if err := c.Set(path, []byte("y"), 0); err != nil {
					errCh <- err
					return
				}
				if _, _, err := c.Get(path); err != nil {
					errCh <- err
					return
				}
				if i%2 == 0 {
					if err := c.Delete(path, -1); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cli := e.Connect()
	defer cli.Close()
	names, err := cli.Children("/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6*15 {
		t.Fatalf("surviving children = %d, want 90", len(names))
	}
}

// Property: any sequence of creates and deletes leaves the tree
// consistent with a map-based oracle.
func TestTreeOracleProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		e := NewEnsemble(Config{Replicas: 3})
		defer e.Close()
		c := e.Connect()
		defer c.Close()
		oracle := map[string]bool{}
		paths := []string{"/a", "/b", "/a/x", "/b/y"}
		for _, op := range ops {
			p := paths[int(op)%len(paths)]
			if op%2 == 0 {
				_, err := c.Create(p, nil, 0)
				parentOK := parentPath(p) == "/" || oracle[parentPath(p)]
				wantOK := parentOK && !oracle[p]
				if (err == nil) != wantOK {
					return false
				}
				if err == nil {
					oracle[p] = true
				}
			} else {
				err := c.Delete(p, -1)
				hasChild := false
				for o := range oracle {
					if o != p && len(o) > len(p) && o[:len(p)] == p && o[len(p)] == '/' {
						hasChild = true
					}
				}
				wantOK := oracle[p] && !hasChild
				if (err == nil) != wantOK {
					return false
				}
				if err == nil {
					delete(oracle, p)
				}
			}
		}
		for p, want := range map[string]bool{
			"/a": oracle["/a"], "/b": oracle["/b"], "/a/x": oracle["/a/x"], "/b/y": oracle["/b/y"],
		} {
			ok, _, err := c.Exists(p)
			if err != nil || ok != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionCASLoop(t *testing.T) {
	// The read-modify-CAS pattern a wound's ledger write retries:
	// concurrent writers using version CAS never lose an increment.
	e := newTestEnsemble(t)
	setup := e.Connect()
	mustCreate(t, setup, "/n", "0")
	setup.Close()

	const writers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Connect()
			defer c.Close()
			for i := 0; i < per; i++ {
				for {
					data, stat, err := c.Get("/n")
					if err != nil {
						t.Error(err)
						return
					}
					var v int
					fmt.Sscanf(string(data), "%d", &v)
					err = c.Set("/n", []byte(fmt.Sprint(v+1)), stat.Version)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBadVersion) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	c := e.Connect()
	defer c.Close()
	data, _, _ := c.Get("/n")
	var v int
	fmt.Sscanf(string(data), "%d", &v)
	if v != writers*per {
		t.Fatalf("n = %d, want %d", v, writers*per)
	}
}

// TestLookupMissError: a miss matches ErrNoNode and its trerr code,
// reads exactly as the formatted "%w: %s" error did, and costs at most
// one allocation (the formatted error took several).
func TestLookupMissError(t *testing.T) {
	tr := newTree()
	const path = "/txns/t-s5c00000001"
	_, err := tr.lookup(path)
	if !errors.Is(err, ErrNoNode) {
		t.Fatalf("lookup miss = %v, want ErrNoNode", err)
	}
	if got, want := err.Error(), fmt.Errorf("%w: %s", ErrNoNode, path).Error(); got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if code := trerr.CodeOf(err); code != trerr.StoreNoNode {
		t.Fatalf("code %q, want %q", code, trerr.StoreNoNode)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tr.lookup(path) }); n > 1 {
		t.Fatalf("lookup miss: %v allocs, want ≤ 1", n)
	}
}
