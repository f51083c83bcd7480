package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	e := NewEnsemble(Config{Replicas: 3, SessionTimeout: 200 * time.Millisecond})
	t.Cleanup(func() { e.Close() })
	return e
}

func TestCreateGet(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	p, err := c.Create("/a", []byte("hello"), 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if p != "/a" {
		t.Fatalf("created path = %q, want /a", p)
	}
	data, st, err := c.Get("/a")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(data) != "hello" {
		t.Errorf("data = %q, want hello", data)
	}
	if st.Version != 0 {
		t.Errorf("version = %d, want 0", st.Version)
	}
}

func TestCreateDuplicate(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Create("/a", nil, 0); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate create err = %v, want ErrNodeExists", err)
	}
}

func TestCreateMissingParent(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a/b", nil, 0); !errors.Is(err, ErrNoNode) {
		t.Fatalf("create orphan err = %v, want ErrNoNode", err)
	}
}

func TestBadPaths(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	for _, p := range []string{"", "a", "a/b", "/a/", "//", "/a//b", "/a/./b", "/a/../b",
		"/.", "/..", "/a/.", "/a/..", "/./a"} {
		if _, err := c.Create(p, nil, 0); !errors.Is(err, ErrBadPath) {
			t.Errorf("create(%q) err = %v, want ErrBadPath", p, err)
		}
		if _, _, err := c.Get(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("get(%q) err = %v, want ErrBadPath", p, err)
		}
		if _, err := c.NodeWatch(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("watch(%q) err = %v, want ErrBadPath", p, err)
		}
	}
	if _, err := c.Create("/", nil, 0); !errors.Is(err, ErrBadPath) {
		t.Errorf("create(/) err = %v, want ErrBadPath", err)
	}
	// Names that merely contain dots are ordinary components.
	for _, p := range []string{"/.a", "/..b", "/a.", "/.a/b..c"} {
		if err := c.EnsurePath(p); err != nil {
			t.Errorf("ensure(%q): %v", p, err)
		}
	}
}

// TestLookupAllocatesNothing: a hit walks the path in place.
func TestLookupAllocatesNothing(t *testing.T) {
	tr := newTree()
	a := newZnode("a")
	tr.root.children["a"] = a
	a.children["bb"] = newZnode("bb")
	for _, p := range []string{"/", "/a", "/a/bb"} {
		if _, err := tr.lookup(p); err != nil {
			t.Fatalf("lookup(%q): %v", p, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = tr.lookup(p) }); n != 0 {
			t.Errorf("lookup(%q) allocates %.0f times", p, n)
		}
	}
}

func TestSetVersioning(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "v0")
	if err := c.Set("/a", []byte("v1"), 0); err != nil {
		t.Fatalf("set v0->v1: %v", err)
	}
	if err := c.Set("/a", []byte("vX"), 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale set err = %v, want ErrBadVersion", err)
	}
	if err := c.Set("/a", []byte("v2"), -1); err != nil {
		t.Fatalf("unconditional set: %v", err)
	}
	data, st, err := c.Get("/a")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(data) != "v2" || st.Version != 2 {
		t.Fatalf("got %q v%d, want v2 v2", data, st.Version)
	}
}

func TestDelete(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "")
	mustCreate(t, c, "/a/b", "")
	if err := c.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty err = %v, want ErrNotEmpty", err)
	}
	if err := c.Delete("/a/b", -1); err != nil {
		t.Fatalf("delete child: %v", err)
	}
	if err := c.Delete("/a", -1); err != nil {
		t.Fatalf("delete parent: %v", err)
	}
	if err := c.Delete("/a", -1); !errors.Is(err, ErrNoNode) {
		t.Fatalf("double delete err = %v, want ErrNoNode", err)
	}
}

func TestSequenceNodes(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/q", "")
	var paths []string
	for i := 0; i < 3; i++ {
		p, err := c.Create("/q/item-", []byte(fmt.Sprint(i)), FlagSequence)
		if err != nil {
			t.Fatalf("create seq %d: %v", i, err)
		}
		paths = append(paths, p)
	}
	want := []string{"/q/item-0000000000", "/q/item-0000000001", "/q/item-0000000002"}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("seq path %d = %q, want %q", i, paths[i], want[i])
		}
	}
	// Sequence counter survives deletes (monotonic per parent).
	if err := c.Delete(paths[2], -1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	p, err := c.Create("/q/item-", nil, FlagSequence)
	if err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if p != "/q/item-0000000003" {
		t.Errorf("seq path after delete = %q, want /q/item-0000000003", p)
	}
}

func TestEphemeralLifecycle(t *testing.T) {
	e := newTestEnsemble(t)
	owner := e.Connect()
	observer := e.Connect()
	defer observer.Close()

	if _, err := owner.Create("/lock", []byte("me"), FlagEphemeral); err != nil {
		t.Fatalf("create ephemeral: %v", err)
	}
	if _, err := owner.Create("/lock/child", nil, 0); !errors.Is(err, ErrEphemeralChildren) {
		t.Fatalf("child of ephemeral err = %v, want ErrEphemeralChildren", err)
	}
	owner.Close() // graceful close reaps ephemerals immediately
	if ok, _, err := observer.Exists("/lock"); err != nil || ok {
		t.Fatalf("after close: exists=%v err=%v, want gone", ok, err)
	}
}

func TestEphemeralExpiresAfterKill(t *testing.T) {
	e := NewEnsemble(Config{Replicas: 3, SessionTimeout: 100 * time.Millisecond, TickInterval: 10 * time.Millisecond})
	defer e.Close()
	owner := e.Connect()
	observer := e.Connect()
	defer observer.Close()

	if _, err := owner.Create("/lock", nil, FlagEphemeral); err != nil {
		t.Fatalf("create: %v", err)
	}
	owner.Kill() // crash: no cleanup, session must time out
	if ok, _, _ := observer.Exists("/lock"); !ok {
		t.Fatal("ephemeral vanished before session timeout")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok, _, err := observer.Exists("/lock")
		if err != nil {
			t.Fatalf("exists: %v", err)
		}
		if !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("ephemeral not reaped after session timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWatchData(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "v0")
	w, err := c.NodeWatch("/a")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()
	for _, v := range []string{"v1", "v2"} {
		if err := c.Set("/a", []byte(v), -1); err != nil {
			t.Fatalf("set: %v", err)
		}
		// The watch stays armed: every consumed change re-fires it.
		ev := recvEvent(t, w.C())
		if ev.Type != EventDataChanged || ev.Path != "/a" {
			t.Fatalf("event = %+v, want data-changed /a", ev)
		}
	}
}

func TestWatchChildren(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/q", "")
	w, err := c.ChildWatch("/q")
	if err != nil {
		t.Fatalf("child watch: %v", err)
	}
	defer w.Close()
	// Membership changes fire it; a data change of a child does not.
	mustCreate(t, c, "/q/x", "")
	ev := recvEvent(t, w.C())
	if ev.Type != EventChildrenChanged || ev.Path != "/q" {
		t.Fatalf("event = %+v, want children-changed /q", ev)
	}
	if err := c.Set("/q/x", []byte("v"), -1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C():
		t.Fatalf("child data change fired the child watch: %+v", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWatchDelete(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "")
	w, err := c.NodeWatch("/a")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()
	if err := c.Delete("/a", -1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if ev := recvEvent(t, w.C()); ev.Type != EventDeleted {
		t.Fatalf("event = %+v, want deleted", ev)
	}
}

func TestMultiAtomicity(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "v0")
	// Second op fails validation; first must not apply.
	err := c.Multi(
		SetOp("/a", []byte("v1"), -1),
		DeleteOp("/missing", -1),
	)
	if !errors.Is(err, ErrNoNode) {
		t.Fatalf("multi err = %v, want ErrNoNode", err)
	}
	data, _, _ := c.Get("/a")
	if string(data) != "v0" {
		t.Fatalf("partial multi applied: data = %q", data)
	}
	// A valid batch applies all ops.
	err = c.Multi(
		SetOp("/a", []byte("v1"), -1),
		CreateOp("/b", []byte("new"), 0),
	)
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if data, _, _ := c.Get("/a"); string(data) != "v1" {
		t.Fatalf("a = %q, want v1", data)
	}
	if data, _, _ := c.Get("/b"); string(data) != "new" {
		t.Fatalf("b = %q, want new", data)
	}
}

func TestMultiSeesEarlierOps(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	// Create parent and child in the same batch: the child create must
	// see the parent created by the earlier op.
	err := c.Multi(
		CreateOp("/p", nil, 0),
		CreateOp("/p/c", nil, 0),
	)
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if ok, _, _ := c.Exists("/p/c"); !ok {
		t.Fatal("/p/c missing after multi")
	}
}

func TestQuorumLoss(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	mustCreate(t, c, "/a", "v0")
	e.StopReplica(1)
	if err := c.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatalf("set with 2/3 alive: %v", err)
	}
	e.StopReplica(2)
	if err := c.Set("/a", []byte("v2"), -1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("set with 1/3 alive err = %v, want ErrNoQuorum", err)
	}
	if _, _, err := c.Get("/a"); err != nil {
		t.Fatalf("read with 1/3 alive: %v", err) // reads still served
	}
	e.StartReplica(1)
	if err := c.Set("/a", []byte("v2"), -1); err != nil {
		t.Fatalf("set after quorum restored: %v", err)
	}
}

func TestReplicaCatchUp(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	e.StopReplica(2)
	for i := 0; i < 10; i++ {
		mustCreate(t, c, fmt.Sprintf("/n%d", i), "x")
	}
	e.StartReplica(2)
	// Stop the other two so replica 2's tree serves reads; it must have
	// caught up, though writes now lack quorum.
	e.StopReplica(0)
	e.StopReplica(1)
	for i := 0; i < 10; i++ {
		if ok, _, err := c.Exists(fmt.Sprintf("/n%d", i)); err != nil || !ok {
			t.Fatalf("replica 2 missing /n%d after catch-up (ok=%v err=%v)", i, ok, err)
		}
	}
}

func TestSessionExpiredOperations(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	e.ExpireSession(c.SessionID())
	if _, err := c.Create("/x", nil, 0); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("create err = %v, want ErrSessionExpired", err)
	}
	if _, _, err := c.Get("/"); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("get err = %v, want ErrSessionExpired", err)
	}
	select {
	case <-c.ExpiredCh():
	case <-time.After(time.Second):
		t.Fatal("ExpiredCh not closed")
	}
}

func TestEnsurePath(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if err := c.EnsurePath("/a/b/c"); err != nil {
		t.Fatalf("ensure: %v", err)
	}
	if ok, _, _ := c.Exists("/a/b/c"); !ok {
		t.Fatal("/a/b/c missing")
	}
	if err := c.EnsurePath("/a/b/c"); err != nil {
		t.Fatalf("ensure idempotent: %v", err)
	}
}

func TestConcurrentSequenceCreates(t *testing.T) {
	e := newTestEnsemble(t)
	setup := e.Connect()
	mustCreate(t, setup, "/q", "")
	setup.Close()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	pathCh := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Connect()
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				p, err := c.Create("/q/item-", nil, FlagSequence)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				pathCh <- p
			}
		}()
	}
	wg.Wait()
	close(pathCh)
	seen := make(map[string]bool)
	for p := range pathCh {
		if seen[p] {
			t.Fatalf("duplicate sequence path %s", p)
		}
		seen[p] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("created %d unique nodes, want %d", len(seen), workers*perWorker)
	}
}

func TestEnsembleClose(t *testing.T) {
	e := NewEnsemble(Config{Replicas: 3})
	c := e.Connect()
	e.Close()
	if _, err := c.Create("/x", nil, 0); err == nil {
		t.Fatal("create after close succeeded")
	}
	e.Close() // double close must not panic
}

func mustCreate(t *testing.T, c *Client, path, data string) {
	t.Helper()
	if _, err := c.Create(path, []byte(data), 0); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}

func recvEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for watch event")
		return Event{}
	}
}
