package store

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestGetAtServesFromFollower(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	wm := c.LastWriteZxid()
	if wm <= 0 {
		t.Fatalf("LastWriteZxid = %d after a write, want > 0", wm)
	}
	data, _, z, follower, err := c.GetAt("/a", wm)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if !follower {
		t.Errorf("GetAt served from leader; replicas apply synchronously, want follower")
	}
	if string(data) != "v0" {
		t.Errorf("data = %q, want v0", data)
	}
	if z < wm {
		t.Errorf("returned zxid %d < watermark %d", z, wm)
	}
}

func TestGetAtNoNodeIsAuthoritative(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	// A replica at the watermark answers ErrNoNode definitively: the
	// session's writes are all visible there, so a missing node really is
	// missing and must not trigger another replica or the leader.
	_, _, _, follower, err := c.GetAt("/nope", c.LastWriteZxid())
	if !errors.Is(err, ErrNoNode) {
		t.Fatalf("GetAt(/nope) err = %v, want ErrNoNode", err)
	}
	if !follower {
		t.Errorf("ErrNoNode came from leader fall-through, want follower-authoritative")
	}
}

func TestGetAtFutureWatermarkFallsToLeader(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	// No replica can have applied a zxid the ensemble has not sequenced
	// yet; the read must fall through to the leader rather than fail.
	data, _, _, follower, err := c.GetAt("/a", e.Zxid()+100)
	if err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if follower {
		t.Errorf("impossible watermark served by a follower")
	}
	if string(data) != "v0" {
		t.Errorf("data = %q, want v0", data)
	}
}

func TestGetAtStoppedReplicaNeverServesStale(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Freeze one replica, then advance the state past it. Quorum (2 of 3)
	// still commits. The follower-read rotation must skip the stopped
	// replica: it is not alive, and even restarted its watermark check
	// would exclude it until caught up.
	e.StopReplica(2)
	if err := c.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatalf("set: %v", err)
	}
	wm := c.LastWriteZxid()
	for i := 0; i < 32; i++ { // cover every rotation position
		data, _, _, _, err := c.GetAt("/a", wm)
		if err != nil {
			t.Fatalf("GetAt[%d]: %v", i, err)
		}
		if string(data) != "v1" {
			t.Fatalf("GetAt[%d] = %q: stale read past the watermark", i, data)
		}
	}

	// A restarted replica replays the missed suffix and serves again.
	e.StartReplica(2)
	for i := 0; i < 32; i++ {
		data, _, _, follower, err := c.GetAt("/a", wm)
		if err != nil {
			t.Fatalf("GetAt[%d]: %v", i, err)
		}
		if !follower || string(data) != "v1" {
			t.Fatalf("GetAt[%d] after restart = %q (follower=%v), want v1 from follower", i, data, follower)
		}
	}
}

func TestLastWriteZxidAdvancesOnWritesOnly(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if z := c.LastWriteZxid(); z != 0 {
		t.Fatalf("fresh session LastWriteZxid = %d, want 0", z)
	}
	if _, err := c.Create("/a", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	z1 := c.LastWriteZxid()
	if z1 <= 0 {
		t.Fatalf("LastWriteZxid after create = %d, want > 0", z1)
	}
	if _, _, _, _, err := c.GetAt("/a", z1); err != nil {
		t.Fatalf("GetAt: %v", err)
	}
	if z := c.LastWriteZxid(); z != z1 {
		t.Errorf("read moved LastWriteZxid %d -> %d", z1, z)
	}
	if err := c.Set("/a", []byte("x"), -1); err != nil {
		t.Fatalf("set: %v", err)
	}
	if z := c.LastWriteZxid(); z <= z1 {
		t.Errorf("LastWriteZxid after set = %d, want > %d", z, z1)
	}
}

func TestChildrenPageFollowerRead(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/dir", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Create(fmt.Sprintf("/dir/c%d", i), nil, 0); err != nil {
			t.Fatalf("create child: %v", err)
		}
	}
	names, z, follower, err := c.ChildrenPage("/dir", "", 10, c.LastWriteZxid())
	if err != nil {
		t.Fatalf("ChildrenPage: %v", err)
	}
	if !follower {
		t.Errorf("listing served from leader, want follower")
	}
	if len(names) != 3 || names[0] != "c0" || names[2] != "c2" {
		t.Errorf("names = %v, want [c0 c1 c2]", names)
	}
	if z < c.LastWriteZxid() {
		t.Errorf("listing zxid %d behind watermark %d", z, c.LastWriteZxid())
	}
}

func TestFollowerReadsBypassCommitLock(t *testing.T) {
	// A slow commit (simulated quorum latency) must not delay a
	// watermarked read: the whole point of the follower path is that
	// reads do not queue behind the leader's write pipeline.
	e := NewEnsemble(Config{Replicas: 3, SessionTimeout: time.Second,
		CommitLatency: 50 * time.Millisecond})
	t.Cleanup(func() { e.Close() })
	c := e.Connect()
	defer c.Close()

	if _, err := c.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	wm := c.LastWriteZxid()

	w := e.Connect()
	defer w.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Set("/a", []byte("v1"), -1) // holds the commit lock ~50ms
	}()
	time.Sleep(10 * time.Millisecond) // let the commit take the lock

	t0 := time.Now()
	if _, _, _, follower, err := c.GetAt("/a", wm); err != nil || !follower {
		t.Fatalf("GetAt during commit: follower=%v err=%v", follower, err)
	}
	if d := time.Since(t0); d > 25*time.Millisecond {
		t.Errorf("follower read took %v during a 50ms commit; it queued behind the lock", d)
	}
	<-done
}

// TestReadsAllocateNothing: a read of an existing node hands out the
// stored data, so neither the leader nor the follower path allocates.
func TestReadsAllocateNothing(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/a", "some record bytes")
	wm := c.LastWriteZxid()
	if n := testing.AllocsPerRun(100, func() { _, _, _ = c.Get("/a") }); n != 0 {
		t.Errorf("Get allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _, _, _ = c.GetAt("/a", wm) }); n != 0 {
		t.Errorf("GetAt allocates %.0f times", n)
	}
}

// TestReadDataSurvivesLaterSet: the slice a read returns is shared with
// the store but never overwritten — a later Set installs new data.
func TestReadDataSurvivesLaterSet(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/a", "v0")
	got, _, err := c.Get("/a")
	if err != nil {
		t.Fatal(err)
	}
	atGot, _, _, _, err := c.GetAt("/a", c.LastWriteZxid())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	if string(got) != "v0" || string(atGot) != "v0" {
		t.Fatalf("earlier reads now hold %q and %q, want v0", got, atGot)
	}
	if now, _, _ := c.Get("/a"); string(now) != "v1" {
		t.Fatalf("Get after Set = %q, want v1", now)
	}
}

// TestFollowerReadsUnderConcurrentCommits: while writers commit, a
// follower read never returns state older than its watermark, and a
// replica stopped for N commits serves the newest value as soon as it is
// started again (run it with -race: reads share the tree with commits).
func TestFollowerReadsUnderConcurrentCommits(t *testing.T) {
	e := newTestEnsemble(t)
	e.StopReplica(2) // misses every commit below
	const writers, commits = 2, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		path := fmt.Sprintf("/w%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Connect()
			defer c.Close()
			if _, err := c.Create(path, []byte("0"), 0); err != nil {
				t.Error(err)
				return
			}
			for i := 1; i <= commits; i++ {
				if err := c.Set(path, []byte(strconv.Itoa(i)), -1); err != nil {
					t.Error(err)
					return
				}
				// A session reads its own write back at its watermark.
				data, _, z, _, err := c.GetAt(path, c.LastWriteZxid())
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := strconv.Atoi(string(data)); got < i || z < c.LastWriteZxid() {
					t.Errorf("%s: read %q at zxid %d after writing %d at zxid %d",
						path, data, z, i, c.LastWriteZxid())
					return
				}
			}
		}()
	}
	// Concurrent readers threading the zxid each read returns: what they
	// see never goes backwards.
	r := e.Connect()
	defer r.Close()
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		path := fmt.Sprintf("/w%d", w)
		rg.Add(1)
		go func() {
			defer rg.Done()
			var wm int64
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, _, z, _, err := r.GetAt(path, wm)
				if errors.Is(err, ErrNoNode) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := strconv.Atoi(string(data))
				if z < wm || got < last {
					t.Errorf("%s: read %d at zxid %d after %d at zxid %d", path, got, z, last, wm)
					return
				}
				wm, last = z, got
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	e.StartReplica(2)
	e.StopReplica(0)
	e.StopReplica(1)
	for w := 0; w < writers; w++ {
		path := fmt.Sprintf("/w%d", w)
		data, _, z, follower, err := r.GetAt(path, e.Zxid())
		if err != nil || !follower || string(data) != strconv.Itoa(commits) {
			t.Fatalf("restarted replica: %s = %q at zxid %d (follower=%v, err=%v), want %d",
				path, data, z, follower, err, commits)
		}
	}
}
