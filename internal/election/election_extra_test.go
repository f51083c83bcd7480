package election

import (
	"context"
	"testing"
	"time"

	"repro/internal/store"
)

func TestReEnrollAfterResign(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	cand, _ := New(c, "/el", "a")
	if err := cand.Enroll(); err != nil {
		t.Fatal(err)
	}
	first := cand.Node()
	if err := cand.Resign(); err != nil {
		t.Fatal(err)
	}
	if cand.Node() != "" {
		t.Fatal("node not cleared after resign")
	}
	if err := cand.Enroll(); err != nil {
		t.Fatal(err)
	}
	if cand.Node() == first {
		t.Fatal("re-enroll reused sequence node")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cand.AwaitLeadership(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAwaitWithoutEnroll(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	cand, _ := New(c, "/el", "a")
	if err := cand.AwaitLeadership(context.Background()); err == nil {
		t.Fatal("await without enroll succeeded")
	}
}

func TestLeaderQueryEmptyElection(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	cand, _ := New(c, "/el", "a")
	id, ok, err := cand.Leader()
	if err != nil || ok || id != "" {
		t.Fatalf("leader on empty election: %q %v %v", id, ok, err)
	}
}

func TestThreeWaySuccession(t *testing.T) {
	// Leaders fail one after another; successors take over strictly in
	// enrollment order.
	e := newEnsemble(t)
	var cands []*Candidate
	var clis []*store.Client
	for i := 0; i < 3; i++ {
		cli := e.Connect()
		clis = append(clis, cli)
		cand, _ := New(cli, "/el", string(rune('a'+i)))
		if err := cand.Enroll(); err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cands[0].AwaitLeadership(ctx); err != nil {
		t.Fatal(err)
	}
	clis[0].Close()
	if err := cands[1].AwaitLeadership(ctx); err != nil {
		t.Fatal(err)
	}
	clis[1].Close()
	if err := cands[2].AwaitLeadership(ctx); err != nil {
		t.Fatal(err)
	}
	id, ok, _ := cands[2].Leader()
	if !ok || id != "c" {
		t.Fatalf("final leader = %q", id)
	}
	clis[2].Close()
}

func TestAwaitLeadershipSessionExpiry(t *testing.T) {
	e := newEnsemble(t)
	c0, c1 := e.Connect(), e.Connect()
	defer c0.Close()
	cand0, _ := New(c0, "/el", "a")
	cand1, _ := New(c1, "/el", "b")
	cand0.Enroll()
	cand1.Enroll()
	// Expire the WAITER's session: its await must fail, not hang.
	done := make(chan error, 1)
	go func() { done <- cand1.AwaitLeadership(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	e.ExpireSession(c1.SessionID())
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("await succeeded after own session expiry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await hung after session expiry")
	}
}

// TestAwaitLeadershipReleasesWatches: every exit of AwaitLeadership
// leaves the ensemble's watch table at its baseline — the cancelled
// wait behind a live predecessor, the predecessor that vanished between
// the listing and the watch, and the ordinary wake-up on a resignation.
func TestAwaitLeadershipReleasesWatches(t *testing.T) {
	e := newEnsemble(t)
	c0, c1 := e.Connect(), e.Connect()
	defer c0.Close()
	defer c1.Close()
	leader, _ := New(c0, "/election", "ctrl-0")
	follower, _ := New(c1, "/election", "ctrl-1")
	baseNode, baseChild := e.WatchCounts()
	checkBaseline := func(when string) {
		t.Helper()
		if node, child := e.WatchCounts(); node != baseNode || child != baseChild {
			t.Fatalf("%s: watch counts = (%d, %d), want baseline (%d, %d)",
				when, node, child, baseNode, baseChild)
		}
	}
	if err := leader.Enroll(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Enroll(); err != nil {
		t.Fatal(err)
	}

	// Cancelled while the predecessor is alive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err := follower.AwaitLeadership(ctx)
	cancel()
	if err != context.DeadlineExceeded {
		t.Fatalf("await = %v, want DeadlineExceeded", err)
	}
	checkBaseline("after a cancelled wait")

	// The predecessor vanished between the listing and the watch: the
	// wait returns at once for a re-evaluation.
	if err := follower.awaitChange(context.Background(), "/election/n-9999999999"); err != nil {
		t.Fatalf("await vanished predecessor: %v", err)
	}
	checkBaseline("after a vanished predecessor")

	// The ordinary exit: the predecessor resigns and the follower leads.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		done <- follower.AwaitLeadership(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := leader.Resign(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("await after resign: %v", err)
	}
	checkBaseline("after failover")
}
