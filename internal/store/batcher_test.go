package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMultiAllDemux: independent groups commit in one round with
// per-group error demultiplexing — a failing group affects neither its
// siblings nor the ordering of later groups' effects.
func TestMultiAllDemux(t *testing.T) {
	e := NewEnsemble(Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	before := e.Commits()
	errs := cli.MultiAll(
		[]Op{CreateOp("/q/a-", []byte("1"), FlagSequence)},
		[]Op{CreateOp("/missing/child", nil, 0)}, // parent does not exist
		[]Op{CreateOp("/q/a-", []byte("2"), FlagSequence)},
	)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("sibling groups failed: %v / %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrNoNode) {
		t.Fatalf("bad group error = %v, want ErrNoNode", errs[1])
	}
	if d := e.Commits() - before; d != 2 {
		t.Fatalf("commits = %d, want 2 (one per applied group)", d)
	}
	// The later group saw the earlier group's sequence bump.
	for name, want := range map[string]string{"/q/a-0000000000": "1", "/q/a-0000000001": "2"} {
		data, _, err := cli.Get(name)
		if err != nil || string(data) != want {
			t.Fatalf("%s = %q (%v), want %q", name, data, err, want)
		}
	}
}

// TestGroupCommitSingleFsync: one MultiAll round over K groups costs one
// WAL fsync under SyncAlways — the group-commit amortization.
func TestGroupCommitSingleFsync(t *testing.T) {
	e, err := OpenEnsemble(Config{DataDir: t.TempDir(), SyncPolicy: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/n", nil, 0); err != nil {
		t.Fatal(err)
	}
	base := e.PersistStats().Fsyncs
	var groups [][]Op
	for i := 0; i < 16; i++ {
		groups = append(groups, []Op{SetOp("/n", []byte{byte(i)}, -1)})
	}
	for i, err := range cli.MultiAll(groups...) {
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if d := e.PersistStats().Fsyncs - base; d != 1 {
		t.Fatalf("fsyncs = %d for 16 groups, want 1", d)
	}
	if got := e.PersistStats().WALAppends; got < 16 {
		t.Fatalf("wal appends = %d, want ≥ 16 (one record per group)", got)
	}
}

// TestGroupCommitSurvivesRestart: records written by the group-commit
// path (AppendNoSync + SyncGroup) recover exactly like per-op appends.
func TestGroupCommitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenEnsemble(Config{DataDir: dir, SyncPolicy: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	cli := e.Connect()
	if _, err := cli.Create("/g", nil, 0); err != nil {
		t.Fatal(err)
	}
	var groups [][]Op
	for i := 0; i < 8; i++ {
		groups = append(groups, []Op{CreateOp(fmt.Sprintf("/g/n%d", i), []byte("x"), 0)})
	}
	for _, err := range cli.MultiAll(groups...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cli.Kill() // crash, no graceful close
	e.Close()
	e2, err := OpenEnsemble(Config{DataDir: dir, SyncPolicy: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	cli2 := e2.Connect()
	defer cli2.Close()
	names, err := cli2.Children("/g")
	if err != nil || len(names) != 8 {
		t.Fatalf("recovered children = %v (%v), want 8", names, err)
	}
}

// flushCounter observes a batcher's group commits through OnFlush.
type flushCounter struct {
	mu             sync.Mutex
	flushes, ops   int
	maxOps, minOps int
}

func (f *flushCounter) observe(ops int, _ time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes++
	f.ops += ops
	f.maxOps = max(f.maxOps, ops)
	if f.minOps == 0 || ops < f.minOps {
		f.minOps = ops
	}
}

// submitConcurrently has n goroutines each submit one sequence create
// under /q through b, failing the test on any error.
func submitConcurrently(t *testing.T, b *Batcher, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = <-b.MultiAsync(CreateOp("/q/item-", []byte{byte(i)}, FlagSequence))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestBatcherCoalesces: concurrent submissions through one batcher land
// in fewer commits than callers, and every one applies.
func TestBatcherCoalesces(t *testing.T) {
	e := NewEnsemble(Config{CommitLatency: 200 * time.Microsecond})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	var fc flushCounter
	b := cli.NewBatcher(BatcherConfig{MaxOps: 64, OnFlush: fc.observe})
	defer b.Close()
	const callers = 48
	submitConcurrently(t, b, callers)
	names, err := cli.Children("/q")
	if err != nil || len(names) != callers {
		t.Fatalf("children = %d (%v), want %d", len(names), err, callers)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.ops != callers {
		t.Fatalf("flushed %d ops, want %d", fc.ops, callers)
	}
	if fc.flushes >= callers {
		t.Fatalf("no coalescing: %d flushes for %d callers", fc.flushes, callers)
	}
	if fc.maxOps < 2 {
		t.Fatalf("max flush carried %d ops, want ≥ 2", fc.maxOps)
	}
}

// TestBatcherBatchOfOne: MaxOps 1 commits every submission alone — one
// flush and one ensemble commit per group, even under concurrency — and
// distinct sequence creates still resolve to distinct names.
func TestBatcherBatchOfOne(t *testing.T) {
	e := NewEnsemble(Config{CommitLatency: 200 * time.Microsecond})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	var fc flushCounter
	b := cli.NewBatcher(BatcherConfig{MaxOps: 1, OnFlush: fc.observe})
	defer b.Close()
	before := e.Commits()
	const callers = 16
	submitConcurrently(t, b, callers)
	if d := e.Commits() - before; d != callers {
		t.Fatalf("commits = %d, want %d", d, callers)
	}
	names, err := cli.Children("/q")
	if err != nil || len(names) != callers {
		t.Fatalf("children = %d (%v), want %d distinct", len(names), err, callers)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.flushes != callers || fc.maxOps != 1 || fc.minOps != 1 {
		t.Fatalf("flushes = %d carrying %d..%d ops, want %d of 1", fc.flushes, fc.minOps, fc.maxOps, callers)
	}
}

// TestBatcherCloseFlushesPending: Close delivers every pending result.
func TestBatcherCloseFlushesPending(t *testing.T) {
	e := NewEnsemble(Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	// A huge MaxDelay: only Close (or a kick-driven drain) can flush.
	b := cli.NewBatcher(BatcherConfig{MaxOps: 1 << 20, MaxDelay: time.Hour})
	ch := b.MultiAsync(CreateOp("/q/x", nil, 0))
	b.Close()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if err := <-b.MultiAsync(CreateOp("/q/y", nil, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit = %v, want ErrClosed", err)
	}
}

// TestChildWatchReusable: one registration observes many membership
// changes, coalesces bursts instead of blocking the committer, and Close
// releases it.
func TestChildWatchReusable(t *testing.T) {
	e := NewEnsemble(Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	_, baseChild := e.WatchCounts()
	w, err := cli.ChildWatch("/q")
	if err != nil {
		t.Fatal(err)
	}
	// Multiple rounds of change → wakeup → consume, with NO re-arming.
	for round := 0; round < 3; round++ {
		if _, err := cli.Create(fmt.Sprintf("/q/c%d", round), nil, 0); err != nil {
			t.Fatal(err)
		}
		select {
		case ev, ok := <-w.C():
			if !ok || ev.Type != EventChildrenChanged {
				t.Fatalf("round %d: event %v ok=%v", round, ev, ok)
			}
		case <-time.After(time.Second):
			t.Fatalf("round %d: no wakeup", round)
		}
	}
	// A burst while nobody reads coalesces into one pending wakeup and
	// never blocks the committing writer.
	for i := 0; i < 5; i++ {
		if err := cli.Delete(fmt.Sprintf("/q/c%d", i%3), -1); err != nil && !errors.Is(err, ErrNoNode) {
			t.Fatal(err)
		}
	}
	select {
	case <-w.C():
	case <-time.After(time.Second):
		t.Fatal("burst produced no wakeup")
	}
	w.Close()
	w.Close() // idempotent
	if _, child := e.WatchCounts(); child != baseChild {
		t.Fatalf("child watches = %d after Close, want %d", child, baseChild)
	}
	// Closed watch delivers no further events; channel reads see closed.
	if _, err := cli.Create("/q/after", nil, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-w.C():
		if ok {
			t.Fatalf("event %v after Close", ev)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("channel not closed after Close")
	}
}

// TestChildWatchSessionExpiry: expiring the session closes the watch so
// blocked consumers wake with a session-expired signal.
func TestChildWatchSessionExpiry(t *testing.T) {
	e := NewEnsemble(Config{})
	defer e.Close()
	cli := e.Connect()
	if _, err := cli.Create("/q", nil, 0); err != nil {
		t.Fatal(err)
	}
	w, err := cli.ChildWatch("/q")
	if err != nil {
		t.Fatal(err)
	}
	e.ExpireSession(cli.SessionID())
	select {
	case ev, ok := <-w.C():
		if ok && ev.Type != EventSessionExpired {
			t.Fatalf("event = %v, want session expiry or closed channel", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no expiry signal")
	}
}
