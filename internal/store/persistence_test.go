package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store/persist"
)

func openDurable(t testing.TB, dir string, snapEvery int) *Ensemble {
	t.Helper()
	e, err := OpenEnsemble(Config{
		DataDir:       dir,
		SyncPolicy:    SyncNone,
		SnapshotEvery: snapEvery,
		// Long timeout so background expiry never interferes with the
		// restart scenarios under test.
		SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRestartPreservesPersistentState(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/app", []byte("root"), 0)
	createOrFail(t, c, "/app/config", []byte("v1"), 0)
	if err := c.Set("/app/config", []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("/app/config", []byte("v3"), 1); err != nil {
		t.Fatal(err)
	}
	seq1, err := c.Create("/app/item-", []byte("a"), FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	createOrFail(t, c, "/app/gone", nil, 0)
	if err := c.Delete("/app/gone", -1); err != nil {
		t.Fatal(err)
	}
	if err := c.Multi(
		CreateOp("/app/m1", []byte("multi"), 0),
		SetOp("/app/config", []byte("v4"), 2),
	); err != nil {
		t.Fatal(err)
	}
	c.Close()
	e.Close()

	e2 := openDurable(t, dir, -1)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()

	data, st, err := c2.Get("/app/config")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v4" || st.Version != 3 {
		t.Fatalf("config = %q v%d, want v4 v3", data, st.Version)
	}
	if data, _, err = c2.Get("/app/m1"); err != nil || string(data) != "multi" {
		t.Fatalf("multi-created node: %q, %v", data, err)
	}
	if ok, _, _ := c2.Exists("/app/gone"); ok {
		t.Fatal("deleted node resurrected by recovery")
	}
	// Sequence numbering continues where the previous incarnation left
	// off — committed transaction IDs can never be reissued.
	seq2, err := c2.Create("/app/item-", []byte("b"), FlagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if !(seq2 > seq1) {
		t.Fatalf("sequence regressed across restart: %s then %s", seq1, seq2)
	}
	if seq1 != "/app/item-0000000000" || seq2 != "/app/item-0000000001" {
		t.Fatalf("unexpected sequence names %s, %s", seq1, seq2)
	}
}

func TestRestartExpiresStaleEphemeralOwners(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/election", nil, 0)
	if _, err := c.Create("/election/leader", []byte("ctrl-0"), FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	// Crash the client (heartbeats stop, session NOT expired) and then
	// the whole ensemble: the ephemeral is still in the tree, and in the
	// WAL, when the process dies.
	c.Kill()
	if ok, _, _ := e.Connect().Exists("/election/leader"); !ok {
		t.Fatal("precondition: ephemeral should still exist before crash")
	}
	e.Close()

	e2 := openDurable(t, dir, -1)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	if ok, _, _ := c2.Exists("/election/leader"); ok {
		t.Fatal("pre-crash ephemeral resurrected after restart")
	}
	if ok, _, _ := c2.Exists("/election"); !ok {
		t.Fatal("persistent parent lost")
	}
	// A new contender can claim leadership immediately.
	if _, err := c2.Create("/election/leader", []byte("ctrl-1"), FlagEphemeral); err != nil {
		t.Fatalf("re-election blocked: %v", err)
	}
	// New sessions must not collide with the pre-crash ephemeral owner's
	// id (which would make recovery misattribute ephemeral ownership).
	if c2.SessionID() <= c.SessionID() {
		t.Fatalf("session counter not resumed: new session id %d after owner %d",
			c2.SessionID(), c.SessionID())
	}
}

func TestRestartFromSnapshotPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, 10)
	c := e.Connect()
	createOrFail(t, c, "/data", nil, 0)
	for i := 0; i < 37; i++ {
		createOrFail(t, c, fmt.Sprintf("/data/n%02d", i), []byte{byte(i)}, 0)
		// Writes 10, 20 and 30 each start a snapshot; let it land before
		// the next 10 writes, so none falls due while one is in flight.
		if w := i + 2; w%10 == 0 {
			waitSnapshots(t, e, int64(w/10))
		}
	}
	if got := e.PersistStats().Snapshots; got < 3 {
		t.Fatalf("Snapshots = %d, want ≥ 3 with SnapshotEvery=10", got)
	}
	c.Close()
	e.Close()

	e2 := openDurable(t, dir, 10)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	kids, err := c2.Children("/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 37 {
		t.Fatalf("recovered %d children, want 37", len(kids))
	}
	for i := 0; i < 37; i++ {
		data, _, err := c2.Get(fmt.Sprintf("/data/n%02d", i))
		if err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("node n%02d: %v %v", i, data, err)
		}
	}
	if e2.PersistStats().Recoveries != 1 || e2.LastRecovery() <= 0 {
		t.Fatalf("recovery not observed: %+v", e2.PersistStats())
	}
}

func TestRestartSnapshotWithEmptyWALTail(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, 1) // snapshot (and rotate) after every write
	c := e.Connect()
	createOrFail(t, c, "/only", []byte("x"), 0)
	c.Close() // expiry commits are snapshotted too
	e.Close()

	e2 := openDurable(t, dir, 1)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	if data, _, err := c2.Get("/only"); err != nil || string(data) != "x" {
		t.Fatalf("recovery from snapshot alone: %q, %v", data, err)
	}
}

func TestRestartTornWALTail(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/a", []byte("1"), 0)
	createOrFail(t, c, "/b", []byte("2"), 0)
	createOrFail(t, c, "/c", []byte("3"), 0)
	c.Kill() // no graceful expiry: the last WAL record is /c's create
	e.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	seg := segs[len(segs)-1]
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir, -1)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	for path, want := range map[string]string{"/a": "1", "/b": "2"} {
		if data, _, err := c2.Get(path); err != nil || string(data) != want {
			t.Fatalf("%s = %q, %v; want %q", path, data, err, want)
		}
	}
	if ok, _, _ := c2.Exists("/c"); ok {
		t.Fatal("torn final record was not dropped")
	}
	// The store keeps serving and logging after the torn-tail recovery —
	// and writes made after it survive a FURTHER restart (recovery
	// compacted the damaged segment away, so it cannot shadow the new
	// records on the next replay).
	createOrFail(t, c2, "/c", []byte("again"), 0)
	c2.Kill()
	e2.Close()

	e3 := openDurable(t, dir, -1)
	defer e3.Close()
	c3 := e3.Connect()
	defer c3.Close()
	if data, _, err := c3.Get("/c"); err != nil || string(data) != "again" {
		t.Fatalf("post-recovery write lost on second restart: %q, %v", data, err)
	}
}

func TestRestartTornHeadOfActiveSegment(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/a", []byte("1"), 0)
	c.Kill()
	e.Close()

	// Restart once so recovery compacts to a snapshot and rotates to a
	// fresh active segment...
	e2 := openDurable(t, dir, -1)
	e2.Close()
	// ...then simulate a crash that tore the very FIRST record of that
	// active segment, so the next recovery accepts nothing from it and
	// resolves the same segment name for new appends.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e3 := openDurable(t, dir, -1)
	c3 := e3.Connect()
	createOrFail(t, c3, "/b", []byte("2"), 0)
	c3.Kill()
	e3.Close()

	// Both the pre-tear and post-tear commits must survive.
	e4 := openDurable(t, dir, -1)
	defer e4.Close()
	c4 := e4.Connect()
	defer c4.Close()
	for path, want := range map[string]string{"/a": "1", "/b": "2"} {
		if data, _, err := c4.Get(path); err != nil || string(data) != want {
			t.Fatalf("%s = %q, %v; want %q", path, data, err, want)
		}
	}
}

func TestRestartCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/keep", []byte("k"), 0)
	createOrFail(t, c, "/last", []byte("l"), 0)
	c.Kill()
	e.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // damage the final record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir, -1)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	if data, _, err := c2.Get("/keep"); err != nil || string(data) != "k" {
		t.Fatalf("/keep = %q, %v", data, err)
	}
	if ok, _, _ := c2.Exists("/last"); ok {
		t.Fatal("record with corrupt CRC was applied")
	}
}

func TestInMemoryPathHasNoPersistence(t *testing.T) {
	e := NewEnsemble(Config{})
	defer e.Close()
	c := e.Connect()
	defer c.Close()
	createOrFail(t, c, "/x", nil, 0)
	if got := e.PersistStats(); got != (PersistStats{}) {
		t.Fatalf("in-memory ensemble reported persistence activity: %+v", got)
	}
	if e.LastRecovery() != 0 {
		t.Fatal("in-memory ensemble reported a recovery")
	}
}

func TestOpenEnsembleBadDataDir(t *testing.T) {
	// A file where the data dir should be must fail loudly, not silently
	// run without durability.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEnsemble(Config{DataDir: f}); err == nil {
		t.Fatal("OpenEnsemble on a non-directory path succeeded")
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []Op{
		{kind: opCreate, Path: "/a/b", Data: []byte("payload"), Flags: FlagEphemeral, Version: -1, session: 7, resolvedName: "b"},
		{kind: opSet, Path: "/x", Data: nil, Version: 12},
		{kind: opDelete, Path: "/y", Version: -1},
		{kind: opExpireSession, session: 42},
		{kind: opMulti, ops: []Op{
			{kind: opCreate, Path: "/q/item-", Data: []byte("m"), Flags: FlagSequence, Version: -1, resolvedName: "item-0000000003"},
			{kind: opDelete, Path: "/q/item-0000000001", Version: 2},
		}},
	}
	for i, op := range ops {
		got, err := decodeOp(encodeOp(nil, op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", op) {
			t.Fatalf("op %d round-trip:\n got %+v\nwant %+v", i, got, op)
		}
	}
	if _, err := decodeOp(nil); err == nil {
		t.Fatal("decodeOp(nil) succeeded")
	}
	if _, err := decodeOp([]byte{codecVersion, 0}); err == nil {
		t.Fatal("decodeOp(truncated) succeeded")
	}
	if _, err := decodeOp(append(encodeOp(nil, ops[0]), 0xEE)); err == nil {
		t.Fatal("decodeOp with trailing bytes succeeded")
	}
}

func TestTreeSnapshotCodecSkipsEphemerals(t *testing.T) {
	tr := newTree()
	apply := func(op Op) {
		resolved, err := validateOp(tr, op)
		if err != nil {
			t.Fatal(err)
		}
		applyOp(tr, resolved, 1, nil)
	}
	apply(Op{kind: opCreate, Path: "/p", Data: []byte("persistent")})
	apply(Op{kind: opCreate, Path: "/p/child", Data: []byte("c")})
	apply(Op{kind: opCreate, Path: "/p/eph", session: 9})
	apply(Op{kind: opCreate, Path: "/p/seq-", Flags: FlagSequence})

	got, nextSess, err := decodeTreeSnapshot(encodeSnapshot(t, tr, 123))
	if err != nil {
		t.Fatal(err)
	}
	if nextSess != 123 {
		t.Fatalf("nextSess = %d", nextSess)
	}
	if _, err := got.lookup("/p/eph"); !errors.Is(err, ErrNoNode) {
		t.Fatal("ephemeral node crossed the snapshot boundary")
	}
	n, err := got.lookup("/p")
	if err != nil || string(n.data) != "persistent" {
		t.Fatalf("/p: %v", err)
	}
	if n.seqCounter != 1 {
		t.Fatalf("/p seqCounter = %d, want 1", n.seqCounter)
	}
	if _, err := got.lookup("/p/seq-0000000000"); err != nil {
		t.Fatalf("sequence child: %v", err)
	}
	if _, _, err := decodeTreeSnapshot([]byte{9}); err == nil {
		t.Fatal("decodeTreeSnapshot with bad version succeeded")
	}
}

// waitSnapshots waits until e has landed at least n snapshots and the
// goroutine that wrote the last one has finished pruning, so the next
// snapshot to fall due starts on the commit that makes it due.
func waitSnapshots(t testing.TB, e *Ensemble, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.PersistStats().Snapshots < n; {
		if time.Now().After(deadline) {
			t.Fatalf("Snapshots = %d after 10s, want ≥ %d", e.PersistStats().Snapshots, n)
		}
		time.Sleep(time.Millisecond)
	}
	e.mu.Lock()
	done := e.snapDone
	e.mu.Unlock()
	<-done
}

func createOrFail(t *testing.T, c *Client, path string, data []byte, flags int) {
	t.Helper()
	if _, err := c.Create(path, data, flags); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}

// blockSnapshots makes e's snapshot goroutine wait, before it writes,
// until the returned release is called; started is ready once a
// snapshot has reached the block.
func blockSnapshots(e *Ensemble) (started <-chan struct{}, release func()) {
	ch := make(chan struct{}, 1)
	gate := make(chan struct{})
	e.snapHook = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
		<-gate
	}
	var once sync.Once
	return ch, func() { once.Do(func() { close(gate) }) }
}

// TestCommitsProceedWhileSnapshotWrites: a snapshot holds the commit
// lock only to roll the WAL and capture the tree, so commits keep
// completing while its write is stalled. A snapshot that falls due
// meanwhile starts on the first commit after the stalled one lands,
// and a restart recovers every write.
func TestCommitsProceedWhileSnapshotWrites(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, 10)
	started, release := blockSnapshots(e)
	defer release()
	c := e.Connect()
	createOrFail(t, c, "/data", nil, 0)
	// create writes /data/n<from>../data/n<to-1>, failing the test if
	// they do not all commit within 10s.
	create := func(from, to int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			for i := from; i < to; i++ {
				if _, err := c.Create(fmt.Sprintf("/data/n%02d", i), []byte{byte(i)}, 0); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("commits blocked behind a stalled snapshot write")
		}
	}
	create(0, 9) // the 10th write starts a snapshot
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no snapshot started after 10 writes with SnapshotEvery=10")
	}
	create(9, 39) // three more snapshot intervals while the write stalls
	if got := e.PersistStats().Snapshots; got != 0 {
		t.Fatalf("Snapshots = %d while the only one started is stalled, want 0", got)
	}
	release()
	waitSnapshots(t, e, 1)
	// The overdue snapshot starts on the next commit, not before.
	create(39, 40)
	waitSnapshots(t, e, 2)
	c.Kill()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir, 10)
	defer e2.Close()
	c2 := e2.Connect()
	defer c2.Close()
	for i := 0; i < 40; i++ {
		data, _, err := c2.Get(fmt.Sprintf("/data/n%02d", i))
		if err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("node n%02d after restart: %v %v", i, data, err)
		}
	}
}

// TestCloseWaitsForInflightSnapshot: Close returns only after the
// snapshot in flight has landed, and leaves its goroutine finished.
func TestCloseWaitsForInflightSnapshot(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, 5)
	started, release := blockSnapshots(e)
	defer release()
	c := e.Connect()
	for i := 0; i < 5; i++ {
		createOrFail(t, c, fmt.Sprintf("/n%d", i), nil, 0)
	}
	<-started
	c.Kill()
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a snapshot was being written")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := e.PersistStats().Snapshots; got != 1 {
		t.Fatalf("Snapshots = %d after Close, want the in-flight one landed", got)
	}
	select {
	case <-e.snapDone:
	default:
		t.Fatal("the snapshot goroutine is still running after Close")
	}
	ps, err := persist.Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, zxid, err := ps.LoadSnapshot(); err != nil || zxid != 5 {
		t.Fatalf("newest snapshot on disk covers zxid %d (%v), want 5", zxid, err)
	}
}

// TestRecoverV1DataDir: testdata/v1-datadir was written by the build
// that encoded snapshots into one payload buffer under the commit lock
// (nodes, sets, a delete, sequence nodes, an ephemeral reaped by its
// recovery). It recovers, and recovery's compaction snapshot, streamed
// from a capture, rewrites the same snapshot file byte for byte.
func TestRecoverV1DataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1-datadir")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const snap = "snap-000000000000001c.snap"
	v1, err := os.ReadFile(filepath.Join(dir, snap))
	if err != nil {
		t.Fatal(err)
	}

	e := openDurable(t, dir, 10)
	c := e.Connect()
	for path, want := range map[string]string{
		"/vmRoot":                 "root",
		"/vmRoot/vmHost00001":     "v3",
		"/vmRoot/vmHost00002":     `{"mem":12288}`,
		"/vmRoot/vmHost00000/vm0": "",
		"/txns/t-0000000004":      "\x04\xff\x00",
	} {
		if data, _, err := c.Get(path); err != nil || string(data) != want {
			t.Fatalf("%s = %q, %v; want %q", path, data, err, want)
		}
	}
	for _, gone := range []string{"/txns/t-0000000002", "/election/leader"} {
		if ok, _, _ := c.Exists(gone); ok {
			t.Fatalf("%s survived recovery", gone)
		}
	}
	if seq, err := c.Create("/txns/t-", nil, FlagSequence); err != nil || seq != "/txns/t-0000000005" {
		t.Fatalf("next sequence node = %q, %v", seq, err)
	}
	c.Kill()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, v1) {
		t.Fatalf("recovery rewrote %s as %d bytes that differ from the %d it read", snap, len(again), len(v1))
	}
}

// snapshotBenchSizes are the tree sizes the snapshot benchmarks run
// at, in nodes of 700 B.
var snapshotBenchSizes = []struct {
	name  string
	nodes int
}{{"8k", 8 << 10}, {"32k", 32 << 10}}

// snapshotBenchEnsemble opens a durable ensemble (SyncNone, no
// automatic snapshots) whose tree holds nodes nodes of 700 B spread
// over 16 directories. The nodes are applied directly, not logged.
func snapshotBenchEnsemble(b *testing.B, nodes int) *Ensemble {
	b.Helper()
	e := openDurable(b, b.TempDir(), -1)
	e.mu.Lock()
	defer e.mu.Unlock()
	create := func(path string, data []byte) {
		op, err := validateOp(e.tree, CreateOp(path, data, 0))
		if err != nil {
			b.Fatal(err)
		}
		e.zxid++
		e.applyLocked(op)
	}
	create("/b", nil)
	for d := 0; d < 16; d++ {
		create(fmt.Sprintf("/b/d%02d", d), nil)
	}
	data := make([]byte, 700)
	for i := 0; i < nodes; i++ {
		create(fmt.Sprintf("/b/d%02d/n%06d", i%16, i), data)
	}
	return e
}

// BenchmarkSnapshotLockHold: how long one snapshot holds the commit
// lock — the WAL roll plus the capture of the tree's persistent nodes.
// Every commit on the shard waits this long once per SnapshotEvery
// appends.
func BenchmarkSnapshotLockHold(b *testing.B) {
	for _, size := range snapshotBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			e := snapshotBenchEnsemble(b, size.nodes)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.mu.Lock()
				err := e.captureLocked()
				e.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotWrite: the part of a snapshot that runs off the
// commit lock — encoding the capture into the snapshot file, fsync,
// rename and prune.
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, size := range snapshotBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			e := snapshotBenchEnsemble(b, size.nodes)
			defer e.Close()
			e.mu.Lock()
			err := e.captureLocked()
			e.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			write := func() {
				if err := e.pstore.WriteSnapshot(e.snap.zxid, e.snap.encode); err != nil {
					b.Fatal(err)
				}
			}
			write()
			st, err := os.Stat(filepath.Join(e.pstore.Dir(), fmt.Sprintf("snap-%016x.snap", e.snap.zxid)))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

// TestRestartCorruptSegmentDropsLaterSegments: when recovery stops at
// a corrupt record, the segments after it hold records that are not
// part of the recovered state. Recovery's compaction snapshot deletes
// them, so a later restart never replays them behind new writes.
func TestRestartCorruptSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, -1)
	c := e.Connect()
	createOrFail(t, c, "/a", []byte("1"), 0) // zxid 1
	createOrFail(t, c, "/b", []byte("2"), 0) // zxid 2
	c.Kill()
	e.Close()
	// A later segment, as a previous incarnation would have rolled to.
	ps, err := persist.Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Roll(3); err != nil {
		t.Fatal(err)
	}
	op, err := validateOp(newTree(), CreateOp("/stale", []byte("s"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Append(3, encodeOp(nil, op)); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	// Corrupt /b's record, the last of the first segment: replay stops
	// there and never reads the later segment.
	first := filepath.Join(dir, "wal-0000000000000001.log")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir, -1)
	c2 := e2.Connect()
	createOrFail(t, c2, "/c", []byte("3"), 0)
	c2.Kill()
	e2.Close()

	e3 := openDurable(t, dir, -1)
	defer e3.Close()
	c3 := e3.Connect()
	defer c3.Close()
	for path, want := range map[string]bool{"/a": true, "/b": false, "/c": true, "/stale": false} {
		if ok, _, _ := c3.Exists(path); ok != want {
			t.Fatalf("%s exists = %v after the second restart, want %v", path, ok, want)
		}
	}
}
