package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openDurable(t *testing.T, dir string, snapEvery int) *Ensemble {
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

	got, nextSess, err := decodeTreeSnapshot(encodeTreeSnapshot(nil, tr, 123))
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

func createOrFail(t *testing.T, c *Client, path string, data []byte, flags int) {
	t.Helper()
	if _, err := c.Create(path, data, flags); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}
