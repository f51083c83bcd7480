package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/store/persist"
)

// seedOps are resolved ops of every kind, as the commit path encodes
// them for WAL records.
func seedOps() []Op {
	return []Op{
		{kind: opCreate, Path: "/a/b", Data: []byte("payload"), Flags: FlagEphemeral, Version: -1, session: 7, resolvedName: "b"},
		{kind: opSet, Path: "/x", Data: []byte("v2"), Version: 12},
		{kind: opDelete, Path: "/y", Version: -1},
		{kind: opExpireSession, session: 42},
		{kind: opMulti, ops: []Op{
			{kind: opCreate, Path: "/q/item-", Data: []byte("m"), Flags: FlagSequence, Version: -1, resolvedName: "item-0000000003"},
			{kind: opDelete, Path: "/q/item-0000000001", Version: 2},
			{kind: opSet, Path: "/q", Data: []byte("s"), Version: -1},
		}},
	}
}

// FuzzDecodeOp: recovery decodes every WAL record it finds on disk.
// Any input is rejected or decoded without a panic, and a decoded op
// re-encodes to a record that decodes to the same op.
func FuzzDecodeOp(f *testing.F) {
	for _, op := range seedOps() {
		f.Add(encodeOp(nil, op))
	}
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		op, err := decodeOp(b)
		if err != nil {
			return
		}
		again, err := decodeOp(encodeOp(nil, op))
		if err != nil {
			t.Fatalf("re-encoded op does not decode: %v", err)
		}
		if got, want := fmt.Sprintf("%+v", again), fmt.Sprintf("%+v", op); got != want {
			t.Fatalf("round trip:\n got %s\nwant %s", got, want)
		}
	})
}

// encodeSnapshot encodes t through the streaming snapshot encoder, as
// a snapshot file's payload.
func encodeSnapshot(tb testing.TB, t *tree, nextSess int64) []byte {
	tb.Helper()
	var c snapCapture
	c.capture(t, 0, nextSess)
	var buf bytes.Buffer
	if err := c.encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSnapshot: recovery decodes the latest snapshot payload on
// disk. Any input is rejected or decoded without a panic; a decoded
// tree re-encodes to a payload that decodes to the same tree, and every
// node's ordered child index matches its children map.
func FuzzDecodeSnapshot(f *testing.F) {
	tr := newTree()
	for _, op := range []Op{
		{kind: opCreate, Path: "/p", Data: []byte("persistent")},
		{kind: opCreate, Path: "/p/child", Data: []byte("c")},
		{kind: opCreate, Path: "/p/eph", session: 9},
		{kind: opCreate, Path: "/p/seq-", Flags: FlagSequence},
		{kind: opCreate, Path: "/p/seq-", Flags: FlagSequence},
		{kind: opSet, Path: "/p/child", Data: []byte("c2"), Version: -1},
	} {
		resolved, err := validateOp(tr, op, new([]Op))
		if err != nil {
			f.Fatal(err)
		}
		applyOp(tr, resolved, 1, nil)
	}
	f.Add(encodeSnapshot(f, tr, 123))
	// A payload as a durable ensemble's snapshot goroutine wrote it to
	// disk, read back the way recovery reads it.
	dir := f.TempDir()
	e := openDurable(f, dir, 20)
	c := e.Connect()
	if _, err := c.Create("/q", nil, 0); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Create("/q/item-", []byte{byte(i)}, FlagSequence); err != nil {
			f.Fatal(err)
		}
	}
	waitSnapshots(f, e, 1)
	c.Close()
	e.Close()
	ps, err := persist.Open(dir, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	payload, _, err := ps.LoadSnapshot()
	if err != nil || payload == nil {
		f.Fatalf("no snapshot on disk: %v", err)
	}
	f.Add(payload)
	f.Add([]byte{codecVersion, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		tr, nextSess, err := decodeTreeSnapshot(b)
		if err != nil {
			return
		}
		var walk func(n *znode)
		walk = func(n *znode) {
			checkIndex(t, n)
			for _, child := range n.children {
				walk(child)
			}
		}
		walk(tr.root)
		enc := encodeSnapshot(t, tr, nextSess)
		tr2, nextSess2, err := decodeTreeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if nextSess2 != nextSess || !bytes.Equal(encodeSnapshot(t, tr2, nextSess2), enc) {
			t.Fatal("snapshot round trip changed the tree")
		}
	})
}
