package store

import (
	"errors"
	"testing"
)

func TestMultiCreateThenDeleteSamePath(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	err := c.Multi(
		CreateOp("/x", []byte("v"), 0),
		DeleteOp("/x", -1),
	)
	if err != nil {
		t.Fatalf("create+delete: %v", err)
	}
	if ok, _, _ := c.Exists("/x"); ok {
		t.Fatal("/x should not survive the batch")
	}
	// And the node can be created again afterwards.
	if _, err := c.Create("/x", nil, 0); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

func TestMultiDeleteThenRecreate(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/x", "old")
	err := c.Multi(
		DeleteOp("/x", -1),
		CreateOp("/x", []byte("new"), 0),
	)
	if err != nil {
		t.Fatalf("delete+recreate: %v", err)
	}
	data, st, _ := c.Get("/x")
	if string(data) != "new" || st.Version != 0 {
		t.Fatalf("node = %q v%d", data, st.Version)
	}
}

func TestMultiSequenceNamesUniqueWithinBatch(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/q", "")
	err := c.Multi(
		CreateOp("/q/item-", []byte("1"), FlagSequence),
		CreateOp("/q/item-", []byte("2"), FlagSequence),
		CreateOp("/q/item-", []byte("3"), FlagSequence),
	)
	if err != nil {
		t.Fatalf("multi seq: %v", err)
	}
	names, _ := c.Children("/q")
	if len(names) != 3 {
		t.Fatalf("children = %v", names)
	}
	want := []string{"item-0000000000", "item-0000000001", "item-0000000002"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	// Counter continues past the batch.
	p, _ := c.Create("/q/item-", nil, FlagSequence)
	if p != "/q/item-0000000003" {
		t.Fatalf("next = %s", p)
	}
}

func TestMultiVersionTracksEarlierSets(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/x", "v0") // version 0
	// Second set must use the post-first-set version.
	err := c.Multi(
		SetOp("/x", []byte("v1"), 0),
		SetOp("/x", []byte("v2"), 1),
	)
	if err != nil {
		t.Fatalf("chained sets: %v", err)
	}
	data, st, _ := c.Get("/x")
	if string(data) != "v2" || st.Version != 2 {
		t.Fatalf("node = %q v%d", data, st.Version)
	}
	// Wrong in-batch version is rejected and nothing applies.
	err = c.Multi(
		SetOp("/x", []byte("v3"), 2),
		SetOp("/x", []byte("v4"), 2), // stale: first set bumped to 3
	)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
	if data, _, _ := c.Get("/x"); string(data) != "v2" {
		t.Fatalf("partial apply: %q", data)
	}
}

func TestMultiDeleteParentWithBatchChildren(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	mustCreate(t, c, "/p", "")
	// Creating a child then deleting the parent must fail (not empty).
	err := c.Multi(
		CreateOp("/p/c", nil, 0),
		DeleteOp("/p", -1),
	)
	if !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	// Deleting the batch child first makes it legal.
	err = c.Multi(
		CreateOp("/p/c", nil, 0),
		DeleteOp("/p/c", -1),
		DeleteOp("/p", -1),
	)
	if err != nil {
		t.Fatalf("ordered teardown: %v", err)
	}
	if ok, _, _ := c.Exists("/p"); ok {
		t.Fatal("/p survived")
	}
}

func TestMultiCreateUnderBatchCreatedEphemeralFails(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	err := c.Multi(
		CreateOp("/e", nil, FlagEphemeral),
		CreateOp("/e/child", nil, 0),
	)
	if !errors.Is(err, ErrEphemeralChildren) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiExpireRejected(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	// opExpireSession is internal; clients cannot smuggle it into a
	// batch (no constructor), but defense in depth: validate rejects
	// unknown kinds.
	mv := newMultiValidator(newTree())
	if _, err := mv.validate(Op{kind: opExpireSession}); err == nil {
		t.Fatal("expire accepted in multi")
	}
}

// TestMultiResolvesInPlace: a Multi's sub-ops are resolved into a slice
// the ensemble reuses, so a Multi that sets existing nodes allocates
// nothing, however often it runs.
func TestMultiResolvesInPlace(t *testing.T) {
	e := newTestEnsemble(t)
	c := e.Connect()
	defer c.Close()
	data := []byte("v")
	ops := make([]Op, 8)
	for i := range ops {
		path := "/n" + string(rune('0'+i))
		if _, err := c.Create(path, nil, 0); err != nil {
			t.Fatal(err)
		}
		ops[i] = SetOp(path, data, -1)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Multi(ops...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a Multi of %d sets allocates %.0f times", len(ops), n)
	}
}
