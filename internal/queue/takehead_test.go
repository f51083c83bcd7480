package queue

import (
	"context"
	"testing"
	"time"

	"repro/internal/store"
)

func TestTakeHeadDoesNotRemove(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	put(t, q, "first", "second")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	data, path, err := takeHead(ctx, q)
	if err != nil || string(data) != "first" {
		t.Fatalf("head = %q err=%v", data, err)
	}
	// Still there: a second head read returns the same item.
	data2, path2, err := takeHead(ctx, q)
	if err != nil || string(data2) != "first" || path2 != path {
		t.Fatalf("second head = %q @%s", data2, path2)
	}
	if n, _ := q.Len(); n != 2 {
		t.Fatalf("len = %d", n)
	}
	// Remove advances the head.
	if err := q.Remove(path); err != nil {
		t.Fatal(err)
	}
	data3, _, err := takeHead(ctx, q)
	if err != nil || string(data3) != "second" {
		t.Fatalf("head after remove = %q", data3)
	}
	// Remove is idempotent.
	if err := q.Remove(path); err != nil {
		t.Fatal(err)
	}
}

func TestTakeHeadBlocksUntilPut(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")

	got := make(chan string, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		data, _, err := takeHead(ctx, q)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(data)
	}()
	time.Sleep(20 * time.Millisecond)
	put(t, q, "wake")
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("head read never woke")
	}
}

func TestTakeHeadContextCancel(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := takeHead(ctx, q); err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveOpInMulti(t *testing.T) {
	// The controller consumes the head atomically with its effects.
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	put(t, q, "msg")
	c.EnsurePath("/fx")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, path, err := takeHead(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Atomic: remove item + record effect. A failing sibling op must
	// leave the item queued.
	err = c.Multi(
		q.RemoveOp(path),
		store.DeleteOp("/missing", -1),
	)
	if err == nil {
		t.Fatal("bad multi succeeded")
	}
	if n, _ := q.Len(); n != 1 {
		t.Fatal("item lost by failed multi")
	}
	err = c.Multi(
		q.RemoveOp(path),
		store.CreateOp("/fx/done", nil, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := q.Len(); n != 0 {
		t.Fatal("item not consumed")
	}
	if ok, _, _ := c.Exists("/fx/done"); !ok {
		t.Fatal("effect missing")
	}
}

// takeHead reads the head item without removing it.
func takeHead(ctx context.Context, q *Queue) ([]byte, string, error) {
	items, err := q.TakeHeadBatch(ctx, 1)
	if err != nil {
		return nil, "", err
	}
	return items[0].Data, items[0].Path, nil
}
