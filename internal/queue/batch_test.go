package queue

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestPutAllTakeBatch: a batched put lands atomically in order; a
// batched take drains up to max without waiting for more.
func TestPutAllTakeBatch(t *testing.T) {
	e := store.NewEnsemble(store.Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	q, err := New(cli, "/q")
	if err != nil {
		t.Fatal(err)
	}
	var items []string
	for i := 0; i < 10; i++ {
		items = append(items, fmt.Sprintf("m%02d", i))
	}
	put(t, q, items...)
	ctx := context.Background()
	b := newBatcher(t, cli)
	got, err := q.TakeBatch(ctx, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got[0]) != "m00" || string(got[3]) != "m03" {
		t.Fatalf("first batch = %q", got)
	}
	got, err = q.TakeBatch(ctx, 100, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || string(got[0]) != "m04" {
		t.Fatalf("drain = %q", got)
	}
	if n, _ := q.Len(); n != 0 {
		t.Fatalf("len = %d after drain", n)
	}
}

// TestTakeBatchBlocksUntilPut: an empty queue's batched take waits on
// the child watch (no polling) and wakes on the first put.
func TestTakeBatchBlocksUntilPut(t *testing.T) {
	e := store.NewEnsemble(store.Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	q, err := New(cli, "/q")
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		batch [][]byte
		err   error
	}
	ch := make(chan res, 1)
	b := newBatcher(t, cli)
	go func() {
		batch, err := q.TakeBatch(context.Background(), 8, b)
		ch <- res{batch, err}
	}()
	select {
	case r := <-ch:
		t.Fatalf("take returned early: %v %v", r.batch, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	put(t, q, "wake")
	select {
	case r := <-ch:
		if r.err != nil || len(r.batch) != 1 || string(r.batch[0]) != "wake" {
			t.Fatalf("take = %q, %v", r.batch, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take never woke")
	}
}

// TestTakeBatchContention: competing batch consumers never lose or
// duplicate an item, even when their atomic claims collide and fall
// back to item-by-item claiming.
func TestTakeBatchContention(t *testing.T) {
	e := store.NewEnsemble(store.Config{})
	defer e.Close()
	producer := e.Connect()
	defer producer.Close()
	pq, err := New(producer, "/q")
	if err != nil {
		t.Fatal(err)
	}
	const total = 60
	for i := 0; i < total; i++ {
		put(t, pq, fmt.Sprintf("i%03d", i))
	}
	const consumers = 4
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := e.Connect()
			defer cli.Close()
			q, err := New(cli, "/q")
			if err != nil {
				t.Error(err)
				return
			}
			b := cli.NewBatcher(store.BatcherConfig{MaxOps: 8})
			defer b.Close()
			for {
				mu.Lock()
				done := len(seen) >= total
				mu.Unlock()
				if done {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				batch, err := q.TakeBatch(ctx, 5, b)
				cancel()
				if err != nil {
					return // timeout: queue drained
				}
				mu.Lock()
				for _, item := range batch {
					seen[string(item)]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), total)
	}
	for item, n := range seen {
		if n != 1 {
			t.Fatalf("item %s consumed %d times", item, n)
		}
	}
}

// TestTakeHeadBatchOrderAndNonRemoval: the controller-side drain returns
// head items in order without consuming them.
func TestTakeHeadBatchOrderAndNonRemoval(t *testing.T) {
	e := store.NewEnsemble(store.Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	q, err := New(cli, "/q")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, q, fmt.Sprintf("h%d", i))
	}
	items, err := q.TakeHeadBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || string(items[0].Data) != "h0" || string(items[2].Data) != "h2" {
		t.Fatalf("items = %v", items)
	}
	if n, _ := q.Len(); n != 5 {
		t.Fatalf("len = %d, TakeHeadBatch must not remove", n)
	}
	// Consuming the heads exposes the tail on the next drain.
	for _, it := range items {
		if err := q.Remove(it.Path); err != nil {
			t.Fatal(err)
		}
	}
	items, err = q.TakeHeadBatch(context.Background(), 10)
	if err != nil || len(items) != 2 || string(items[0].Data) != "h3" {
		t.Fatalf("tail = %v (%v)", items, err)
	}
}

// TestBlockingTakeLeaksNoWatches: every blocking take path arms exactly
// one reusable watch and releases it on return — the ensemble's watch
// table returns to its baseline, even for takes that raced competitors
// or were cancelled.
func TestBlockingTakeLeaksNoWatches(t *testing.T) {
	e := store.NewEnsemble(store.Config{})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	q, err := New(cli, "/q")
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(t, cli)
	baseNode, baseChild := e.WatchCounts()
	for i := 0; i < 10; i++ {
		put(t, q, "x")
		takeOne(t, q, b)
		put(t, q, "y")
		if _, err := q.TakeHeadBatch(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		takeOne(t, q, b)
	}
	// Cancelled waits release their watch too.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = q.TakeBatch(ctx, 1, b)
	cancel()
	if err == nil {
		t.Fatal("expected context error")
	}
	node, child := e.WatchCounts()
	if node != baseNode || child != baseChild {
		t.Fatalf("watch counts = (%d, %d), want baseline (%d, %d)", node, child, baseNode, baseChild)
	}
}
