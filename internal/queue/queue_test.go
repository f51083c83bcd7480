package queue

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func newEnsemble(t *testing.T) *store.Ensemble {
	t.Helper()
	e := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: 200 * time.Millisecond})
	t.Cleanup(func() { e.Close() })
	return e
}

// put appends items to q in one atomic Multi, as producers do with
// PutOp.
func put(t *testing.T, q *Queue, items ...string) {
	t.Helper()
	ops := make([]store.Op, len(items))
	for i, it := range items {
		ops[i] = q.PutOp([]byte(it))
	}
	if err := q.cli.Multi(ops...); err != nil {
		t.Fatalf("put %q: %v", items, err)
	}
}

// newBatcher gives a consumer session the batcher its claims commit
// through (a batch of one), closed when the test ends.
func newBatcher(t *testing.T, cli *store.Client) *store.Batcher {
	b := cli.NewBatcher(store.BatcherConfig{MaxOps: 1})
	t.Cleanup(b.Close)
	return b
}

// takeOne claims the head item, failing the test after a second.
func takeOne(t *testing.T, q *Queue, b *store.Batcher) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, err := q.TakeBatch(ctx, 1, b)
	if err != nil || len(got) != 1 {
		t.Fatalf("take = %q, %v", got, err)
	}
	return string(got[0])
}

func TestFIFOOrder(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, err := New(c, "/tropic/inputQ")
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < 10; i++ {
		put(t, q, fmt.Sprint(i))
	}
	if n, _ := q.Len(); n != 10 {
		t.Fatalf("len = %d, want 10", n)
	}
	b := newBatcher(t, c)
	for i := 0; i < 10; i++ {
		if got := takeOne(t, q, b); got != fmt.Sprint(i) {
			t.Fatalf("take %d = %q, want %d (FIFO violated)", i, got, i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if got, err := q.TakeBatch(ctx, 1, b); err == nil {
		t.Fatalf("take from empty queue returned %q", got)
	}
}

func TestBlockingTake(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	b := newBatcher(t, c)

	got := make(chan string, 1)
	go func() {
		data, err := q.TakeBatch(context.Background(), 1, b)
		if err != nil {
			t.Errorf("take: %v", err)
			got <- ""
			return
		}
		got <- string(data[0])
	}()
	time.Sleep(20 * time.Millisecond) // let the taker block
	put(t, q, "wake")
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("take = %q, want wake", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking take never woke")
	}
}

func TestTakeContextCancel(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := q.TakeBatch(ctx, 1, newBatcher(t, c)); err != context.DeadlineExceeded {
		t.Fatalf("take err = %v, want DeadlineExceeded", err)
	}
}

func TestCompetingConsumersExactlyOnce(t *testing.T) {
	e := newEnsemble(t)
	producer := e.Connect()
	defer producer.Close()
	pq, _ := New(producer, "/q")

	const items = 60
	for i := 0; i < items; i++ {
		put(t, pq, fmt.Sprint(i))
	}

	const consumers = 6
	var mu sync.Mutex
	seen := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Connect()
			defer c.Close()
			q, err := New(c, "/q")
			if err != nil {
				t.Errorf("new: %v", err)
				return
			}
			b := c.NewBatcher(store.BatcherConfig{MaxOps: 1})
			defer b.Close()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				data, err := q.TakeBatch(ctx, 1, b)
				cancel()
				if err != nil {
					return // timeout: queue drained
				}
				mu.Lock()
				seen[string(data[0])]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != items {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), items)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("item %s consumed %d times", k, n)
		}
	}
}

func TestPutOpInMulti(t *testing.T) {
	e := newEnsemble(t)
	c := e.Connect()
	defer c.Close()
	q, _ := New(c, "/q")
	if err := c.EnsurePath("/state"); err != nil {
		t.Fatal(err)
	}
	// Atomically enqueue and write a state marker, as the controller does
	// when moving a transaction to phyQ.
	err := c.Multi(
		q.PutOp([]byte("job")),
		store.CreateOp("/state/t1", []byte("started"), 0),
	)
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if got := takeOne(t, q, newBatcher(t, c)); got != "job" {
		t.Fatalf("take = %q, want job", got)
	}
	if ok, _, _ := c.Exists("/state/t1"); !ok {
		t.Fatal("state marker missing")
	}
}
