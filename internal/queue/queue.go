// Package queue implements distributed FIFO queues on top of the
// coordination store, following the ZooKeeper queue recipe TROPIC uses
// for inputQ and phyQ: each item is a persistent sequence node under the
// queue path, consumers take the lowest-numbered child, and a successful
// delete is what claims the item, so every item is consumed exactly once
// even with many competing consumers.
//
// Producers append with PutOp inside their own atomic Multi batches.
// The takes (TakeBatch, TakeHeadBatch) move many items per store round
// trip, and every blocking take waits on one reusable child watch
// instead of polling — the two halves of the pipeline's event-driven
// redesign.
package queue

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/store"
)

// ItemPrefix names queue entries under a queue path. Exported so depth
// gauges counting a queue's children recognize its items without
// duplicating the constant.
const ItemPrefix = "item-"

const itemPrefix = ItemPrefix

// Queue is a handle to one distributed FIFO queue. Multiple Queue values
// (across clients) may point at the same path and safely compete.
type Queue struct {
	cli  *store.Client
	path string
}

// Item is one queued entry, addressed by its znode path.
type Item struct {
	Path string
	Data []byte
}

// New opens (creating if needed) the queue rooted at path.
func New(cli *store.Client, path string) (*Queue, error) {
	if err := cli.EnsurePath(path); err != nil {
		return nil, fmt.Errorf("queue: ensure %s: %w", path, err)
	}
	return &Queue{cli: cli, path: path}, nil
}

// PutOp returns the store operation that appends an item, for inclusion
// in an atomic Multi batch (e.g. enqueue to phyQ and update transaction
// state in one commit).
func (q *Queue) PutOp(data []byte) store.Op { return ItemOp(q.path, data) }

// ItemOp returns the store operation that appends an item to the queue
// rooted at dir, for writers that hold no Queue on it: a client's submit
// batch, or a controller's send to a peer shard's inputQ.
func ItemOp(dir string, data []byte) store.Op {
	return store.CreateOp(dir+"/"+itemPrefix, data, store.FlagSequence)
}

// TakeBatch blocks until at least one item is available and claims up to
// max of them (it never waits for a full batch — it drains what is there
// and returns). The claim commit rides the caller's batcher, so it can
// share a group commit with whatever the batcher's other users have
// pending (e.g. a worker thread's claim alongside its siblings' outcome
// reports). The wait is watch-driven: one reusable child watch is armed
// for the whole call and released on return, so there is no poll loop,
// even when competing consumers win every claim (their deletions re-fire
// the same watch).
func (q *Queue) TakeBatch(ctx context.Context, max int, b *store.Batcher) ([][]byte, error) {
	if max <= 0 {
		max = 1
	}
	w, err := q.cli.ChildWatch(q.path)
	if err != nil {
		return nil, fmt.Errorf("queue: watch %s: %w", q.path, err)
	}
	defer w.Close()
	for {
		names, err := q.cli.Children(q.path)
		if err != nil {
			return nil, fmt.Errorf("queue: list %s: %w", q.path, err)
		}
		claimed, err := q.claimBatch(names, max, b)
		if err != nil {
			return nil, err
		}
		if len(claimed) > 0 {
			return claimed, nil
		}
		// Nothing claimable right now — either the queue is empty or
		// competitors won every race. Both cases end with a committed
		// mutation under q.path that fires the armed watch, so waiting
		// (rather than spinning) is lossless.
		if err := q.wait(ctx, w); err != nil {
			return nil, err
		}
	}
}

// wait blocks on the armed child watch until a membership change, ctx
// cancellation, or session expiry.
func (q *Queue) wait(ctx context.Context, w *store.Watch) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case ev, ok := <-w.C():
		if !ok || ev.Type == store.EventSessionExpired {
			return store.ErrSessionExpired
		}
		return nil
	}
}

// claimBatch claims up to max prefix-matching items from the listed
// names. It reads the candidates, then tries to claim them all in one
// atomic delete batch (one slot in the batcher's next group commit); if
// a competitor stole any candidate first, it falls back to claiming item
// by item.
func (q *Queue) claimBatch(names []string, max int, b *store.Batcher) ([][]byte, error) {
	type candidate struct {
		path string
		data []byte
	}
	var cands []candidate
	for _, name := range names {
		if len(cands) >= max {
			break
		}
		if !strings.HasPrefix(name, itemPrefix) {
			continue
		}
		itemPath := q.path + "/" + name
		data, _, err := q.cli.Get(itemPath)
		if errors.Is(err, store.ErrNoNode) {
			continue // another consumer won
		}
		if err != nil {
			return nil, fmt.Errorf("queue: get %s: %w", itemPath, err)
		}
		cands = append(cands, candidate{path: itemPath, data: data})
	}
	if len(cands) == 0 {
		return nil, nil
	}
	ops := make([]store.Op, len(cands))
	for i, c := range cands {
		ops[i] = store.DeleteOp(c.path, -1)
	}
	if err := <-b.MultiAsync(ops...); err == nil {
		out := make([][]byte, len(cands))
		for i, c := range cands {
			out[i] = c.data
		}
		return out, nil
	} else if !errors.Is(err, store.ErrNoNode) {
		return nil, fmt.Errorf("queue: claim batch on %s: %w", q.path, err)
	}
	// At least one candidate was claimed by a competitor, which fails
	// the whole atomic delete; claim the survivors one by one.
	var out [][]byte
	for _, c := range cands {
		err := q.cli.Delete(c.path, -1)
		if errors.Is(err, store.ErrNoNode) {
			continue // lost this one
		}
		if err != nil {
			return nil, fmt.Errorf("queue: claim %s: %w", c.path, err)
		}
		out = append(out, c.data)
	}
	return out, nil
}

// TakeHeadBatch blocks until at least one item is available and returns
// up to max head items WITHOUT removing them, in queue order. It is the
// batched drain of the lead controller's event loop: the controller
// processes the run and deletes each item atomically with the persistent
// effects of handling it, so a crash at any point neither loses nor
// double-applies a message. Like TakeBatch, the wait is watch-driven
// through one reusable child watch.
func (q *Queue) TakeHeadBatch(ctx context.Context, max int) ([]Item, error) {
	if max <= 0 {
		max = 1
	}
	w, err := q.cli.ChildWatch(q.path)
	if err != nil {
		return nil, fmt.Errorf("queue: watch %s: %w", q.path, err)
	}
	defer w.Close()
	for {
		names, err := q.cli.Children(q.path)
		if err != nil {
			return nil, fmt.Errorf("queue: list %s: %w", q.path, err)
		}
		var items []Item
		for _, name := range names {
			if len(items) >= max {
				break
			}
			if !strings.HasPrefix(name, itemPrefix) {
				continue
			}
			p := q.path + "/" + name
			data, _, err := q.cli.Get(p)
			if errors.Is(err, store.ErrNoNode) {
				continue
			}
			if err != nil {
				return nil, err
			}
			items = append(items, Item{Path: p, Data: data})
		}
		if len(items) > 0 {
			return items, nil
		}
		if err := q.wait(ctx, w); err != nil {
			return nil, err
		}
	}
}

// Remove deletes a specific item (by the path TakeHeadBatch returned).
func (q *Queue) Remove(itemPath string) error {
	err := q.cli.Delete(itemPath, -1)
	if errors.Is(err, store.ErrNoNode) {
		return nil
	}
	return err
}

// RemoveOp returns the store op deleting a specific item, for atomic
// consume-and-apply batches.
func (q *Queue) RemoveOp(itemPath string) store.Op {
	return store.DeleteOp(itemPath, -1)
}

// Len reports the number of queued items.
func (q *Queue) Len() (int, error) {
	names, err := q.cli.Children(q.path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, name := range names {
		if strings.HasPrefix(name, itemPrefix) {
			n++
		}
	}
	return n, nil
}
