package store

import (
	"sync"
	"time"
)

// Default batching bounds, used by callers that leave BatcherConfig
// fields zero. 32 ops matches the batch
// size the pipeline benchmarks ablate; 2ms is the flush-latency ceiling.
const (
	DefaultBatchMaxOps   = 32
	DefaultBatchMaxDelay = 2 * time.Millisecond
)

// BatcherConfig bounds a Batcher's coalescing window.
type BatcherConfig struct {
	// MaxOps caps how many operations ride one group commit (default
	// DefaultBatchMaxOps); excess pending work flushes in follow-up
	// groups, bounding how long one commit holds the ensemble.
	MaxOps int
	// MaxDelay is the flush-latency ceiling: no submission waits longer
	// than this for its group commit to begin (default
	// DefaultBatchMaxDelay). The batcher is self-clocking — a submission
	// finding the flusher idle flushes immediately, and work arriving
	// during an in-flight commit flushes right after it — so in practice
	// flushes begin far sooner; MaxDelay is the backstop sweep.
	MaxDelay time.Duration
	// OnFlush, when non-nil, observes every group commit (operation
	// count and wall time) — the hook the platform uses to export
	// group-commit size and latency distributions to its metrics
	// registry. Called from the flush path; keep it cheap.
	OnFlush func(ops int, d time.Duration)
}

func (cfg BatcherConfig) withDefaults() BatcherConfig {
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultBatchMaxOps
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultBatchMaxDelay
	}
	return cfg
}

// pendingGroup is one not-yet-flushed submission and the capacity-1
// channel its outcome is delivered on (the batcher is its sole writer,
// so delivery never blocks).
type pendingGroup struct {
	ops []Op
	ch  chan error
}

// Batcher coalesces concurrent Multi submissions into group commits: a
// flush hands every pending batch to Client.MultiAll, so the whole run
// pays one ensemble proposal round (one quorum-latency charge, one WAL
// fsync) with per-batch error demultiplexing. It is the one
// asynchronous write path of the store client: the worker, each
// platform client and each controller peer session own one, so
// independent callers sharing a session amortize the store round trip
// that otherwise dominates per-transaction cost. MaxOps: 1 makes it a
// batch of one — every submission commits alone, in submission order.
type Batcher struct {
	cli *Client
	cfg BatcherConfig

	mu      sync.Mutex
	pending []pendingGroup
	nops    int
	stopped bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewBatcher creates a batcher over the client's session and starts its
// flush loop. Its owner closes it: before closing the client (Close
// flushes what is pending), or after killing it (pending groups then
// fail with ErrSessionExpired).
func (c *Client) NewBatcher(cfg BatcherConfig) *Batcher {
	b := &Batcher{
		cli:  c,
		cfg:  cfg.withDefaults(),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// MultiAsync enqueues one atomic Multi batch and returns a buffered
// channel that delivers its demultiplexed outcome after the group
// commit it rode in.
func (b *Batcher) MultiAsync(ops ...Op) <-chan error {
	ch := make(chan error, 1)
	if len(ops) == 0 {
		ch <- nil
		return ch
	}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		ch <- ErrClosed
		return ch
	}
	b.pending = append(b.pending, pendingGroup{ops: ops, ch: ch})
	b.nops += len(ops)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	return ch
}

// Close flushes whatever is pending and stops the loop. Subsequent
// submissions fail with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.stopped = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// loop drains pending work as soon as it appears (self-clocking: the
// commit in flight is the accumulation window for the next group). An
// idle batcher blocks on its kick channel alone; the MaxDelay sweep —
// the backstop latency bound — is armed only while work is pending.
func (b *Batcher) loop() {
	defer close(b.done)
	for {
		b.mu.Lock()
		idle := b.nops == 0
		b.mu.Unlock()
		if idle {
			select {
			case <-b.stop:
				b.drain()
				return
			case <-b.kick:
			}
		} else {
			t := time.NewTimer(b.cfg.MaxDelay)
			select {
			case <-b.stop:
				t.Stop()
				b.drain()
				return
			case <-b.kick:
				t.Stop()
			case <-t.C:
			}
		}
		b.drain()
	}
}

// drain flushes until nothing is pending.
func (b *Batcher) drain() {
	for {
		b.mu.Lock()
		n := b.nops
		b.mu.Unlock()
		if n == 0 {
			return
		}
		b.flushNow()
	}
}

// flushNow group-commits up to MaxOps pending operations (always at
// least one whole batch) and demultiplexes the per-batch results to
// their waiters. Only the loop goroutine flushes, so batches commit in
// submission order.
func (b *Batcher) flushNow() {
	b.mu.Lock()
	take := len(b.pending)
	nops := 0
	for i, g := range b.pending {
		if i > 0 && nops+len(g.ops) > b.cfg.MaxOps {
			take = i
			break
		}
		nops += len(g.ops)
	}
	batch := b.pending[:take:take]
	b.pending = b.pending[take:]
	b.nops -= nops
	b.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	groups := make([][]Op, len(batch))
	for i, g := range batch {
		groups[i] = g.ops
	}
	start := time.Now()
	errs := b.cli.MultiAll(groups...)
	if b.cfg.OnFlush != nil {
		b.cfg.OnFlush(nops, time.Since(start))
	}
	for i, g := range batch {
		g.ch <- errs[i]
	}
}
