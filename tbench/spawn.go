package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/shard"
	"repro/tcloud"
	"repro/tropic"
)

// spawn: one shard, a window of spawnVM transactions on disjoint host
// pairs. The single-shard write path does all the work (submit group
// commit, WAL and snapshots, controller event rounds, worker, report,
// cleanup); 2PC is idle and the read path only delivers completions.
func spawnSizes(seconds int) sizes {
	return sizes{
		reps:       3,
		hosts:      256,
		window:     4,
		warmup:     1600,
		timed:      650 * seconds,
		lists:      64,
		cacheBytes: cacheBytes,
	}
}

// spanning: the same generator on two shards, every transaction pairing
// a storage host and a compute host of different shards, so each one
// runs two-phase commit. Disjoint pairs keep lock conflicts, and with
// them wound aborts and prepare-deadline stalls, out of the run.
func spanningSizes(seconds int) sizes {
	return sizes{
		reps:       3,
		hosts:      256,
		window:     8,
		skew:       650,
		warmup:     1110,
		timed:      312 * seconds,
		lists:      64,
		cacheBytes: cacheBytes,
	}
}

func runSpawn(ctx context.Context, env *runEnv) (*phase, error) {
	return runWindowed(ctx, env, 1)
}

func runSpanning(ctx context.Context, env *runEnv) (*phase, error) {
	return runWindowed(ctx, env, 2)
}

// runWindowed is one repetition of spawn or spanning: a fresh platform
// and data directory, a warm-up, the timed transactions, then the list
// pages.
func runWindowed(ctx context.Context, env *runEnv, shards int) (*phase, error) {
	sz := env.sizes
	t0 := time.Now()
	p, err := startPlatform(ctx, env.tr, platformConfig(shards, sz.hosts, env.dir, sz.cacheBytes))
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	pairs, err := hostPairs(p, sz.hosts, shards > 1, rand.New(rand.NewSource(env.opts.seed)))
	if err != nil {
		return nil, err
	}
	cli := p.Client()
	defer cli.Close()
	if sz.skew > 0 {
		// Every spanning transaction appends to both shards' WALs at
		// nearly the same rate, so the two shards would snapshot at
		// nearly the same moment, overlapping or not by the luck of a
		// few hundred appends. Shard-local spawns on shard 0 first put
		// its snapshots half an interval away from shard 1's.
		local, err := shardPairs(p, sz.hosts, 0)
		if err != nil {
			return nil, err
		}
		sk := newGenerator(cli, local, sz.window, 1, nil)
		sk.prefix = "sk"
		if err := sk.warm(ctx, sz.skew); err != nil {
			return nil, fmt.Errorf("shard-0 warm-up: %w", err)
		}
	}
	g := newGenerator(cli, pairs, sz.window, shards, env.tr)
	if err := g.warm(ctx, sz.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ph := &phase{setup: time.Since(t0).Seconds()}
	g.listEvery = sz.timed / sz.lists
	if err := timed(ctx, env, p, ph, func() error { return g.run(ctx, sz.timed, ph) }); err != nil {
		return nil, err
	}
	return ph, nil
}

// timed runs body as the timed phase: counter snapshots around it, the
// phase clock, and in a traced run the heap sampler.
func timed(ctx context.Context, env *runEnv, p *tropic.Platform, ph *phase, body func() error) error {
	ph.before = snapshot(p)
	var hs *heapSampler
	if env.tr != nil {
		hs = startHeapSampler()
	}
	clock, err := startClock(env)
	if err != nil {
		return err
	}
	ph.timedFrom = clock.start
	runErr := body()
	if err := clock.stopClock(ph); err != nil && runErr == nil {
		runErr = err
	}
	ph.timedTo = time.Now()
	if hs != nil {
		ph.heapMax = hs.stop()
	}
	ph.after = snapshot(p)
	ph.checkCounters()
	return runErr
}

// pair is the (storage host, compute host) a spawn uses.
type pair struct{ storage, compute string }

// hostPairs builds disjoint host pairs in a seeded order: on one shard
// storage host i with compute host i, on two shards every storage host
// with a compute host owned by the other shard.
func hostPairs(p *tropic.Platform, hosts int, cross bool, rng *rand.Rand) ([]pair, error) {
	storage, compute, err := hostsByShard(p, hosts)
	if err != nil {
		return nil, err
	}
	var pairs []pair
	if cross {
		pairs = append(zipPairs(storage[0], compute[1]), zipPairs(storage[1], compute[0])...)
	} else {
		pairs = zipPairs(storage[0], compute[0])
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs, nil
}

// shardPairs builds the host pairs whose storage and compute hosts are
// both owned by shard s.
func shardPairs(p *tropic.Platform, hosts, s int) ([]pair, error) {
	storage, compute, err := hostsByShard(p, hosts)
	if err != nil {
		return nil, err
	}
	return zipPairs(storage[s], compute[s]), nil
}

// hostsByShard groups the storage and compute host paths by the shard
// that owns them, in host order.
func hostsByShard(p *tropic.Platform, hosts int) (storage, compute map[int][]string, err error) {
	storage, compute = map[int][]string{}, map[int][]string{}
	for i := 0; i < hosts; i++ {
		sp, hp := tcloud.StorageHostPath(i), tcloud.ComputeHostPath(i)
		ss, err := p.ShardOf(tcloud.ProcSpawnVM, sp)
		if err != nil {
			return nil, nil, err
		}
		hs, err := p.ShardOf(tcloud.ProcSpawnVM, hp)
		if err != nil {
			return nil, nil, err
		}
		storage[ss] = append(storage[ss], sp)
		compute[hs] = append(compute[hs], hp)
	}
	return storage, compute, nil
}

func zipPairs(storage, compute []string) []pair {
	var pairs []pair
	for i := 0; i < len(storage) && i < len(compute); i++ {
		pairs = append(pairs, pair{storage[i], compute[i]})
	}
	return pairs
}

// generator is the closed-loop load of spawn and spanning: one
// goroutine keeps a fixed window of spawnVM transactions in flight,
// submitting with Client.Submit and collecting outcomes from
// Client.WatchTxn, and hands every host pair to one transaction at a
// time, so no two in-flight transactions share a lock.
type generator struct {
	cli    *tropic.Client
	pairs  []pair
	free   []int // idle pair indices, oldest first
	window int
	shards int
	prefix string // VM name prefix; VM names are unique per compute host
	names  int
	tr     *tracer
	// listEvery > 0 reads one list page after every listEvery
	// completions, each page continuing from the previous one.
	listEvery  int
	listCursor string
	// committed, when non-nil, collects the ids of committed
	// transactions (readmix seeds its record set this way).
	committed []string
}

func newGenerator(cli *tropic.Client, pairs []pair, window, shards int, tr *tracer) *generator {
	g := &generator{cli: cli, pairs: pairs, window: window, shards: shards, prefix: "vm", tr: tr}
	for i := range pairs {
		g.free = append(g.free, i)
	}
	return g
}

// flight is one transaction in the window.
type flight struct {
	id        string
	pair      int
	start     time.Time
	submitted time.Time
}

// warm pushes n transactions through the window and fails on any
// failed check.
func (g *generator) warm(ctx context.Context, n int) error {
	var ph phase
	if err := g.run(ctx, n, &ph); err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("%d of %d checked operations failed", ph.failed, ph.attempted)
	}
	return nil
}

// run pushes n transactions through the window and checks each one.
func (g *generator) run(ctx context.Context, n int, ph *phase) error {
	// Case 0 is the run's context; case i > 0 watches flights[i].
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())}}
	flights := []*flight{nil}
	submitted, done := 0, 0
	for done < n {
		for len(flights)-1 < g.window && submitted < n {
			submitted++
			f, ch, err := g.submit(ctx)
			ph.attempted++
			if err != nil {
				ph.ops++
				done++
				ph.fail("submit: %v", err)
				continue
			}
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
			flights = append(flights, f)
		}
		if len(flights) == 1 {
			continue
		}
		i, v, ok := reflect.Select(cases)
		if i == 0 {
			return fmt.Errorf("%d of %d transactions unfinished: %w", n-done, n, ctx.Err())
		}
		var rec *tropic.Txn
		if ok {
			if rec = v.Interface().(*tropic.Txn); !rec.State.Terminal() {
				continue
			}
		}
		now := time.Now()
		f := flights[i]
		last := len(flights) - 1
		flights[i], cases[i] = flights[last], cases[last]
		flights, cases = flights[:last], cases[:last]
		g.free = append(g.free, f.pair)
		done++
		g.complete(ctx, f, rec, now, ph)
		if g.listEvery > 0 && done%g.listEvery == 0 {
			g.listCursor = g.list(g.listCursor, ph)
		}
	}
	return nil
}

func (g *generator) submit(ctx context.Context) (*flight, <-chan *tropic.Txn, error) {
	if len(g.free) == 0 {
		return nil, nil, errors.New("no idle host pair: window larger than the topology")
	}
	idx := g.free[0]
	g.free = g.free[1:]
	pr := g.pairs[idx]
	g.names++
	f := &flight{pair: idx, start: time.Now()}
	id, err := g.cli.Submit(tcloud.ProcSpawnVM, pr.storage, pr.compute, fmt.Sprintf("%s%07d", g.prefix, g.names), "1024")
	f.submitted = time.Now()
	if err != nil {
		g.free = append(g.free, idx)
		return nil, nil, err
	}
	f.id = id
	ch, err := g.cli.WatchTxn(ctx, id)
	if err != nil {
		g.free = append(g.free, idx)
		return nil, nil, fmt.Errorf("watch %s: %w", id, err)
	}
	return f, ch, nil
}

// complete checks a finished transaction: it ended committed, and a
// read of its record agrees or, on two shards, reads of its children
// show every child committed with it.
func (g *generator) complete(ctx context.Context, f *flight, rec *tropic.Txn, now time.Time, ph *phase) {
	ph.ops++
	root := g.tr.add("txn", f.id, f.start, now, -1)
	g.tr.add("tropic.Submit", f.id, f.start, f.submitted, root)
	switch {
	case rec == nil:
		ph.fail("%s: watch ended before a terminal state", f.id)
		return
	case rec.State != tropic.StateCommitted:
		ph.fail("%s: ended %s (%s %s)", f.id, rec.State, rec.Code, rec.Error)
		return
	}
	ph.txns++
	ph.txnLat = append(ph.txnLat, ms(now.Sub(f.start)))
	if g.committed != nil {
		g.committed = append(g.committed, f.id)
	}
	if g.tr != nil {
		g.tr.history(f.id, rec, root)
		if !rec.CompletedAt.IsZero() {
			g.tr.add("tropic.WatchTxn.deliver", f.id, rec.CompletedAt, now, root)
		}
	}
	if g.shards == 1 {
		if got := g.read(f.id, root, ph); got != nil && got.State != tropic.StateCommitted {
			ph.fail("%s: watch saw committed, read saw %s", f.id, got.State)
		}
		return
	}
	// The watch delivered the parent's terminal record; its children
	// are read back.
	if len(rec.Children) != 2 {
		ph.fail("%s: %d children, want 2", f.id, len(rec.Children))
		return
	}
	for _, c := range rec.Children {
		child := g.read(c.ID, root, ph)
		if child == nil {
			continue
		}
		if !child.State.Terminal() {
			// Session consistency covers this client's own writes only,
			// so a follower may serve a child before its final commit:
			// wait for its outcome.
			ph.staleReads++
			t0 := time.Now()
			var err error
			child, err = g.cli.Wait(ctx, c.ID)
			g.tr.add("tropic.Wait", c.ID, t0, time.Now(), root)
			if err != nil {
				ph.fail("%s: wait for child %s: %v", f.id, c.ID, err)
				continue
			}
		}
		if child.State != tropic.StateCommitted {
			ph.fail("%s: parent committed, child %s %s", f.id, c.ID, child.State)
		}
		g.tr.history(c.ID, child, root)
	}
}

// read fetches a record through the client and checks it is the one
// asked for; nil means the read failed (and was counted).
func (g *generator) read(id string, root int32, ph *phase) *tropic.Txn {
	t0 := time.Now()
	rec, err := g.cli.Get(id)
	d := time.Since(t0)
	ph.attempted++
	g.tr.add("tropic.Get", id, t0, t0.Add(d), root)
	if err != nil {
		ph.fail("get %s: %v", id, err)
		return nil
	}
	if rec.ID != id {
		ph.fail("get %s returned %s", id, rec.ID)
		return nil
	}
	ph.readLat = append(ph.readLat, us(d))
	return rec
}

// list reads the page of records after cursor, checks it is in
// ascending id order, and returns the cursor of the next page ("" at
// the end or on failure).
func (g *generator) list(cursor string, ph *phase) string {
	t0 := time.Now()
	page, err := g.cli.List(tropic.ListOptions{Cursor: cursor, Limit: listPageSize})
	d := time.Since(t0)
	ph.attempted++
	g.tr.add("tropic.List", "", t0, t0.Add(d), -1)
	if err == nil && len(page.Txns) > 0 {
		after := cursor
		if g.shards > 1 {
			after = "" // a sharded cursor names its shard, not a record
		}
		err = ascending(page, after, g.shards)
	}
	if err != nil {
		ph.fail("list after %q: %v", cursor, err)
		return ""
	}
	ph.listLat = append(ph.listLat, ms(d))
	return page.NextCursor
}

// ascending checks a page is non-empty and in strictly ascending record
// order after the cursor. On a sharded platform the order is that of
// the shard-local record names.
func ascending(page *tropic.TxnPage, after string, shards int) error {
	if len(page.Txns) == 0 {
		return errors.New("empty page")
	}
	prev := after
	for _, rec := range page.Txns {
		key := rec.ID
		if shards > 1 && !rec.IsChild() {
			if _, local, ok := shard.ParseID(rec.ID, shards); ok {
				key = local
			}
		}
		if prev != "" && key <= prev {
			return fmt.Errorf("id %s does not follow %s", key, prev)
		}
		prev = key
	}
	return nil
}
