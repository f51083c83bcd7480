package tropic_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// shardedPlatform starts a logical-only sharded platform. The topology
// uses one storage host per compute host so that (almost) every shard
// owns at least one colocated storage/compute pair to spawn on.
func shardedPlatform(t *testing.T, shards, hosts, controllers int) *tropic.Platform {
	t.Helper()
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildModel(),
		Controllers: controllers,
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	return p
}

// shardLocalSpawns builds one spawnVM op per compute host whose shard
// also owns a storage host, pairing each host with a same-shard storage
// host. Returns parallel slices of (storagePath, hostPath) and the set
// of shards covered.
func shardLocalSpawns(t *testing.T, p *tropic.Platform, hosts int) (storage, compute []string, covered map[int]bool) {
	t.Helper()
	storageByShard := make(map[int][]string)
	for i := 0; i < hosts; i++ { // ComputePerStorage 1 → one storage host per compute host
		sp := tcloud.StorageHostPath(i)
		s, err := p.ShardOf(tcloud.ProcSpawnVM, sp)
		if err != nil {
			t.Fatal(err)
		}
		storageByShard[s] = append(storageByShard[s], sp)
	}
	covered = make(map[int]bool)
	for i := 0; i < hosts; i++ {
		hp := tcloud.ComputeHostPath(i)
		s, err := p.ShardOf(tcloud.ProcSpawnVM, hp)
		if err != nil {
			t.Fatal(err)
		}
		pool := storageByShard[s]
		if len(pool) == 0 {
			continue // this shard owns no storage host; skip its hosts
		}
		storage = append(storage, pool[i%len(pool)])
		compute = append(compute, hp)
		covered[s] = true
	}
	if len(compute) < hosts/2 {
		t.Fatalf("only %d of %d hosts are spawnable (degenerate shard layout)", len(compute), hosts)
	}
	return storage, compute, covered
}

// TestShardedLifecycle: submissions route to their resource roots'
// shard, ids are shard-qualified, and Get/Wait/WatchTxn/List/Signal all
// resolve through the id prefix. Work spreads over more than one shard.
func TestShardedLifecycle(t *testing.T) {
	const shards, hosts = 3, 12
	p := shardedPlatform(t, shards, hosts, 1)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	storage, compute, covered := shardLocalSpawns(t, p, hosts)
	if len(covered) < 2 {
		t.Fatalf("workload covers %d shards, want ≥ 2", len(covered))
	}

	ids := make([]string, len(compute))
	for i := range compute {
		id, err := cli.Submit(tcloud.ProcSpawnVM, storage[i], compute[i], fmt.Sprintf("svm%d", i), "1024")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want, _ := p.ShardOf(tcloud.ProcSpawnVM, compute[i])
		if !strings.HasPrefix(id, fmt.Sprintf("s%d-", want)) {
			t.Fatalf("id %q not qualified with owning shard %d", id, want)
		}
		ids[i] = id
	}
	for _, id := range ids {
		rec, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("txn %s: %s (%s)", id, rec.State, rec.Error)
		}
		if rec.ID != id {
			t.Fatalf("record id %q != submitted id %q", rec.ID, id)
		}
	}

	// Get resolves by prefix; an unqualified id is a typed not-found.
	if rec, err := cli.Get(ids[0]); err != nil || rec.ID != ids[0] {
		t.Fatalf("get %s: %v %v", ids[0], rec, err)
	}
	if _, err := cli.Get("t-0000000000"); !errors.Is(err, trerr.TxnNotFound) {
		t.Fatalf("unqualified id error = %v, want txn.not_found", err)
	}

	// WatchTxn delivers the terminal record with the qualified id.
	ch, err := cli.WatchTxn(ctx, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	var last *tropic.Txn
	for rec := range ch {
		last = rec
	}
	if last == nil || last.ID != ids[1] || !last.State.Terminal() {
		t.Fatalf("watch ended with %+v", last)
	}

	// List walks every shard exactly once via composite cursors.
	seen := make(map[string]bool)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("list cursor does not terminate")
		}
		page, err := cli.List(tropic.ListOptions{Cursor: cursor, Limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Txns {
			if seen[rec.ID] {
				t.Fatalf("list returned %s twice", rec.ID)
			}
			seen[rec.ID] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != len(ids) {
		t.Fatalf("list found %d records, want %d", len(seen), len(ids))
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("list missed %s", id)
		}
	}

	// Signal on a terminal transaction is a no-op that still resolves
	// the shard (no "not found" from mis-routing).
	if err := cli.Signal(ids[0], tropic.SignalTerm); err != nil {
		t.Fatalf("signal routed wrong: %v", err)
	}

	// All queues drain on every shard (the signal notice above is
	// consumed asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for {
		depths := p.QueueDepths()
		if depths.InQ == 0 && depths.PhyQ == 0 && depths.TodoQ == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depths never drained: %+v", depths)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardedRestartPreservesState: a durable sharded platform keeps
// one WAL per shard under DataDir/shard-NN; stopping the whole process
// and restarting from the same directory preserves every committed
// transaction record — on every shard, with its shard-qualified id
// intact.
func TestShardedRestartPreservesState(t *testing.T) {
	const shards, hosts = 3, 12
	dir := t.TempDir()
	build := func() *tropic.Platform {
		p, err := tropic.New(tropic.Config{
			Schema:      tcloud.NewSchema(),
			Procedures:  tcloud.Procedures(),
			Bootstrap:   tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildModel(),
			Controllers: 1,
			Shards:      shards,
			DataDir:     dir,
			SyncPolicy:  tropic.SyncNone, // process-crash durability is what's under test
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := p.Start(ctx); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := build()
	cli := p.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	storage, compute, covered := shardLocalSpawns(t, p, hosts)
	if len(covered) < 2 {
		t.Fatalf("workload covers %d shards, want ≥ 2", len(covered))
	}
	var ids []string
	for i := range compute {
		rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
			storage[i], compute[i], fmt.Sprintf("pvm%d", i), "1024")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn %d: %v %v", i, rec, err)
		}
		ids = append(ids, rec.ID)
	}
	cli.Close()
	if err := p.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// Restart from the same directory: every shard recovers its own WAL.
	p2 := build()
	t.Cleanup(func() { p2.Stop() })
	cli2 := p2.Client()
	defer cli2.Close()
	for _, id := range ids {
		rec, err := cli2.Get(id)
		if err != nil {
			t.Fatalf("get %s after restart: %v", id, err)
		}
		if rec.State != tropic.StateCommitted || rec.ID != id {
			t.Fatalf("restarted record %s = %s (id %s)", id, rec.State, rec.ID)
		}
	}
	// The recovered platform still serves new work on every shard.
	for i := range compute[:3] {
		rec, err := cli2.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
			storage[i], compute[i], fmt.Sprintf("pvm2_%d", i), "1024")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("post-restart spawn %d: %v %v", i, rec, err)
		}
	}
}

// TestShardedIdempotency: resubmitting the same key+args dedups through
// the owning shard; reusing the key for different same-shard args is a
// typed reuse error.
func TestShardedIdempotency(t *testing.T) {
	const shards, hosts = 3, 12
	p := shardedPlatform(t, shards, hosts, 1)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	storage, compute, _ := shardLocalSpawns(t, p, hosts)
	id1, deduped, err := cli.SubmitIdempotent(ctx, "ikey", tcloud.ProcSpawnVM, storage[0], compute[0], "ivm", "1024")
	if err != nil || deduped {
		t.Fatalf("first submit: %v deduped=%v", err, deduped)
	}
	id2, deduped, err := cli.SubmitIdempotent(ctx, "ikey", tcloud.ProcSpawnVM, storage[0], compute[0], "ivm", "1024")
	if err != nil || !deduped || id2 != id1 {
		t.Fatalf("resubmit: id=%s deduped=%v err=%v (want %s, true)", id2, deduped, err, id1)
	}
	if _, _, err := cli.SubmitIdempotent(ctx, "ikey", tcloud.ProcSpawnVM, storage[0], compute[0], "OTHER", "1024"); !errors.Is(err, trerr.SubmitIdempotencyReuse) {
		t.Fatalf("reuse error = %v, want submit.idempotency_reuse", err)
	}
	if rec, err := cli.Wait(ctx, id1); err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("wait %s: %v %v", id1, rec, err)
	}
}
