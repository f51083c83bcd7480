package tropic_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// xshardPlatform starts a sharded platform with one counting executor
// per shard, so tests can assert WHERE (and how often) every physical
// action ran. mut, when non-nil, adjusts the config before New.
func xshardPlatform(t *testing.T, shards, hosts, controllers int, mut func(*tropic.Config)) (*tropic.Platform, []*countingExecutor) {
	t.Helper()
	execs := make([]tropic.Executor, shards)
	counters := make([]*countingExecutor, shards)
	for i := range execs {
		counters[i] = newCountingExecutor(tropic.NoopExecutor{})
		execs[i] = counters[i]
	}
	cfg := tropic.Config{
		Schema:         tcloud.NewSchema(),
		Procedures:     tcloud.Procedures(),
		Bootstrap:      tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildModel(),
		ShardExecutors: execs,
		Shards:         shards,
		Controllers:    controllers,
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := tropic.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	return p, counters
}

// crossShardPairs returns (storage, compute) host pairs whose resource
// roots hash to DIFFERENT shards, with the owning shards alongside.
func crossShardPairs(t *testing.T, p *tropic.Platform, hosts int) (pairs [][2]string, shardsOf [][2]int) {
	t.Helper()
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			sp, hp := tcloud.StorageHostPath(i), tcloud.ComputeHostPath(j)
			ss, _ := p.ShardOf(tcloud.ProcSpawnVM, sp)
			hs, _ := p.ShardOf(tcloud.ProcSpawnVM, hp)
			if ss != hs {
				pairs = append(pairs, [2]string{sp, hp})
				shardsOf = append(shardsOf, [2]int{ss, hs})
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no cross-shard (storage, compute) pair found (degenerate layout)")
	}
	return pairs, shardsOf
}

// drainAndCheckLocks waits for every shard's queues to empty and
// asserts no shard's recovered lock table leaks a lock.
func drainAndCheckLocks(t *testing.T, p *tropic.Platform, shards int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		d := p.QueueDepths()
		if d.InQ == 0 && d.PhyQ == 0 && d.TodoQ == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queues never drained: %+v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Prepared children release locks only at decision time; poll
	// briefly so late child-done/decide messages settle.
	deadline = time.Now().Add(10 * time.Second)
	for {
		leaked := 0
		for i := 0; i < shards; i++ {
			lead := p.ShardLeader(i)
			if lead == nil {
				t.Fatalf("shard %d has no leader", i)
			}
			leaked += lead.LockManager().LockCount()
		}
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < shards; i++ {
				t.Logf("shard %d locks: %d", i, p.ShardLeader(i).LockManager().LockCount())
			}
			t.Fatalf("%d locks leaked across shards", leaked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossShardCommit: a submission spanning two shards (storage host
// on one, compute host on another) commits atomically with cross-shard
// execution enabled (the default): the parent and both children end
// committed, the durable decision is "commit", and every one of the
// five spawn actions executed exactly once — each on the shard owning
// its path.
func TestCrossShardCommit(t *testing.T) {
	const shards, hosts = 3, 12
	p, counters := xshardPlatform(t, shards, hosts, 1, nil)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pairs, owners := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]
	sShard, cShard := owners[0][0], owners[0][1]
	const vm = "xcommitvm"

	id, err := cli.Submit(tcloud.ProcSpawnVM, storage, compute, vm, "1024")
	if err != nil {
		t.Fatalf("cross-shard submit: %v", err)
	}
	rec, err := cli.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if rec.State != tropic.StateCommitted {
		t.Fatalf("parent %s = %s (%s)", id, rec.State, rec.Error)
	}
	if rec.Decision != "commit" {
		t.Fatalf("parent decision = %q, want commit", rec.Decision)
	}
	if len(rec.Children) != 2 {
		t.Fatalf("parent has %d children, want 2: %+v", len(rec.Children), rec.Children)
	}
	sawDeciding := false
	for _, stamp := range rec.History {
		if stamp.State == tropic.StateDeciding {
			sawDeciding = true
		}
	}
	if !sawDeciding {
		t.Fatalf("parent history has no deciding stamp: %+v", rec.History)
	}
	for _, ref := range rec.Children {
		if ref.State != tropic.StateCommitted {
			t.Fatalf("child %s = %s (%s)", ref.ID, ref.State, ref.Error)
		}
		child, err := cli.Get(ref.ID)
		if err != nil {
			t.Fatalf("get child %s: %v", ref.ID, err)
		}
		if child.State != tropic.StateCommitted || child.Parent != id {
			t.Fatalf("child record %s: %s parent=%q", ref.ID, child.State, child.Parent)
		}
		// Each child's wait resolves too (terminal already).
		if w, err := cli.Wait(ctx, ref.ID); err != nil || w.State != tropic.StateCommitted {
			t.Fatalf("wait child %s: %v %v", ref.ID, w, err)
		}
	}

	// Physical effects: exactly once each, on the owning shard, nowhere
	// else. The two storage-side actions ran on the storage host's
	// shard; the three compute-side actions on the compute host's.
	img := tcloud.ImageName(vm)
	keys := map[int][]string{
		sShard: {
			"cloneImage " + storage + " " + tcloud.TemplateImage + "," + img,
			"exportImage " + storage + " " + img,
		},
		cShard: {
			"importImage " + compute + " " + img,
			"createVM " + compute + " " + vm + "," + img + ",1024",
			"startVM " + compute + " " + vm,
		},
	}
	for shardIdx, sigs := range keys {
		for _, key := range sigs {
			for i, ce := range counters {
				want := 0
				if i == shardIdx {
					want = 1
				}
				if got := ce.count(key); got != want {
					t.Fatalf("shard %d executed %q %d times, want %d", i, key, got, want)
				}
			}
		}
	}

	// Both participants' logical trees agree the VM exists (each child
	// applied the full simulation to its own tree).
	drainAndCheckLocks(t, p, shards)
	for _, s := range []int{sShard, cShard} {
		if !p.ShardLeader(s).LogicalTree().Exists(compute + "/" + vm) {
			t.Fatalf("shard %d logical tree lost %s/%s", s, compute, vm)
		}
	}
}

// TestCrossShardAbort: a spanning submission that violates a constraint
// during prepare (absurd memory demand) aborts atomically — parent
// aborted with xshard.prepare_failed, every child terminal aborted, no
// physical action ever ran, and no locks leak.
func TestCrossShardAbort(t *testing.T) {
	const shards, hosts = 3, 12
	p, counters := xshardPlatform(t, shards, hosts, 1, nil)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pairs, _ := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]

	rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM, storage, compute, "xabortvm", "99999999")
	if err != nil {
		t.Fatalf("submit+wait: %v", err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("parent = %s (%s), want aborted", rec.State, rec.Error)
	}
	if rec.Code != string(trerr.XShardPrepareFailed) {
		t.Fatalf("parent code = %q, want %s", rec.Code, trerr.XShardPrepareFailed)
	}
	for _, ref := range rec.Children {
		if ref.State != tropic.StateAborted {
			t.Fatalf("child %s = %s, want aborted", ref.ID, ref.State)
		}
	}
	// Nothing physical happened anywhere: aborts are decided at prepare,
	// before any child enters phyQ.
	for i, ce := range counters {
		if dups := ce.duplicates(); len(dups) != 0 {
			t.Fatalf("shard %d duplicates: %v", i, dups)
		}
		if n := ce.count("cloneImage " + storage + " " + tcloud.TemplateImage + "," + tcloud.ImageName("xabortvm")); n != 0 {
			t.Fatalf("aborted txn executed cloneImage %d times", n)
		}
	}
	drainAndCheckLocks(t, p, shards)
	for i := 0; i < shards; i++ {
		if p.ShardLeader(i).LogicalTree().Exists(compute + "/xabortvm") {
			t.Fatalf("aborted txn left logical effects on shard %d", i)
		}
	}
}

// TestCrossShardMatrix is the seeded commit/abort regression matrix: a
// shuffled mix of cross-shard spawns — some viable, some doomed by the
// vm-memory constraint — plus same-shard traffic on every shard. All
// transactions reach terminal states, committed ones have exact
// physical effects executed exactly once on the owning shards, aborted
// ones leave none, and no locks leak anywhere. The subtest keeps the
// name of the coalesced message flow ("fast path"), which is now the
// only one.
func TestCrossShardMatrix(t *testing.T) {
	t.Run("fastpath", runCrossShardMatrix)
}

func runCrossShardMatrix(t *testing.T) {
	const shards, hosts, seed = 3, 12, 2012
	p, counters := xshardPlatform(t, shards, hosts, 1, nil)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pairs, owners := crossShardPairs(t, p, hosts)
	rng := rand.New(rand.NewSource(seed))

	type sub struct {
		id, vm, compute string
		cShard          int
		doomed          bool
	}
	var subs []sub
	// Cross-shard mix: every pair (capped), alternating viable/doomed by
	// the seeded rng.
	n := len(pairs)
	if n > 24 {
		n = 24
	}
	for i := 0; i < n; i++ {
		pi := rng.Intn(len(pairs))
		doomed := rng.Intn(3) == 0
		vm := fmt.Sprintf("mxvm%02d", i)
		mem := "512"
		if doomed {
			mem = "99999999"
		}
		id, err := cli.Submit(tcloud.ProcSpawnVM, pairs[pi][0], pairs[pi][1], vm, mem)
		if err != nil {
			t.Fatalf("cross submit %d: %v", i, err)
		}
		subs = append(subs, sub{id: id, vm: vm, compute: pairs[pi][1], cShard: owners[pi][1], doomed: doomed})
	}
	// Same-shard traffic interleaved on every shard.
	storageLocal, computeLocal, covered := shardLocalSpawns(t, p, hosts)
	if len(covered) < 2 {
		t.Fatalf("local workload covers %d shards", len(covered))
	}
	for i := range computeLocal {
		vm := fmt.Sprintf("mlvm%02d", i)
		id, err := cli.Submit(tcloud.ProcSpawnVM, storageLocal[i], computeLocal[i], vm, "512")
		if err != nil {
			t.Fatalf("local submit %d: %v", i, err)
		}
		s, _ := p.ShardOf(tcloud.ProcSpawnVM, computeLocal[i])
		subs = append(subs, sub{id: id, vm: vm, compute: computeLocal[i], cShard: s})
	}

	committed, aborted := 0, 0
	for _, sb := range subs {
		rec, err := cli.Wait(ctx, sb.id)
		if err != nil {
			t.Fatalf("wait %s: %v", sb.id, err)
		}
		if !rec.State.Terminal() {
			t.Fatalf("txn %s non-terminal: %s", sb.id, rec.State)
		}
		switch {
		case sb.doomed && rec.State != tropic.StateAborted:
			t.Fatalf("doomed txn %s = %s (%s)", sb.id, rec.State, rec.Error)
		case !sb.doomed && rec.State != tropic.StateCommitted:
			t.Fatalf("viable txn %s = %s (%s)", sb.id, rec.State, rec.Error)
		}
		for _, ref := range rec.Children {
			if !ref.State.Terminal() {
				t.Fatalf("txn %s child %s non-terminal: %s", sb.id, ref.ID, ref.State)
			}
		}
		if rec.State == tropic.StateCommitted {
			committed++
		} else {
			aborted++
		}
		// Physical effects exact: the committed spawn's startVM ran once
		// on the compute host's shard; aborted spawns ran nothing.
		key := "startVM " + sb.compute + " " + sb.vm
		for i, ce := range counters {
			want := 0
			if rec.State == tropic.StateCommitted && i == sb.cShard {
				want = 1
			}
			if got := ce.count(key); got != want {
				t.Fatalf("txn %s (%s): shard %d ran %q %d times, want %d",
					sb.id, rec.State, i, key, got, want)
			}
		}
	}
	if committed == 0 || aborted == 0 {
		t.Fatalf("degenerate matrix: %d committed, %d aborted", committed, aborted)
	}
	for i, ce := range counters {
		if dups := ce.duplicates(); len(dups) != 0 {
			t.Fatalf("shard %d executed %d signatures more than once:\n%s",
				i, len(dups), strings.Join(dups, "\n"))
		}
	}
	drainAndCheckLocks(t, p, shards)
}

// TestCrossShardCoordinatorCrash is the acceptance chaos test: the
// coordinator shard's LEADER is killed between the PREPARE fan-out and
// the decision (via the protocol hook, so the window is exact). The
// shard's follower must recover the in-flight parent from its record,
// collect the (durable) votes, decide, and drive every child to a
// terminal state — with exactly-once physical execution and no orphaned
// locks on any shard.
func TestCrossShardCoordinatorCrash(t *testing.T) {
	const shards, hosts = 3, 12
	var p *tropic.Platform
	var once sync.Once
	killedCh := make(chan string, 1)
	pp, counters := xshardPlatform(t, shards, hosts, 3, func(cfg *tropic.Config) {
		cfg.SessionTimeout = 150 * time.Millisecond
		cfg.CrossShardHook = func(s int, event, parentID string) {
			if event != "prepare_sent" {
				return
			}
			once.Do(func() {
				name := p.KillShardLeader(s)
				killedCh <- fmt.Sprintf("shard %d leader %s", s, name)
			})
		}
	})
	p = pp
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pairs, owners := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]
	sShard, cShard := owners[0][0], owners[0][1]
	const vm = "xcrashvm"

	id, err := cli.Submit(tcloud.ProcSpawnVM, storage, compute, vm, "1024")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case who := <-killedCh:
		t.Logf("killed %s between PREPARE and decision", who)
	case <-time.After(20 * time.Second):
		t.Fatal("hook never fired")
	}

	rec, err := cli.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	// The votes are durable (prepared child records) and the failover
	// (~SessionTimeout) is far inside the 10s prepare deadline, so the
	// recovered coordinator must resolve the in-doubt parent to COMMIT.
	if rec.State != tropic.StateCommitted {
		t.Fatalf("parent after coordinator crash = %s (%s / %s)", rec.State, rec.Code, rec.Error)
	}
	for _, ref := range rec.Children {
		if ref.State != tropic.StateCommitted {
			t.Fatalf("child %s = %s (%s)", ref.ID, ref.State, ref.Error)
		}
	}
	// Exactly-once physical execution across the failover: every spawn
	// action ran once, on its owning shard, despite recovery re-sending
	// prepares and decisions.
	img := tcloud.ImageName(vm)
	for i, ce := range counters {
		if dups := ce.duplicates(); len(dups) != 0 {
			t.Fatalf("shard %d executed signatures more than once (phyQ duplicated):\n%s",
				i, strings.Join(dups, "\n"))
		}
		wantClone, wantStart := 0, 0
		if i == sShard {
			wantClone = 1
		}
		if i == cShard {
			wantStart = 1
		}
		if got := ce.count("cloneImage " + storage + " " + tcloud.TemplateImage + "," + img); got != wantClone {
			t.Fatalf("shard %d ran cloneImage %d times, want %d", i, got, wantClone)
		}
		if got := ce.count("startVM " + compute + " " + vm); got != wantStart {
			t.Fatalf("shard %d ran startVM %d times, want %d", i, got, wantStart)
		}
	}
	drainAndCheckLocks(t, p, shards)
	// The recovered coordinator shard has a live leader and the
	// committed effects are in the owning trees.
	if !p.ShardLeader(cShard).LogicalTree().Exists(compute + "/" + vm) {
		t.Fatalf("compute shard %d lost %s/%s after the crash", cShard, compute, vm)
	}
	// The platform keeps serving cross-shard work after the failover.
	rec2, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM, storage, compute, "xcrashvm2", "1024")
	if err != nil || rec2.State != tropic.StateCommitted {
		t.Fatalf("post-crash cross-shard spawn: %v %v", rec2, err)
	}
}

// TestCrossShardContentionNoInDoubtAborts is the reversed-lock-order
// chaos suite: many concurrent spanning transactions all contending on
// ONE (storage, compute) pair, so each participant shard receives the
// same children in racing, potentially inverted orders. Deterministic
// global prepare ordering (parent-id order with wound-wait) must
// resolve every inversion WITHOUT tripping the prepare deadline: zero
// xshard.indoubt_timeout aborts, and — since a wounded transaction
// restarts its prepare rather than aborting — every transaction
// committed, each physical action executed exactly once.
func TestCrossShardContentionNoInDoubtAborts(t *testing.T) {
	const shards, hosts, seed, txns = 2, 8, 511, 12
	p, counters := xshardPlatform(t, shards, hosts, 1, func(cfg *tropic.Config) {
		// A generous deadline: the test completes far sooner, so any
		// indoubt abort would be a protocol failure (a real deadlock or
		// lost decision), not an artifact of a tight timer.
		cfg.XShardPrepareTimeout = 30 * time.Second
		// All transactions target ONE pair by design; size the hosts so
		// capacity constraints never mask the contention result.
		cfg.Bootstrap = tcloud.Topology{
			ComputeHosts: hosts, ComputePerStorage: 1,
			StorageCapGB: 1 << 20, HostMemMB: 1 << 20,
		}.BuildModel()
	})
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pairs, _ := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]

	// Seeded shuffle of the submission order; all submissions race
	// concurrently so participant shards interleave prepares freely.
	order := rand.New(rand.NewSource(seed)).Perm(txns)
	ids := make([]string, txns)
	var wg sync.WaitGroup
	errs := make([]error, txns)
	for _, i := range order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = cli.Submit(tcloud.ProcSpawnVM,
				storage, compute, fmt.Sprintf("cnvm%02d", i), "1")
		}(i)
	}
	wg.Wait()

	committed := 0
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		rec, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if !rec.State.Terminal() {
			t.Fatalf("txn %s non-terminal: %s", id, rec.State)
		}
		if rec.Code == string(trerr.XShardInDoubtTimeout) {
			t.Errorf("txn %s aborted in-doubt (%s) — prepare deadline hit under contention", id, rec.Error)
		}
		if rec.State != tropic.StateCommitted {
			t.Errorf("txn %s %s with %s (%s)", id, rec.State, rec.Code, rec.Error)
			continue
		}
		committed++
	}
	t.Logf("contention run: %d of %d committed", committed, txns)
	if committed == 0 {
		t.Fatalf("nothing committed under contention")
	}
	// Exactly-once physical execution: no action signature ran twice on
	// any shard, however often wound-wait restarted a prepare.
	for i, ce := range counters {
		if dups := ce.duplicates(); len(dups) != 0 {
			t.Fatalf("shard %d executed signatures more than once:\n%s",
				i, strings.Join(dups, "\n"))
		}
	}
	drainAndCheckLocks(t, p, shards)
}

// TestCrossShardCoordinatorCrashAfterDecision kills the coordinator's
// leader immediately after the DECISION is durable (the piggybacked
// write that rode the final vote's event round) but before fan-out is
// guaranteed delivered. Recovery must read the decision off the parent
// record and finish driving both children to COMMITTED — never re-vote,
// never double-execute.
func TestCrossShardCoordinatorCrashAfterDecision(t *testing.T) {
	const shards, hosts = 3, 12
	var p *tropic.Platform
	var once sync.Once
	killedCh := make(chan string, 1)
	pp, counters := xshardPlatform(t, shards, hosts, 3, func(cfg *tropic.Config) {
		cfg.SessionTimeout = 150 * time.Millisecond
		cfg.CrossShardHook = func(s int, event, parentID string) {
			if event != "decided" {
				return
			}
			once.Do(func() {
				name := p.KillShardLeader(s)
				killedCh <- fmt.Sprintf("shard %d leader %s", s, name)
			})
		}
	})
	p = pp
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pairs, owners := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]
	sShard, cShard := owners[0][0], owners[0][1]
	const vm = "xdecvm"

	id, err := cli.Submit(tcloud.ProcSpawnVM, storage, compute, vm, "1024")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case who := <-killedCh:
		t.Logf("killed %s after the durable decision", who)
	case <-time.After(20 * time.Second):
		t.Fatal("decided hook never fired")
	}

	rec, err := cli.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	// The decision was durable before the crash; recovery may only
	// re-deliver it, never reconsider it.
	if rec.State != tropic.StateCommitted || rec.Decision != "commit" {
		t.Fatalf("parent after post-decision crash = %s decision %q (%s)",
			rec.State, rec.Decision, rec.Error)
	}
	for _, ref := range rec.Children {
		if ref.State != tropic.StateCommitted {
			t.Fatalf("child %s = %s (%s)", ref.ID, ref.State, ref.Error)
		}
	}
	img := tcloud.ImageName(vm)
	for i, ce := range counters {
		if dups := ce.duplicates(); len(dups) != 0 {
			t.Fatalf("shard %d executed signatures more than once:\n%s",
				i, strings.Join(dups, "\n"))
		}
		wantClone, wantStart := 0, 0
		if i == sShard {
			wantClone = 1
		}
		if i == cShard {
			wantStart = 1
		}
		if got := ce.count("cloneImage " + storage + " " + tcloud.TemplateImage + "," + img); got != wantClone {
			t.Fatalf("shard %d ran cloneImage %d times, want %d", i, got, wantClone)
		}
		if got := ce.count("startVM " + compute + " " + vm); got != wantStart {
			t.Fatalf("shard %d ran startVM %d times, want %d", i, got, wantStart)
		}
	}
	drainAndCheckLocks(t, p, shards)
}

// TestCrossShardBoundedLedgerGC: with checkpointing and terminal-record
// retention configured, a stream of cross-shard transactions leaves
// each shard's record set BOUNDED — parents and children are reaped
// once (and only once) their cross-shard ledger is fully terminal — and
// TTL-swept idempotency claims do not accumulate.
func TestCrossShardBoundedLedgerGC(t *testing.T) {
	const shards, hosts, txns = 2, 8, 10
	p, _ := xshardPlatform(t, shards, hosts, 1, func(cfg *tropic.Config) {
		cfg.CheckpointEvery = 2
		cfg.RetainTerminal = 2
		cfg.IdempotencyTTL = 100 * time.Millisecond
		// The stream reuses one pair; capacity must not cap the run.
		cfg.Bootstrap = tcloud.Topology{
			ComputeHosts: hosts, ComputePerStorage: 1,
			StorageCapGB: 1 << 20, HostMemMB: 1 << 20,
		}.BuildModel()
	})
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pairs, _ := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]
	for i := 0; i < txns; i++ {
		key := fmt.Sprintf("gc-key-%02d", i)
		id, _, err := cli.SubmitIdempotent(ctx, key, tcloud.ProcSpawnVM,
			storage, compute, fmt.Sprintf("gcvm%02d", i), "1")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		rec, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("txn %d = %s (%s)", i, rec.State, rec.Error)
		}
	}

	// Each committed cross-shard transaction left a parent plus one
	// child per participant; with RetainTerminal=2 the sweep must drain
	// them all down to the retention bound (+ records the most recent
	// checkpoint hasn't folded yet). The idempotency claims expire by
	// TTL at the same sweeps.
	count := func(shard int, path string) int {
		c := p.ShardEnsemble(shard).Connect()
		defer c.Close()
		names, err := c.Children(path)
		if err != nil {
			return 0
		}
		return len(names)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, claims := 0, 0
		for s := 0; s < shards; s++ {
			recs += count(s, proto.TxnsPath)
			claims += count(s, proto.IdempotencyPath)
		}
		// Retention bound per shard plus slack for the tail the last
		// checkpoint hasn't folded (checkpoints fire every 2 commits).
		if recs <= shards*5 && claims == 0 {
			t.Logf("ledger bounded: %d records, %d claims across %d shards", recs, claims, shards)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger not bounded: %d records, %d claims remain", recs, claims)
		}
		// Keep the pipeline ticking so checkpoints keep firing.
		rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
			storage, compute, fmt.Sprintf("gctick%d", time.Now().UnixNano()), "1")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("tick spawn: %v %v", rec, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	drainAndCheckLocks(t, p, shards)
}

// TestCrossShardDurableRestart: the coordinator's decision record and
// the children's states live in each shard's durable store, so a full
// process restart (every shard's WAL replayed by internal/store/persist)
// preserves the committed cross-shard transaction end to end, and the
// restarted platform keeps executing new cross-shard work.
func TestCrossShardDurableRestart(t *testing.T) {
	const shards, hosts = 2, 8
	dir := t.TempDir()
	build := func() *tropic.Platform {
		p, err := tropic.New(tropic.Config{
			Schema:      tcloud.NewSchema(),
			Procedures:  tcloud.Procedures(),
			Bootstrap:   tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildModel(),
			Controllers: 1,
			Shards:      shards,
			DataDir:     dir,
			SyncPolicy:  tropic.SyncNone,
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
	pairs, _ := crossShardPairs(t, p, hosts)
	storage, compute := pairs[0][0], pairs[0][1]
	rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM, storage, compute, "xdurvm", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("cross-shard spawn: %v %v", rec, err)
	}
	id := rec.ID
	childIDs := make([]string, len(rec.Children))
	for i, ref := range rec.Children {
		childIDs[i] = ref.ID
	}
	cli.Close()
	if err := p.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	p2 := build()
	t.Cleanup(func() { p2.Stop() })
	cli2 := p2.Client()
	defer cli2.Close()
	got, err := cli2.Get(id)
	if err != nil {
		t.Fatalf("get parent after restart: %v", err)
	}
	if got.State != tropic.StateCommitted || got.Decision != "commit" {
		t.Fatalf("restarted parent = %s decision %q", got.State, got.Decision)
	}
	for _, cid := range childIDs {
		child, err := cli2.Get(cid)
		if err != nil {
			t.Fatalf("get child %s after restart: %v", cid, err)
		}
		if child.State != tropic.StateCommitted || child.Parent != id {
			t.Fatalf("restarted child %s = %s parent %q", cid, child.State, child.Parent)
		}
	}
	rec2, err := cli2.SubmitAndWait(ctx, tcloud.ProcSpawnVM, storage, compute, "xdurvm2", "1024")
	if err != nil || rec2.State != tropic.StateCommitted {
		t.Fatalf("post-restart cross-shard spawn: %v %v", rec2, err)
	}
}

// TestConfigShardsValidation: a negative shard count is rejected at
// construction with a typed api.bad_request-style error instead of a
// runtime panic or a silent single-shard fallback; 0 still selects the
// documented default of one shard.
func TestConfigShardsValidation(t *testing.T) {
	base := tropic.Config{
		Schema:     tcloud.NewSchema(),
		Procedures: tcloud.Procedures(),
		Bootstrap:  tcloud.Topology{ComputeHosts: 2}.BuildModel(),
	}
	bad := base
	bad.Shards = -1
	if _, err := tropic.New(bad); !errors.Is(err, trerr.APIBadRequest) {
		t.Fatalf("New(Shards: -1) = %v, want %s", err, trerr.APIBadRequest)
	}
	ok := base
	ok.Shards = 0
	p, err := tropic.New(ok)
	if err != nil {
		t.Fatalf("New(Shards: 0) = %v, want default single shard", err)
	}
	if p.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", p.NumShards())
	}
	_ = p.Stop()
}

// TestCrossShardDeadlineTimersStop: a coordinator holds no prepare-
// deadline timer for a parent that finalized, and Platform.Stop stops
// the ones still armed, so none fires into the closed store afterwards
// (a firing timer would log its failed deadline enqueue).
func TestCrossShardDeadlineTimersStop(t *testing.T) {
	const shards, hosts = 2, 8
	timeout := 300 * time.Millisecond
	var logMu sync.Mutex
	var stopped bool
	var lateFires []string
	p, _ := xshardPlatform(t, shards, hosts, 1, func(cfg *tropic.Config) {
		cfg.XShardPrepareTimeout = timeout
		cfg.Logf = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			if line := fmt.Sprintf(format, args...); stopped && strings.Contains(line, "xshard timeout") {
				lateFires = append(lateFires, line)
			}
		}
	})
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pairs, _ := crossShardPairs(t, p, hosts)
	if len(pairs) < 6 {
		t.Fatalf("%d cross-shard pairs, want 6", len(pairs))
	}
	armed := func() int {
		n := 0
		for _, c := range p.Controllers() {
			n += c.XDeadlinesArmed()
		}
		return n
	}

	for i := 0; i < 4; i++ {
		id, err := cli.Submit(tcloud.ProcSpawnVM, pairs[i][0], pairs[i][1], fmt.Sprintf("tvm%d", i), "1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// The finalize write is durable before the timer is stopped.
	for deadline := time.Now().Add(5 * time.Second); armed() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d deadline timers armed after every parent finalized", armed())
		}
	}

	// Stop with parents in flight: their timers stop with the platform.
	for i := 4; i < 6; i++ {
		if _, err := cli.Submit(tcloud.ProcSpawnVM, pairs[i][0], pairs[i][1], fmt.Sprintf("tvm%d", i), "1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	logMu.Lock()
	stopped = true
	logMu.Unlock()
	if n := armed(); n != 0 {
		t.Fatalf("%d deadline timers armed after Stop", n)
	}
	time.Sleep(2 * timeout)
	logMu.Lock()
	defer logMu.Unlock()
	if len(lateFires) > 0 {
		t.Fatalf("deadline timers fired after Stop: %q", lateFires)
	}
}
