package tropic_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/proto"
	"repro/internal/reconcile"
	"repro/internal/store"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// newTCloud spins up a physical-mode platform over simulated devices.
func newTCloud(t *testing.T, tp tcloud.Topology) (*tropic.Platform, *device.Cloud) {
	t.Helper()
	cloud, err := tp.BuildCloud()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tropic.New(tropic.Config{
		Schema:         tcloud.NewSchema(),
		Procedures:     tcloud.Procedures(),
		Bootstrap:      cloud.Snapshot(),
		Executor:       cloud,
		Reconciler:     reconcile.New(cloud, cloud, tcloud.RepairRules()),
		SessionTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	return p, cloud
}

// settledTree waits until shard 0's leader holds no locks and returns
// its logical tree. An aborted or failed transaction is terminal in the
// store before the leader rolls its logical effects back; the leader
// releases the transaction's locks only after that rollback, under the
// lock manager's mutex, so reading a zero lock count orders the
// caller's tree reads after the rollback's writes.
func settledTree(t *testing.T, p *tropic.Platform) *tropic.Tree {
	t.Helper()
	var tree *tropic.Tree
	if !eventually(10*time.Second, func() bool {
		lead := p.Leader()
		if lead == nil || lead.LockManager().LockCount() != 0 {
			return false
		}
		tree = lead.LogicalTree()
		return true
	}) {
		t.Fatal("leader never released its locks")
	}
	return tree
}

// eventually polls cond every millisecond until it holds or timeout
// passes, and reports whether it held.
func eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		<-tick.C
	}
	return true
}

// waitStarted blocks until the record of transaction id says started.
func waitStarted(t *testing.T, c *tropic.Client, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	recs, err := c.WatchTxn(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for rec := range recs {
		if rec.State == tropic.StateStarted {
			return
		}
	}
	t.Fatalf("%s never started", id)
}

func TestSpawnVMCommits(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 4})
	c := p.Client()
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if rec.State != tropic.StateCommitted {
		t.Fatalf("state = %s (%s), want committed", rec.State, rec.Error)
	}
	// Table 1: exactly five actions with their undos.
	if len(rec.Log) != 5 {
		t.Fatalf("log has %d records, want 5: %v", len(rec.Log), rec.Log)
	}
	wantActions := []string{"cloneImage", "exportImage", "importImage", "createVM", "startVM"}
	wantUndos := []string{"removeImage", "unexportImage", "unimportImage", "removeVM", "stopVM"}
	for i, r := range rec.Log {
		if r.Action != wantActions[i] || r.Undo != wantUndos[i] {
			t.Errorf("record %d = %s/%s, want %s/%s", i+1, r.Action, r.Undo, wantActions[i], wantUndos[i])
		}
	}
	// Physical state reflects the commit.
	h := cloud.ComputeHost(tcloud.ComputeHostName(0))
	if vm := h.VMs["vm1"]; vm == nil || vm.State != device.VMRunning {
		t.Fatalf("physical vm1 = %+v", h.VMs["vm1"])
	}
	// Logical and physical layers agree.
	leader := p.Leader()
	if leader == nil {
		t.Fatal("no leader")
	}
	lvm, err := leader.LogicalTree().Get(tcloud.ComputeHostPath(0) + "/vm1")
	if err != nil || lvm.GetString("state") != "running" {
		t.Fatalf("logical vm1: %v %v", lvm, err)
	}
}

func TestFullVMLifecycle(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 4})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	steps := []struct {
		proc string
		args []string
	}{
		{tcloud.ProcSpawnVM, []string{sp, hp, "vm1", "1024"}},
		{tcloud.ProcStopVM, []string{hp, "vm1"}},
		{tcloud.ProcStartVM, []string{hp, "vm1"}},
		{tcloud.ProcMigrateVM, []string{hp, "vm1", tcloud.ComputeHostPath(1)}},
		{tcloud.ProcDestroyVM, []string{tcloud.ComputeHostPath(1), "vm1", sp}},
	}
	for _, s := range steps {
		rec, err := c.SubmitAndWait(ctx, s.proc, s.args...)
		if err != nil {
			t.Fatalf("%s: %v", s.proc, err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("%s: state = %s (%s)", s.proc, rec.State, rec.Error)
		}
	}
	// Everything cleaned up physically.
	if len(cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs) != 0 ||
		len(cloud.ComputeHost(tcloud.ComputeHostName(1)).VMs) != 0 {
		t.Fatal("VMs remain after destroy")
	}
	s := cloud.StorageHost(tcloud.StorageHostName(0))
	if len(s.Images) != 1 {
		t.Fatalf("images remain after destroy: %v", s.Images)
	}
}

func TestConstraintViolationAbortsBeforePhysical(t *testing.T) {
	// Host 0 fits 2 VMs of 4096MB; the third spawn must abort in the
	// logical layer without touching devices.
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2, HostMemMB: 8192})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	for i := 0; i < 2; i++ {
		rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, vmName(i), "4096")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn %d: %v %v", i, rec, err)
		}
	}
	clonesBefore := cloud.Calls("cloneImage")
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, "vm-over", "4096")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s, want aborted", rec.State)
	}
	if rec.Error == "" {
		t.Fatal("aborted without reason")
	}
	if got := cloud.Calls("cloneImage"); got != clonesBefore {
		t.Fatalf("constraint abort still touched devices: %d clones", got-clonesBefore)
	}
	if len(cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs) != 2 {
		t.Fatal("VM count changed")
	}
}

func TestCrossHypervisorMigrationAborted(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 4, MixedHypervisors: true})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp := tcloud.StorageHostPath(0)
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn: %v %v", rec, err)
	}
	// Host 1 is kvm (mixed); vm1 was built on xen host 0.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcMigrateVM,
		tcloud.ComputeHostPath(0), "vm1", tcloud.ComputeHostPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("cross-hypervisor migrate state = %s, want aborted", rec.State)
	}
	if cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["vm1"] == nil {
		t.Fatal("vm1 moved despite abort")
	}
	// Same-hypervisor migration (host 2 is xen) commits.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcMigrateVM,
		tcloud.ComputeHostPath(0), "vm1", tcloud.ComputeHostPath(2))
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("xen->xen migrate: %v %v", rec, err)
	}
}

func TestPhysicalFailureRollsBackAtomically(t *testing.T) {
	// Inject a failure into the *last* action of spawnVM (startVM), the
	// §6.3 robustness scenario. All four earlier actions must be undone
	// on the devices and the logical layer must show no trace.
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	inj := device.NewInjector(42)
	inj.Add(device.FaultRule{Action: "startVM", Err: "hypervisor crash"})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s (%s), want aborted", rec.State, rec.Error)
	}
	if rec.UndoneThrough != 4 {
		t.Fatalf("UndoneThrough = %d, want 4", rec.UndoneThrough)
	}
	// Physical layer: no leftovers (the paper's orphan problem).
	h := cloud.ComputeHost(tcloud.ComputeHostName(0))
	if len(h.VMs) != 0 || len(h.Imports) != 0 {
		t.Fatalf("orphans on compute host: vms=%v imports=%v", h.VMs, h.Imports)
	}
	s := cloud.StorageHost(tcloud.StorageHostName(0))
	if len(s.Images) != 1 {
		t.Fatalf("orphan images: %v", s.Images)
	}
	// Logical layer rolled back too, and the locks released.
	if settledTree(t, p).Exists(tcloud.ComputeHostPath(0) + "/vm1") {
		t.Fatal("logical layer still has vm1")
	}
	// The platform keeps working after the abort.
	inj.Clear()
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("respawn: %v %v", rec, err)
	}
}

func TestUndoFailureMarksFailedAndInconsistent(t *testing.T) {
	// Action 4 (createVM) fails; undo of action 3 (unimportImage) also
	// fails: transaction ends failed, touched nodes are marked
	// inconsistent, and new transactions on them abort until repaired.
	// 8 compute hosts → 2 storage hosts, so an untouched storage host
	// exists for the control spawn.
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 8})
	inj := device.NewInjector(7)
	inj.Add(device.FaultRule{Action: "createVM", Err: "xen error"})
	inj.Add(device.FaultRule{Action: "unimportImage", Err: "stuck device"})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateFailed {
		t.Fatalf("state = %s, want failed", rec.State)
	}
	// Orphaned import remains on the device (partial rollback).
	if !cloud.ComputeHost(tcloud.ComputeHostName(0)).Imports["vm1-img"] {
		t.Fatal("expected orphaned import")
	}
	// New transactions on the inconsistent host abort.
	inj.Clear()
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm2", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("txn on inconsistent node: state = %s, want aborted", rec.State)
	}
	// The failed transaction also left the storage host inconsistent
	// (its clone/export were never undone), so it is denied too.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(1), "vm3", "1024")
	if err != nil || rec.State != tropic.StateAborted {
		t.Fatalf("spawn via inconsistent storage: %v %v", rec, err)
	}
	// Fully disjoint hosts still work.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(1), tcloud.ComputeHostPath(4), "vm3", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn on healthy hosts: %v %v", rec, err)
	}
}

func TestConcurrentSpawnsOnDistinctHosts(t *testing.T) {
	const hosts = 8
	p, _ := newTCloud(t, tcloud.Topology{ComputeHosts: hosts})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type result struct {
		rec *tropic.Txn
		err error
	}
	results := make(chan result, hosts)
	for i := 0; i < hosts; i++ {
		go func(i int) {
			c := p.Client()
			defer c.Close()
			rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
				tcloud.StorageHostPath(i/4), tcloud.ComputeHostPath(i), vmName(i), "1024")
			results <- result{rec, err}
		}(i)
	}
	for i := 0; i < hosts; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("spawn: %v", r.err)
		}
		if r.rec.State != tropic.StateCommitted {
			t.Fatalf("spawn state = %s (%s)", r.rec.State, r.rec.Error)
		}
	}
	if n := p.Leader().LockManager().LockCount(); n != 0 {
		t.Fatalf("%d locks leaked", n)
	}
}

func TestRaceConditionSerializedOnSameHost(t *testing.T) {
	// The paper's §2.1 race: two simultaneous 4096MB spawns on an
	// 8192MB host would both pass a naive check; with a third they
	// exceed memory. TROPIC must commit exactly two and abort one —
	// never over-commit.
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 1, HostMemMB: 8192})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 3
	results := make(chan *tropic.Txn, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			c := p.Client()
			defer c.Close()
			rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
				tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), vmName(i), "4096")
			if err != nil {
				t.Errorf("spawn %d: %v", i, err)
				results <- nil
				return
			}
			results <- rec
		}(i)
	}
	committed, aborted := 0, 0
	for i := 0; i < n; i++ {
		rec := <-results
		if rec == nil {
			continue
		}
		switch rec.State {
		case tropic.StateCommitted:
			committed++
		case tropic.StateAborted:
			aborted++
		}
	}
	if committed != 2 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 2/1", committed, aborted)
	}
	h := cloud.ComputeHost(tcloud.ComputeHostName(0))
	var mem int64
	for _, vm := range h.VMs {
		mem += vm.MemMB
	}
	if mem > 8192 {
		t.Fatalf("host over-committed: %dMB", mem)
	}
}

func TestProcedureAbortSelf(t *testing.T) {
	p, _ := newTCloud(t, tcloud.Topology{ComputeHosts: 1})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Unknown procedure: rejected synchronously with a typed error
	// instead of producing a doomed transaction.
	if _, err := c.SubmitAndWait(ctx, "noSuchProc"); !errors.Is(err, trerr.TxnUnknownProcedure) {
		t.Fatalf("unknown proc: err = %v, want txn.unknown_procedure", err)
	}
	// Bad args.
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcStartVM)
	if err != nil || rec.State != tropic.StateAborted {
		t.Fatalf("bad args: %v %v", rec, err)
	}
	// Missing VM.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcStartVM, tcloud.ComputeHostPath(0), "ghost")
	if err != nil || rec.State != tropic.StateAborted {
		t.Fatalf("missing vm: %v %v", rec, err)
	}
}

func TestSpawnVMNetSetsUpVLAN(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVMNet,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1",
		tcloud.SwitchPath(0), "100", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawnVMNet: %v %v", rec, err)
	}
	sw := cloud.NetworkSwitch(tcloud.SwitchName(0))
	if sw.VLANs[100] == nil || !sw.VLANs[100].Ports["vm1.eth0"] {
		t.Fatalf("VLAN state: %+v", sw.VLANs)
	}
	// Second VM on the same VLAN: createVLAN skipped, port attached.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVMNet,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(1), "vm2",
		tcloud.SwitchPath(0), "100", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("second spawnVMNet: %v %v", rec, err)
	}
	if len(sw.VLANs[100].Ports) != 2 {
		t.Fatalf("ports = %v", sw.VLANs[100].Ports)
	}
}

func vmName(i int) string { return "vm" + string(rune('A'+i)) }

// TestCancelledWaitsReleaseWatches: a Repair whose reply never comes and
// an idempotent submission stuck behind an unfinished claim both give
// up when ctx ends, and neither leaves a watch armed in the store. The
// platform is never started, so no controller replies and the claim is
// never resolved.
func TestCancelledWaitsReleaseWatches(t *testing.T) {
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: 4}.BuildModel(),
		Controllers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	cli := p.Client()
	defer cli.Close()
	ens := p.Ensemble()
	baseNode, baseChild := ens.WatchCounts()
	checkBaseline := func(when string) {
		t.Helper()
		if node, child := ens.WatchCounts(); node != baseNode || child != baseChild {
			t.Fatalf("%s: watch counts = (%d, %d), want baseline (%d, %d)",
				when, node, child, baseNode, baseChild)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = cli.Repair(ctx, tcloud.ComputeHostPath(0))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("repair = %v, want DeadlineExceeded", err)
	}
	checkBaseline("after a cancelled repair")

	// Another session holds the key's claim without ever recording an id.
	claimant := ens.Connect()
	defer claimant.Close()
	if err := claimant.EnsurePath(proto.IdempotencyPath); err != nil {
		t.Fatal(err)
	}
	if _, err := claimant.Create(proto.IdempotencyPath+"/k1", nil, store.FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, _, err = cli.SubmitIdempotent(ctx, "k1", tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "ivm", "1024")
	cancel()
	if !errors.Is(err, trerr.SubmitIdempotencyPending) {
		t.Fatalf("submit = %v, want %s", err, trerr.SubmitIdempotencyPending)
	}
	checkBaseline("after a cancelled idempotent submit")
}
