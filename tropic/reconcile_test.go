package tropic_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/reconcile"
	"repro/tcloud"
	"repro/tropic"
)

// TestDivergedDetection: the periodic layer-comparison probe (§4) must
// report exactly the out-of-sync paths and nothing else.
func TestDivergedDetection(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	for _, vm := range []string{"vm1", "vm2"} {
		rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, vm, "1024")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn: %v %v", rec, err)
		}
	}
	probe := reconcile.New(cloud, cloud, tcloud.RepairRules())
	diverged, err := probe.Diverged(p.Leader(), tcloud.VMRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverged) != 0 {
		t.Fatalf("healthy system reported diverged: %v", diverged)
	}
	// One out-of-band stop → exactly one diverged path.
	cloud.OutOfBandStopVM(tcloud.ComputeHostName(0), "vm1")
	diverged, err = probe.Diverged(p.Leader(), tcloud.VMRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverged) != 1 || diverged[0] != hp+"/vm1" {
		t.Fatalf("diverged = %v, want exactly [%s/vm1]", diverged, hp)
	}
}

// TestRepairAfterHostReboot reproduces the paper's §4 example: a compute
// server unexpectedly reboots, powering off its running VMs. Comparing
// the layers shows "running" logically vs "stopped" physically; repair
// re-executes startVM for each.
func TestRepairAfterHostReboot(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	for _, vm := range []string{"vm1", "vm2"} {
		rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, vm, "1024")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn %s: %v %v", vm, rec, err)
		}
	}
	// Unexpected reboot: VMs power off behind TROPIC's back.
	if err := cloud.PowerOffHost(tcloud.ComputeHostName(0)); err != nil {
		t.Fatal(err)
	}
	if err := cloud.PowerOnHost(tcloud.ComputeHostName(0)); err != nil {
		t.Fatal(err)
	}
	for _, vm := range []string{"vm1", "vm2"} {
		if cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs[vm].State != device.VMStopped {
			t.Fatalf("%s not powered off by reboot", vm)
		}
	}
	if err := c.Repair(ctx, hp); err != nil {
		t.Fatalf("repair: %v", err)
	}
	for _, vm := range []string{"vm1", "vm2"} {
		if cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs[vm].State != device.VMRunning {
			t.Fatalf("%s not restarted by repair", vm)
		}
	}
}

// TestRepairCleansFailedTransactionOrphans drives the §4 scenario (i):
// a failed undo leaves partially rolled-back physical state; repair
// removes the orphans and clears the inconsistency marks, after which
// transactions on the subtree work again.
func TestRepairCleansFailedTransactionOrphans(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	inj := device.NewInjector(3)
	inj.Add(device.FaultRule{Action: "createVM", Err: "xen error"})
	inj.Add(device.FaultRule{Action: "unimportImage", Err: "stuck device"})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil || rec.State != tropic.StateFailed {
		t.Fatalf("want failed txn, got %v %v", rec, err)
	}
	inj.Clear()

	// Orphans: import on the compute host, clone+export on storage.
	if !cloud.ComputeHost(tcloud.ComputeHostName(0)).Imports["vm1-img"] {
		t.Fatal("setup: no orphan import")
	}
	if cloud.StorageHost(tcloud.StorageHostName(0)).Images["vm1-img"] == nil {
		t.Fatal("setup: no orphan image")
	}

	if err := c.Repair(ctx, tcloud.ComputeHostPath(0)); err != nil {
		t.Fatalf("repair compute: %v", err)
	}
	if err := c.Repair(ctx, tcloud.StorageHostPath(0)); err != nil {
		t.Fatalf("repair storage: %v", err)
	}
	if cloud.ComputeHost(tcloud.ComputeHostName(0)).Imports["vm1-img"] {
		t.Fatal("orphan import survived repair")
	}
	if cloud.StorageHost(tcloud.StorageHostName(0)).Images["vm1-img"] != nil {
		t.Fatal("orphan image survived repair")
	}
	// The subtree accepts transactions again.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn after repair: %v %v", rec, err)
	}
}

// TestReloadAddsOutOfBandDevice covers §4 scenario (ii): an operator
// adds a physical resource directly; reload imports it into the logical
// model and transactions can use it.
func TestReloadAddsOutOfBandDevice(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	cloud.AddComputeServer("extraHost", "xen", 8192)
	newPath := tcloud.VMRoot + "/extraHost"
	// Unknown to the logical layer: a spawn there aborts.
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), newPath, "vm1", "1024")
	if err != nil || rec.State != tropic.StateAborted {
		t.Fatalf("spawn on unknown host: %v %v", rec, err)
	}
	if err := c.Reload(ctx, newPath); err != nil {
		t.Fatalf("reload: %v", err)
	}
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), newPath, "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn after reload: %v %v", rec, err)
	}
}

// TestReloadRemovesDecommissionedDevice: the inverse — a host vanishes
// physically; reload drops it from the logical model.
func TestReloadRemovesDecommissionedDevice(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Decommission host 1 out-of-band (white-box: remove from the
	// simulated inventory by snapshotting around it is not exposed, so
	// emulate via a fresh cloud... simplest is the storage API).
	// The device package has no RemoveComputeServer; decommissioning is
	// represented by reloading a path that no longer exists physically.
	// Emulate by reloading a never-existing host after deleting it
	// logically is meaningless, so instead decommission an image.
	if err := cloud.OutOfBandRemoveImage(tcloud.StorageHostName(0), tcloud.TemplateImage); err != nil {
		t.Fatal(err)
	}
	imgPath := tcloud.StorageHostPath(0) + "/" + tcloud.TemplateImage
	if err := c.Reload(ctx, imgPath); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if p.Leader().LogicalTree().Exists(imgPath) {
		t.Fatal("logical template survived reload of removed volume")
	}
	// Spawns from this storage host now abort in simulation (no
	// template), without touching devices.
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil || rec.State != tropic.StateAborted {
		t.Fatalf("spawn without template: %v %v", rec, err)
	}
}

// TestReloadAbortsOnConstraintViolation: reload must not install
// physical state that violates constraints (§4: "If any constraints are
// violated, reload is aborted").
func TestReloadAbortsOnConstraintViolation(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 1, HostMemMB: 8192})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// White-box out-of-band violation: an operator hand-defines a VM
	// that over-commits the host.
	h := cloud.ComputeHost(tcloud.ComputeHostName(0))
	h.VMs["rogue"] = &device.VM{Name: "rogue", Image: "x", MemMB: 999999, State: device.VMStopped}

	err := c.Reload(ctx, tcloud.ComputeHostPath(0))
	if err == nil || !strings.Contains(err.Error(), "vm-memory") {
		t.Fatalf("reload err = %v, want vm-memory violation", err)
	}
	// Logical layer unchanged.
	if p.Leader().LogicalTree().Exists(tcloud.ComputeHostPath(0) + "/rogue") {
		t.Fatal("violating state installed despite abort")
	}
}

// TestReconcileBusyUnderInFlightTransaction: reconciliation must not
// run under a subtree with outstanding transactions.
func TestReconcileBusyUnderInFlightTransaction(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	inj := device.NewInjector(1)
	inj.Add(device.FaultRule{Action: "startVM", Delay: 600 * time.Millisecond})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	id, err := c.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	// Give the transaction time to reach the physical layer (it stalls
	// in startVM for 600ms).
	time.Sleep(150 * time.Millisecond)
	err = c.Repair(ctx, tcloud.ComputeHostPath(0))
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("repair under in-flight txn: err = %v, want busy", err)
	}
	rec, err := c.Wait(ctx, id)
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("txn: %v %v", rec, err)
	}
	// Idle now: repair succeeds (no divergence, zero actions).
	if err := c.Repair(ctx, tcloud.ComputeHostPath(0)); err != nil {
		t.Fatalf("repair after commit: %v", err)
	}
}

// TestTermSignalStartedTransaction: TERM on an executing transaction
// stops its worker, which rolls the devices back; both layers end clean.
func TestTermSignalStartedTransaction(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	inj := device.NewInjector(1)
	// Stall the 3rd action so the transaction is still executing when
	// the TERM lands.
	inj.Add(device.FaultRule{Action: "importImage", Delay: 500 * time.Millisecond})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	id, err := c.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, c, id)
	if err := c.Signal(id, tropic.SignalTerm); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s (%s), want aborted", rec.State, rec.Error)
	}
	// Graceful: both layers clean.
	h := cloud.ComputeHost(tcloud.ComputeHostName(0))
	if len(h.VMs) != 0 || len(h.Imports) != 0 {
		t.Fatalf("device leftovers after TERM: %v %v", h.VMs, h.Imports)
	}
	if len(cloud.StorageHost(tcloud.StorageHostName(0)).Images) != 1 {
		t.Fatal("storage leftovers after TERM")
	}
	if settledTree(t, p).Exists(tcloud.ComputeHostPath(0) + "/vm1") {
		t.Fatal("logical leftovers after TERM")
	}
}

// TestKillSignalLeavesInconsistencyForRepair: KILL aborts immediately in
// the logical layer only; the worker's physical effects become an
// inconsistency that repair reconciles (§4).
func TestKillSignalLeavesInconsistencyForRepair(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	inj := device.NewInjector(1)
	inj.Add(device.FaultRule{Action: "createVM", Delay: 500 * time.Millisecond})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	id, err := c.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	// Mid-execution: the worker has run the three actions before the
	// stalled createVM.
	waitStarted(t, c, id)
	if !eventually(5*time.Second, func() bool { return p.WorkerStats().Actions >= 3 }) {
		t.Fatal("worker never reached createVM")
	}
	if err := c.Signal(id, tropic.SignalKill); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s, want aborted (KILL)", rec.State)
	}
	// Logical layer rolled back as soon as the abort is durable: the
	// leader rolls back, then releases the locks.
	if settledTree(t, p).Exists(tcloud.ComputeHostPath(0) + "/vm1") {
		t.Fatal("logical layer kept vm1 after KILL")
	}
	// Wait for the worker to finish the stalled physical execution,
	// which proceeds to completion behind the kill.
	if !eventually(5*time.Second, func() bool {
		_, ok := cloud.VMInfo(tcloud.ComputeHostName(0), "vm1")
		return ok
	}) {
		t.Fatal("worker never finished physical execution")
	}
	inj.Clear()
	// Cross-layer divergence now exists; repair removes the orphan VM.
	if err := c.Repair(ctx, tcloud.ComputeHostPath(0)); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["vm1"] != nil {
		t.Fatal("orphan VM survived repair")
	}
	// And storage-side orphans.
	if err := c.Repair(ctx, tcloud.StorageHostPath(0)); err != nil {
		t.Fatalf("repair storage: %v", err)
	}
	// Subtree usable again.
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm2", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn after repair: %v %v", rec, err)
	}
}

// TestTermSignalQueuedTransaction: TERM aborts a transaction that has
// not started, with no device activity.
func TestTermSignalQueuedTransaction(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 1})
	inj := device.NewInjector(1)
	// First txn stalls holding the host lock, so the second stays
	// queued (deferred) long enough to TERM it.
	inj.Add(device.FaultRule{Action: "startVM", Delay: 700 * time.Millisecond})
	cloud.SetFaultInjector(inj)

	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	id1, err := c.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, c, id1)
	id2, err := c.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "vm2", "1024")
	if err != nil {
		t.Fatal(err)
	}
	// id2 accepted, deferred behind id1.
	if !eventually(5*time.Second, func() bool { return p.ControllerStats().Deferrals > 0 }) {
		t.Fatal("the second transaction never deferred")
	}
	if err := c.Signal(id2, tropic.SignalTerm); err != nil {
		t.Fatal(err)
	}
	rec2, err := c.Wait(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.State != tropic.StateAborted {
		t.Fatalf("queued TERM state = %s, want aborted", rec2.State)
	}
	// vm2 never touched the devices.
	if cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["vm2"] != nil {
		t.Fatal("TERMed queued txn still executed")
	}
	rec1, err := c.Wait(ctx, id1)
	if err != nil || rec1.State != tropic.StateCommitted {
		t.Fatalf("first txn: %v %v", rec1, err)
	}
}
