package tropic_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/device"
	"repro/tcloud"
	"repro/tropic"
)

func TestResizeVMCommits(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 2})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn: %v %v", rec, err)
	}
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcResizeVM, hp, "vm1", "2048")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("resize: %v %v", rec, err)
	}
	// Physical state: resized and running again (it was running).
	vm := cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["vm1"]
	if vm.MemMB != 2048 || vm.State != device.VMRunning {
		t.Fatalf("vm = %+v", vm)
	}
	// The log is stop → setVMMem → start, with the undo capturing 1024.
	if len(rec.Log) != 3 || rec.Log[1].Action != "setVMMem" {
		t.Fatalf("log = %v", rec.Log)
	}
	if rec.Log[1].UndoArgs[1] != "1024" {
		t.Fatalf("undo args = %v, want original 1024", rec.Log[1].UndoArgs)
	}
}

func TestResizeVMConstraintAbort(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 1, HostMemMB: 4096})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	for _, vm := range []string{"a", "b"} {
		rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, vm, "2048")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn %s: %v %v", vm, rec, err)
		}
	}
	// Growing "a" to 4096 would over-commit (4096+2048 > 4096): abort
	// before any device call, with "a" still running at 2048.
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcResizeVM, hp, "a", "4096")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s", rec.State)
	}
	vm := cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["a"]
	if vm.MemMB != 2048 || vm.State != device.VMRunning {
		t.Fatalf("vm mutated by aborted resize: %+v", vm)
	}
}

func TestResizeVMPhysicalFailureRestoresOriginal(t *testing.T) {
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: 1})
	c := p.Client()
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sp, hp := tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0)
	rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM, sp, hp, "vm1", "1024")
	if err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("spawn: %v %v", rec, err)
	}
	// Fail the final startVM of the resize: the undo chain must restore
	// the original 1024MB reservation and restart the VM.
	inj := device.NewInjector(9)
	inj.Add(device.FaultRule{Action: "startVM", FailOn: 1, Err: "flaky"})
	cloud.SetFaultInjector(inj)
	rec, err = c.SubmitAndWait(ctx, tcloud.ProcResizeVM, hp, "vm1", "4096")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateAborted {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	vm := cloud.ComputeHost(tcloud.ComputeHostName(0)).VMs["vm1"]
	if vm.MemMB != 1024 {
		t.Fatalf("memMB = %d after rollback, want 1024", vm.MemMB)
	}
	if vm.State != device.VMRunning {
		t.Fatalf("state = %s after rollback, want running (undo of stopVM)", vm.State)
	}
	// Logical layer agrees.
	lvm, _ := settledTree(t, p).Get(hp + "/vm1")
	if lvm.GetInt("memMB") != 1024 || lvm.GetString("state") != "running" {
		t.Fatalf("logical vm = %+v", lvm.Attrs)
	}
}
