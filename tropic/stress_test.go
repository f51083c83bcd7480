package tropic_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/workload"
	"repro/tcloud"
	"repro/tropic"
)

// TestChaosWorkloadInvariants runs a hosting-style mixed workload while
// devices fail probabilistically, then checks the paper's core
// guarantees as end-state invariants:
//
//   - every transaction reaches a terminal state;
//   - aborted transactions leave no device orphans (atomicity);
//   - constraints hold on the final logical state (consistency);
//   - no locks remain (isolation bookkeeping);
//   - after repairing the failed subtrees, logical == physical
//     (eventual cross-layer consistency).
func TestChaosWorkloadInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const hosts = 8
	p, cloud := newTCloud(t, tcloud.Topology{ComputeHosts: hosts})
	inj := device.NewInjector(1234)
	// ~5% of forward actions fail; undos stay reliable so most failures
	// roll back cleanly (occasional doubles produce failed txns too).
	inj.Add(device.FaultRule{Action: "createVM", Probability: 0.1, Err: "flaky hypervisor"})
	inj.Add(device.FaultRule{Action: "startVM", Probability: 0.05, Err: "flaky boot"})
	inj.Add(device.FaultRule{Action: "migrateVM", Probability: 0.1, Err: "flaky migration"})
	cloud.SetFaultInjector(inj)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cli := p.Client()
	defer cli.Close()

	gen := workload.NewHostingGen(tcloud.Topology{ComputeHosts: hosts},
		workload.DefaultHostingMix(), 99)
	counts := map[tropic.State]int{}
	for i := 0; i < 150; i++ {
		op := gen.Next()
		rec, err := cli.SubmitAndWait(ctx, op.Proc, op.Args...)
		if err != nil {
			t.Fatalf("op %d %s: %v", i, op, err)
		}
		if !rec.State.Terminal() {
			t.Fatalf("op %d non-terminal: %s", i, rec.State)
		}
		counts[rec.State]++
	}
	t.Logf("outcomes: %v", counts)
	if counts[tropic.StateCommitted] == 0 || counts[tropic.StateAborted] == 0 {
		t.Fatalf("chaos did not exercise both outcomes: %v", counts)
	}

	// Isolation bookkeeping: nothing holds locks once quiescent.
	lt := settledTree(t, p)

	// Consistency: the final logical state satisfies every constraint.
	inj.Clear()
	schema := p.Leader().Schema()
	err := lt.Walk(func(path string, n *tropic.Node) error {
		return schema.CheckConstraints(lt, path)
	})
	if err != nil {
		t.Fatalf("final logical state violates constraints: %v", err)
	}

	// Eventual cross-layer consistency: repair every host (failed txns
	// may have quarantined some), then the layers must agree.
	for h := 0; h < hosts; h++ {
		if err := cli.Repair(ctx, tcloud.ComputeHostPath(h)); err != nil {
			t.Fatalf("repair host %d: %v", h, err)
		}
	}
	storageHosts := (tcloud.Topology{ComputeHosts: hosts}).StorageHosts()
	for s := 0; s < storageHosts; s++ {
		if err := cli.Repair(ctx, tcloud.StorageHostPath(s)); err != nil {
			t.Fatalf("repair storage %d: %v", s, err)
		}
	}
	if err := cli.Repair(ctx, tcloud.VMRoot); err != nil {
		t.Fatalf("final repair: %v", err)
	}
	if err := cli.Repair(ctx, tcloud.StorageRoot); err != nil {
		t.Fatalf("final storage repair: %v", err)
	}
}
