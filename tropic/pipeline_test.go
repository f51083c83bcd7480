package tropic_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/tcloud"
	"repro/tropic"
)

// minimalPlatform starts a tiny logical-only platform with the given
// batching configuration.
func minimalPlatform(t *testing.T, batchMaxOps int) *tropic.Platform {
	t.Helper()
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: 4}.BuildModel(),
		Controllers: 1,
		BatchMaxOps: batchMaxOps,
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
	return p
}

// TestPipelineConfigDefaults: zero-valued batching knobs resolve to the
// documented defaults, and they surface through PipelineInfo.
func TestPipelineConfigDefaults(t *testing.T) {
	p := minimalPlatform(t, 0)
	info := p.PipelineInfo()
	if info.BatchMaxOps != 32 {
		t.Fatalf("BatchMaxOps = %d, want default 32", info.BatchMaxOps)
	}
	if info.BatchMaxDelayMs != 2 {
		t.Fatalf("BatchMaxDelayMs = %v, want 2", info.BatchMaxDelayMs)
	}
	if info.WorkerClaimBatch != 4 {
		t.Fatalf("WorkerClaimBatch = %d, want 4 (batched default)", info.WorkerClaimBatch)
	}

	unbatched := minimalPlatform(t, 1)
	info = unbatched.PipelineInfo()
	if info.BatchMaxOps != 1 || info.WorkerClaimBatch != 1 {
		t.Fatalf("unbatched info = %+v, want BatchMaxOps=1 WorkerClaimBatch=1", info)
	}
}

// TestBatchedSubmitLifecycle: the group-committed submission path (one
// atomic record+notice commit, client-generated ids) produces distinct
// ids under concurrency and every transaction reaches committed.
func TestBatchedSubmitLifecycle(t *testing.T) {
	p := minimalPlatform(t, 32)
	cli := p.Client()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const n = 8
	ids := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			id, err := cli.Submit(tcloud.ProcSpawnVM,
				tcloud.StorageHostPath(i%1), tcloud.ComputeHostPath(i%4),
				fmt.Sprintf("bvm%d", i), "1024")
			if err != nil {
				errs <- err
				return
			}
			ids <- id
		}()
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case id := <-ids:
			if seen[id] {
				t.Fatalf("duplicate transaction id %q", id)
			}
			seen[id] = true
		}
	}
	for id := range seen {
		rec, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("txn %s: %s (%s)", id, rec.State, rec.Error)
		}
		if rec.ID != id {
			t.Fatalf("record id %q != submitted id %q", rec.ID, id)
		}
	}
	// Depth gauges drain to zero once everything committed.
	depths := p.QueueDepths()
	if depths.InQ != 0 || depths.PhyQ != 0 || depths.TodoQ != 0 {
		t.Fatalf("queue depths after drain = %+v", depths)
	}
}

// TestUnbatchedSubmitStillWorks pins the unbatched arm the ablation
// benchmarks depend on: BatchMaxOps=1 is a batch of one. A submission is
// ONE store commit that creates the record and its inputQ notice
// together, and the controller drains one item per event round.
func TestUnbatchedSubmitStillWorks(t *testing.T) {
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: 4}.BuildModel(),
		Controllers: 1,
		BatchMaxOps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	cli := p.Client()
	defer cli.Close()

	// Before Start nothing consumes inputQ, so the submission's own
	// commits are all the ensemble sees.
	ens := p.Ensemble()
	before := ens.Commits()
	id, err := cli.Submit(tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(0), "uvm0", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if d := ens.Commits() - before; d != 1 {
		t.Fatalf("one submit took %d store commits, want 1 (record and notice together)", d)
	}
	peek := ens.Connect()
	defer peek.Close()
	recPath := proto.TxnsPath + "/" + id
	if ok, _, err := peek.Exists(recPath); err != nil || !ok {
		t.Fatalf("record %s: exists=%v err=%v", recPath, ok, err)
	}
	items, err := peek.Children(proto.InputQPath)
	if err != nil || len(items) != 1 {
		t.Fatalf("inputQ = %v (%v), want the one submit notice", items, err)
	}
	data, _, err := peek.Get(proto.InputQPath + "/" + items[0])
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := proto.DecodeInputMsg(data); err != nil || msg.Kind != proto.KindSubmit || msg.TxnPath != recPath {
		t.Fatalf("notice = %+v (%v), want a submit for %s", msg, err, recPath)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if rec, err := cli.Wait(ctx, id); err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("queued submit: %v (%v)", rec, err)
	}
	rec, err := cli.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
		tcloud.StorageHostPath(0), tcloud.ComputeHostPath(1), "uvm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateCommitted {
		t.Fatalf("state = %s (%s)", rec.State, rec.Error)
	}
	if st := p.ControllerStats(); st.MaxInBatch != 1 {
		t.Fatalf("unbatched platform drained up to %d items per round, want 1", st.MaxInBatch)
	}
}
