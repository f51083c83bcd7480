package tropic_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/reconcile"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// TestClientSurface runs one set of client assertions on a one-shard
// and a two-shard platform: the same Client type fronts both, so every
// call must behave the same whatever the shard count.
func TestClientSurface(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { runClientSurface(t, shards) })
	}
}

func runClientSurface(t *testing.T, shards int) {
	const hosts = 4
	cloud, err := tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildCloud()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tropic.New(tropic.Config{
		Schema:         tcloud.NewSchema(),
		Procedures:     tcloud.Procedures(),
		Bootstrap:      cloud.Snapshot(),
		Executor:       cloud,
		Reconciler:     reconcile.New(cloud, cloud, tcloud.RepairRules()),
		Controllers:    1,
		SessionTimeout: 200 * time.Millisecond,
		Shards:         shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	c := p.Client()
	defer c.Close()

	// A storage and a compute host of one shard: single-shard spawns.
	sp, hp, host := "", "", -1
	for i := 0; i < hosts && host < 0; i++ {
		for j := 0; j < hosts; j++ {
			if _, err := p.ShardOf(tcloud.ProcSpawnVM, tcloud.StorageHostPath(j), tcloud.ComputeHostPath(i)); err == nil {
				sp, hp, host = tcloud.StorageHostPath(j), tcloud.ComputeHostPath(i), i
				break
			}
		}
	}
	if host < 0 {
		t.Fatal("no single-shard storage/compute pair")
	}

	// Submit, Get and Wait agree on the id.
	id1, err := c.Submit(tcloud.ProcSpawnVM, sp, hp, "vm1", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := c.Get(id1); err != nil || rec.ID != id1 {
		t.Fatalf("get %s: %+v %v", id1, rec, err)
	}
	rec, err := c.Wait(ctx, id1)
	if err != nil || rec.State != tropic.StateCommitted || rec.ID != id1 {
		t.Fatalf("wait %s: %+v %v", id1, rec, err)
	}

	// WatchTxn streams records under the submitted id and ends terminal.
	id2, err := c.Submit(tcloud.ProcSpawnVM, sp, hp, "vm2", "1024")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.WatchTxn(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	var last *tropic.Txn
	for rec := range ch {
		if rec.ID != id2 {
			t.Fatalf("watch of %s delivered id %s", id2, rec.ID)
		}
		last = rec
	}
	if last == nil || last.State != tropic.StateCommitted {
		t.Fatalf("watch of %s ended with %+v", id2, last)
	}

	// SubmitIdempotent dedupes a resubmission of the same key.
	id3, deduped, err := c.SubmitIdempotent(ctx, "surface-key", tcloud.ProcSpawnVM, sp, hp, "vm3", "1024")
	if err != nil || deduped {
		t.Fatalf("first idempotent submit: %s deduped=%v %v", id3, deduped, err)
	}
	again, deduped, err := c.SubmitIdempotent(ctx, "surface-key", tcloud.ProcSpawnVM, sp, hp, "vm3", "1024")
	if err != nil || !deduped || again != id3 {
		t.Fatalf("resubmit: %s deduped=%v %v, want %s deduped", again, deduped, err, id3)
	}
	if rec, err := c.Wait(ctx, id3); err != nil || rec.State != tropic.StateCommitted {
		t.Fatalf("wait %s: %+v %v", id3, rec, err)
	}

	// List, paged one record at a time to the end, returns each record
	// once under its id.
	want := map[string]bool{id1: true, id2: true, id3: true}
	seen := make(map[string]bool)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 20 {
			t.Fatal("list cursor does not terminate")
		}
		page, err := c.List(tropic.ListOptions{Cursor: cursor, Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Txns {
			if seen[rec.ID] || !want[rec.ID] {
				t.Fatalf("list returned %s (seen before: %v)", rec.ID, seen[rec.ID])
			}
			seen[rec.ID] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != len(want) {
		t.Fatalf("list found %v, want %v", seen, want)
	}

	// An id of the right shape that names no record is not found.
	unknown := id1[:len(id1)-8] + "99999999"
	if err := c.Signal(unknown, tropic.SignalTerm); !errors.Is(err, trerr.TxnNotFound) {
		t.Fatalf("signal %s: %v, want txn.not_found", unknown, err)
	}
	if _, err := c.Get(unknown); !errors.Is(err, trerr.TxnNotFound) {
		t.Fatalf("get %s: %v, want txn.not_found", unknown, err)
	}

	// Repair reaches the shard holding the host's logical state: after
	// a reboot powers the VMs off behind the platform's back, repair
	// starts them again.
	name := tcloud.ComputeHostName(host)
	if err := cloud.PowerOffHost(name); err != nil {
		t.Fatal(err)
	}
	if err := cloud.PowerOnHost(name); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(ctx, hp); err != nil {
		t.Fatalf("repair: %v", err)
	}
	for _, vm := range []string{"vm1", "vm2", "vm3"} {
		if st := cloud.ComputeHost(name).VMs[vm].State; st != device.VMRunning {
			t.Fatalf("%s is %v after repair, want running", vm, st)
		}
	}
}

// TestOneShardFormatUnchanged pins what a one-shard platform exposes
// and stores to the form it had before the platform had shards: ids
// without a shard prefix, List cursors that are the last id of the
// page, the WAL at the DataDir root, and unprefixed component names. A
// restart from that directory recovers every record.
func TestOneShardFormatUnchanged(t *testing.T) {
	const hosts = 4
	dir := t.TempDir()
	p := newDurablePlatform(t, dir, hosts)
	c := p.Client()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	plain := regexp.MustCompile(`^t-s[0-9a-f]+c[0-9]{8}$`)
	var ids []string
	for i := 0; i < hosts; i++ {
		rec, err := c.SubmitAndWait(ctx, tcloud.ProcSpawnVM,
			tcloud.StorageHostPath(0), tcloud.ComputeHostPath(i), fmt.Sprintf("vm%d", i), "1024")
		if err != nil || rec.State != tropic.StateCommitted {
			t.Fatalf("spawn %d: %+v %v", i, rec, err)
		}
		if !plain.MatchString(rec.ID) {
			t.Fatalf("id %q is not the unqualified t-s<session>c<seq> form", rec.ID)
		}
		ids = append(ids, rec.ID)
	}
	page, err := c.List(tropic.ListOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Txns) != 2 || page.NextCursor != page.Txns[1].ID {
		t.Fatalf("page of %d records with cursor %q, want 2 and the last id", len(page.Txns), page.NextCursor)
	}
	if got := p.Controllers()[0].Name(); got != "ctrl-0" {
		t.Fatalf("controller name %q, want ctrl-0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-00")); !os.IsNotExist(err) {
		t.Fatalf("one-shard platform made a shard-00 directory (stat: %v)", err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL segment at the DataDir root: %v %v", wals, err)
	}
	c.Close()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	p2 := newDurablePlatform(t, dir, hosts)
	t.Cleanup(func() { p2.Stop() })
	c2 := p2.Client()
	defer c2.Close()
	for _, id := range ids {
		rec, err := c2.Get(id)
		if err != nil || rec.ID != id || rec.State != tropic.StateCommitted {
			t.Fatalf("get %s after restart: %+v %v", id, rec, err)
		}
	}
	page, err = c2.List(tropic.ListOptions{Limit: 100})
	if err != nil || len(page.Txns) != len(ids) {
		t.Fatalf("list after restart: %d records, %v; want %d", len(page.Txns), err, len(ids))
	}
	for _, rec := range page.Txns {
		if strings.HasPrefix(rec.ID, "s0-") {
			t.Fatalf("listed id %q carries a shard prefix", rec.ID)
		}
	}
}
