package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/trerr"
)

// newShardedServer runs a logical-only sharded deployment behind the
// gateway. One storage host per compute host so every shard (almost
// surely) owns colocated spawn targets.
func newShardedServer(t *testing.T, shards, hosts int) (*httptest.Server, *tropic.Platform) {
	t.Helper()
	p, err := tropic.New(tropic.Config{
		Schema:      tcloud.NewSchema(),
		Procedures:  tcloud.Procedures(),
		Bootstrap:   tcloud.Topology{ComputeHosts: hosts, ComputePerStorage: 1}.BuildModel(),
		Executor:    tropic.NoopExecutor{},
		Controllers: 1,
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
	gw := api.New(api.Config{Platform: p})
	t.Cleanup(gw.Close)
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return srv, p
}

// shardedSpawnArgs pairs each spawnable compute host with a same-shard
// storage host.
func shardedSpawnArgs(t *testing.T, p *tropic.Platform, hosts int) [][]string {
	t.Helper()
	storageByShard := make(map[int][]string)
	for i := 0; i < hosts; i++ {
		sp := tcloud.StorageHostPath(i)
		s, err := p.ShardOf(tcloud.ProcSpawnVM, sp)
		if err != nil {
			t.Fatal(err)
		}
		storageByShard[s] = append(storageByShard[s], sp)
	}
	var out [][]string
	for i := 0; i < hosts; i++ {
		hp := tcloud.ComputeHostPath(i)
		s, err := p.ShardOf(tcloud.ProcSpawnVM, hp)
		if err != nil {
			t.Fatal(err)
		}
		if len(storageByShard[s]) == 0 {
			continue
		}
		out = append(out, []string{storageByShard[s][0], hp, fmt.Sprintf("apivm%d", i), "1024"})
	}
	if len(out) < hosts/2 {
		t.Fatalf("only %d of %d hosts spawnable", len(out), hosts)
	}
	return out
}

// TestAPISharded drives the whole HTTP surface against a sharded
// platform with same-shard work: submissions route by resource root and
// return shard-qualified ids, waits and gets resolve through the prefix,
// /v1/txns merges cursor pagination across shards, and stats/healthz
// report per-shard sections. (The cross-shard path over HTTP is
// TestAPICrossShard.)
func TestAPISharded(t *testing.T) {
	const shards, hosts = 3, 12
	srv, p := newShardedServer(t, shards, hosts)

	var ids []string
	for _, args := range shardedSpawnArgs(t, p, hosts) {
		code, body := postJSON(t, srv.URL+"/v1/submit", map[string]any{
			"proc": "spawnVM", "args": args,
		})
		if code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, body)
		}
		var res api.SubmitResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.ID, "s") {
			t.Fatalf("id %q is not shard-qualified", res.ID)
		}
		ids = append(ids, res.ID)
	}
	for _, id := range ids {
		code, body := getJSON(t, srv.URL+"/v1/wait?id="+id)
		if code != http.StatusOK {
			t.Fatalf("wait %s: %d %s", id, code, body)
		}
		var rec tropic.Txn
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != tropic.StateCommitted {
			t.Fatalf("txn %s: %s (%s)", id, rec.State, rec.Error)
		}
	}

	// /v1/txns pages across every shard without duplicates.
	seen := make(map[string]bool)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("pagination does not terminate")
		}
		url := srv.URL + "/v1/txns?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		code, body := getJSON(t, url)
		if code != http.StatusOK {
			t.Fatalf("txns: %d %s", code, body)
		}
		var page tropic.TxnPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Txns {
			if seen[rec.ID] {
				t.Fatalf("pagination returned %s twice", rec.ID)
			}
			seen[rec.ID] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != len(ids) {
		t.Fatalf("pagination found %d records, want %d", len(seen), len(ids))
	}

	// Stats aggregates and breaks down per shard.
	code, body := getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats struct {
		Pipeline tropic.PipelineInfo `json:"pipeline"`
		Shards   []api.ShardStats    `json:"shards"`
		Worker   struct {
			Committed int64 `json:"Committed"`
		} `json:"worker"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pipeline.Shards != shards || len(stats.Shards) != shards {
		t.Fatalf("stats shards = %d/%d, want %d", stats.Pipeline.Shards, len(stats.Shards), shards)
	}
	var perShard int64
	for _, s := range stats.Shards {
		if s.Leader == "" {
			t.Fatalf("shard %d reports no leader: %+v", s.Shard, s)
		}
		perShard += s.Worker.Committed
	}
	if perShard != int64(len(ids)) || stats.Worker.Committed != perShard {
		t.Fatalf("worker commits: aggregate %d, per-shard sum %d, want %d",
			stats.Worker.Committed, perShard, len(ids))
	}

	// Healthz lists every shard as ok.
	code, body = getJSON(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != shards {
		t.Fatalf("health = %+v", h)
	}
}

// TestAPICrossShard drives a spanning submission over HTTP with
// cross-shard execution (always on when sharded): the submit returns a
// parent id, wait resolves it to committed with a fully-committed child
// ledger, the children are fetchable through /v1/txn by their own ids,
// and /v1/stats reports the pipeline as cross-shard capable.
func TestAPICrossShard(t *testing.T) {
	const shards, hosts = 3, 12
	srv, p := newShardedServer(t, shards, hosts)

	var crossArgs []string
	for i := 0; i < hosts && crossArgs == nil; i++ {
		for j := 0; j < hosts; j++ {
			ss, _ := p.ShardOf(tcloud.ProcSpawnVM, tcloud.StorageHostPath(i))
			hs, _ := p.ShardOf(tcloud.ProcSpawnVM, tcloud.ComputeHostPath(j))
			if ss != hs {
				crossArgs = []string{tcloud.StorageHostPath(i), tcloud.ComputeHostPath(j), "apixvm", "1024"}
				break
			}
		}
	}
	if crossArgs == nil {
		t.Fatal("no cross-shard pair found")
	}
	code, body := postJSON(t, srv.URL+"/v1/submit", map[string]any{"proc": "spawnVM", "args": crossArgs})
	if code != http.StatusOK {
		t.Fatalf("cross-shard submit: %d %s", code, body)
	}
	var res api.SubmitResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	code, body = getJSON(t, srv.URL+"/v1/wait?id="+res.ID)
	if code != http.StatusOK {
		t.Fatalf("wait %s: %d %s", res.ID, code, body)
	}
	var rec tropic.Txn
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != tropic.StateCommitted {
		t.Fatalf("parent %s: %s (%s)", res.ID, rec.State, rec.Error)
	}
	if len(rec.Children) != 2 {
		t.Fatalf("parent has %d children, want 2: %+v", len(rec.Children), rec.Children)
	}
	for _, ref := range rec.Children {
		if ref.State != tropic.StateCommitted {
			t.Fatalf("child %s: %s (%s)", ref.ID, ref.State, ref.Error)
		}
		code, body = getJSON(t, srv.URL+"/v1/txn?id="+ref.ID)
		if code != http.StatusOK {
			t.Fatalf("get child %s: %d %s", ref.ID, code, body)
		}
		var child tropic.Txn
		if err := json.Unmarshal(body, &child); err != nil {
			t.Fatal(err)
		}
		if child.State != tropic.StateCommitted || child.Parent != res.ID {
			t.Fatalf("child record %s: state %s parent %q (want committed, %q)",
				ref.ID, child.State, child.Parent, res.ID)
		}
	}

	code, body = getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats struct {
		Pipeline tropic.PipelineInfo `json:"pipeline"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Pipeline.CrossShard {
		t.Fatalf("pipeline info does not report cross-shard capability: %+v", stats.Pipeline)
	}
}

// TestAPIShardedHealthzAllOrNothing: losing ONE shard's quorum flips
// the whole platform to 503 while naming the sick shard — a partially
// available platform silently black-holes that shard's resource roots,
// so readiness must not claim ok.
func TestAPIShardedHealthzAllOrNothing(t *testing.T) {
	const shards = 3
	srv, p := newShardedServer(t, shards, 6)

	// Stop two of shard 1's three store replicas: quorum lost.
	p.ShardEnsemble(1).StopReplica(0)
	p.ShardEnsemble(1).StopReplica(1)

	code, body := getJSON(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: %d %s", code, body)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" || h.Error == nil || h.Error.Code != trerr.APIUnavailable {
		t.Fatalf("health = %+v", h)
	}
	ok, sick := 0, 0
	for _, s := range h.Shards {
		switch {
		case s.Status == "ok":
			ok++
		case s.Shard == 1:
			sick++
		default:
			t.Fatalf("healthy shard %d reported %q", s.Shard, s.Status)
		}
	}
	if ok != shards-1 || sick != 1 {
		t.Fatalf("shard healths = %+v", h.Shards)
	}
}
