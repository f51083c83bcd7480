package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/readpath"
	"repro/internal/worker"
	"repro/tropic"
)

// span is one timed call into a layer. Spans of one transaction share
// its id as the request id; Parent indexes the span that caused it.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs pay only a nil
// check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// add records a span and returns its index, the parent handle of spans
// it causes.
func (t *tracer) add(name, req string, start, end time.Time, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return int32(len(t.spans) - 1)
}

// history adds one span per state a transaction record stamps, from the
// previous stamp to this one: state.accepted is acceptance,
// state.started scheduling, state.committed execution and report.
func (t *tracer) history(id string, rec *tropic.Txn, parent int32) {
	if t == nil {
		return
	}
	for i := 1; i < len(rec.History); i++ {
		prev, cur := rec.History[i-1], rec.History[i]
		t.add("state."+string(cur.State), id, prev.At, cur.At, parent)
	}
}

// durations returns the durations in ns of the named spans that
// started within [from, to).
func (t *tracer) durations(name string, from, to time.Time) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= lo && s.Start < hi {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeFile writes every span as one JSON object per line; a span's id
// is its line number, counted from 0.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is one reading of every surface the program exports, summed
// over shards. Per-layer counts are deltas of two readings.
type counters struct {
	persist  tropic.PersistStats
	appends  []int64 // WAL appends per shard
	commits  int64
	ctrl     controller.Stats
	wrk      worker.Stats
	reads    readpath.Stats
	reg      map[string]float64
	gcCycles float64
	gcCPU    float64
	allCPU   float64
}

func snapshot(p *tropic.Platform) counters {
	c := counters{
		ctrl: p.ControllerStats(),
		wrk:  p.WorkerStats(),
		reg:  parseRegistry(p.Metrics().Text()),
	}
	for i := 0; i < p.NumShards(); i++ {
		e := p.ShardEnsemble(i)
		ps := e.PersistStats()
		c.appends = append(c.appends, ps.WALAppends)
		c.persist.WALAppends += ps.WALAppends
		c.persist.WALBytes += ps.WALBytes
		c.persist.Fsyncs += ps.Fsyncs
		c.persist.Snapshots += ps.Snapshots
		c.commits += e.Commits()
	}
	for _, rs := range p.ReadStats() {
		c.reads.Hits += rs.Hits
		c.reads.Misses += rs.Misses
		c.reads.Evictions += rs.Evictions
		c.reads.CacheServed += rs.CacheServed
		c.reads.FollowerServed += rs.FollowerServed
		c.reads.LeaderServed += rs.LeaderServed
		c.reads.CacheBytes += rs.CacheBytes
		c.reads.CachedRecords += rs.CachedRecords
	}
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.gcCycles = float64(samples[0].Value.Uint64())
	c.gcCPU = samples[1].Value.Float64()
	c.allCPU = samples[2].Value.Float64()
	return c
}

// parseRegistry reads the Prometheus text exposition into sums over
// every series of a family (tropic_store_group_commit_seconds_sum), and
// over the series sharing its labels other than shard
// (tropic_xshard_phase_seconds_sum{phase=vote}). Bucket series are
// skipped.
func parseRegistry(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name, labels = name[:b], strings.TrimSuffix(name[b+1:], "}")
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		var keep []string
		for _, kv := range strings.Split(labels, ",") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok || k == "shard" {
				continue
			}
			keep = append(keep, k+"="+strings.Trim(val, `"`))
		}
		out[name] += v
		if len(keep) > 0 {
			out[name+"{"+strings.Join(keep, ",")+"}"] += v
		}
	}
	return out
}

// delta is after − before of one registry key.
func (ph *phase) delta(key string) float64 { return ph.after.reg[key] - ph.before.reg[key] }

// histMean is the mean observation of a registry histogram over the
// timed phase, in the histogram's unit.
func (ph *phase) histMean(family, labels string) float64 {
	return finite(ph.delta(family+"_sum"+labels) / ph.delta(family+"_count"+labels))
}

// checkCounters fails the run when the program reports the outcomes the
// workloads are built to avoid: wound aborts or in-doubt resolutions.
func (ph *phase) checkCounters() {
	ph.snapshots = ph.after.persist.Snapshots - ph.before.persist.Snapshots
	ph.attempted++
	if w, d := ph.delta("tropic_xshard_wounds_total"), ph.delta("tropic_xshard_indoubt_total"); w != 0 || d != 0 {
		ph.fail("cross-shard wounds %v and in-doubt resolutions %v, want 0 and 0", w, d)
	}
}

// heapSampler records the largest heap (objects, live or not yet
// swept) seen during the timed phase of a traced run.
type heapSampler struct {
	done chan struct{}
	max  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), max: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-h.done:
				h.max <- max
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it, and returns the maximum.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.max
}

// perLayerUnits names every per-layer metric with its unit, in the
// order of the layer table in README.md.
var perLayerUnits = []struct{ name, unit string }{
	{"persist.wal_appends_per_txn", "count"},
	{"persist.wal_bytes_per_txn", "B"},
	{"persist.fsyncs_per_txn", "count"},
	{"persist.snapshots", "count"},
	{"persist.recover_ms", "ms"},
	{"store.rounds_per_txn", "count"},
	{"store.ops_per_round", "count"},
	{"store.commit_ms", "ms"},
	{"controller.rounds_per_txn", "count"},
	{"controller.items_per_round", "count"},
	{"controller.busy_ms_per_txn", "ms"},
	{"controller.flush_ms", "ms"},
	{"controller.deferrals_per_txn", "count"},
	{"stage.accept_ms", "ms"},
	{"stage.schedule_ms", "ms"},
	{"stage.execute_ms", "ms"},
	{"worker.claim_wait_ms", "ms"},
	{"worker.execute_ms", "ms"},
	{"worker.actions_per_txn", "count"},
	{"xshard.vote_ms", "ms"},
	{"xshard.prepare_ms", "ms"},
	{"xshard.decide_ms", "ms"},
	{"xshard.local_children_per_txn", "count"},
	{"xshard.piggyback_per_txn", "count"},
	{"xshard.peer_batch_ops", "count"},
	{"xshard.wounds", "count"},
	{"xshard.indoubt", "count"},
	{"readpath.hit_ratio", "ratio"},
	{"readpath.follower_share", "ratio"},
	{"readpath.evictions_per_kread", "count"},
	{"tropic.observe_ms", "ms"},
	{"tropic.submit_us", "us"},
	{"tropic.submit_us.p99", "us"},
	{"httpclient.get_us", "us"},
	{"api.get_us", "us"},
	{"httpclient.submit_us", "us"},
	{"httpclient.wait_ms", "ms"},
	{"httpclient.list_ms", "ms"},
	{"go.gc_cycles_per_ktxn", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.heap_mb_max", "MB"},
}

// perLayer derives every per-layer metric of a traced run from the
// counter deltas and the spans of the timed phase. A layer the workload
// does not exercise reports 0.
func perLayer(ph *phase, tr *tracer) map[string]metric {
	b, a := ph.before, ph.after
	txns := float64(ph.txns)
	perTxn := func(d int64) float64 { return finite(float64(d) / txns) }
	spanQ := func(name string, q, unit float64) float64 {
		return quantile(tr.durations(name, ph.timedFrom, ph.timedTo), q) / unit
	}
	rounds := a.ctrl.InBatches - b.ctrl.InBatches
	served := (a.reads.CacheServed - b.reads.CacheServed) +
		(a.reads.FollowerServed - b.reads.FollowerServed) +
		(a.reads.LeaderServed - b.reads.LeaderServed)
	hits := a.reads.Hits - b.reads.Hits
	misses := a.reads.Misses - b.reads.Misses
	groupOps := ph.delta("tropic_store_group_commit_ops_sum") + ph.delta("tropic_controller_flush_ops_sum")
	groups := ph.delta("tropic_store_group_commit_ops_count") + ph.delta("tropic_controller_flush_ops_count")

	v := map[string]float64{
		"persist.wal_appends_per_txn": perTxn(a.persist.WALAppends - b.persist.WALAppends),
		"persist.wal_bytes_per_txn":   perTxn(a.persist.WALBytes - b.persist.WALBytes),
		"persist.fsyncs_per_txn":      perTxn(a.persist.Fsyncs - b.persist.Fsyncs),
		"persist.snapshots":           float64(ph.snapshots),
		"persist.recover_ms":          ph.recoverMs,

		"store.rounds_per_txn": perTxn(a.commits - b.commits),
		"store.ops_per_round":  finite(groupOps / groups),
		"store.commit_ms":      1000 * ph.histMean("tropic_store_group_commit_seconds", ""),

		"controller.rounds_per_txn":    perTxn(rounds),
		"controller.items_per_round":   finite(float64(a.ctrl.InBatchItems-b.ctrl.InBatchItems) / float64(rounds)),
		"controller.busy_ms_per_txn":   perTxn(a.ctrl.BusyNanos-b.ctrl.BusyNanos) / 1e6,
		"controller.flush_ms":          finite(float64(a.ctrl.FlushNanos-b.ctrl.FlushNanos) / float64(a.ctrl.Flushes-b.ctrl.Flushes) / 1e6),
		"controller.deferrals_per_txn": perTxn(a.ctrl.Deferrals - b.ctrl.Deferrals),
		"stage.accept_ms":              spanQ("state.accepted", 0.5, 1e6),
		"stage.schedule_ms":            spanQ("state.started", 0.5, 1e6),
		"stage.execute_ms":             spanQ("state.committed", 0.5, 1e6),

		"worker.claim_wait_ms":   1000 * ph.histMean("tropic_worker_claim_wait_seconds", ""),
		"worker.execute_ms":      1000 * ph.histMean("tropic_worker_execute_seconds", ""),
		"worker.actions_per_txn": perTxn(a.wrk.Actions - b.wrk.Actions),

		"xshard.vote_ms":                1000 * ph.histMean("tropic_xshard_phase_seconds", "{phase=vote}"),
		"xshard.prepare_ms":             1000 * ph.histMean("tropic_xshard_phase_seconds", "{phase=prepare}"),
		"xshard.decide_ms":              1000 * ph.histMean("tropic_xshard_phase_seconds", "{phase=decide}"),
		"xshard.local_children_per_txn": finite(ph.delta("tropic_xshard_local_children_total") / txns),
		"xshard.piggyback_per_txn":      finite(ph.delta("tropic_xshard_piggyback_total") / txns),
		"xshard.peer_batch_ops":         ph.histMean("tropic_xshard_peer_batch_ops", ""),
		"xshard.wounds":                 ph.delta("tropic_xshard_wounds_total"),
		"xshard.indoubt":                ph.delta("tropic_xshard_indoubt_total"),

		"readpath.hit_ratio":           finite(float64(hits) / float64(hits+misses)),
		"readpath.follower_share":      finite(float64(a.reads.FollowerServed-b.reads.FollowerServed) / float64(served)),
		"readpath.evictions_per_kread": finite(1000 * float64(a.reads.Evictions-b.reads.Evictions) / float64(served)),
		"tropic.observe_ms":            spanQ("tropic.WatchTxn.deliver", 0.5, 1e6),
		"tropic.submit_us":             spanQ("tropic.Submit", 0.5, 1e3),
		"tropic.submit_us.p99":         spanQ("tropic.Submit", 0.99, 1e3),

		"httpclient.get_us":    spanQ("http.get", 0.5, 1e3),
		"api.get_us":           ph.apiGetUs,
		"httpclient.submit_us": spanQ("http.submit", 0.5, 1e3),
		"httpclient.wait_ms":   spanQ("http.wait", 0.5, 1e6),
		"httpclient.list_ms":   spanQ("http.list", 0.5, 1e6),

		"go.gc_cycles_per_ktxn": finite(1000 * (a.gcCycles - b.gcCycles) / float64(ph.ops)),
		"go.gc_cpu_frac":        finite((a.gcCPU - b.gcCPU) / (a.allCPU - b.allCPU)),
		"go.heap_mb_max":        float64(ph.heapMax) / (1 << 20),
	}
	out := make(map[string]metric, len(perLayerUnits))
	for _, m := range perLayerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
