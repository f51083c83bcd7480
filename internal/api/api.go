// Package api is TROPIC's API service gateway (Figure 1): the versioned
// HTTP surface between end users and the controllers. It translates
// HTTP requests into tropic.Client calls and renders every failure as a
// structured JSON error carrying a stable trerr taxonomy code:
//
//	{"error": {"code": "txn.not_found", "message": "...", "details": {...}}}
//
// Endpoints (all under /v1 except the readiness probe):
//
//	POST /v1/submit   submit one transaction or a batch, with optional
//	                  idempotency keys
//	GET  /v1/txn      fetch a transaction record
//	GET  /v1/txns     list records (state/proc filters, cursor pagination)
//	GET  /v1/wait     block until a transaction is terminal
//	GET  /v1/watch    stream state transitions over server-sent events
//	POST /v1/signal   send TERM/KILL to a transaction (§4)
//	POST /v1/repair   logical→physical reconciliation (§4)
//	POST /v1/reload   physical→logical reconciliation (§4)
//	GET  /v1/stats    controller/worker/store counters (aggregated across
//	                  shards, plus a per-shard breakdown), batch-pipeline
//	                  config, queue depth gauges, API latencies
//	GET  /healthz     readiness: leader presence and store quorum on
//	                  EVERY shard (all-or-nothing)
//	GET  /metrics     Prometheus text exposition of every pipeline
//	                  stage's instruments (docs/observability.md)
//
// On a sharded platform the surface is routing-transparent, including
// cross-shard transactions (docs/cross-shard.md): submitting a spanning
// invocation returns the parent id, whose record carries the per-shard
// child ledger and the durable 2PC decision; children resolve through
// /v1/txn and /v1/wait by their own "<parent>.c<k>" ids.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/worker"
	"repro/tropic"
	"repro/tropic/trerr"
)

// Config parameterizes a gateway.
type Config struct {
	// Platform is the deployment to serve (required).
	Platform *tropic.Platform
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// WaitTimeout bounds GET /v1/wait (default 5 minutes).
	WaitTimeout time.Duration
	// ReconcileTimeout bounds repair/reload requests (default 1 minute).
	ReconcileTimeout time.Duration
	// IdempotencyWait bounds how long one submission waits for a racing
	// claimant of its idempotency key to record its id (default 5
	// seconds). Batches get this budget per item (the whole batch is
	// bounded by IdempotencyWait × batch size).
	IdempotencyWait time.Duration
}

// Gateway serves the orchestration HTTP API.
type Gateway struct {
	cfg Config
	p   *tropic.Platform
	cli *tropic.Client
	mux *http.ServeMux
	// lat holds one latency histogram per endpoint, surfaced in
	// /v1/stats. Raw-sample histograms are fine at reproduction scale;
	// a production gateway would use bounded buckets.
	lat map[string]*metrics.Histogram
}

// New builds a gateway around a started platform.
func New(cfg Config) *Gateway {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 5 * time.Minute
	}
	if cfg.ReconcileTimeout <= 0 {
		cfg.ReconcileTimeout = time.Minute
	}
	if cfg.IdempotencyWait <= 0 {
		cfg.IdempotencyWait = 5 * time.Second
	}
	g := &Gateway{
		cfg: cfg,
		p:   cfg.Platform,
		cli: cfg.Platform.Client(),
		mux: http.NewServeMux(),
		lat: make(map[string]*metrics.Histogram),
	}
	g.route("/v1/submit", http.MethodPost, g.handleSubmit)
	g.route("/v1/txn", http.MethodGet, g.handleGet)
	g.route("/v1/txns", http.MethodGet, g.handleList)
	g.route("/v1/wait", http.MethodGet, g.handleWait)
	g.route("/v1/watch", http.MethodGet, g.handleWatch)
	g.route("/v1/signal", http.MethodPost, g.handleSignal)
	g.route("/v1/repair", http.MethodPost, g.handleReconcile((*tropic.Client).Repair))
	g.route("/v1/reload", http.MethodPost, g.handleReconcile((*tropic.Client).Reload))
	g.route("/v1/stats", http.MethodGet, g.handleStats)
	g.route("/healthz", http.MethodGet, g.handleHealthz)
	g.route("/metrics", http.MethodGet, g.handleMetrics)
	g.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		g.writeError(w, trerr.Newf(trerr.APINotFound, "no such endpoint %s", r.URL.Path))
	})
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close releases the gateway's platform session.
func (g *Gateway) Close() { g.cli.Close() }

// route registers a handler with method enforcement and latency
// measurement.
func (g *Gateway) route(path, method string, h http.HandlerFunc) {
	hist := metrics.NewHistogram()
	g.lat[path] = hist
	g.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { hist.ObserveDuration(time.Since(start)) }()
		if r.Method != method {
			g.writeError(w, trerr.Newf(trerr.APIMethodNotAllowed,
				"%s requires %s", path, method).With("method", method))
			return
		}
		h(w, r)
	})
}

// ZxidHeader carries a read-your-writes watermark across stateless
// HTTP requests: responses report the store zxid the response reflects,
// and a request presenting the header is served only from state that
// has applied at least that zxid (cache entry, caught-up follower, or
// the leader). See docs/reads.md.
const ZxidHeader = "X-Tropic-Zxid"

// readWatermark parses the request's zxid watermark header. Absent
// means 0 (any replica may serve); malformed is a client error.
func readWatermark(r *http.Request) (int64, error) {
	v := r.Header.Get(ZxidHeader)
	if v == "" {
		return 0, nil
	}
	z, err := strconv.ParseInt(v, 10, 64)
	if err != nil || z < 0 {
		return 0, trerr.Newf(trerr.APIBadRequest,
			"%s: malformed zxid watermark %q", ZxidHeader, v).With("zxid", v)
	}
	return z, nil
}

// setWatermark reports the zxid a response reflects.
func setWatermark(w http.ResponseWriter, z int64) {
	if z > 0 {
		w.Header().Set(ZxidHeader, strconv.FormatInt(z, 10))
	}
}

// --- Submission -------------------------------------------------------

// SubmitItem is one submission in a POST /v1/submit request.
type SubmitItem struct {
	Proc string   `json:"proc"`
	Args []string `json:"args,omitempty"`
	// IdempotencyKey, when set, dedups resubmissions: the same key
	// always returns the id of its first submission.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
}

// SubmitRequest is the POST /v1/submit body: either a single item
// (proc/args at the top level) or a batch.
type SubmitRequest struct {
	SubmitItem
	// Batch, when non-empty, submits several transactions in one
	// request; the top-level proc must then be absent.
	Batch []SubmitItem `json:"batch,omitempty"`
}

// SubmitResult reports one accepted submission.
type SubmitResult struct {
	ID string `json:"id"`
	// Deduped is true when an idempotency key matched an earlier
	// submission and no new transaction was created.
	Deduped bool `json:"deduped,omitempty"`
	// Zxid is the store position the submission committed at (also sent
	// as the X-Tropic-Zxid response header). A client that echoes it as
	// the X-Tropic-Zxid header on subsequent reads is guaranteed to
	// observe this submission no matter which replica serves the read —
	// session consistency across stateless gateway requests.
	Zxid int64 `json:"zxid,omitempty"`
}

// BatchSubmitResponse is the POST /v1/submit response for batches.
type BatchSubmitResponse struct {
	Results []SubmitResult `json:"results"`
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		g.writeError(w, trerr.Wrap(trerr.APIBadRequest, err, "submit: invalid JSON body"))
		return
	}
	// One IdempotencyWait budget per submission: a batch's sequential
	// key awaits share IdempotencyWait × batch size, so one contended
	// key cannot starve the items behind it into spurious 409s.
	items := len(req.Batch)
	if items == 0 {
		items = 1
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.IdempotencyWait*time.Duration(items))
	defer cancel()
	if len(req.Batch) == 0 {
		// Single form: proc/args at the top level.
		id, deduped, err := g.cli.SubmitIdempotent(ctx, req.IdempotencyKey, req.Proc, req.Args...)
		if err != nil {
			g.writeError(w, err)
			return
		}
		z := g.cli.Watermark()
		setWatermark(w, z)
		g.writeJSON(w, SubmitResult{ID: id, Deduped: deduped, Zxid: z})
		return
	}
	if req.Proc != "" {
		g.writeError(w, trerr.New(trerr.SubmitInvalidArgs,
			"submit: use either top-level proc or batch, not both"))
		return
	}
	specs := make([]tropic.SubmitSpec, 0, len(req.Batch))
	for _, item := range req.Batch {
		specs = append(specs, tropic.SubmitSpec{
			Proc: item.Proc, Args: item.Args, IdempotencyKey: item.IdempotencyKey,
		})
	}
	// SubmitBatch validates every item before submitting any; a bad
	// entry rejects the whole batch with a "batchIndex" detail.
	outcomes, err := g.cli.SubmitBatch(ctx, specs)
	if err != nil {
		g.writeError(w, err)
		return
	}
	z := g.cli.Watermark()
	setWatermark(w, z)
	resp := BatchSubmitResponse{Results: make([]SubmitResult, 0, len(outcomes))}
	for _, o := range outcomes {
		resp.Results = append(resp.Results, SubmitResult{ID: o.ID, Deduped: o.Deduped, Zxid: z})
	}
	g.writeJSON(w, resp)
}

// --- Reads ------------------------------------------------------------

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		g.writeError(w, trerr.New(trerr.APIBadRequest, "txn: missing id query parameter"))
		return
	}
	minZ, err := readWatermark(r)
	if err != nil {
		g.writeError(w, err)
		return
	}
	rec, z, err := g.cli.GetAt(id, minZ)
	if err != nil {
		g.writeError(w, err)
		return
	}
	setWatermark(w, z)
	g.writeJSON(w, rec)
}

func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		g.writeError(w, trerr.New(trerr.APIBadRequest, "wait: missing id query parameter"))
		return
	}
	minZ, err := readWatermark(r)
	if err != nil {
		g.writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.WaitTimeout)
	defer cancel()
	rec, z, err := g.cli.WaitAt(ctx, id, minZ)
	if err != nil {
		g.writeError(w, err)
		return
	}
	setWatermark(w, z)
	g.writeJSON(w, rec)
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := tropic.ListOptions{
		Proc:   q.Get("proc"),
		Cursor: q.Get("cursor"),
	}
	if s := q.Get("state"); s != "" {
		// State values are stored lowercase; accept any case (the
		// conventional spelling in ops tooling is COMMITTED).
		st := tropic.State(strings.ToLower(s))
		switch st {
		case tropic.StateInitialized, tropic.StateAccepted, tropic.StateStarted,
			tropic.StatePrepared, tropic.StateDeciding,
			tropic.StateCommitted, tropic.StateAborted, tropic.StateFailed:
			opts.State = st
		default:
			g.writeError(w, trerr.Newf(trerr.APIBadRequest,
				"txns: unknown state %q", s).With("state", s))
			return
		}
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			g.writeError(w, trerr.Newf(trerr.APIBadRequest, "txns: invalid limit %q", l))
			return
		}
		opts.Limit = n
	}
	minZ, err := readWatermark(r)
	if err != nil {
		g.writeError(w, err)
		return
	}
	page, z, err := g.cli.ListAt(opts, minZ)
	if err != nil {
		g.writeError(w, err)
		return
	}
	setWatermark(w, z)
	g.writeJSON(w, page)
}

// --- Streaming (SSE) --------------------------------------------------

func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		g.writeError(w, trerr.New(trerr.APIBadRequest, "watch: missing id query parameter"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		g.writeError(w, trerr.New(trerr.APIInternal, "watch: response writer does not support streaming"))
		return
	}
	minZ, err := readWatermark(r)
	if err != nil {
		g.writeError(w, err)
		return
	}
	// The stream rides the shard's fan-out multiplexer: every concurrent
	// watcher of this record shares one store watch, and r.Context() is
	// cancelled on client disconnect, which releases the subscription
	// (and the shared watch once the last subscriber is gone).
	ch, err := g.cli.WatchTxnAt(r.Context(), id, minZ)
	if err != nil {
		g.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var last *tropic.Txn
	for rec := range ch {
		data, merr := json.Marshal(rec)
		if merr != nil {
			g.cfg.Logf("api: watch %s: encode: %v", id, merr)
			return
		}
		last = rec
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
		flusher.Flush()
	}
	if last != nil && last.State.Terminal() {
		// Normal completion: the terminal record was delivered.
		fmt.Fprint(w, "event: done\ndata: {}\n\n")
	} else {
		// The watch died before a terminal state (store session expired,
		// record unreadable): say so instead of claiming completion.
		te := trerr.New(trerr.APIUnavailable, "watch interrupted before a terminal state").With("id", id)
		data, _ := json.Marshal(te)
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
	}
	flusher.Flush()
}

// --- Signals and reconciliation ---------------------------------------

// SignalRequest is the POST /v1/signal body.
type SignalRequest struct {
	ID     string `json:"id"`
	Signal string `json:"signal"`
}

func (g *Gateway) handleSignal(w http.ResponseWriter, r *http.Request) {
	var req SignalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		g.writeError(w, trerr.Wrap(trerr.APIBadRequest, err, "signal: invalid JSON body"))
		return
	}
	if err := g.cli.Signal(req.ID, tropic.Signal(req.Signal)); err != nil {
		g.writeError(w, err)
		return
	}
	g.writeJSON(w, map[string]string{})
}

// TargetRequest is the POST /v1/repair and /v1/reload body.
type TargetRequest struct {
	Target string `json:"target"`
}

func (g *Gateway) handleReconcile(op func(*tropic.Client, context.Context, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req TargetRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			g.writeError(w, trerr.Wrap(trerr.APIBadRequest, err, "reconcile: invalid JSON body"))
			return
		}
		if req.Target == "" {
			g.writeError(w, trerr.New(trerr.APIBadRequest, "reconcile: missing target"))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ReconcileTimeout)
		defer cancel()
		if err := op(g.cli, ctx, req.Target); err != nil {
			g.writeError(w, err)
			return
		}
		g.writeJSON(w, map[string]string{})
	}
}

// --- Stats and readiness ----------------------------------------------

// LatencySummary condenses one endpoint's latency histogram.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

func (g *Gateway) latencySummaries() map[string]LatencySummary {
	out := make(map[string]LatencySummary, len(g.lat))
	for path, h := range g.lat {
		if h.Count() == 0 {
			continue
		}
		out[path] = LatencySummary{
			Count:  h.Count(),
			MeanMs: h.Mean() * 1000,
			P50Ms:  h.Quantile(0.5) * 1000,
			P99Ms:  h.Quantile(0.99) * 1000,
			MaxMs:  h.Max() * 1000,
		}
	}
	return out
}

// ShardStats is one shard's slice of the GET /v1/stats response.
type ShardStats struct {
	Shard   int                 `json:"shard"`
	Leader  string              `json:"leader"`
	Store   store.Health        `json:"store"`
	Persist store.PersistStats  `json:"persist"`
	Worker  worker.Stats        `json:"worker"`
	Queues  metrics.QueueDepths `json:"queues"`
}

func (g *Gateway) shardStats() []ShardStats {
	out := make([]ShardStats, 0, g.p.NumShards())
	for i := 0; i < g.p.NumShards(); i++ {
		s := ShardStats{
			Shard:   i,
			Store:   g.p.ShardEnsemble(i).Health(),
			Persist: g.p.ShardEnsemble(i).PersistStats(),
			Worker:  g.p.ShardWorker(i).Stats(),
			Queues:  g.p.ShardQueueDepths(i),
		}
		if l := g.p.ShardLeader(i); l != nil {
			s.Leader = l.Name()
		}
		out = append(out, s)
	}
	return out
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	leaderName := ""
	if l := g.p.Leader(); l != nil {
		leaderName = l.Name()
	}
	// Top-level sections aggregate across shards (controller/worker/
	// persist counters and queue depths sum; store health sums replicas
	// and sessions, with quorum true only when EVERY shard has quorum);
	// the "shards" array carries each shard's own leader, store health,
	// persist counters, and depths. Unsharded platforms report a
	// one-element array, so dashboards can consume one shape.
	shards := g.shardStats()
	var persist store.PersistStats
	health := store.Health{Quorum: true}
	for _, s := range shards {
		persist.WALAppends += s.Persist.WALAppends
		persist.WALBytes += s.Persist.WALBytes
		persist.Fsyncs += s.Persist.Fsyncs
		persist.FsyncNanos += s.Persist.FsyncNanos
		persist.Snapshots += s.Persist.Snapshots
		persist.Recoveries += s.Persist.Recoveries
		if s.Persist.LastRecoveryNanos > persist.LastRecoveryNanos {
			persist.LastRecoveryNanos = s.Persist.LastRecoveryNanos
		}
		health.Replicas += s.Store.Replicas
		health.Alive += s.Store.Alive
		health.Sessions += s.Store.Sessions
		health.Quorum = health.Quorum && s.Store.Quorum
	}
	g.writeJSON(w, map[string]any{
		"leader":     leaderName,
		"controller": g.p.ControllerStats(),
		"worker":     g.p.WorkerStats(),
		"persist":    persist,
		"store":      health,
		"pipeline":   g.p.PipelineInfo(),
		"queues":     g.p.QueueDepths(),
		"reads":      g.p.ReadStats(),
		"shards":     shards,
		"api":        g.latencySummaries(),
	})
}

// handleMetrics serves the platform registry in Prometheus text
// exposition format (v0.0.4), ready for any prometheus scrape_config.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.p.Metrics().WriteText(w); err != nil {
		g.cfg.Logf("api: write metrics: %v", err)
	}
}

// ShardHealth is one shard's readiness in the GET /healthz body.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Status is "ok" when this shard can serve, else "unavailable".
	Status string `json:"status"`
	// Leader names the shard's leading controller ("" while electing).
	Leader string `json:"leader,omitempty"`
	// Store summarizes the shard's coordination-store availability.
	Store store.Health `json:"store"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok" when EVERY shard can serve, else "unavailable" —
	// a partially available platform routes some resource roots into a
	// dead shard, so readiness is all-or-nothing.
	Status string `json:"status"`
	// Leader names shard 0's leading controller ("" while electing).
	Leader string `json:"leader,omitempty"`
	// Store summarizes shard 0's coordination-store availability.
	Store store.Health `json:"store"`
	// Shards reports every shard's readiness (one element unsharded).
	Shards []ShardHealth `json:"shards"`
	// Error classifies why the platform is unavailable.
	Error *trerr.Error `json:"error,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	for i := 0; i < g.p.NumShards(); i++ {
		sh := ShardHealth{Shard: i, Status: "ok", Store: g.p.ShardEnsemble(i).Health()}
		if l := g.p.ShardLeader(i); l != nil {
			sh.Leader = l.Name()
		}
		switch {
		case !sh.Store.Quorum:
			sh.Status = "unavailable"
			if resp.Error == nil {
				resp.Error = trerr.Newf(trerr.APIUnavailable,
					"shard %d store quorum lost: %d/%d replicas alive",
					i, sh.Store.Alive, sh.Store.Replicas)
			}
		case sh.Leader == "":
			sh.Status = "unavailable"
			if resp.Error == nil {
				resp.Error = trerr.Newf(trerr.APIUnavailable,
					"shard %d has no leading controller", i)
			}
		}
		if sh.Status != "ok" {
			resp.Status = "unavailable"
		}
		resp.Shards = append(resp.Shards, sh)
	}
	// Top-level Leader/Store mirror shard 0's probe (the pre-sharding
	// response shape) rather than re-probing it.
	resp.Leader = resp.Shards[0].Leader
	resp.Store = resp.Shards[0].Store
	w.Header().Set("Content-Type", "application/json")
	if resp.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		g.cfg.Logf("api: encode healthz response: %v", err)
	}
}

// --- Encoding helpers -------------------------------------------------

// errorBody is the envelope of every non-2xx JSON response.
type errorBody struct {
	Error *trerr.Error `json:"error"`
}

// writeError renders err as a structured JSON error with its code's
// canonical HTTP status. Errors outside the taxonomy become
// api.internal / 500.
func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	var te *trerr.Error
	if !errors.As(err, &te) {
		switch {
		case errors.Is(err, context.Canceled):
			// The client went away mid-request; nothing useful to send.
			return
		case errors.Is(err, context.DeadlineExceeded):
			// A gateway-side time budget (e.g. ReconcileTimeout)
			// elapsed: a timeout, not a server bug.
			te = trerr.Wrap(trerr.APITimeout, err, "gateway deadline elapsed")
		default:
			te = trerr.Wrap(trerr.APIInternal, err, err.Error())
		}
	}
	status := trerr.HTTPStatus(te.Code)
	if status == http.StatusTooManyRequests {
		// Admission-control sheds carry a backoff hint for clients.
		retry := "1"
		if v := te.Details["retry_after"]; v != "" {
			retry = v
		}
		w.Header().Set("Retry-After", retry)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(errorBody{Error: te}); encErr != nil {
		g.cfg.Logf("api: encode error response (%s): %v", te.Code, encErr)
	}
}

// writeJSON renders a 200 response, logging (not swallowing) encode
// failures.
func (g *Gateway) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already sent; all we can do is make the failure
		// visible to operators.
		g.cfg.Logf("api: encode response: %v", err)
	}
}
