// Package httpclient is the Go SDK for TROPIC's orchestration HTTP API
// (internal/api, served by cmd/tropicd). It implements tropic.Session,
// so remote callers are interchangeable with in-process
// tropic.Client users:
//
//	var s tropic.Session = httpclient.New("http://localhost:7077")
//	id, err := s.Submit("spawnVM", storageHost, vmHost, "vm1", "1024")
//	rec, err := s.Wait(ctx, id)
//
// Gateway errors decode back into *trerr.Error values, so taxonomy
// codes survive the wire and remain errors.Is-matchable:
//
//	_, err := s.Get("t-bogus")
//	errors.Is(err, trerr.TxnNotFound) // true
//
// Sharding — including cross-shard transactions — is transparent: a
// spanning submission returns its parent id, Wait resolves when the
// two-phase commit finalizes, and the decoded record carries the child
// ledger and decision (docs/cross-shard.md); child ids
// ("<parent>.c<k>") resolve through Get/Wait/WatchTxn like any other.
package httpclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/txn"
	"repro/tropic"
	"repro/tropic/trerr"
)

// Client talks to a tropicd gateway. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// reqTimeout bounds the Session methods that take no context
	// (Submit, Get, List, Signal), so an unresponsive gateway cannot
	// block them forever. Context-taking methods (Wait, WatchTxn, ...)
	// are bounded by their contexts alone.
	reqTimeout time.Duration
	// zxid is the session's read-your-writes watermark: the highest
	// X-Tropic-Zxid any response has reported. Every request presents it,
	// so the gateway serves this client only from state that reflects its
	// own writes, whichever replica or cache entry answers (see
	// docs/reads.md).
	zxid atomic.Int64
}

var _ tropic.Session = (*Client)(nil)

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (transports,
// test doubles). Avoid http.Client.Timeout: it would also cap the
// long-lived Wait and WatchTxn streams; use WithRequestTimeout and
// contexts instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRequestTimeout sets the deadline applied to the context-less
// Session methods (default 30s; <= 0 disables).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Client) { c.reqTimeout = d }
}

// New creates a client for the gateway at baseURL
// (e.g. "http://localhost:7077").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{},
		reqTimeout: 30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// reqCtx builds the bounded context used by context-less methods.
func (c *Client) reqCtx() (context.Context, context.CancelFunc) {
	if c.reqTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), c.reqTimeout)
}

// Close releases idle connections. (The gateway holds no per-client
// server state.)
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// zxidHeader mirrors internal/api.ZxidHeader (the packages share no
// importable surface by design — the wire format is the contract).
const zxidHeader = "X-Tropic-Zxid"

// Zxid returns the client's current watermark: the store position its
// reads are guaranteed to reflect. 0 until the first response.
func (c *Client) Zxid() int64 { return c.zxid.Load() }

// raiseZxid lifts the watermark to a response's reported position.
// Monotonic: concurrent responses race benignly to the maximum.
func (c *Client) raiseZxid(h http.Header) {
	v := h.Get(zxidHeader)
	if v == "" {
		return
	}
	z, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return
	}
	for {
		cur := c.zxid.Load()
		if z <= cur || c.zxid.CompareAndSwap(cur, z) {
			return
		}
	}
}

// --- Wire types (mirroring internal/api) ------------------------------

type submitItem struct {
	Proc           string   `json:"proc"`
	Args           []string `json:"args,omitempty"`
	IdempotencyKey string   `json:"idempotencyKey,omitempty"`
}

type submitResult struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped,omitempty"`
}

type errorBody struct {
	Error *trerr.Error `json:"error"`
}

// --- Plumbing ---------------------------------------------------------

// doJSON performs one request and decodes a 2xx JSON response into out
// (ignored when nil). Non-2xx responses decode into *trerr.Error.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	data, err := c.do(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("httpclient: %s: decode response: %w", path, err)
	}
	return nil
}

// getRecord fetches one transaction record (GET /v1/txn, /v1/wait) and
// decodes it with the record codec.
func (c *Client) getRecord(ctx context.Context, path string) (*tropic.Txn, error) {
	data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	rec := new(tropic.Txn)
	if err := rec.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("httpclient: %s: decode response: %w", path, err)
	}
	return rec, nil
}

// do performs one request and returns the body of a 2xx response.
// Non-2xx responses decode into *trerr.Error.
func (c *Client) do(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("httpclient: encode %s request: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("httpclient: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if z := c.zxid.Load(); z > 0 {
		req.Header.Set(zxidHeader, strconv.FormatInt(z, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpclient: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("httpclient: %s: read response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(path, resp.StatusCode, resp.Header, data)
	}
	c.raiseZxid(resp.Header)
	return data, nil
}

// bodyUpfront is the most of a declared Content-Length readBody
// allocates before the bytes arrive.
const bodyUpfront = 32 << 10

// readBody reads a response body whole, once, into one buffer sized
// from its Content-Length. The buffer only grows past bodyUpfront as
// bytes arrive, at most doubling, so a server that declares more than it
// sends costs what it sent, not what it declared.
func readBody(resp *http.Response) ([]byte, error) {
	declared := resp.ContentLength
	b := make([]byte, 0, max(0, min(declared, bodyUpfront)))
	for {
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			grow := max(len(b), 512)
			if rest := declared - int64(len(b)); rest > 0 && rest < int64(grow) {
				grow = int(rest)
			}
			b = slices.Grow(b, grow)
		}
	}
}

// decodeError turns a non-2xx gateway body back into a typed error. A
// 429 (api.overloaded) additionally surfaces the response's Retry-After
// header as a "retry_after" detail, readable via RetryAfter.
func decodeError(path string, status int, header http.Header, data []byte) error {
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != nil && eb.Error.Code != "" {
		if status == http.StatusTooManyRequests {
			if v := header.Get("Retry-After"); v != "" {
				eb.Error.With("retry_after", v)
			}
		}
		return eb.Error
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200] + "…"
	}
	return trerr.Newf(trerr.APIInternal,
		"httpclient: %s: unexpected status %d: %s", path, status, msg)
}

// RetryAfter extracts the backoff hint from an admission-control shed
// (trerr.APIOverloaded): the Retry-After duration the gateway attached,
// ok=false when err carries no hint. Callers should sleep at least this
// long before resubmitting.
func RetryAfter(err error) (time.Duration, bool) {
	var te *trerr.Error
	if !errors.As(err, &te) {
		return 0, false
	}
	v := te.Details["retry_after"]
	if v == "" {
		return 0, false
	}
	secs, perr := strconv.Atoi(v)
	if perr != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// --- tropic.Session ---------------------------------------------------

// Submit initiates a transaction and returns its id.
func (c *Client) Submit(proc string, args ...string) (string, error) {
	ctx, cancel := c.reqCtx()
	defer cancel()
	var res submitResult
	err := c.doJSON(ctx, http.MethodPost, "/v1/submit",
		submitItem{Proc: proc, Args: args}, &res)
	if err != nil {
		return "", err
	}
	return res.ID, nil
}

// SubmitIdempotent submits under an idempotency key; resubmitting the
// same key returns the original id with deduped=true.
func (c *Client) SubmitIdempotent(ctx context.Context, key, proc string, args ...string) (string, bool, error) {
	var res submitResult
	err := c.doJSON(ctx, http.MethodPost, "/v1/submit",
		submitItem{Proc: proc, Args: args, IdempotencyKey: key}, &res)
	if err != nil {
		return "", false, err
	}
	return res.ID, res.Deduped, nil
}

// SubmitBatch submits several transactions in one request. Validation
// failures reject the whole batch before any item executes.
func (c *Client) SubmitBatch(ctx context.Context, items []tropic.SubmitSpec) ([]tropic.SubmitOutcome, error) {
	req := struct {
		Batch []submitItem `json:"batch"`
	}{}
	for _, it := range items {
		req.Batch = append(req.Batch, submitItem{
			Proc: it.Proc, Args: it.Args, IdempotencyKey: it.IdempotencyKey,
		})
	}
	var resp struct {
		Results []submitResult `json:"results"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/submit", req, &resp); err != nil {
		return nil, err
	}
	out := make([]tropic.SubmitOutcome, 0, len(resp.Results))
	for _, r := range resp.Results {
		out = append(out, tropic.SubmitOutcome{ID: r.ID, Deduped: r.Deduped})
	}
	return out, nil
}

// Get fetches the current record of a transaction.
func (c *Client) Get(id string) (*tropic.Txn, error) {
	if id == "" {
		return nil, trerr.New(trerr.APIBadRequest, "httpclient: get: missing transaction id")
	}
	ctx, cancel := c.reqCtx()
	defer cancel()
	return c.getRecord(ctx, "/v1/txn?id="+url.QueryEscape(id))
}

// Wait blocks until the transaction is terminal. A client-side ctx
// deadline maps to trerr.TxnWaitTimeout, matching the in-process
// client (server-side wait timeouts arrive as the same code via 504).
func (c *Client) Wait(ctx context.Context, id string) (*tropic.Txn, error) {
	rec, err := c.getRecord(ctx, "/v1/wait?id="+url.QueryEscape(id))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, trerr.TxnWaitTimeout) {
			return nil, trerr.Wrap(trerr.TxnWaitTimeout, err,
				fmt.Sprintf("httpclient: wait %s: deadline elapsed before a terminal state", id)).With("id", id)
		}
		return nil, err
	}
	return rec, nil
}

// SubmitAndWait submits and waits for the outcome.
func (c *Client) SubmitAndWait(ctx context.Context, proc string, args ...string) (*tropic.Txn, error) {
	id, err := c.Submit(proc, args...)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id)
}

// List pages through transaction records.
func (c *Client) List(opts tropic.ListOptions) (*tropic.TxnPage, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", string(opts.State))
	}
	if opts.Proc != "" {
		q.Set("proc", opts.Proc)
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.Limit > 0 {
		q.Set("limit", fmt.Sprint(opts.Limit))
	}
	path := "/v1/txns"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	ctx, cancel := c.reqCtx()
	defer cancel()
	data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	page := new(tropic.TxnPage)
	if err := txn.UnmarshalPageJSON(data, &page.Txns, &page.NextCursor); err != nil {
		return nil, fmt.Errorf("httpclient: %s: decode response: %w", path, err)
	}
	return page, nil
}

// WatchTxn streams the transaction's state transitions over
// server-sent events until it is terminal; the channel closes after
// the terminal record (or when ctx is canceled). A channel that closes
// before delivering a terminal record means the stream was interrupted
// (gateway watch failure or disconnect) — the final state is unknown
// and should be re-fetched with Get.
func (c *Client) WatchTxn(ctx context.Context, id string) (<-chan *tropic.Txn, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/watch?id="+url.QueryEscape(id), nil)
	if err != nil {
		return nil, fmt.Errorf("httpclient: watch: %w", err)
	}
	if z := c.zxid.Load(); z > 0 {
		req.Header.Set(zxidHeader, strconv.FormatInt(z, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpclient: watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := readBody(resp)
		resp.Body.Close()
		return nil, decodeError("/v1/watch", resp.StatusCode, resp.Header, data)
	}
	c.raiseZxid(resp.Header)
	ch := make(chan *tropic.Txn, 8)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		var event string
		var data []byte
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				data = append(data[:0], line[len("data: "):]...)
			case len(line) == 0:
				if event == "done" || event == "error" {
					// "error" means the gateway's watch died before a
					// terminal state; the channel closes without a
					// terminal record.
					return
				}
				if event == "state" && len(data) > 0 {
					rec := new(tropic.Txn)
					if err := rec.UnmarshalJSON(data); err == nil {
						select {
						case ch <- rec:
						case <-ctx.Done():
							return
						}
					}
				}
				event, data = "", data[:0]
			}
		}
	}()
	return ch, nil
}

// Signal sends a TERM or KILL to a transaction.
func (c *Client) Signal(id string, sig tropic.Signal) error {
	ctx, cancel := c.reqCtx()
	defer cancel()
	return c.doJSON(ctx, http.MethodPost, "/v1/signal", struct {
		ID     string `json:"id"`
		Signal string `json:"signal"`
	}{ID: id, Signal: string(sig)}, nil)
}

// Repair drives physical state back to the logical state (§4).
func (c *Client) Repair(ctx context.Context, target string) error {
	return c.reconcile(ctx, "/v1/repair", target)
}

// Reload synchronizes logical state from the physical state (§4).
func (c *Client) Reload(ctx context.Context, target string) error {
	return c.reconcile(ctx, "/v1/reload", target)
}

func (c *Client) reconcile(ctx context.Context, path, target string) error {
	return c.doJSON(ctx, http.MethodPost, path, struct {
		Target string `json:"target"`
	}{Target: target}, nil)
}

// --- Beyond Session ---------------------------------------------------

// Health is the decoded GET /healthz body.
type Health struct {
	Status string `json:"status"`
	Leader string `json:"leader,omitempty"`
	Store  struct {
		Replicas int  `json:"replicas"`
		Alive    int  `json:"alive"`
		Quorum   bool `json:"quorum"`
		Sessions int  `json:"sessions"`
	} `json:"store"`
	Error *trerr.Error `json:"error,omitempty"`
}

// Healthz probes gateway readiness. A 503 still decodes: the returned
// Health explains the outage and err is the typed api.unavailable
// error.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("httpclient: healthz: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpclient: healthz: %w", err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("httpclient: healthz: read response: %w", err)
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, decodeError("/healthz", resp.StatusCode, resp.Header, data)
	}
	if h.Error != nil {
		return &h, h.Error
	}
	return &h, nil
}

// Stats fetches the gateway's raw GET /v1/stats document.
func (c *Client) Stats(ctx context.Context) (map[string]json.RawMessage, error) {
	var out map[string]json.RawMessage
	if err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
