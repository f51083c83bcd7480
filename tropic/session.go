package tropic

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// Session is the orchestration surface shared by the in-process Client
// and the remote tropic/httpclient SDK, so callers can be written once
// and pointed at either. All failures carry trerr taxonomy codes
// (errors.Is-matchable against trerr sentinels) on both implementations.
type Session interface {
	// Submit initiates a transaction and returns its id.
	Submit(proc string, args ...string) (string, error)
	// SubmitIdempotent submits with a client-supplied idempotency key:
	// resubmitting the same key returns the original transaction's id
	// (deduped=true) instead of executing twice.
	SubmitIdempotent(ctx context.Context, key, proc string, args ...string) (id string, deduped bool, err error)
	// SubmitBatch submits several transactions, validating every item
	// before any executes.
	SubmitBatch(ctx context.Context, items []SubmitSpec) ([]SubmitOutcome, error)
	// Get fetches the current record of a transaction.
	Get(id string) (*Txn, error)
	// Wait blocks until the transaction is terminal.
	Wait(ctx context.Context, id string) (*Txn, error)
	// SubmitAndWait submits and waits for the outcome.
	SubmitAndWait(ctx context.Context, proc string, args ...string) (*Txn, error)
	// List pages through transaction records in submission order.
	List(opts ListOptions) (*TxnPage, error)
	// WatchTxn streams the transaction's state transitions until it is
	// terminal; the channel closes after the terminal record.
	WatchTxn(ctx context.Context, id string) (<-chan *Txn, error)
	// Signal sends a TERM or KILL to a transaction.
	Signal(id string, sig Signal) error
	// Repair drives physical state back to the logical state (§4).
	Repair(ctx context.Context, target string) error
	// Reload synchronizes logical state from the physical state (§4).
	Reload(ctx context.Context, target string) error
	// Close releases the session.
	Close()
}

var _ Session = (*Client)(nil)

// ListOptions filter and paginate List.
type ListOptions struct {
	// State, when non-empty, keeps only records in that state.
	State State
	// Proc, when non-empty, keeps only invocations of that procedure.
	Proc string
	// Cursor resumes after a previous page: only records with id >
	// Cursor are returned. Transaction ids are store-assigned sequence
	// numbers, so cursors are stable under concurrent submissions.
	Cursor string
	// Limit caps the page size (default 50, max 1000).
	Limit int
}

// TxnPage is one page of List results.
type TxnPage struct {
	// Txns are the matching records in ascending id order. A page may
	// hold fewer records than the limit — even zero — while NextCursor
	// is still set: the scan budget ran out before the page filled.
	// Iteration is complete only when NextCursor comes back empty.
	Txns []*Txn `json:"txns"`
	// NextCursor, when non-empty, fetches the next page when passed as
	// ListOptions.Cursor.
	NextCursor string `json:"nextCursor,omitempty"`
}

// List page-size and per-request scan bounds. The scan cap keeps one
// request with a highly selective filter from reading every record in
// the store; the cursor advances past scanned non-matches, so
// iteration still covers everything.
const (
	listDefaultLimit = 50
	listMaxLimit     = 1000
	listScanCap      = 4096
)

// List pages through the store's transaction records in submission
// order, filtered by state and procedure. Per-request work is bounded:
// at most listScanCap records are examined, so a filter that matches
// nothing costs O(scan cap), not O(all records).
//
// On a platform of several shards, listing walks the shards in index
// order: all of shard 0's matching records (ascending local id), then
// shard 1's, and so on. Cursors encode the shard being walked plus its
// local cursor ("s<shard>:<local>"), so one iteration covers every
// shard exactly once; ordering is per-shard, not global submission
// order. On one shard a cursor is the last id a page examined.
func (c *Client) List(opts ListOptions) (*TxnPage, error) {
	page, _, err := c.ListAt(opts, -1)
	return page, err
}

// ListAt is List with an explicit zxid watermark (see GetAt; minZxid <
// 0 substitutes the serving shard's own client watermark). Each page is
// served from one shard, and its cursor names the next position: within
// the same shard while it has more records, then the start of the next
// shard. The returned zxid is the highest position any read was served
// at.
func (c *Client) ListAt(opts ListOptions, minZxid int64) (*TxnPage, int64, error) {
	s, local := 0, ""
	if opts.Cursor != "" {
		var ok bool
		if s, local, ok = c.router.ParseCursor(opts.Cursor); !ok {
			return nil, 0, trerr.Newf(trerr.APIBadRequest,
				"tropic: list: malformed cursor %q", opts.Cursor).With("cursor", opts.Cursor)
		}
	}
	page, z, err := c.subs[s].listAt(opts, local, minZxid)
	if err != nil {
		return nil, 0, err
	}
	for _, rec := range page.Txns {
		if rec.IsChild() {
			// A cross-shard child's record node name IS its full id
			// (embedding its parent's shard prefix); re-qualifying it with
			// the hosting shard would mangle it.
			continue
		}
		rec.ID = c.router.QualifyID(s, rec.ID)
	}
	switch {
	case page.NextCursor != "":
		page.NextCursor = c.router.FormatCursor(s, page.NextCursor)
	case s+1 < len(c.subs):
		// This shard is exhausted; resume at the next one. The page may
		// be short (even empty) with a cursor still set — the documented
		// TxnPage contract.
		page.NextCursor = c.router.FormatCursor(s+1, "")
	}
	return page, z, nil
}

// listAt serves one page of this shard's records after the local id
// cursor, naming records and the next cursor by local id. The child
// listing and every record read go through the shard's read path; the
// listing reads the ids after the cursor in batches, each an
// O(log n + batch) seek, so a page costs the same however many records
// the store holds.
func (sc *shardClient) listAt(opts ListOptions, cursor string, minZxid int64) (*TxnPage, int64, error) {
	if minZxid < 0 {
		minZxid = sc.cli.LastWriteZxid()
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = listDefaultLimit
	}
	if limit > listMaxLimit {
		limit = listMaxLimit
	}
	page := &TxnPage{}
	var maxZ int64
	scanned := 0
	lastExamined := cursor
	// Read the ids after the cursor one batch at a time, each batch a
	// seek of the store's ordered child index. A batch of limit+1 fills
	// an unfiltered page and shows whether a further match exists.
	for after := cursor; ; {
		ids, z, _, err := sc.rp.ChildrenPage(proto.TxnsPath, after, limit+1, minZxid)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				return &TxnPage{}, maxZ, nil // platform not bootstrapped yet: nothing to list
			}
			return nil, 0, err
		}
		if z > maxZ {
			maxZ = z
		}
		if len(ids) == 0 {
			return page, maxZ, nil
		}
		after = ids[len(ids)-1]
		for _, id := range ids { // ascending ids
			if scanned == listScanCap {
				// Scan budget exhausted: resume from the last examined id.
				page.NextCursor = lastExamined
				return page, maxZ, nil
			}
			rec, z, err := sc.getAt(id, id, minZxid)
			if err != nil {
				if errors.Is(err, trerr.TxnNotFound) {
					continue // record GC'd between the listing and Get
				}
				return nil, 0, err
			}
			if z > maxZ {
				maxZ = z
			}
			scanned++
			lastExamined = id
			if opts.State != "" && rec.State != opts.State {
				continue
			}
			if opts.Proc != "" && rec.Proc != opts.Proc {
				continue
			}
			if len(page.Txns) == limit {
				// A further match exists beyond the page: hand out a cursor.
				page.NextCursor = page.Txns[limit-1].ID
				return page, maxZ, nil
			}
			page.Txns = append(page.Txns, rec)
		}
	}
}

// WatchTxn streams the transaction's state transitions: the current
// state immediately, then every observed change, ending with the
// terminal record, after which the channel closes. Transitions faster
// than the store watch round-trip may be coalesced into their
// successor; the terminal state is always delivered. An unknown id
// fails synchronously with trerr.TxnNotFound.
func (c *Client) WatchTxn(ctx context.Context, id string) (<-chan *Txn, error) {
	return c.WatchTxnAt(ctx, id, -1)
}

// WatchTxnAt is WatchTxn with an explicit zxid watermark for the
// initial read (see GetAt; minZxid < 0 substitutes the serving shard's
// own client watermark). The stream rides the shard's fan-out
// multiplexer: all concurrent watchers of a record share ONE store
// watch, and the subscription is released the moment the stream ends —
// terminal record, context cancellation (an SSE client disconnecting),
// or session expiry.
func (c *Client) WatchTxnAt(ctx context.Context, id string, minZxid int64) (<-chan *Txn, error) {
	sub, local, public, err := c.locate(id)
	if err != nil {
		return nil, err
	}
	return sub.watchTxnAt(ctx, local, public, minZxid)
}

// watchTxnAt streams the record of this shard's local id, naming every
// record it delivers public, so no relay has to rename them.
func (sc *shardClient) watchTxnAt(ctx context.Context, id, public string, minZxid int64) (<-chan *Txn, error) {
	path := proto.TxnsPath + "/" + id
	mux, err := sc.rp.Subscribe(path)
	if err != nil {
		return nil, err
	}
	rec, z, err := sc.getAt(id, public, minZxid)
	if err != nil {
		mux.Close()
		return nil, err
	}
	ch := make(chan *Txn, 8)
	go func() {
		defer close(ch)
		defer mux.Close()
		var last State
		for {
			if rec.State != last {
				last = rec.State
				select {
				case ch <- rec:
				case <-ctx.Done():
					return
				}
			}
			if rec.State.Terminal() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case _, ok := <-mux.C():
				if !ok {
					return
				}
			}
			// Re-read past the position just served (see WaitAt): a
			// cached entry at exactly z would satisfy the watermark and
			// stall the stream on the state the wakeup superseded.
			data, zz, err := sc.readRecord(id, z+1)
			if err != nil {
				return
			}
			z = zz
			// A wake-up that leaves the state as last delivered (a log
			// append, a signal) is skipped without decoding the record.
			st, err := txn.DecodeState(data)
			if err != nil {
				return
			}
			if st == last {
				continue
			}
			if rec, err = decodeRecord(public, data); err != nil {
				return
			}
		}
	}()
	return ch, nil
}

// SubmitSpec describes one submission in a batch.
type SubmitSpec struct {
	Proc string
	Args []string
	// IdempotencyKey, when non-empty, dedups resubmissions of this item.
	IdempotencyKey string
}

// SubmitOutcome reports one accepted batch submission.
type SubmitOutcome struct {
	ID string
	// Deduped is true when the item's idempotency key matched an
	// earlier submission and no new transaction was created.
	Deduped bool
}

// SubmitBatch submits several transactions. Every item is validated
// (procedure registered, idempotency key well-formed) before any is
// submitted, so a bad entry rejects the whole batch with no partial
// execution; validation errors carry a "batchIndex" detail. A failure
// while submitting (after validation) leaves earlier items submitted
// and also reports the failing index.
func (c *Client) SubmitBatch(ctx context.Context, items []SubmitSpec) ([]SubmitOutcome, error) {
	if len(items) == 0 {
		return nil, trerr.New(trerr.SubmitInvalidArgs, "tropic: submit: empty batch")
	}
	for i, item := range items {
		if err := c.ValidateProc(item.Proc); err != nil {
			return nil, batchIndexed(err, i)
		}
		if item.IdempotencyKey != "" && !ValidIdempotencyKey(item.IdempotencyKey) {
			return nil, batchIndexed(trerr.Newf(trerr.SubmitInvalidArgs,
				"tropic: submit: idempotency key %q must be 1-128 chars of [A-Za-z0-9._-]",
				item.IdempotencyKey), i)
		}
	}
	out := make([]SubmitOutcome, 0, len(items))
	for i, item := range items {
		id, deduped, err := c.SubmitIdempotent(ctx, item.IdempotencyKey, item.Proc, item.Args...)
		if err != nil {
			return out, batchIndexed(err, i)
		}
		out = append(out, SubmitOutcome{ID: id, Deduped: deduped})
	}
	return out, nil
}

// batchIndexed annotates a batch-item failure with its index,
// preserving the original error's details and cause chain.
func batchIndexed(err error, i int) error {
	var te *trerr.Error
	if errors.As(err, &te) {
		out := trerr.Wrap(te.Code, err, te.Message)
		for k, v := range te.Details {
			out.With(k, v)
		}
		return out.With("batchIndex", fmt.Sprint(i))
	}
	return err
}

// idemEntry is the payload of an idempotency-key node: an in-flight
// claim (ID empty, ClaimedAt set) or the resolved transaction the
// key's first submission produced. Proc and Args identify the original
// invocation so a key reused with a different payload is rejected
// instead of silently returning the wrong transaction.
type idemEntry struct {
	ID   string   `json:"id,omitempty"`
	Proc string   `json:"proc,omitempty"`
	Args []string `json:"args,omitempty"`
	// ClaimedAt timestamps an in-flight claim so a claim orphaned by a
	// failed cleanup can be taken over instead of wedging the key.
	ClaimedAt time.Time `json:"claimedAt,omitempty"`
}

// staleIdempotencyClaim is how old an unresolved claim must be before a
// waiting resubmission may take it over. Claims normally resolve in
// milliseconds; an older empty claim means its owner failed between
// claiming and recording (and its cleanup Delete also failed), so
// taking over un-wedges the key. A submitter stalled longer than this
// can race the takeover and execute twice — the price of not wedging
// keys forever.
const staleIdempotencyClaim = 30 * time.Second

// ValidIdempotencyKey reports whether key is usable as an idempotency
// key: 1–128 characters from [A-Za-z0-9._-].
func ValidIdempotencyKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
		default:
			return false
		}
	}
	return true
}

// SubmitIdempotent submits a transaction under a client-supplied
// idempotency key. The first submission with a key executes normally
// and records its transaction id under the key; any resubmission
// returns that id with deduped=true instead of executing twice. Reusing
// a key for a different procedure fails with
// trerr.SubmitIdempotencyReuse. A concurrent racer that won the key but
// has not yet recorded its id is awaited until ctx expires
// (trerr.SubmitIdempotencyPending). An empty key degrades to a plain
// Submit.
//
// On a sharded platform the key's registry lives on the shard the
// submission's ARGUMENTS route to, so dedup and reuse detection hold
// for resubmissions of the same key+args (and for mismatched args that
// still route to the same shard). Reusing a key with arguments that
// route to a DIFFERENT shard is outside the guard: it lands on a shard
// that never saw the key and executes as a first submission. See
// docs/sharding.md.
//
// The in-flight claim is an ephemeral node — a claimant that crashes
// before recording its id releases the key with its session instead of
// wedging it forever — while the recorded id entry is persistent, so
// dedup survives restarts.
func (c *Client) SubmitIdempotent(ctx context.Context, key, proc string, args ...string) (string, bool, error) {
	if key == "" {
		id, err := c.Submit(proc, args...)
		return id, false, err
	}
	if !ValidIdempotencyKey(key) {
		return "", false, trerr.Newf(trerr.SubmitInvalidArgs,
			"tropic: submit: idempotency key %q must be 1-128 chars of [A-Za-z0-9._-]", key)
	}
	if err := c.ValidateProc(proc); err != nil {
		return "", false, err
	}
	// The key lives on the shard the arguments route to, so
	// resubmissions of the same (key, args) always consult the same
	// shard's registry. A key reused with different arguments that route
	// to a DIFFERENT shard cannot be detected as reuse — the dedup scope
	// is per shard (see docs/sharding.md). A cross-shard submission's key
	// lives on its COORDINATOR shard (deterministic for a given
	// key+args), guarding the whole parent.
	split := c.planner.Split(proc, args)
	if split.CrossShard() {
		// The recorded id is the (already qualified) parent id, returned
		// verbatim on dedup.
		return c.subs[split.CoordinatorFor(proc, args)].submitIdempotentVia(ctx, key, proc, args,
			func() (string, error) { return c.xSubmit(split, proc, args) })
	}
	// A single-shard key records the shard-local id.
	s := split.Coordinator()
	sub := c.subs[s]
	id, deduped, err := sub.submitIdempotentVia(ctx, key, proc, args,
		func() (string, error) { return sub.submit(proc, args) })
	if err != nil {
		return "", false, err
	}
	return c.router.QualifyID(s, id), deduped, nil
}

// submitIdempotentVia runs the idempotency-key protocol on this shard's
// store session, submitting through submitFn — the shard's own submit
// for single-shard work, or the Client's xSubmit when a cross-shard
// submission keys its registry on the coordinator shard. key and proc
// are already validated.
func (sc *shardClient) submitIdempotentVia(ctx context.Context, key, proc string, args []string, submitFn func() (string, error)) (string, bool, error) {
	if err := sc.cli.EnsurePath(proto.IdempotencyPath); err != nil {
		return "", false, err
	}
	keyPath := proto.IdempotencyPath + "/" + key
	// Claim the key with a timestamped ephemeral placeholder; exactly
	// one submitter wins the Create and proceeds to execute.
	claim, merr := json.Marshal(idemEntry{Proc: proc, Args: args, ClaimedAt: time.Now()})
	if merr != nil {
		return "", false, fmt.Errorf("tropic: idempotency claim %s: %w", key, merr)
	}
	if _, err := sc.cli.Create(keyPath, claim, store.FlagEphemeral); err != nil {
		if !errors.Is(err, store.ErrNodeExists) {
			return "", false, err
		}
		return sc.awaitIdempotent(ctx, keyPath, key, proc, args, submitFn)
	}
	id, err := submitFn()
	if err != nil {
		// Release the claim so a corrected retry can reuse the key.
		_ = sc.cli.Delete(keyPath, -1)
		return "", false, err
	}
	// The resolved mapping keeps a timestamp so the controller's TTL
	// sweep can reap it once any retry storm has surely passed (the
	// claim-takeover path only consults ClaimedAt while ID is empty).
	entry, merr := json.Marshal(idemEntry{ID: id, Proc: proc, Args: args, ClaimedAt: time.Now()})
	if merr != nil {
		return id, false, nil
	}
	// Promote the ephemeral claim to a persistent entry atomically;
	// best-effort — on failure the claim dies with this session and the
	// key becomes reusable, which can re-execute but never wedges.
	_ = sc.cli.Multi(
		store.DeleteOp(keyPath, -1),
		store.CreateOp(keyPath, entry, 0),
	)
	return id, false, nil
}

// awaitIdempotent resolves a lost idempotency race: read the winner's
// recorded id, waiting out the window between its key claim and its id
// write. One watch on the key, armed before the first read, serves the
// whole wait; it is released on every exit (and before a takeover
// re-submits).
func (sc *shardClient) awaitIdempotent(ctx context.Context, keyPath, key, proc string, args []string, submitFn func() (string, error)) (string, bool, error) {
	watch, err := sc.cli.NodeWatch(keyPath)
	if err != nil {
		return "", false, err
	}
	defer watch.Close()
	for {
		data, stat, err := sc.cli.Get(keyPath)
		if err != nil {
			if errors.Is(err, store.ErrNoNode) {
				watch.Close()
				// The winner's submission failed (or its session died)
				// and the claim is gone; take over.
				return sc.submitIdempotentVia(ctx, key, proc, args, submitFn)
			}
			return "", false, err
		}
		var e idemEntry
		if len(data) > 0 {
			if err := json.Unmarshal(data, &e); err != nil {
				return "", false, fmt.Errorf("tropic: idempotency entry %s: %w", key, err)
			}
		}
		if e.ID != "" {
			if e.Proc != proc {
				return "", false, trerr.Newf(trerr.SubmitIdempotencyReuse,
					"tropic: idempotency key %q was used for procedure %q, not %q",
					key, e.Proc, proc).With("key", key).With("proc", e.Proc)
			}
			if !slices.Equal(e.Args, args) {
				return "", false, trerr.Newf(trerr.SubmitIdempotencyReuse,
					"tropic: idempotency key %q was used for %s%v, not %s%v",
					key, e.Proc, e.Args, proc, args).With("key", key).With("proc", e.Proc)
			}
			return e.ID, true, nil
		}
		// An unresolved claim. A stale one was orphaned by a claimant
		// whose cleanup failed (e.g. during quorum loss) on a session
		// that never expires; a version-checked delete takes it over
		// without racing the owner's promotion.
		if !e.ClaimedAt.IsZero() && time.Since(e.ClaimedAt) > staleIdempotencyClaim {
			derr := sc.cli.Delete(keyPath, stat.Version)
			if derr == nil || errors.Is(derr, store.ErrNoNode) {
				watch.Close()
				return sc.submitIdempotentVia(ctx, key, proc, args, submitFn)
			}
			if errors.Is(derr, store.ErrBadVersion) {
				continue // the claim just resolved; re-read it
			}
			return "", false, derr
		}
		select {
		case <-ctx.Done():
			return "", false, trerr.Wrap(trerr.SubmitIdempotencyPending, ctx.Err(),
				fmt.Sprintf("tropic: idempotency key %q is claimed by an unfinished submission", key)).With("key", key)
		case ev, ok := <-watch.C():
			if !ok || ev.Type == store.EventSessionExpired {
				return "", false, store.ErrSessionExpired
			}
		}
	}
}
