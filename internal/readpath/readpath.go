// Package readpath is the platform's scalable read subsystem: one
// per-shard layer that front-ends every Get/List/Wait/watch against the
// coordination store with three mechanisms, composed so that read
// throughput no longer queues behind the shard leader's write pipeline.
//
//  1. Follower reads. The store keeps full replicas per shard; reads
//     carrying a zxid watermark are served from ANY live replica that
//     has applied at least that zxid (store.Client.GetAt/ChildrenPage),
//     bypassing the ensemble commit lock entirely. A client that
//     threads the returned zxid into its next read gets session
//     consistency — never reading behind its own writes — as an API
//     property rather than an accident of replica choice.
//
//  2. Watch-invalidated caching. Records are cached per shard, bounded
//     in bytes, and invalidated by the store's own persistent watch
//     machinery (NodeWatch) rather than TTLs: the watch is armed BEFORE
//     the read fills the cache, and a generation counter drops any fill
//     that raced a commit, so a cached entry is never staler than its
//     recorded zxid claims. Child listings are not cached: the store
//     serves a page from its ordered child index in O(log n + k).
//
//  3. Fan-out multiplexing. All subscribers of one record share that
//     record's single store watch (a "hub"): 100k concurrent WatchTxn
//     streams cost O(records) store watches, not O(sessions). The same
//     hub serves cache invalidation, so a record under subscription is
//     also a record whose cache entry is precise.
//
// docs/reads.md describes the consistency model and the invalidation
// protocol in full.
package readpath

import (
	"container/list"
	"errors"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/store"
)

// entryOverhead approximates the per-entry bookkeeping cost (hub
// struct, map slot, list element) charged against the byte budget on
// top of the payload itself.
const entryOverhead = 160

// Source identifies which tier served a read, for metrics and the
// ablation experiments.
type Source int

const (
	// SourceCache is a hit in the watch-invalidated cache.
	SourceCache Source = iota
	// SourceFollower is a follower-replica read under the watermark.
	SourceFollower
	// SourceLeader is a fall-through read on the shard leader.
	SourceLeader
)

// String renders the source for logs and stats.
func (s Source) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceFollower:
		return "follower"
	default:
		return "leader"
	}
}

// Config parameterizes one shard's read path.
type Config struct {
	// Client is the store session reads and watches go through. The
	// Shard owns its watches but NOT the client; the caller closes it.
	Client *store.Client
	// FollowerReads serves watermarked reads from any caught-up replica
	// instead of the leader. False is the leader-only ablation baseline.
	FollowerReads bool
	// CacheBytes bounds the resident bytes of the record cache;
	// 0 disables caching (reads always go to the store, the fan-out
	// multiplexer still works).
	CacheBytes int64
	// Registry receives the read-path instrumentation (hit/miss/
	// invalidation/eviction counters, bytes-resident and fan-out
	// gauges). Nil keeps counters process-local.
	Registry *metrics.Registry
	// Shard labels this shard's series in the registry.
	Shard string
}

// hub is the shared state for one watched path: ONE persistent store
// watch serving both the cache entry and every fan-out subscriber.
type hub struct {
	path string
	w    *store.Watch
	subs map[*Sub]struct{}

	// gen increments on every invalidation; a cache fill that armed at
	// an older gen is dropped instead of stored (it may predate the
	// write that fired the watch).
	gen uint64

	data    []byte
	stat    store.Stat
	zxid    int64
	hasData bool
	// negative marks a resident entry that records authoritative ABSENCE:
	// the path did not exist as of zxid. Served as ErrNoNode under the
	// watermark; invalidated by the same watch when the node is created.
	negative bool
	cost     int64
	elem     *list.Element // position in the LRU when hasData
}

// Sub is one fan-out subscription to a path's hub. Its channel carries
// coalesced change notifications (capacity 1, non-blocking sends); a
// CLOSED channel means the hub died with the store session and the
// subscriber's stream is interrupted. Close releases the subscription
// and, when it was the hub's last earner, the store watch itself.
type Sub struct {
	s      *Shard
	h      *hub
	ch     chan struct{}
	closed bool // Close called; guarded by s.mu
	dead   bool // channel closed by hub death; guarded by s.mu
}

// C returns the notification channel.
func (sub *Sub) C() <-chan struct{} { return sub.ch }

// notifyLocked posts a coalesced wakeup. Caller holds s.mu.
func (sub *Sub) notifyLocked() {
	if sub.closed || sub.dead {
		return
	}
	select {
	case sub.ch <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// deadLocked finalizes the channel when the hub dies. Caller holds s.mu.
func (sub *Sub) deadLocked() {
	if sub.closed || sub.dead {
		return
	}
	sub.dead = true
	close(sub.ch)
}

// Close releases the subscription. When it was the last subscriber and
// the hub holds no cached data, the hub's store watch is released too —
// the invariant behind "watch counts return to baseline after all
// subscribers disconnect". Idempotent.
func (sub *Sub) Close() {
	s := sub.s
	var toClose *store.Watch
	s.mu.Lock()
	if sub.closed {
		s.mu.Unlock()
		return
	}
	sub.closed = true
	h := sub.h
	delete(h.subs, sub)
	if !sub.dead {
		sub.dead = true
		close(sub.ch)
	}
	if s.hubs[h.path] == h && len(h.subs) == 0 && !h.hasData {
		delete(s.hubs, h.path)
		toClose = h.w
	}
	s.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// Shard is one store partition's read path. All methods are safe for
// concurrent use.
type Shard struct {
	cli      *store.Client
	follower bool
	maxBytes int64

	mu     sync.Mutex
	closed bool
	hubs   map[string]*hub
	lru    *list.List // of *hub with hasData, most recent at front
	bytes  int64      // resident record bytes (LRU-bounded)

	hits, misses, invals, evicts *metrics.Counter
	srcCache, srcFollower        *metrics.Counter
	srcLeader, negHits           *metrics.Counter
}

// New builds one shard's read path over the given store session. Every
// counter series is pre-created at zero so scrapers can rate() them
// from the first scrape.
func New(cfg Config) *Shard {
	s := &Shard{
		cli:      cfg.Client,
		follower: cfg.FollowerReads,
		maxBytes: cfg.CacheBytes,
		hubs:     make(map[string]*hub),
		lru:      list.New(),
	}
	if cfg.Registry == nil {
		s.hits = &metrics.Counter{}
		s.misses = &metrics.Counter{}
		s.invals = &metrics.Counter{}
		s.evicts = &metrics.Counter{}
		s.srcCache = &metrics.Counter{}
		s.srcFollower = &metrics.Counter{}
		s.srcLeader = &metrics.Counter{}
		s.negHits = &metrics.Counter{}
		return s
	}
	shard := cfg.Shard
	if shard == "" {
		shard = "0"
	}
	r := cfg.Registry
	s.hits = r.CounterVec("tropic_read_cache_hits_total",
		"Read-path cache hits.", "shard").With(shard)
	s.misses = r.CounterVec("tropic_read_cache_misses_total",
		"Read-path cache misses (read went to the store).", "shard").With(shard)
	s.invals = r.CounterVec("tropic_read_cache_invalidations_total",
		"Cache entries dropped by a store watch event.", "shard").With(shard)
	s.evicts = r.CounterVec("tropic_read_cache_evictions_total",
		"Cache entries dropped by the byte-budget LRU.", "shard").With(shard)
	s.negHits = r.CounterVec("tropic_read_cache_negative_hits_total",
		"Reads answered ErrNoNode from a cached negative entry.", "shard").With(shard)
	reads := r.CounterVec("tropic_reads_total",
		"Reads served by the read path, by serving tier.", "shard", "source")
	s.srcCache = reads.With(shard, "cache")
	s.srcFollower = reads.With(shard, "follower")
	s.srcLeader = reads.With(shard, "leader")
	r.GaugeVec("tropic_read_cache_bytes",
		"Resident bytes in the watch-invalidated read cache.", "shard").
		Func(func() float64 { return float64(s.BytesResident()) }, shard)
	r.GaugeVec("tropic_watch_fanout_subscribers",
		"Live fan-out subscriptions multiplexed over shared store watches.", "shard").
		Func(func() float64 { return float64(s.Subscribers()) }, shard)
	r.GaugeVec("tropic_watch_fanout_watches",
		"Store node watches held by the read path (shared hubs).", "shard").
		Func(func() float64 { return float64(s.Hubs()) }, shard)
	return s
}

// Close tears down every hub. Reads still pass through to the store
// afterwards (uncached); subscriptions fail.
func (s *Shard) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var nws []*store.Watch
	for path, h := range s.hubs {
		delete(s.hubs, path)
		if h.hasData {
			s.dropDataLocked(h)
		}
		for sub := range h.subs {
			sub.deadLocked()
		}
		nws = append(nws, h.w)
	}
	s.mu.Unlock()
	for _, w := range nws {
		w.Close()
	}
}

// GetRecord reads path honoring the zxid watermark: served from the
// cache when the resident entry is at least as new as minZxid, else
// read through (follower or leader per config), with the result stored
// back unless a concurrent commit invalidated the generation it was
// read under. The returned zxid is the position the data is current as
// of — thread it into the next read for session consistency. The data
// is shared with the cache and the store (store.Client.Get): the caller
// must not modify it.
func (s *Shard) GetRecord(path string, minZxid int64) ([]byte, store.Stat, int64, Source, error) {
	var h *hub
	var gen uint64
	if s.maxBytes > 0 {
		s.mu.Lock()
		if !s.closed {
			if hh := s.hubs[path]; hh != nil && hh.hasData && hh.zxid >= minZxid {
				if hh.negative {
					// Authoritative absence under the watermark: the path
					// did not exist as of hh.zxid, and the hub's watch has
					// not seen it created since.
					z := hh.zxid
					s.lru.MoveToFront(hh.elem)
					s.mu.Unlock()
					s.hits.Inc()
					s.negHits.Inc()
					s.srcCache.Inc()
					return nil, store.Stat{}, z, SourceCache, store.ErrNoNode
				}
				data, st, z := hh.data, hh.stat, hh.zxid
				s.lru.MoveToFront(hh.elem)
				s.mu.Unlock()
				s.hits.Inc()
				s.srcCache.Inc()
				return data, st, z, SourceCache, nil
			}
			// Arm the watch BEFORE the read: any commit landing after
			// this point bumps gen and the fill below is dropped, so the
			// cache can never hold state the watch didn't cover.
			if hh, err := s.ensureHubLocked(path); err == nil {
				h, gen = hh, hh.gen
			}
		}
		s.mu.Unlock()
		s.misses.Inc()
	}
	data, st, z, follower, err := s.readRecord(path, minZxid)
	if h != nil {
		var toClose *store.Watch
		var victims []*store.Watch
		s.mu.Lock()
		if s.hubs[path] == h && h.gen == gen && !s.closed {
			switch {
			case err == nil:
				s.storeLocked(h, data, st, z, false)
				victims = s.evictLocked()
			case errors.Is(err, store.ErrNoNode) && z > 0:
				// Cache the absence itself: the store answered "no such
				// node as of z", and any later create fires the hub's
				// watch (creates fire node watches on the created path),
				// so repeated misses on a hot absent path are hits.
				s.storeLocked(h, nil, store.Stat{}, z, true)
				victims = s.evictLocked()
			case len(h.subs) == 0 && !h.hasData:
				// The read failed (e.g. no such record) and nothing else
				// earns the hub its watch: release it rather than leak a
				// watch per missed path.
				delete(s.hubs, path)
				toClose = h.w
			}
		}
		s.mu.Unlock()
		if toClose != nil {
			toClose.Close()
		}
		for _, w := range victims {
			w.Close()
		}
	}
	if err != nil {
		// ErrNoNode carries the zxid the absence was observed at, so the
		// caller can thread it like any other read watermark.
		return nil, store.Stat{}, z, SourceLeader, err
	}
	src := SourceLeader
	if follower {
		src = SourceFollower
		s.srcFollower.Inc()
	} else {
		s.srcLeader.Inc()
	}
	return data, st, z, src, nil
}

// ChildrenPage lists at most limit child names of path greater than
// after, in ascending order, under the same watermark contract as
// GetRecord (see store.Client.ChildrenPage). Listings are not cached:
// the store seeks its ordered child index, so a page costs O(log n +
// limit) under the tree's read lock.
func (s *Shard) ChildrenPage(path, after string, limit int, minZxid int64) ([]string, int64, Source, error) {
	if !s.follower {
		// Leader-only ablation: a watermark past every commit sends the
		// read to the leader.
		minZxid = math.MaxInt64
	}
	names, z, follower, err := s.cli.ChildrenPage(path, after, limit, minZxid)
	if err != nil {
		return nil, z, SourceLeader, err
	}
	if follower {
		s.srcFollower.Inc()
		return names, z, SourceFollower, nil
	}
	s.srcLeader.Inc()
	return names, z, SourceLeader, nil
}

// Subscribe joins path's hub, creating it (and its single store watch)
// when this is the first interest in the path. Every subscriber of the
// same path shares that one watch.
func (s *Shard) Subscribe(path string) (*Sub, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, store.ErrClosed
	}
	h, err := s.ensureHubLocked(path)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sub := &Sub{s: s, h: h, ch: make(chan struct{}, 1)}
	h.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub, nil
}

// readRecord is the store tier of GetRecord: follower read under the
// watermark when enabled, leader read otherwise.
func (s *Shard) readRecord(path string, minZxid int64) ([]byte, store.Stat, int64, bool, error) {
	if s.follower {
		return s.cli.GetAt(path, minZxid)
	}
	data, st, z, err := s.cli.GetZ(path)
	return data, st, z, false, err
}

// ensureHubLocked returns path's hub, creating it — and arming its one
// store watch — on first use. Caller holds s.mu.
func (s *Shard) ensureHubLocked(path string) (*hub, error) {
	if h := s.hubs[path]; h != nil {
		return h, nil
	}
	w, err := s.cli.NodeWatch(path)
	if err != nil {
		return nil, err
	}
	h := &hub{path: path, w: w, subs: make(map[*Sub]struct{})}
	s.hubs[path] = h
	go s.pump(h)
	return h, nil
}

// pump is a hub's single event loop: every store watch event
// invalidates the cache entry and wakes every subscriber; the channel
// closing (store session gone) kills the hub and interrupts its
// subscribers.
func (s *Shard) pump(h *hub) {
	for range h.w.C() {
		s.invalidate(h)
	}
	s.hubDead(h)
}

// invalidate handles one watch event on h: drop the cached data, bump
// the fill generation, wake subscribers — and when nothing earns the
// hub its watch anymore, tear it down.
func (s *Shard) invalidate(h *hub) {
	var toClose *store.Watch
	s.mu.Lock()
	if s.hubs[h.path] != h {
		s.mu.Unlock()
		return
	}
	h.gen++
	if h.hasData {
		s.dropDataLocked(h)
		s.invals.Inc()
	}
	for sub := range h.subs {
		sub.notifyLocked()
	}
	if len(h.subs) == 0 {
		delete(s.hubs, h.path)
		toClose = h.w
	}
	s.mu.Unlock()
	if toClose != nil {
		// Closing the watch ends the pump's range loop; hubDead then
		// finds the hub already detached and no-ops.
		toClose.Close()
	}
}

// hubDead finalizes a hub whose store watch channel closed underneath
// it (session expired or ensemble shut down): subscribers are
// interrupted by closing their channels.
func (s *Shard) hubDead(h *hub) {
	s.mu.Lock()
	if s.hubs[h.path] != h {
		s.mu.Unlock()
		return
	}
	delete(s.hubs, h.path)
	if h.hasData {
		s.dropDataLocked(h)
	}
	for sub := range h.subs {
		sub.deadLocked()
	}
	s.mu.Unlock()
}

// storeLocked installs a fill into h and the LRU — negative marks an
// absence fill (ErrNoNode observed at z). A fill older than the
// resident entry is skipped (two same-generation readers may resolve at
// different zxids; data is identical but the watermark must not
// regress). Caller holds s.mu.
func (s *Shard) storeLocked(h *hub, data []byte, st store.Stat, z int64, negative bool) {
	if h.hasData {
		if h.zxid > z {
			return
		}
		s.bytes -= h.cost
		s.lru.Remove(h.elem)
	}
	h.data, h.stat, h.zxid, h.hasData, h.negative = data, st, z, true, negative
	h.cost = int64(len(data)+len(h.path)) + entryOverhead
	h.elem = s.lru.PushFront(h)
	s.bytes += h.cost
}

// dropDataLocked removes h's cached payload from the byte budget and
// LRU. Caller holds s.mu.
func (s *Shard) dropDataLocked(h *hub) {
	s.bytes -= h.cost
	s.lru.Remove(h.elem)
	h.data, h.hasData, h.negative, h.cost, h.elem = nil, false, false, 0, nil
}

// evictLocked enforces the byte budget, least-recently-used first,
// returning the store watches of hubs that no longer earn theirs (to be
// closed after s.mu is released). Caller holds s.mu.
func (s *Shard) evictLocked() []*store.Watch {
	var victims []*store.Watch
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		h := back.Value.(*hub)
		s.dropDataLocked(h)
		s.evicts.Inc()
		if len(h.subs) == 0 {
			delete(s.hubs, h.path)
			victims = append(victims, h.w)
		}
	}
	return victims
}

// BytesResident reports the cache's resident record bytes — the
// quantity the byte-budget gauge exports.
func (s *Shard) BytesResident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Hubs reports how many store node watches the read path holds.
func (s *Shard) Hubs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hubs)
}

// Subscribers reports live fan-out subscriptions across all hubs.
func (s *Shard) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, h := range s.hubs {
		n += len(h.subs)
	}
	return n
}

// Stats is the read path's /v1/stats section.
type Stats struct {
	// FollowerReads and CacheBytesMax echo the shard's configuration.
	FollowerReads bool  `json:"followerReads"`
	CacheBytesMax int64 `json:"cacheBytesMax"`
	// CacheBytes and CachedRecords describe residency right now.
	CacheBytes    int64 `json:"cacheBytes"`
	CachedRecords int   `json:"cachedRecords"`
	// Hits/Misses/Invalidations/Evictions are cumulative cache counters;
	// NegativeHits is the subset of Hits answered from a cached absence.
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	NegativeHits  int64 `json:"negativeHits"`
	// CacheServed/FollowerServed/LeaderServed split reads by tier.
	CacheServed    int64 `json:"cacheServed"`
	FollowerServed int64 `json:"followerServed"`
	LeaderServed   int64 `json:"leaderServed"`
	// WatchHubs and Subscribers describe the fan-out multiplexer: how
	// many store watches serve how many subscriptions.
	WatchHubs   int `json:"watchHubs"`
	Subscribers int `json:"subscribers"`
}

// Stats snapshots the shard's read-path counters.
func (s *Shard) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		FollowerReads: s.follower,
		CacheBytesMax: s.maxBytes,
		CacheBytes:    s.bytes,
		CachedRecords: s.lru.Len(),
		WatchHubs:     len(s.hubs),
	}
	for _, h := range s.hubs {
		st.Subscribers += len(h.subs)
	}
	s.mu.Unlock()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Invalidations = s.invals.Load()
	st.Evictions = s.evicts.Load()
	st.NegativeHits = s.negHits.Load()
	st.CacheServed = s.srcCache.Load()
	st.FollowerServed = s.srcFollower.Load()
	st.LeaderServed = s.srcLeader.Load()
	return st
}
