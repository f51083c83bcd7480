package readpath

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

func newShard(t *testing.T, cacheBytes int64) (*store.Ensemble, *Shard) {
	t.Helper()
	e := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: time.Second})
	cli := e.Connect()
	s := New(Config{Client: cli, FollowerReads: true, CacheBytes: cacheBytes})
	t.Cleanup(func() {
		s.Close()
		cli.Close()
		e.Close()
	})
	return e, s
}

// waitFor polls until cond holds; watch delivery is asynchronous.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	e, s := newShard(t, 1<<20)
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}

	data, _, z, src, err := s.GetRecord("/a", 0)
	if err != nil {
		t.Fatalf("GetRecord: %v", err)
	}
	if src == SourceCache || string(data) != "v0" {
		t.Fatalf("first read src=%v data=%q, want store-served v0", src, data)
	}
	data, _, z2, src, err := s.GetRecord("/a", z)
	if err != nil {
		t.Fatalf("GetRecord(cached): %v", err)
	}
	if src != SourceCache || string(data) != "v0" || z2 != z {
		t.Errorf("second read src=%v data=%q z=%d, want cache/v0/%d", src, data, z2, z)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.CacheBytes <= 0 || st.CachedRecords != 1 {
		t.Errorf("bytes=%d records=%d, want resident entry", st.CacheBytes, st.CachedRecords)
	}
}

func TestWatchInvalidation(t *testing.T) {
	e, s := newShard(t, 1<<20)
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, _, _, _, err := s.GetRecord("/a", 0); err != nil {
		t.Fatalf("fill: %v", err)
	}

	// The write fires the hub's store watch; no TTL is involved.
	if err := w.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatalf("set: %v", err)
	}
	waitFor(t, "invalidation", func() bool { return s.Stats().Invalidations == 1 })

	data, _, _, src, err := s.GetRecord("/a", w.LastWriteZxid())
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if src == SourceCache || string(data) != "v1" {
		t.Errorf("post-invalidation read src=%v data=%q, want fresh v1", src, data)
	}
}

func TestWatermarkRejectsStaleCacheEntry(t *testing.T) {
	e, s := newShard(t, 1<<20)
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	_, _, z, _, err := s.GetRecord("/a", 0)
	if err != nil {
		t.Fatalf("fill: %v", err)
	}
	// A watermark past the entry's zxid must bypass the cache even before
	// the invalidation event has been pumped.
	_, _, _, src, err := s.GetRecord("/a", z+1)
	if err != nil {
		t.Fatalf("watermarked read: %v", err)
	}
	if src == SourceCache {
		t.Errorf("cache served a read demanding zxid %d with entry at %d", z+1, z)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	e, s := newShard(t, 700) // room for ~2 entries (160B overhead each)
	w := e.Connect()
	defer w.Close()
	for i := 0; i < 4; i++ {
		if _, err := w.Create(fmt.Sprintf("/r%d", i), []byte("0123456789abcdef"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, _, _, err := s.GetRecord(fmt.Sprintf("/r%d", i), 0); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions with %d bytes resident of 700 budget", st.CacheBytes)
	}
	if st.CacheBytes > 700 {
		t.Errorf("resident %d bytes exceeds the 700-byte budget", st.CacheBytes)
	}
	// Evicted, unsubscribed hubs must release their store watches.
	if node, _ := e.WatchCounts(); node != st.WatchHubs {
		t.Errorf("store node watches %d != live hubs %d (leak)", node, st.WatchHubs)
	}
}

func TestFanOutSharesOneWatch(t *testing.T) {
	e, s := newShard(t, 0) // cache off: hubs live on subscribers alone
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	baseNode, _ := e.WatchCounts()

	const n = 16
	subs := make([]*Sub, n)
	for i := range subs {
		sub, err := s.Subscribe("/a")
		if err != nil {
			t.Fatalf("subscribe[%d]: %v", i, err)
		}
		subs[i] = sub
	}
	if node, _ := e.WatchCounts(); node != baseNode+1 {
		t.Fatalf("%d subscribers hold %d store watches, want exactly 1", n, node-baseNode)
	}
	if s.Subscribers() != n || s.Hubs() != 1 {
		t.Fatalf("subs=%d hubs=%d, want %d/1", s.Subscribers(), s.Hubs(), n)
	}

	// One write wakes every subscriber.
	if err := w.Set("/a", []byte("v1"), -1); err != nil {
		t.Fatalf("set: %v", err)
	}
	for i, sub := range subs {
		select {
		case <-sub.C():
		case <-time.After(2 * time.Second):
			t.Fatalf("subscriber %d missed the wakeup", i)
		}
	}

	// Disconnect churn: watch count returns to baseline with the last sub.
	for _, sub := range subs {
		sub.Close()
	}
	if node, _ := e.WatchCounts(); node != baseNode {
		t.Errorf("store watches %d after all closes, want baseline %d", node, baseNode)
	}
	if s.Hubs() != 0 || s.Subscribers() != 0 {
		t.Errorf("hubs=%d subs=%d after churn, want 0/0", s.Hubs(), s.Subscribers())
	}
}

func TestSubCloseIdempotentAndCoalesced(t *testing.T) {
	e, s := newShard(t, 0)
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := s.Subscribe("/a")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// Multiple writes before the subscriber drains coalesce to ≤ pending+1
	// wakeups — the channel has capacity 1.
	for i := 0; i < 3; i++ {
		if err := w.Set("/a", []byte{byte(i)}, -1); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	waitFor(t, "wakeup", func() bool {
		select {
		case <-sub.C():
			return true
		default:
			return false
		}
	})
	sub.Close()
	sub.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Errorf("closed sub's channel still delivering")
	}
}

func TestHubDiesWithSession(t *testing.T) {
	e := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: time.Second})
	defer e.Close()
	cli := e.Connect()
	s := New(Config{Client: cli, FollowerReads: true, CacheBytes: 0})
	defer s.Close()

	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := s.Subscribe("/a")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	cli.Kill() // expire the read path's store session
	select {
	case _, ok := <-sub.C():
		if ok {
			// a pending wakeup may precede the close; drain once more
			if _, ok := <-sub.C(); ok {
				t.Fatalf("sub channel delivered twice after session death without closing")
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("sub channel not closed after session death")
	}
}

func TestLeaderOnlyAblation(t *testing.T) {
	e := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: time.Second})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	s := New(Config{Client: cli, FollowerReads: false, CacheBytes: 0})
	defer s.Close()

	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	_, _, _, src, err := s.GetRecord("/a", w.LastWriteZxid())
	if err != nil {
		t.Fatalf("GetRecord: %v", err)
	}
	if src != SourceLeader {
		t.Errorf("ablation served from %v, want leader", src)
	}
	st := s.Stats()
	if st.LeaderServed != 1 || st.FollowerServed != 0 || st.CacheServed != 0 {
		t.Errorf("served split %d/%d/%d, want leader-only", st.CacheServed, st.FollowerServed, st.LeaderServed)
	}
}

func TestChildrenPageServesEachTier(t *testing.T) {
	e, s := newShard(t, 1<<20)
	w := e.Connect()
	defer w.Close()
	if _, err := w.Create("/dir", nil, 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, name := range []string{"c", "a", "b"} {
		if _, err := w.Create("/dir/"+name, nil, 0); err != nil {
			t.Fatalf("create child: %v", err)
		}
	}
	names, z, src, err := s.ChildrenPage("/dir", "a", 10, w.LastWriteZxid())
	if err != nil || src != SourceFollower || strings.Join(names, ",") != "b,c" || z < w.LastWriteZxid() {
		t.Fatalf("follower page = %v z=%d src=%v err=%v, want [b c] from follower", names, z, src, err)
	}

	leaderOnly := New(Config{Client: w, FollowerReads: false})
	defer leaderOnly.Close()
	names, _, src, err = leaderOnly.ChildrenPage("/dir", "", 2, 0)
	if err != nil || src != SourceLeader || strings.Join(names, ",") != "a,b" {
		t.Fatalf("leader-only page = %v src=%v err=%v, want [a b] from leader", names, src, err)
	}
	if _, _, _, err := s.ChildrenPage("/nope", "", 10, 0); !errors.Is(err, store.ErrNoNode) {
		t.Fatalf("missing dir err = %v, want ErrNoNode", err)
	}
}

func TestMetricsPrecreatedAtZero(t *testing.T) {
	e := store.NewEnsemble(store.Config{Replicas: 3, SessionTimeout: time.Second})
	defer e.Close()
	cli := e.Connect()
	defer cli.Close()
	reg := metrics.NewRegistry()
	s := New(Config{Client: cli, FollowerReads: true, CacheBytes: 1 << 20,
		Registry: reg, Shard: "7"})
	defer s.Close()

	// Satellite requirement: every series exists at zero BEFORE any
	// traffic, so scrapers can rate() from the first scrape.
	text := reg.Text()
	for _, want := range []string{
		`tropic_read_cache_hits_total{shard="7"} 0`,
		`tropic_read_cache_misses_total{shard="7"} 0`,
		`tropic_read_cache_invalidations_total{shard="7"} 0`,
		`tropic_read_cache_evictions_total{shard="7"} 0`,
		`tropic_read_cache_negative_hits_total{shard="7"} 0`,
		`tropic_reads_total{shard="7",source="cache"} 0`,
		`tropic_reads_total{shard="7",source="follower"} 0`,
		`tropic_reads_total{shard="7",source="leader"} 0`,
		`tropic_read_cache_bytes{shard="7"} 0`,
		`tropic_watch_fanout_subscribers{shard="7"} 0`,
		`tropic_watch_fanout_watches{shard="7"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNegativeCacheServesAuthoritativeAbsence: a miss on an absent path
// caches the absence itself; repeated reads under the watermark are
// ErrNoNode cache hits, and creating the node invalidates the entry
// through the hub's watch so the next read sees the data.
func TestNegativeCacheServesAuthoritativeAbsence(t *testing.T) {
	e, s := newShard(t, 1<<20)
	w := e.Connect()
	defer w.Close()
	// Materialize at least one commit so the ensemble zxid is nonzero.
	if _, err := w.Create("/other", []byte("x"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}

	_, _, z, src, err := s.GetRecord("/a", 0)
	if !errors.Is(err, store.ErrNoNode) {
		t.Fatalf("absent read err=%v, want ErrNoNode", err)
	}
	if src == SourceCache || z <= 0 {
		t.Fatalf("first absent read src=%v z=%d, want store-served with watermark", src, z)
	}

	_, _, z2, src, err := s.GetRecord("/a", z)
	if !errors.Is(err, store.ErrNoNode) {
		t.Fatalf("cached absent read err=%v, want ErrNoNode", err)
	}
	if src != SourceCache || z2 != z {
		t.Errorf("cached absent read src=%v z=%d, want cache at %d", src, z2, z)
	}
	if st := s.Stats(); st.NegativeHits != 1 {
		t.Errorf("NegativeHits=%d, want 1", st.NegativeHits)
	}

	// A watermark past the entry must bypass the cache: absence is only
	// authoritative as of the zxid it was observed at.
	if _, _, _, src, err = s.GetRecord("/a", z+10); errors.Is(err, store.ErrNoNode) && src == SourceCache {
		t.Errorf("cache served absence for a watermark past its zxid")
	}

	// Creation fires the hub's node watch and drops the negative entry.
	if _, err := w.Create("/a", []byte("v0"), 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	waitFor(t, "negative invalidation", func() bool {
		data, _, _, _, err := s.GetRecord("/a", w.LastWriteZxid())
		return err == nil && string(data) == "v0"
	})
	// And the fresh fill is a normal positive entry: next read hits.
	data, _, _, src, err := s.GetRecord("/a", 0)
	if err != nil || src != SourceCache || string(data) != "v0" {
		t.Errorf("post-create read = %q src=%v err=%v, want cached v0", data, src, err)
	}
}
