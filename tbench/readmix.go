package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/tcloud"
	"repro/tropic"
	"repro/tropic/httpclient"
)

// readmix: one shard behind the HTTP gateway, reached over loopback by
// two connections. Each runs a fixed seeded sequence of about 94% record
// reads on Zipf-chosen ids, 5% submit+wait and 1% list pages, so the
// read path and the gateway do most of the work while the writes next
// to them expose a read-path change that costs writes (invalidations,
// the shared ensemble) or the reverse. The records are seeded before a
// full stop and restart from the same data directory, so set-up includes
// a real WAL and snapshot recovery.
func readmixSizes(seconds int) sizes {
	return sizes{
		reps:       3,
		hosts:      256,
		window:     16,
		seeded:     4000,
		warmup:     400,
		timed:      2000 * seconds,
		cacheBytes: 1 << 20,
	}
}

const (
	mixConns    = 2
	mixZipfS    = 1.1
	mixGetShare = 0.94
	mixTxnShare = 0.05
)

// runReadmix is one repetition of readmix: seed the records, restart,
// serve the gateway, warm up, then the timed mix.
func runReadmix(ctx context.Context, env *runEnv) (*phase, error) {
	sz := env.sizes
	t0 := time.Now()
	p, ids, pairs, err := seedAndRestart(ctx, env)
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	gw, err := serve(p)
	if err != nil {
		return nil, err
	}
	defer gw.close()
	var warm phase
	if err := mix(ctx, gw.base, ids, pairs, env.opts.seed+1<<32, sz.warmup, "w", nil, &warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d checked operations failed", warm.failed, warm.attempted)
	}
	ph := &phase{
		setup:     time.Since(t0).Seconds(),
		recoverMs: ms(time.Duration(p.Ensemble().PersistStats().LastRecoveryNanos)),
	}
	err = timed(ctx, env, p, ph, func() error {
		return mix(ctx, gw.base, ids, pairs, env.opts.seed, sz.timed, "m", env.tr, ph)
	})
	if err != nil {
		return nil, err
	}
	if ph.apiGetUs, err = gatewayGetP50(ctx, gw.base); err != nil {
		return nil, err
	}
	return ph, nil
}

// seedAndRestart commits the seeded records on a fresh platform, stops
// it, and reopens it from the same data directory: a real WAL and
// snapshot recovery.
func seedAndRestart(ctx context.Context, env *runEnv) (*tropic.Platform, []string, []pair, error) {
	sz := env.sizes
	p, err := startPlatform(ctx, env.tr, platformConfig(1, sz.hosts, env.dir, sz.cacheBytes))
	if err != nil {
		return nil, nil, nil, err
	}
	pairs, err := hostPairs(p, sz.hosts, false, rand.New(rand.NewSource(env.opts.seed)))
	if err != nil {
		p.Stop()
		return nil, nil, nil, err
	}
	g := newGenerator(p.Client(), pairs, sz.window, 1, nil)
	g.committed = make([]string, 0, sz.seeded)
	err = g.warm(ctx, sz.seeded)
	g.cli.Close()
	if stopErr := p.Stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop: %w", stopErr)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed: %w", err)
	}
	ids := g.committed
	sort.Strings(ids)
	p, err = startPlatform(ctx, env.tr, platformConfig(1, sz.hosts, env.dir, sz.cacheBytes))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("restart: %w", err)
	}
	return p, ids, pairs, nil
}

// gateway serves internal/api over a loopback listener.
type gateway struct {
	api  *api.Gateway
	srv  *http.Server
	base string
	done chan error
}

func serve(p *tropic.Platform) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &gateway{
		api:  api.New(api.Config{Platform: p}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	g.srv = &http.Server{Handler: g.api}
	go func() { g.done <- g.srv.Serve(ln) }()
	return g, nil
}

// close stops the server, waits for it, and releases the gateway's
// platform session.
func (g *gateway) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx) // a forced close after the timeout is acceptable at teardown
	<-g.done
	g.api.Close()
}

// mix runs the readmix sequence: mixConns connections, each a fixed
// sequence of n operations drawn from its own seeded stream, merged into
// ph when both have finished.
func mix(ctx context.Context, base string, ids []string, pairs []pair, seed int64, n int, prefix string, tr *tracer, ph *phase) error {
	if len(ids) < 2*listPageSize {
		return errors.New("too few seeded records for the mix")
	}
	// The Zipf rank of an id is a seeded permutation, so the hot set is
	// spread over the record range rather than the oldest records.
	perm := rand.New(rand.NewSource(seed)).Perm(len(ids))
	parts := make([]phase, mixConns)
	errs := make([]error, mixConns)
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		var own []pair
		for i := c; i < len(pairs); i += mixConns {
			own = append(own, pairs[i])
		}
		wg.Add(1)
		go func(c int, own []pair) {
			defer wg.Done()
			conn := &mixConn{
				base: base, ids: ids, perm: perm, pairs: own, tr: tr, ph: &parts[c],
				name: fmt.Sprintf("%s%d-", prefix, c),
				rng:  rand.New(rand.NewSource(seed*mixConns + int64(c) + 1)),
			}
			errs[c] = conn.run(ctx, n)
		}(c, own)
	}
	wg.Wait()
	for i := range parts {
		ph.merge(&parts[i])
	}
	return errors.Join(errs...)
}

// merge adds another phase's operation counts and samples to ph.
func (ph *phase) merge(o *phase) {
	ph.ops += o.ops
	ph.txns += o.txns
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.txnLat = append(ph.txnLat, o.txnLat...)
	ph.readLat = append(ph.readLat, o.readLat...)
	ph.listLat = append(ph.listLat, o.listLat...)
}

// mixConn is one connection of the mix: one httpclient over one
// keep-alive connection, one operation at a time.
type mixConn struct {
	base  string
	ids   []string
	perm  []int
	pairs []pair
	name  string
	rng   *rand.Rand
	tr    *tracer
	ph    *phase
	hc    *httpclient.Client
}

func (m *mixConn) run(ctx context.Context, n int) error {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	m.hc = httpclient.New(m.base, httpclient.WithHTTPClient(&http.Client{Transport: transport}))
	zipf := rand.NewZipf(m.rng, mixZipfS, 1, uint64(len(m.ids)-1))
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%d of %d operations unfinished: %w", n-k, n, err)
		}
		m.ph.ops++
		m.ph.attempted++
		switch u := m.rng.Float64(); {
		case u < mixGetShare:
			m.get(m.ids[m.perm[zipf.Uint64()]])
		case u < mixGetShare+mixTxnShare:
			m.spawn(ctx, m.pairs[k%len(m.pairs)], fmt.Sprintf("%s%07d", m.name, k))
		default:
			m.list(m.ids[m.rng.Intn(len(m.ids)-listPageSize)])
		}
	}
	return nil
}

func (m *mixConn) get(id string) {
	t0 := time.Now()
	rec, err := m.hc.Get(id)
	d := time.Since(t0)
	m.tr.add("http.get", id, t0, t0.Add(d), -1)
	switch {
	case err != nil:
		m.ph.fail("GET /v1/txn %s: %v", id, err)
	case rec.ID != id:
		m.ph.fail("GET /v1/txn %s returned %s", id, rec.ID)
	case rec.State != tropic.StateCommitted:
		m.ph.fail("GET /v1/txn %s: state %s, want committed", id, rec.State)
	default:
		m.ph.readLat = append(m.ph.readLat, us(d))
	}
}

func (m *mixConn) spawn(ctx context.Context, pr pair, vm string) {
	t0 := time.Now()
	id, err := m.hc.Submit(tcloud.ProcSpawnVM, pr.storage, pr.compute, vm, "1024")
	t1 := time.Now()
	if err != nil {
		m.tr.add("http.submit", "", t0, t1, -1)
		m.ph.fail("POST /v1/submit: %v", err)
		return
	}
	rec, err := m.hc.Wait(ctx, id)
	t2 := time.Now()
	if m.tr != nil {
		root := m.tr.add("txn", id, t0, t2, -1)
		m.tr.add("http.submit", id, t0, t1, root)
		m.tr.add("http.wait", id, t1, t2, root)
		if err == nil {
			m.tr.history(id, rec, root)
		}
	}
	switch {
	case err != nil:
		m.ph.fail("GET /v1/wait %s: %v", id, err)
	case rec.ID != id || rec.State != tropic.StateCommitted:
		m.ph.fail("GET /v1/wait %s: %s ended %s (%s)", id, rec.ID, rec.State, rec.Error)
	default:
		m.ph.txns++
		m.ph.txnLat = append(m.ph.txnLat, ms(t2.Sub(t0)))
	}
}

func (m *mixConn) list(cursor string) {
	t0 := time.Now()
	page, err := m.hc.List(tropic.ListOptions{Cursor: cursor, Limit: listPageSize})
	d := time.Since(t0)
	m.tr.add("http.list", "", t0, t0.Add(d), -1)
	if err == nil {
		err = ascending(page, cursor, 1)
	}
	if err != nil {
		m.ph.fail("GET /v1/txns after %s: %v", cursor, err)
		return
	}
	m.ph.listLat = append(m.ph.listLat, ms(d))
}

// gatewayGetP50 reads the gateway's own GET /v1/txn median from
// /v1/stats, in µs. The gateway keeps it since it started serving, so
// it covers the set-up warm-up as well as the timed phase.
func gatewayGetP50(ctx context.Context, base string) (float64, error) {
	hc := httpclient.New(base)
	defer hc.Close()
	st, err := hc.Stats(ctx)
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	var lat map[string]api.LatencySummary
	if err := json.Unmarshal(st["api"], &lat); err != nil {
		return 0, fmt.Errorf("stats: api: %w", err)
	}
	return lat["/v1/txn"].P50Ms * 1000, nil
}
