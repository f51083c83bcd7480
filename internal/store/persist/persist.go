// Package persist is the durability layer of the coordination store: a
// CRC-framed binary write-ahead log plus periodic full-tree snapshots,
// giving the store the "replicated persistent storage" role it plays in
// TROPIC's safety argument (paper §2.3, §5) across full process crashes.
//
// The layering is deliberate: this package moves opaque payloads — it
// knows framing, checksums, fsync policy, rotation, and recovery order,
// while the store package owns the encoding of its operations and tree.
// That keeps the WAL format independent of store internals and avoids
// an import cycle.
//
// Data directory layout:
//
//	wal-<firstZxid:016x>.log   log segments, named by the zxid of the
//	                           first record they may contain
//	snap-<zxid:016x>.snap      full-tree snapshots, named by the zxid
//	                           they cover
//
// Protocol: Open → LoadSnapshot → Replay → Roll → Append..., with a
// snapshot taken at any point after appending begins in two steps. Under
// the caller's commit lock, Roll(zxid+1) starts a fresh segment, so every
// earlier segment covers only zxids ≤ zxid; then WriteSnapshot(zxid, ...)
// streams the payload to disk while appends go on, and once the file is
// durable it deletes those earlier segments, bounding both disk usage and
// recovery time. A crash before the file lands leaves the previous
// snapshot and every segment after it in place.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// SyncPolicy selects when the WAL is fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a committed write survives
	// both process and machine crashes. This is the default and the
	// policy matching ZooKeeper's forceSync=yes.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs during appends (the OS flushes on its own
	// schedule, and Close flushes explicitly): committed writes survive
	// process crashes but the tail may be lost on machine failure.
	SyncNone
)

// String renders the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return SyncAlways, fmt.Errorf("persist: unknown sync policy %q (want always|none)", s)
	}
}

// Stats are the persistence counters exposed through the store's stats
// surface and tropicd's GET /v1/stats.
type Stats struct {
	// WALAppends counts records appended to the log.
	WALAppends int64 `json:"walAppends"`
	// WALBytes counts bytes written to log segments (frames included).
	WALBytes int64 `json:"walBytes"`
	// Fsyncs counts explicit fsync calls on log segments.
	Fsyncs int64 `json:"fsyncs"`
	// FsyncNanos is cumulative wall time spent inside fsync calls — with
	// Fsyncs, the fsync-latency signal the metrics registry exports.
	FsyncNanos int64 `json:"fsyncNanos"`
	// Snapshots counts snapshots successfully written.
	Snapshots int64 `json:"snapshots"`
	// Recoveries counts completed recovery passes (1 after a restart
	// from a non-empty data dir).
	Recoveries int64 `json:"recoveries"`
	// LastRecoveryNanos is the wall time of the most recent recovery.
	LastRecoveryNanos int64 `json:"lastRecoveryNanos"`
}

// Store owns one data directory: the active WAL segment, the segment and
// snapshot inventory, and the persistence counters.
type Store struct {
	dir    string
	policy SyncPolicy

	mu     sync.Mutex
	active *os.File // current append segment; nil until the first Roll
	frame  []byte   // the record being appended, reused under mu
	closed bool
	// failErr makes the store fail-stop: once a WAL append or rotation
	// errors, the on-disk log structure is in doubt (a torn frame may
	// sit in front of anything written later, silently discarding it on
	// replay), so every subsequent append fails with the original error
	// until the process restarts and recovery re-establishes a clean
	// tail.
	failErr error

	appends    metrics.Counter
	bytes      metrics.Counter
	fsyncs     metrics.Counter
	fsyncNs    metrics.Counter
	snapshots  metrics.Counter
	recoveries metrics.Counter
	lastRec    metrics.Gauge
}

// Open prepares a data directory for recovery and appending, creating it
// if needed and clearing leftover temporary files from an interrupted
// snapshot write.
func Open(dir string, policy SyncPolicy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		_ = os.Remove(t)
	}
	return &Store{dir: dir, policy: policy}, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the persistence counters.
func (s *Store) Stats() Stats {
	return Stats{
		WALAppends:        s.appends.Load(),
		WALBytes:          s.bytes.Load(),
		Fsyncs:            s.fsyncs.Load(),
		FsyncNanos:        s.fsyncNs.Load(),
		Snapshots:         s.snapshots.Load(),
		Recoveries:        s.recoveries.Load(),
		LastRecoveryNanos: s.lastRec.Load(),
	}
}

// ObserveRecovery records a completed recovery pass and its duration.
func (s *Store) ObserveRecovery(d time.Duration) {
	s.recoveries.Inc()
	s.lastRec.Set(d.Nanoseconds())
}

// LastRecovery returns the duration of the most recent recovery pass.
func (s *Store) LastRecovery() time.Duration {
	return time.Duration(s.lastRec.Load())
}

// fail records the first unrecoverable error and returns it. Caller
// holds s.mu.
func (s *Store) fail(err error) error {
	if s.failErr == nil {
		s.failErr = err
	}
	return err
}

// Sync flushes the active segment to stable storage regardless of
// policy, for shutdown paths (tropicd's SIGTERM handler).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.active == nil {
		return nil
	}
	return s.fsync(s.active)
}

// fsync flushes f to stable storage, counting the call in Fsyncs and
// its wall time in FsyncNanos. Every fsync the store makes goes
// through it, so the two counters describe the same calls.
func (s *Store) fsync(f *os.File) error {
	s.fsyncs.Inc()
	start := time.Now()
	err := f.Sync()
	s.fsyncNs.Add(time.Since(start).Nanoseconds())
	return err
}

// Close flushes and closes the active segment. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	err := s.syncLocked()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}

// syncDir fsyncs the data directory so renames and creates are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.fsync(d)
}

// sortedMatches lists files in dir matching prefix/suffix, sorted by
// name — which, with zero-padded hex zxids, is also zxid order.
func (s *Store) sortedMatches(prefix, suffix string) ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}
