package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Segment file format:
//
//	[8]  magic "TROPWAL1"
//	then zero or more records:
//	[4]  crc32 (IEEE) of body
//	[4]  body length
//	[n]  body = [8] zxid (big-endian) + payload
//
// A record is readable iff its frame is complete and the CRC matches.
// Recovery treats the first unreadable record as the end of the log:
// a torn final record (crash mid-write) is silently dropped, and
// anything after a corrupt record is suspect and ignored.

const (
	walMagic  = "TROPWAL1"
	walSuffix = ".log"
	walPrefix = "wal-"
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot trigger a huge allocation during recovery.
	maxRecordBytes = 1 << 26 // 64 MiB
)

// ErrNotAppending is returned by Append before the first Roll.
var ErrNotAppending = errors.New("persist: no active WAL segment (call Roll)")

func walName(firstZxid int64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, uint64(firstZxid), walSuffix)
}

// Roll closes the active segment, if there is one, and opens a fresh
// segment for records from nextZxid on. Recovery rolls before its first
// append, so a torn tail from the previous run can never sit in front of
// new records; a snapshot rolls when it captures the tree, so every
// segment named below its zxid+1 is closed and can be pruned once the
// snapshot is durable. A failed roll is fail-stop, like a failed append:
// the store would otherwise be left with no usable active segment.
func (s *Store) Roll(nextZxid int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store closed")
	}
	if s.failErr != nil {
		return s.failErr
	}
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		if err != nil {
			return s.fail(fmt.Errorf("persist: wal roll: %w", err))
		}
	}
	if err := s.openSegmentLocked(nextZxid); err != nil {
		return s.fail(fmt.Errorf("persist: wal roll: %w", err))
	}
	return nil
}

func (s *Store) openSegmentLocked(firstZxid int64) error {
	path := filepath.Join(s.dir, walName(firstZxid))
	// Always a FRESH segment: O_TRUNC discards any same-named file left
	// by a previous incarnation. A name collision can only happen when
	// that old segment contributed no records to replay (e.g. its first
	// frame was torn by a crash) — had it contributed any, the next zxid
	// would be past its name. Appending behind leftover torn bytes would
	// strand every new record where replay never reaches it.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	s.bytes.Add(int64(len(walMagic)))
	if s.policy == SyncAlways {
		if err := s.fsync(f); err != nil {
			f.Close()
			return err
		}
		if err := s.syncDir(); err != nil {
			f.Close()
			return err
		}
	}
	s.active = f
	return nil
}

// Append frames payload under zxid and writes it to the active segment,
// fsyncing per policy. It returns only after the record is handed to
// the OS (SyncNone) or on stable storage (SyncAlways) — the caller
// applies the operation to its in-memory state strictly afterwards
// (log-before-apply). Neither Append nor AppendNoSync retains payload.
//
// A failed append is fail-stop: the frame may be partially on disk, so
// appending anything after it would put valid records behind a torn one
// where replay never reaches them. The store refuses all further
// appends with the original error; the failing record's own outcome is
// indeterminate (a fully written frame whose fsync failed can still
// surface after recovery), which is why the caller must also never
// reuse its zxid.
func (s *Store) Append(zxid int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeFrameLocked(zxid, payload); err != nil {
		return err
	}
	if s.policy == SyncAlways {
		if err := s.fsync(s.active); err != nil {
			return s.fail(fmt.Errorf("persist: wal fsync: %w", err))
		}
	}
	return nil
}

// AppendNoSync frames payload under zxid and writes it to the active
// segment WITHOUT fsyncing, regardless of policy. It is the group-commit
// half of Append: the caller writes a run of records and then makes the
// whole run durable with one SyncGroup call, amortizing the fsync that
// dominates SyncAlways throughput. Failure semantics are identical to
// Append (fail-stop: a torn frame may sit in front of later records).
func (s *Store) AppendNoSync(zxid int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeFrameLocked(zxid, payload)
}

// writeFrameLocked frames payload under zxid into a buffer reused across
// appends and writes it to the active segment. Caller holds s.mu.
func (s *Store) writeFrameLocked(zxid int64, payload []byte) error {
	if s.failErr != nil {
		return s.failErr
	}
	if s.active == nil {
		return ErrNotAppending
	}
	s.frame = appendFrame(s.frame[:0], zxid, payload)
	if _, err := s.active.Write(s.frame); err != nil {
		return s.fail(fmt.Errorf("persist: wal append: %w", err))
	}
	s.appends.Inc()
	s.bytes.Add(int64(len(s.frame)))
	return nil
}

// SyncGroup completes a run of AppendNoSync records: under SyncAlways it
// fsyncs the active segment once for the whole run; under SyncNone it is
// a no-op (the OS flushes on its own schedule, as for Append). A failed
// sync is fail-stop — the run's durability is indeterminate and nothing
// may be appended behind it.
func (s *Store) SyncGroup() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if s.policy != SyncAlways || s.active == nil {
		return nil
	}
	if err := s.fsync(s.active); err != nil {
		return s.fail(fmt.Errorf("persist: wal group fsync: %w", err))
	}
	return nil
}

// appendFrame appends one record frame to b, checksumming the body
// where it lands instead of assembling it separately.
func appendFrame(b []byte, zxid int64, payload []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, 8)...) // crc and length, filled in below
	b = binary.BigEndian.AppendUint64(b, uint64(zxid))
	b = append(b, payload...)
	body := b[start+8:]
	binary.BigEndian.PutUint32(b[start:], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(b[start+4:], uint32(len(body)))
	return b
}

// Replay streams every decodable record with zxid > afterZxid, in log
// order, to apply. It stops cleanly at the first torn or corrupt record
// and returns the zxid of the last record delivered (afterZxid when
// none were). An error from apply aborts the replay.
//
// Every record is read into one buffer, grown to the largest record, so
// apply's payload is valid only during the call: apply must copy what
// it keeps.
func (s *Store) Replay(afterZxid int64, apply func(zxid int64, payload []byte) error) (int64, error) {
	names, err := s.sortedMatches(walPrefix, walSuffix)
	if err != nil {
		return afterZxid, err
	}
	last := afterZxid
	var buf []byte
	for _, name := range names {
		done, err := s.replaySegment(filepath.Join(s.dir, name), afterZxid, &last, &buf, apply)
		if err != nil {
			return last, err
		}
		if done {
			// The segment ended at a torn or corrupt record; everything
			// after that point (including later segments) is suspect.
			break
		}
	}
	return last, nil
}

// replaySegment reads one segment, each record into *buf. It returns
// done=true when the segment terminated at an unreadable record,
// meaning replay must not continue into later segments.
func (s *Store) replaySegment(path string, afterZxid int64, last *int64, buf *[]byte, apply func(int64, []byte) error) (done bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		// Not a segment this version wrote (or truncated before the
		// header finished): treat as end of log.
		return true, nil
	}
	left := st.Size() - int64(len(walMagic)) // bytes not yet read
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			// Clean end of segment (EOF) or torn frame header.
			return !errors.Is(err, io.EOF), nil
		}
		left -= int64(len(hdr))
		crc := binary.BigEndian.Uint32(hdr[:4])
		n := binary.BigEndian.Uint32(hdr[4:])
		if n < 8 || n > maxRecordBytes {
			return true, nil // corrupt length
		}
		if int64(n) > left {
			// Torn record; checked before growing the buffer, so a
			// corrupt length costs nothing out of proportion to the file.
			return true, nil
		}
		left -= int64(n)
		*buf = slices.Grow((*buf)[:0], int(n))
		body := (*buf)[:n]
		if _, err := io.ReadFull(f, body); err != nil {
			return true, nil // torn record
		}
		if crc32.ChecksumIEEE(body) != crc {
			return true, nil // corrupt record
		}
		zxid := int64(binary.BigEndian.Uint64(body[:8]))
		if zxid <= afterZxid {
			continue // already covered by the snapshot
		}
		if err := apply(zxid, body[8:]); err != nil {
			return false, err
		}
		*last = zxid
	}
}
