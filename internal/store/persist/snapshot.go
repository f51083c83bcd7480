package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot file format:
//
//	[8]  magic "TROPSNP1"
//	[8]  zxid covered by the snapshot (big-endian)
//	[4]  crc32 (IEEE) of payload
//	[4]  payload length
//	[n]  payload (opaque to this package)
//
// A snapshot is streamed to a temporary file, its header's CRC and
// length back-filled once the payload is written, fsynced, and renamed
// into place, so a crash mid-snapshot leaves the previous snapshot (and
// every segment after it) intact; Open removes the temporary file.
// LoadSnapshot reads ONLY the newest snapshot and fails loudly when it
// is unreadable: rotation deletes the WAL segments a snapshot covers,
// so recovering from an older snapshot plus the surviving tail would
// silently skip every operation between the two — a state that never
// existed. The older retained snapshot is kept strictly as material
// for manual (operator) recovery.

const (
	snapMagic  = "TROPSNP1"
	snapSuffix = ".snap"
	snapPrefix = "snap-"
	// snapRetain is how many snapshots are kept: the latest, which
	// recovery uses, plus one older file retained only as material for
	// manual recovery should the latest be damaged (recovery never
	// falls back to it automatically — see LoadSnapshot).
	snapRetain = 2
)

func snapName(zxid int64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(zxid), snapSuffix)
}

// WriteSnapshot durably writes a snapshot covering every record up to
// and including zxid; encode streams its payload to the writer it is
// given, which passes it straight to the file while keeping the CRC and
// length that are back-filled into the header. The caller must have
// rolled the log to zxid+1 first (Roll), so every segment named below
// zxid+1 holds only records the snapshot covers: once the file is
// durable, every segment but the one rolled to is deleted, along with
// all but the last snapRetain snapshots. This is what bounds recovery
// time and disk usage.
//
// WriteSnapshot takes no lock that Append takes, so appends go on while
// a snapshot is written; callers write one snapshot at a time. A failure
// before the file lands is harmless (the WAL still holds everything and
// nothing is pruned; the caller may retry later).
func (s *Store) WriteSnapshot(zxid int64, encode func(io.Writer) error) error {
	s.mu.Lock()
	err := s.failErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writeSnapshotFile(zxid, encode); err != nil {
		return err
	}
	s.snapshots.Inc()
	// Prune failures are non-fatal: leftover segments only hold records
	// the snapshot covers, which replay skips; the next snapshot retries
	// their removal.
	return s.prune(zxid)
}

// payloadWriter passes a snapshot payload through to its file, keeping
// the CRC and length the header needs.
type payloadWriter struct {
	f   *os.File
	crc uint32
	n   int64
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	p.crc = crc32.Update(p.crc, crc32.IEEETable, b)
	p.n += int64(len(b))
	return p.f.Write(b)
}

func (s *Store) writeSnapshotFile(zxid int64, encode func(io.Writer) error) error {
	tmp, err := os.CreateTemp(s.dir, snapName(zxid)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(zxid))
	hdr = append(hdr, make([]byte, 8)...) // crc and length, back-filled below
	w := &payloadWriter{f: tmp}
	if _, err = tmp.Write(hdr); err == nil {
		err = encode(w)
	}
	if err == nil && w.n > maxRecordBytes*16 {
		// Recovery refuses a payload this large (readSnapshot).
		err = fmt.Errorf("persist: snapshot payload of %d bytes is too large", w.n)
	}
	if err == nil {
		binary.BigEndian.PutUint32(hdr[16:], w.crc)
		binary.BigEndian.PutUint32(hdr[20:], uint32(w.n))
		_, err = tmp.WriteAt(hdr[16:], 16)
	}
	if err == nil {
		err = s.fsync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapName(zxid))); err != nil {
		return err
	}
	return s.syncDir()
}

// prune removes every WAL segment but the one rolled to at zxid+1, and
// old snapshots beyond the retention count. The segments named below it
// hold only records the snapshot at zxid covers. None is named above it
// unless recovery stopped at a corrupt record in front of them: those
// records are not part of the recovered state, and replay must never
// reach them behind the records logged from zxid+1 on.
func (s *Store) prune(zxid int64) error {
	segs, err := s.sortedMatches(walPrefix, walSuffix)
	if err != nil {
		return err
	}
	active := walName(zxid + 1)
	for _, name := range segs {
		if name != active {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	snaps, err := s.sortedMatches(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for len(snaps) > snapRetain {
		if err := os.Remove(filepath.Join(s.dir, snaps[0])); err != nil {
			return err
		}
		snaps = snaps[1:]
	}
	return nil
}

// LoadSnapshot returns the payload and zxid of the newest snapshot, or
// (nil, 0, nil) when the directory holds none. An unreadable newest
// snapshot is an error, never a silent fallback: the WAL segments it
// covered are gone, so no combination of older snapshot + surviving
// tail reconstructs a state that ever existed.
func (s *Store) LoadSnapshot() ([]byte, int64, error) {
	names, err := s.sortedMatches(snapPrefix, snapSuffix)
	if err != nil {
		return nil, 0, err
	}
	if len(names) == 0 {
		return nil, 0, nil
	}
	newest := names[len(names)-1]
	payload, zxid, ok := readSnapshot(filepath.Join(s.dir, newest))
	if !ok {
		return nil, 0, fmt.Errorf(
			"persist: snapshot %s is unreadable; refusing automatic recovery (older files in %s are retained for manual repair)",
			newest, s.dir)
	}
	return payload, zxid, nil
}

func readSnapshot(path string) (payload []byte, zxid int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, false
	}
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, 0, false
	}
	if string(hdr[:8]) != snapMagic {
		return nil, 0, false
	}
	zxid = int64(binary.BigEndian.Uint64(hdr[8:16]))
	crc := binary.BigEndian.Uint32(hdr[16:20])
	n := binary.BigEndian.Uint32(hdr[20:24])
	if n > maxRecordBytes*16 || int64(n) > st.Size()-int64(len(hdr)) {
		// Corrupt or truncated: refused before allocating the payload.
		return nil, 0, false
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, zxid, true
}
