package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// frame is one WAL record as recovery should deliver it.
type frame struct {
	zxid    int64
	payload []byte
}

// goodFrames parses a segment body (the bytes after walMagic) the way
// the format comment in wal.go defines it: every complete frame whose
// length is in range and whose CRC matches, in file order, up to the
// first frame that is not.
func goodFrames(data []byte) []frame {
	var out []frame
	for len(data) >= 8 {
		crc := binary.BigEndian.Uint32(data[:4])
		n := binary.BigEndian.Uint32(data[4:8])
		if n < 8 || n > maxRecordBytes || uint64(n) > uint64(len(data)-8) {
			break
		}
		body := data[8 : 8+n]
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		out = append(out, frame{int64(binary.BigEndian.Uint64(body[:8])), body[8:]})
		data = data[8+n:]
	}
	return out
}

// FuzzReplaySegment feeds arbitrary bytes to recovery as the body of a
// WAL segment. Replay must never panic, and it must deliver exactly the
// CRC-valid frames in file order, stopping at the first bad one (records
// at zxid ≤ 0 are skipped as covered by a snapshot at 0).
func FuzzReplaySegment(f *testing.F) {
	var seg []byte
	for z := int64(1); z <= 3; z++ {
		seg = appendFrame(seg, z, []byte("op-payload"))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])                                   // torn tail
	f.Add(append(appendFrame(nil, 7, nil), 0xDE, 0xAD, 0xBE)) // torn header
	bad := bytes.Clone(seg)
	bad[len(appendFrame(nil, 1, []byte("op-payload")))+12] ^= 0xFF // corrupt second body
	f.Add(bad)
	f.Add(appendFrame(nil, -5, []byte("below the snapshot")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName(1))
		if err := os.WriteFile(path, append([]byte(walMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		var got []frame
		last, err := s.Replay(0, func(z int64, p []byte) error {
			got = append(got, frame{z, bytes.Clone(p)})
			return nil
		})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		var want []frame
		for _, fr := range goodFrames(data) {
			if fr.zxid > 0 {
				want = append(want, fr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].zxid != want[i].zxid || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("record %d: zxid %d payload %q, want zxid %d payload %q",
					i, got[i].zxid, got[i].payload, want[i].zxid, want[i].payload)
			}
		}
		wantLast := int64(0)
		if len(want) > 0 {
			wantLast = want[len(want)-1].zxid
		}
		if last != wantLast {
			t.Fatalf("Replay returned last=%d, want %d", last, wantLast)
		}
	})
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader. It
// must never panic, and it either refuses the file or returns the
// header's zxid with a payload whose CRC matches the header's.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds come from the streaming writer: a payload handed over in
	// pieces, and an empty one.
	if err := s.WriteSnapshot(42, func(w io.Writer) error {
		for _, piece := range []string{"snap", "shot ", "", "payload"} {
			if _, err := io.WriteString(w, piece); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if err := s.WriteSnapshot(43, func(io.Writer) error { return nil }); err != nil {
		f.Fatal(err)
	}
	empty, err := os.ReadFile(filepath.Join(dir, snapName(43)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	snap, err := os.ReadFile(filepath.Join(dir, snapName(42)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(snap[:20])
	flipped := bytes.Clone(snap)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), snapName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, zxid, ok := readSnapshot(path)
		if !ok {
			return
		}
		if len(data) < 24 || string(data[:8]) != snapMagic {
			t.Fatalf("accepted a file without a snapshot header: %q", data)
		}
		if zxid != int64(binary.BigEndian.Uint64(data[8:16])) {
			t.Fatalf("zxid %d, header says %d", zxid, binary.BigEndian.Uint64(data[8:16]))
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[16:20]) {
			t.Fatal("returned a payload whose CRC does not match the header")
		}
		if n := binary.BigEndian.Uint32(data[20:24]); uint64(n) != uint64(len(payload)) ||
			!bytes.Equal(payload, data[24:24+n]) {
			t.Fatalf("payload is not the %d bytes after the header", n)
		}
	})
}
