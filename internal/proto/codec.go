package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"
)

// Message format. Queue items and commit-log entries are stored in a
// binary format with the conventions of the transaction-record codec
// (internal/txn): one format byte, then the fields; strings are a
// uvarint byte length and the bytes, ints are varints. Each message
// type has its own format byte, so an item read from the wrong queue is
// rejected rather than misread:
//
//	InputMsg        0x02 Kind Present [fields named in Present]
//	PhyMsg          0x03 TxnPath
//	CommitLogEntry  0x04 TxnPath
//
// Kind is a uvarint index into kindCodes, or len(kindCodes) followed by
// a literal string. Present is a uvarint bitmask over the optional
// fields of InputMsg in declaration order (bit 0 TxnPath … bit 11 Via);
// exactly the non-empty strings and non-zero ints are present and
// follow in that order, so a submit notice is its format byte, kind
// byte, mask byte and path.
//
// Decoding is strict: truncation, trailing bytes, an unknown format
// byte (JSON's '{' in particular), an unknown mask bit, a present field
// holding its zero value and a varint longer than it needs to be are all
// errors, so every accepted item re-encodes to the same bytes. Decoded strings alias the item's bytes
// and copy nothing: the data passed to a decoder must never be modified
// afterwards. Queue items and commit-log entries are store-owned bytes,
// which the store never modifies (store.Op).
const (
	inputMsgFormat    byte = 0x02
	phyMsgFormat      byte = 0x03
	commitEntryFormat byte = 0x04
)

// ErrFormat reports a stored message that is not in the format its
// decoder reads: a JSON item written before the binary format existed,
// or an item of another message type.
var ErrFormat = errors.New("unsupported message format")

var errTruncated = errors.New("truncated message")

// kindCodes interns the message kinds; index 0 is the empty kind.
var kindCodes = [...]MsgKind{
	"", KindSubmit, KindResult, KindSignal, KindReload, KindRepair,
	KindXVote, KindXDecide, KindXChildDone, KindXTimeout, KindXRestart,
}

// inputFields is the number of optional InputMsg fields, the bits of
// its Present mask.
const inputFields = 12

// Encode serializes the message. It is built in a stack buffer and
// copied out at its length, one allocation.
func (m InputMsg) Encode() []byte {
	var buf [128]byte
	b := append(buf[:0], inputMsgFormat)
	b = appendKind(b, m.Kind)
	b = binary.AppendUvarint(b, m.present())
	b = appendOpt(b, m.TxnPath)
	b = appendOpt(b, m.Target)
	b = appendOpt(b, m.Signal)
	b = appendOpt(b, m.Reply)
	b = appendOpt(b, m.Outcome)
	b = appendOpt(b, m.Error)
	b = appendOpt(b, m.Code)
	b = appendOptInt(b, m.UndoneThrough)
	b = appendOptInt(b, m.ChildIndex)
	b = appendOpt(b, m.Decision)
	b = appendOptInt(b, m.Epoch)
	b = appendOpt(b, m.Via)
	return bytes.Clone(b)
}

// present returns the Present mask: bit i is set iff the i-th optional
// field holds a non-zero value.
func (m InputMsg) present() uint64 {
	var mask uint64
	for i, set := range [inputFields]bool{
		m.TxnPath != "", m.Target != "", m.Signal != "", m.Reply != "",
		m.Outcome != "", m.Error != "", m.Code != "", m.UndoneThrough != 0,
		m.ChildIndex != 0, m.Decision != "", m.Epoch != 0, m.Via != "",
	} {
		if set {
			mask |= 1 << i
		}
	}
	return mask
}

// DecodeInputMsg parses an inputQ item. Its strings alias data.
func DecodeInputMsg(data []byte) (InputMsg, error) {
	var m InputMsg
	d, err := newDecoder(data, inputMsgFormat)
	if err != nil {
		return m, fmt.Errorf("proto: decode input msg: %w", err)
	}
	m.Kind = d.kind()
	mask := d.uvarint()
	if d.err == nil && mask >= 1<<inputFields {
		d.err = fmt.Errorf("unknown fields in mask 0x%x", mask)
	}
	m.TxnPath = d.optStr(mask, 0)
	m.Target = d.optStr(mask, 1)
	m.Signal = d.optStr(mask, 2)
	m.Reply = d.optStr(mask, 3)
	m.Outcome = d.optStr(mask, 4)
	m.Error = d.optStr(mask, 5)
	m.Code = d.optStr(mask, 6)
	m.UndoneThrough = d.optInt(mask, 7)
	m.ChildIndex = d.optInt(mask, 8)
	m.Decision = d.optStr(mask, 9)
	m.Epoch = d.optInt(mask, 10)
	m.Via = d.optStr(mask, 11)
	if err := d.finish(); err != nil {
		return InputMsg{}, fmt.Errorf("proto: decode input msg: %w", err)
	}
	return m, nil
}

// Encode serializes the message.
func (m PhyMsg) Encode() []byte { return encodePath(phyMsgFormat, m.TxnPath) }

// DecodePhyMsg parses a phyQ item. Its path aliases data.
func DecodePhyMsg(data []byte) (PhyMsg, error) {
	p, err := decodePath(data, phyMsgFormat)
	if err != nil {
		return PhyMsg{}, fmt.Errorf("proto: decode phy msg: %w", err)
	}
	return PhyMsg{TxnPath: p}, nil
}

// Encode serializes the entry.
func (e CommitLogEntry) Encode() []byte { return encodePath(commitEntryFormat, e.TxnPath) }

// DecodeCommitLogEntry parses a commit-log entry. Its path aliases
// data.
func DecodeCommitLogEntry(data []byte) (CommitLogEntry, error) {
	p, err := decodePath(data, commitEntryFormat)
	if err != nil {
		return CommitLogEntry{}, fmt.Errorf("proto: decode commit entry: %w", err)
	}
	return CommitLogEntry{TxnPath: p}, nil
}

// encodePath serializes a message that is one path after its format
// byte.
func encodePath(format byte, p string) []byte {
	var buf [64]byte
	return bytes.Clone(appendString(append(buf[:0], format), p))
}

// decodePath parses a message that is one path after its format byte.
func decodePath(data []byte, format byte) (string, error) {
	d, err := newDecoder(data, format)
	if err != nil {
		return "", err
	}
	p := d.str()
	return p, d.finish()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendOpt(b []byte, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(b, s)
}

func appendOptInt(b []byte, v int) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendVarint(b, int64(v))
}

func appendKind(b []byte, k MsgKind) []byte {
	for i, c := range kindCodes {
		if c == k {
			return binary.AppendUvarint(b, uint64(i))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(kindCodes)))
	return appendString(b, string(k))
}

// decoder reads b from off. The first error sticks: later reads return
// zero values, so a decode checks once at the end.
type decoder struct {
	b   []byte
	s   string // b viewed as a string, the backing store of decoded strings
	off int
	err error
}

// newDecoder checks the format byte that opens data and returns a
// decoder positioned after it.
func newDecoder(data []byte, format byte) (decoder, error) {
	if len(data) == 0 {
		return decoder{}, errors.New("empty message")
	}
	if data[0] != format {
		return decoder{}, fmt.Errorf("%w 0x%02x (want 0x%02x; messages written as JSON are not readable)",
			ErrFormat, data[0], format)
	}
	return decoder{b: data, s: unsafe.String(unsafe.SliceData(data), len(data)), off: 1}, nil
}

// finish reports the sticky error, or trailing bytes.
func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if d.varintErr(n) {
		return 0
	}
	d.off += n
	return v
}

// varintErr records a failed read of an n-byte varint at off: a
// truncated one, or one longer than its minimal encoding, which the
// encoder never writes.
func (d *decoder) varintErr(n int) bool {
	switch {
	case n <= 0:
		d.err = errTruncated
	case n > 1 && d.b[d.off+n-1] == 0:
		d.err = errors.New("non-minimal varint")
	default:
		return false
	}
	return true
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = errTruncated
	}
	if d.err != nil {
		return ""
	}
	start := d.off
	d.off += int(n)
	return d.s[start:d.off]
}

func (d *decoder) kind() MsgKind {
	i := d.uvarint()
	switch {
	case i < uint64(len(kindCodes)):
		return kindCodes[i]
	case i == uint64(len(kindCodes)):
		k := MsgKind(d.str())
		if d.err == nil && slices.Contains(kindCodes[:], k) {
			d.err = fmt.Errorf("interned kind %q written as a literal", k)
		}
		return k
	}
	if d.err == nil {
		d.err = fmt.Errorf("unknown kind code %d", i)
	}
	return ""
}

// optStr reads the string of optional field bit if mask names it. A
// present field must be non-empty: the encoder leaves empty ones out.
func (d *decoder) optStr(mask uint64, bit uint) string {
	if mask&(1<<bit) == 0 {
		return ""
	}
	s := d.str()
	if d.err == nil && s == "" {
		d.err = fmt.Errorf("field %d present but empty", bit)
	}
	return s
}

// optInt reads the int of optional field bit if mask names it. A
// present field must be non-zero.
func (d *decoder) optInt(mask uint64, bit uint) int {
	if mask&(1<<bit) == 0 || d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	switch {
	case d.varintErr(n):
	case int64(int(v)) != v:
		d.err = fmt.Errorf("integer %d out of range", v)
	case v == 0:
		d.err = fmt.Errorf("field %d present but zero", bit)
	default:
		d.off += n
		return int(v)
	}
	return 0
}
