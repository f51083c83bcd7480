package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Record format (version recordFormat). A stored record is one format
// byte followed by the Txn fields in this order:
//
//	Signal ID Proc Args State Log UndoneThrough Error Code
//	SubmittedAt CompletedAt History Parent Participants Children
//	Decision DecisionVia Epoch
//
// A LogRecord is Seq Path Action Args Undo UndoArgs UndoPath Foreign, a
// StateStamp is State At, and a ChildRef is ID Shard State Error Code
// Epoch.
// Strings are a uvarint byte length and the bytes; slices a uvarint
// element count and the elements (an empty slice decodes as nil, as it
// did under JSON's omitempty); ints are varints; a bool is one byte 0
// or 1; a State is a uvarint index into stateCodes, or len(stateCodes)
// followed by a literal string; a time is varint seconds since the zero
// time.Time and uvarint nanoseconds, so the zero time costs two bytes.
//
// Signal comes first because workers poll it between physical actions:
// DecodeSignal reads the format byte and one string and stops there.
//
// Decoding is strict: every count is checked against the bytes left
// before anything is allocated for it, trailing bytes are an error, and
// a record whose first byte is not recordFormat — in particular a JSON
// record ('{', 0x7b) written before this format existed — is rejected.
const recordFormat byte = 0x01

// stateCodes interns the Figure 2 states; index 0 is the empty state
// of a child ledger entry that has not voted yet.
var stateCodes = [...]State{
	"", StateInitialized, StateAccepted, StateDeferred, StateStarted,
	StatePrepared, StateDeciding, StateCommitted, StateAborted, StateFailed,
}

// Minimum encoded sizes of the repeated elements, used to bound a
// decoded count by the bytes that remain.
const (
	minString     = 1 // length
	minInt        = 1
	minLogRecord  = 8 // seq, path, action, args, undo, undoArgs, undoPath, foreign
	minStateStamp = 3 // state, seconds, nanoseconds
	minChildRef   = 6 // id, shard, state, error, code, epoch
)

// zeroTimeUnix is the Unix time of the zero time.Time (January 1, year
// 1, UTC), the origin of encoded timestamps.
const zeroTimeUnix = -62135596800

var errTruncated = errors.New("truncated record")

// encodeBufs recycles Encode's scratch buffers; each encoding is copied
// out at its exact length, so a pooled buffer is never retained by a
// caller.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// Encode serializes the record for storage.
func (t *Txn) Encode() []byte {
	bp := encodeBufs.Get().(*[]byte)
	b := t.appendRecord((*bp)[:0])
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encodeBufs.Put(bp)
	return out
}

func (t *Txn) appendRecord(b []byte) []byte {
	b = append(b, recordFormat)
	b = appendString(b, string(t.Signal))
	b = appendString(b, t.ID)
	b = appendString(b, t.Proc)
	b = appendStrings(b, t.Args)
	b = appendState(b, t.State)
	b = binary.AppendUvarint(b, uint64(len(t.Log)))
	for i := range t.Log {
		r := &t.Log[i]
		b = binary.AppendVarint(b, int64(r.Seq))
		b = appendString(b, r.Path)
		b = appendString(b, r.Action)
		b = appendStrings(b, r.Args)
		b = appendString(b, r.Undo)
		b = appendStrings(b, r.UndoArgs)
		b = appendString(b, r.UndoPath)
		b = appendBool(b, r.Foreign)
	}
	b = binary.AppendVarint(b, int64(t.UndoneThrough))
	b = appendString(b, t.Error)
	b = appendString(b, t.Code)
	b = appendTime(b, t.SubmittedAt)
	b = appendTime(b, t.CompletedAt)
	b = binary.AppendUvarint(b, uint64(len(t.History)))
	for _, s := range t.History {
		b = appendState(b, s.State)
		b = appendTime(b, s.At)
	}
	b = appendString(b, t.Parent)
	b = binary.AppendUvarint(b, uint64(len(t.Participants)))
	for _, p := range t.Participants {
		b = binary.AppendVarint(b, int64(p))
	}
	b = binary.AppendUvarint(b, uint64(len(t.Children)))
	for _, c := range t.Children {
		b = appendString(b, c.ID)
		b = binary.AppendVarint(b, int64(c.Shard))
		b = appendState(b, c.State)
		b = appendString(b, c.Error)
		b = appendString(b, c.Code)
		b = binary.AppendVarint(b, int64(c.Epoch))
	}
	b = appendString(b, t.Decision)
	b = appendString(b, t.DecisionVia)
	return binary.AppendVarint(b, int64(t.Epoch))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendState(b []byte, s State) []byte {
	for i, c := range stateCodes {
		if c == s {
			return binary.AppendUvarint(b, uint64(i))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(stateCodes)))
	return appendString(b, string(s))
}

func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix()-zeroTimeUnix)
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// checkFormat validates the format byte that opens every record.
func checkFormat(data []byte) error {
	if len(data) == 0 {
		return errors.New("empty record")
	}
	if data[0] != recordFormat {
		return fmt.Errorf("unsupported record format 0x%02x (want 0x%02x; records written by the JSON codec are not readable)",
			data[0], recordFormat)
	}
	return nil
}

// Decode parses a stored record.
func Decode(data []byte) (*Txn, error) {
	if err := checkFormat(data); err != nil {
		return nil, fmt.Errorf("txn: decode: %w", err)
	}
	// Every decoded string is a substring of one copy of the record:
	// one allocation for all of them, at the price of keeping the whole
	// copy alive while any field is referenced.
	d := decoder{b: data, s: string(data), off: 1}
	t := new(Txn)
	t.Signal = Signal(d.str())
	t.ID = d.str()
	t.Proc = d.str()
	t.Args = d.strs()
	t.State = d.state()
	if n := d.count(minLogRecord); n > 0 {
		t.Log = make([]LogRecord, n)
		for i := range t.Log {
			r := &t.Log[i]
			r.Seq = d.int()
			r.Path = d.str()
			r.Action = d.str()
			r.Args = d.strs()
			r.Undo = d.str()
			r.UndoArgs = d.strs()
			r.UndoPath = d.str()
			r.Foreign = d.bool()
		}
	}
	t.UndoneThrough = d.int()
	t.Error = d.str()
	t.Code = d.str()
	t.SubmittedAt = d.time()
	t.CompletedAt = d.time()
	if n := d.count(minStateStamp); n > 0 {
		t.History = make([]StateStamp, n)
		for i := range t.History {
			t.History[i] = StateStamp{State: d.state(), At: d.time()}
		}
	}
	t.Parent = d.str()
	if n := d.count(minInt); n > 0 {
		t.Participants = make([]int, n)
		for i := range t.Participants {
			t.Participants[i] = d.int()
		}
	}
	if n := d.count(minChildRef); n > 0 {
		t.Children = make([]ChildRef, n)
		for i := range t.Children {
			c := &t.Children[i]
			c.ID = d.str()
			c.Shard = d.int()
			c.State = d.state()
			c.Error = d.str()
			c.Code = d.str()
			c.Epoch = d.int()
		}
	}
	t.Decision = d.str()
	t.DecisionVia = d.str()
	t.Epoch = d.int()
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("txn: decode: %w", d.err)
	}
	return t, nil
}

// DecodeSignal extracts only the operator-signal field of a stored
// record. Workers poll the signal between physical actions; Signal is
// the first field of the format, so this reads a prefix of the record
// and, for the known signals, allocates nothing.
func DecodeSignal(data []byte) (Signal, error) {
	if err := checkFormat(data); err != nil {
		return SignalNone, fmt.Errorf("txn: decode signal: %w", err)
	}
	d := decoder{b: data, off: 1}
	raw := d.bytes()
	if d.err != nil {
		return SignalNone, fmt.Errorf("txn: decode signal: %w", d.err)
	}
	switch string(raw) {
	case string(SignalNone):
		return SignalNone, nil
	case string(SignalTerm):
		return SignalTerm, nil
	case string(SignalKill):
		return SignalKill, nil
	}
	return Signal(raw), nil
}

// DecodeState extracts only the state of a stored record. Wait and
// WatchTxn wake-ups need the state alone to decide whether to deliver
// or return, so this skips Signal, ID, Proc and Args in place and stops
// after State; for the states of Figure 2 it allocates nothing.
func DecodeState(data []byte) (State, error) {
	if err := checkFormat(data); err != nil {
		return "", fmt.Errorf("txn: decode state: %w", err)
	}
	d := decoder{b: data, off: 1}
	// Skip Signal, ID and Proc, then each of Args.
	d.span()
	d.span()
	d.span()
	d.skipStrs()
	var st State
	switch i := d.uvarint(); {
	case d.err != nil:
	case i < uint64(len(stateCodes)):
		st = stateCodes[i]
	case i == uint64(len(stateCodes)):
		st = State(d.bytes())
	default:
		d.err = fmt.Errorf("unknown state code %d", i)
	}
	if d.err != nil {
		return "", fmt.Errorf("txn: decode state: %w", d.err)
	}
	return st, nil
}

// DecodeDecision extracts only the 2PC decision of a stored record. A
// participant's decision watch reads its coordinator's parent on every
// change and needs the full record only once it is decided, so this
// skips every field before Decision in place; for the empty, commit and
// abort decisions it allocates nothing.
func DecodeDecision(data []byte) (string, error) {
	if err := checkFormat(data); err != nil {
		return "", fmt.Errorf("txn: decode decision: %w", err)
	}
	d := decoder{b: data, off: 1}
	// Signal, ID, Proc, Args, State.
	d.span()
	d.span()
	d.span()
	d.skipStrs()
	d.skipState()
	for n := d.count(minLogRecord); n > 0; n-- {
		d.varint()
		d.span()
		d.span()
		d.skipStrs()
		d.span()
		d.skipStrs()
		d.span()
		d.bool()
	}
	// UndoneThrough, Error, Code, SubmittedAt, CompletedAt.
	d.varint()
	d.span()
	d.span()
	d.time()
	d.time()
	for n := d.count(minStateStamp); n > 0; n-- {
		d.skipState()
		d.time()
	}
	d.span() // Parent
	for n := d.count(minInt); n > 0; n-- {
		d.varint()
	}
	for n := d.count(minChildRef); n > 0; n-- {
		d.span()
		d.varint()
		d.skipState()
		d.span()
		d.span()
		d.varint()
	}
	raw := d.bytes()
	if d.err != nil {
		return "", fmt.Errorf("txn: decode decision: %w", d.err)
	}
	switch string(raw) {
	case "":
		return "", nil
	case DecisionCommit:
		return DecisionCommit, nil
	case DecisionAbort:
		return DecisionAbort, nil
	}
	return string(raw), nil
}

// decoder reads b from off. The first error sticks: later reads return
// zero values, so Decode checks once at the end.
type decoder struct {
	b   []byte
	s   string // string(b), the backing store of decoded strings
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v && d.err == nil {
		d.err = fmt.Errorf("integer %d out of range", v)
	}
	return int(v)
}

// count reads an element count and checks that the remaining bytes can
// hold that many elements of at least min bytes each.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64((len(d.b)-d.off)/min) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// span reads a string length and returns the bounds of its bytes.
func (d *decoder) span() (int, int) {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = errTruncated
	}
	if d.err != nil {
		return d.off, d.off
	}
	start := d.off
	d.off += int(n)
	return start, d.off
}

func (d *decoder) bytes() []byte {
	i, j := d.span()
	return d.b[i:j]
}

func (d *decoder) str() string {
	i, j := d.span()
	return d.s[i:j]
}

func (d *decoder) strs() []string {
	n := d.count(minString)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

// skipStrs skips a string slice without allocating.
func (d *decoder) skipStrs() {
	for n := d.count(minString); n > 0; n-- {
		d.span()
	}
}

// skipState skips a state without allocating.
func (d *decoder) skipState() {
	switch i := d.uvarint(); {
	case i == uint64(len(stateCodes)):
		d.span()
	case i > uint64(len(stateCodes)) && d.err == nil:
		d.err = fmt.Errorf("unknown state code %d", i)
	}
}

func (d *decoder) state() State {
	i := d.uvarint()
	switch {
	case i < uint64(len(stateCodes)):
		return stateCodes[i]
	case i == uint64(len(stateCodes)):
		return State(d.str())
	}
	if d.err == nil {
		d.err = fmt.Errorf("unknown state code %d", i)
	}
	return ""
}

func (d *decoder) time() time.Time {
	sec := d.varint()
	nsec := d.uvarint()
	if d.err == nil && nsec >= uint64(time.Second) {
		d.err = fmt.Errorf("nanoseconds %d out of range", nsec)
	}
	if d.err != nil || (sec == 0 && nsec == 0) {
		return time.Time{}
	}
	return time.Unix(sec+zeroTimeUnix, int64(nsec))
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.err = errTruncated
		return false
	}
	v := d.b[d.off]
	if v > 1 {
		d.err = fmt.Errorf("bool byte 0x%02x", v)
		return false
	}
	d.off++
	return v == 1
}
