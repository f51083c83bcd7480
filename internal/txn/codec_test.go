package txn

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// at returns a fixed instant ms milliseconds into a transaction.
func at(ms int) time.Time {
	return time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.Local).
		Add(time.Duration(ms) * time.Millisecond)
}

// spawnRecord is a committed spawnVM record shaped like the ones the
// platform writes: the five-action log of Table 1 and a full history.
func spawnRecord() *Txn {
	host, store := "/vmRoot/vmHost00017", "/storageRoot/storageHost0004"
	return &Txn{
		ID:    "t-s5c00000001",
		Proc:  "spawnVM",
		Args:  []string{store, host, "vm17", "1024"},
		State: StateCommitted,
		Log: []LogRecord{
			{Seq: 1, Path: store, Action: "cloneImage", Args: []string{"template", "vm17-img"},
				Undo: "removeImage", UndoArgs: []string{"vm17-img"}},
			{Seq: 2, Path: store, Action: "exportImage", Args: []string{"vm17-img"},
				Undo: "unexportImage", UndoArgs: []string{"vm17-img"}},
			{Seq: 3, Path: host, Action: "importImage", Args: []string{"vm17-img"},
				Undo: "unimportImage", UndoArgs: []string{"vm17-img"}},
			{Seq: 4, Path: host, Action: "createVM", Args: []string{"vm17", "vm17-img", "1024"},
				Undo: "removeVM", UndoArgs: []string{"vm17"}},
			{Seq: 5, Path: host, Action: "startVM", Args: []string{"vm17"},
				Undo: "stopVM", UndoArgs: []string{"vm17"}},
		},
		SubmittedAt: at(0),
		CompletedAt: at(9),
		History: []StateStamp{
			{State: StateAccepted, At: at(1)},
			{State: StateStarted, At: at(3)},
			{State: StateCommitted, At: at(9)},
		},
	}
}

type codecCase struct {
	name string
	rec  *Txn
	// want is the decoded record when it differs from rec (empty
	// slices decode as nil).
	want *Txn
}

func codecCases() []codecCase {
	pending := spawnRecord()
	pending.State = StateStarted
	pending.CompletedAt = time.Time{}
	pending.History = pending.History[:2]
	pending.Signal = SignalTerm

	parent := &Txn{
		ID: "s0-t-s1c00000042", Proc: "spawnVM",
		Args:        []string{"/storageRoot/storageHost0000", "/vmRoot/vmHost00009", "vm9"},
		State:       StateDeciding,
		SubmittedAt: at(0),
		History:     []StateStamp{{State: StateAccepted, At: at(1)}, {State: StateDeciding, At: at(4)}},
		Children: []ChildRef{
			{ID: "s0-t-s1c00000042.c0", Shard: 0, State: StatePrepared},
			{ID: "s0-t-s1c00000042.c1", Shard: 3, State: StateAborted,
				Error: "constraint violated", Code: "txn.constraint_violation"},
			{ID: "s0-t-s1c00000042.c2", Shard: 5, Epoch: 2},
		},
		Decision: DecisionAbort,
	}

	child := &Txn{
		ID: "s0-t-s1c00000042.c1", Proc: "spawnVM",
		State:         StateFailed,
		Parent:        "s0-t-s1c00000042",
		Participants:  []int{0, 3, 5},
		UndoneThrough: 1,
		Error:         "undo failed",
		Code:          "txn.undo_failed",
		Log: []LogRecord{
			{Seq: 1, Path: "/storageRoot/storageHost0000", Action: "cloneImage",
				Args: []string{"template", "vm9-img"}, Undo: "removeImage",
				UndoArgs: []string{"vm9-img"}, Foreign: true},
			{Seq: 2, Path: "/vmRoot/vmHost00009", Action: "migrate", Undo: "migrate",
				UndoPath: "/vmRoot/vmHost00001"},
		},
		SubmittedAt: at(0),
		CompletedAt: at(12),
		History:     []StateStamp{{State: StatePrepared, At: at(2)}, {State: StateFailed, At: at(12)}},
		Signal:      SignalKill,
		DecisionVia: "ack",
		Epoch:       3,
	}

	empty := &Txn{
		ID: "t-0000000007", Proc: "noop", State: StateInitialized,
		Args: []string{}, Log: []LogRecord{{Seq: 1, Path: "/a", Action: "x", Args: []string{}, UndoArgs: []string{""}}},
		History: []StateStamp{}, Participants: []int{}, Children: []ChildRef{},
	}
	emptyWant := &Txn{
		ID: "t-0000000007", Proc: "noop", State: StateInitialized,
		Log: []LogRecord{{Seq: 1, Path: "/a", Action: "x", UndoArgs: []string{""}}},
	}

	odd := &Txn{
		ID: "t-ü\x00", State: State("someday"), Signal: Signal("HUP"),
		UndoneThrough: -3, Participants: []int{-1, 1 << 40},
		History:     []StateStamp{{State: State("someday"), At: time.Unix(0, 0)}},
		SubmittedAt: time.Unix(-1, 999999999),
	}

	// Stamps taken by Transition carry monotonic clock readings, which
	// storage drops.
	live := spawnRecord()
	live.State, live.SubmittedAt, live.CompletedAt, live.History = StateAccepted, time.Now(), time.Time{}, nil
	if err := live.Transition(StateStarted); err != nil {
		panic(err)
	}
	if err := live.Transition(StateCommitted); err != nil {
		panic(err)
	}

	return []codecCase{
		{name: "spawn", rec: spawnRecord()},
		{name: "live", rec: live},
		{name: "pending", rec: pending},
		{name: "parent", rec: parent},
		{name: "child", rec: child},
		{name: "zero", rec: &Txn{}},
		{name: "empty-slices", rec: empty, want: emptyWant},
		{name: "uninterned", rec: odd},
	}
}

// sameTxn reports how got differs from want: times compare with Equal,
// everything else exactly.
func sameTxn(t *testing.T, got, want *Txn) {
	t.Helper()
	times := func(x *Txn) []time.Time {
		ts := []time.Time{x.SubmittedAt, x.CompletedAt}
		for _, s := range x.History {
			ts = append(ts, s.At)
		}
		return ts
	}
	gt, wt := times(got), times(want)
	for i := range wt {
		if !gt[i].Equal(wt[i]) || gt[i].IsZero() != wt[i].IsZero() {
			t.Errorf("time %d = %v, want %v", i, gt[i], wt[i])
		}
	}
	strip := func(x *Txn) Txn {
		c := *x
		c.SubmittedAt, c.CompletedAt = time.Time{}, time.Time{}
		c.History = append([]StateStamp(nil), x.History...)
		for i := range c.History {
			c.History[i].At = time.Time{}
		}
		return c
	}
	if g, w := strip(got), strip(want); !reflect.DeepEqual(g, w) {
		t.Errorf("decoded\n %+v\nwant\n %+v", g, w)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want == nil {
				want = c.rec
			}
			b := c.rec.Encode()
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			sameTxn(t, got, want)
			// Storage keeps wall-clock time only, so the decoded latency
			// is the wall-clock difference of the original stamps.
			wantLatency := c.rec.Latency()
			if wantLatency != 0 {
				wantLatency = c.rec.CompletedAt.Round(0).Sub(c.rec.SubmittedAt.Round(0))
			}
			if got.Latency() != wantLatency {
				t.Errorf("Latency() = %v, want %v", got.Latency(), wantLatency)
			}
			if got.CompletedAt.IsZero() != c.rec.CompletedAt.IsZero() {
				t.Errorf("CompletedAt.IsZero() = %v", got.CompletedAt.IsZero())
			}
			sig, err := DecodeSignal(b)
			if err != nil || sig != got.Signal {
				t.Errorf("DecodeSignal = %q, %v; Decode().Signal = %q", sig, err, got.Signal)
			}
			st, err := DecodeState(b)
			if err != nil || st != got.State {
				t.Errorf("DecodeState = %q, %v; Decode().State = %q", st, err, got.State)
			}
			dec, err := DecodeDecision(b)
			if err != nil || dec != got.Decision {
				t.Errorf("DecodeDecision = %q, %v; Decode().Decision = %q", dec, err, got.Decision)
			}
			if again := got.Encode(); !bytes.Equal(again, b) {
				t.Errorf("re-encoding differs:\n%x\n%x", again, b)
			}
		})
	}
}

// TestDecodeStateAllocatesNothing: reading the state of a record with
// arguments, a log and a history allocates nothing.
func TestDecodeStateAllocatesNothing(t *testing.T) {
	b := spawnRecord().Encode()
	var st State
	n := testing.AllocsPerRun(100, func() {
		var err error
		if st, err = DecodeState(b); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("DecodeState allocates %.0f times per record", n)
	}
	if st != spawnRecord().State {
		t.Errorf("DecodeState = %q, want %q", st, spawnRecord().State)
	}
	if _, err := DecodeState(b[:3]); err == nil {
		t.Error("DecodeState of a 3-byte prefix succeeded")
	}
}

// TestDecodeDecisionAllocatesNothing: reading the decision of a parent
// record with a history and a ledger allocates nothing, undecided or
// decided.
func TestDecodeDecisionAllocatesNothing(t *testing.T) {
	for _, c := range codecCases() {
		b := c.rec.Encode()
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodeDecision(b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: DecodeDecision allocates %.0f times per record", c.name, n)
		}
		if _, err := DecodeDecision(b[:3]); err == nil {
			t.Errorf("%s: DecodeDecision of a 3-byte prefix succeeded", c.name)
		}
	}
}

// TestCodecPrefixes: every strict prefix of a valid record is an error,
// never a panic and never a shorter record.
func TestCodecPrefixes(t *testing.T) {
	for _, c := range codecCases() {
		b := c.rec.Encode()
		for n := 0; n < len(b); n++ {
			if got, err := Decode(b[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded: %+v", c.name, n, len(b), got)
			}
		}
		if _, err := Decode(append(b, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: trailing byte: err = %v", c.name, err)
		}
	}
}

// TestCodecRejectsJSON: a record written by the JSON codec that
// preceded the binary format fails with the format error rather than
// being misread.
func TestCodecRejectsJSON(t *testing.T) {
	legacy := []byte(`{"id":"t-0000000001","proc":"spawnVM","state":"committed","submittedAt":"2026-03-14T15:09:26Z","completedAt":"0001-01-01T00:00:00Z"}`)
	const want = "txn: decode: unsupported record format 0x7b"
	if _, err := Decode(legacy); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Decode(JSON) err = %v, want prefix %q", err, want)
	}
	if _, err := DecodeSignal(legacy); err == nil || !strings.Contains(err.Error(), "unsupported record format 0x7b") {
		t.Fatalf("DecodeSignal(JSON) err = %v", err)
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty record decoded")
	}
}

// TestCodecHostileCounts: a count larger than the bytes left is
// refused before it is allocated.
func TestCodecHostileCounts(t *testing.T) {
	b := []byte{recordFormat, 0, 0, 0}
	b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // Args count 2^63-1
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("huge count: err = %v", err)
	}
}

// allocBound is the most a decode of an n-byte input may allocate: the
// string copy of the input (1 byte per byte), the Log slice allocated up
// front (a 128-byte LogRecord per 8 bytes left, 16 per byte), the
// string slices inside the log records (a 16-byte header per 1-byte
// string, 16 per byte), and a fixed allowance for the Txn and an error.
// Every other slice is charged at most 16 bytes per byte left.
func allocBound(n int) uint64 { return uint64(33*n + 4096) }

// decodeAlloc returns the bytes the process allocated while data was
// decoded. The counter is process-wide, so it also charges whatever other
// goroutines (the fuzz engine, the runtime) allocated meanwhile; a
// measurement over the bound is retried, and only the least of three
// counts.
func decodeAlloc(data []byte) uint64 {
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Decode(data)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if try == 0 || got < least {
			least = got
		}
		if least <= allocBound(len(data)) {
			break
		}
	}
	return least
}

func FuzzDecode(f *testing.F) {
	for _, c := range codecCases() {
		f.Add(c.rec.Encode())
	}
	f.Add([]byte(`{"id":"t-1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got := decodeAlloc(data); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		rec, err := Decode(data)
		sig, serr := DecodeSignal(data)
		if err != nil {
			return
		}
		if serr != nil || sig != rec.Signal {
			t.Fatalf("DecodeSignal = %q, %v; Decode().Signal = %q", sig, serr, rec.Signal)
		}
		if st, err := DecodeState(data); err != nil || st != rec.State {
			t.Fatalf("DecodeState = %q, %v; Decode().State = %q", st, err, rec.State)
		}
		if dec, err := DecodeDecision(data); err != nil || dec != rec.Decision {
			t.Fatalf("DecodeDecision = %q, %v; Decode().Decision = %q", dec, err, rec.Decision)
		}
		again, err := Decode(rec.Encode())
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		sameTxn(t, again, rec)
	})
}

// BenchmarkTxnCodec measures the codec on a committed spawnVM record,
// the record every controller, worker and client read re-decodes.
func BenchmarkTxnCodec(b *testing.B) {
	rec := spawnRecord()
	data := rec.Encode()
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			rec.Encode()
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeSignal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeSignal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
