package proto

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"
)

// inputMsgCases covers every kind the platform sends, with the fields
// each carries.
func inputMsgCases() []InputMsg {
	return []InputMsg{
		{Kind: KindSubmit, TxnPath: TxnsPath + "/t-0000000001"},
		{Kind: KindResult, TxnPath: TxnsPath + "/t-0000000002", Outcome: "aborted",
			Error: "device down", Code: "PHYS_ACTION_FAILED", UndoneThrough: 3},
		{Kind: KindSignal, TxnPath: TxnsPath + "/t-0000000003", Signal: "KILL"},
		{Kind: KindRepair, Target: "/vmRoot/h1", Reply: RepliesPath + "/r-0000000001"},
		{Kind: KindReload, Target: "/storageRoot/s1"},
		{Kind: KindXVote, TxnPath: TxnsPath + "/t-s1c00000004", ChildIndex: 1, Outcome: "prepared", Epoch: 2},
		{Kind: KindXDecide, TxnPath: TxnsPath + "/t-s2c00000005", Decision: "commit", Via: "ack"},
		{Kind: KindXChildDone, TxnPath: TxnsPath + "/t-s1c00000004", ChildIndex: 1, Outcome: "committed"},
		{Kind: KindXTimeout, TxnPath: TxnsPath + "/t-s1c00000004"},
		{Kind: KindXRestart, TxnPath: TxnsPath + "/t-s2c00000005", Epoch: -1},
		{Kind: "future", UndoneThrough: 1 << 40},
		{},
	}
}

// jsonInputMsg is InputMsg under the omitempty JSON encoding the binary
// format replaced; no encoded message may be larger than it.
type jsonInputMsg struct {
	Kind          MsgKind `json:"kind"`
	TxnPath       string  `json:"txnPath,omitempty"`
	Target        string  `json:"target,omitempty"`
	Signal        string  `json:"signal,omitempty"`
	Reply         string  `json:"reply,omitempty"`
	Outcome       string  `json:"outcome,omitempty"`
	Error         string  `json:"error,omitempty"`
	Code          string  `json:"code,omitempty"`
	UndoneThrough int     `json:"undoneThrough,omitempty"`
	ChildIndex    int     `json:"childIndex,omitempty"`
	Decision      string  `json:"decision,omitempty"`
	Epoch         int     `json:"epoch,omitempty"`
	Via           string  `json:"via,omitempty"`
}

func jsonSize(t testing.TB, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// checkInputMsg: m survives a round trip, encodes no larger than its
// JSON, and strict prefixes of its encoding and the encoding with a
// trailing byte are rejected.
func checkInputMsg(t *testing.T, m InputMsg) {
	t.Helper()
	b := m.Encode()
	back, err := DecodeInputMsg(b)
	if err != nil {
		t.Fatalf("decode %+v: %v", m, err)
	}
	if back != m {
		t.Fatalf("round trip: %+v != %+v", back, m)
	}
	if js := jsonSize(t, jsonInputMsg(m)); len(b) > js {
		t.Fatalf("%+v encodes to %d bytes, its JSON to %d", m, len(b), js)
	}
	// Strict prefixes: all of them near either end, where the framing
	// is; in between a cut falls inside the last string.
	for n := range len(b) {
		if n >= 64 && n < len(b)-64 {
			continue
		}
		if got, err := DecodeInputMsg(b[:n]); err == nil {
			t.Fatalf("%d-byte prefix of %+v decoded: %+v", n, m, got)
		}
	}
	if _, err := DecodeInputMsg(append(b, 0)); err == nil {
		t.Fatalf("%+v with a trailing byte decoded", m)
	}
}

func TestInputMsgRoundTrip(t *testing.T) {
	for _, m := range inputMsgCases() {
		checkInputMsg(t, m)
	}
}

// TestInputMsgStrict: an accepted item is exactly what the encoder
// writes — unknown mask bits, present zero values and a literal spelling
// of an interned kind are rejected.
func TestInputMsgStrict(t *testing.T) {
	for name, b := range map[string][]byte{
		"unknown mask bit":   {inputMsgFormat, 1, 0x80, 0x20},
		"empty present str":  {inputMsgFormat, 1, 1, 0},
		"zero present int":   {inputMsgFormat, 1, 0x80, 0x01, 0},
		"unknown kind code":  {inputMsgFormat, byte(len(kindCodes) + 1), 0},
		"non-minimal varint": {inputMsgFormat, 0x81, 0x00, 0},
		"literal known kind": append([]byte{inputMsgFormat, byte(len(kindCodes)), 6}, "submit"...),
		"phy msg":            PhyMsg{TxnPath: "/tropic/txns/t-1"}.Encode(),
		"empty":              nil,
	} {
		if m, err := DecodeInputMsg(b); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
}

// TestMessagesRejectJSON: a queue item or commit-log entry written as
// JSON, before the binary format existed, fails with ErrFormat rather
// than being misread.
func TestMessagesRejectJSON(t *testing.T) {
	input := []byte(`{"kind":"submit","txnPath":"/tropic/txns/t-0000000001"}`)
	path := []byte(`{"txnPath":"/tropic/txns/t-0000000001"}`)
	if _, err := DecodeInputMsg(input); !errors.Is(err, ErrFormat) {
		t.Errorf("DecodeInputMsg(JSON) err = %v, want ErrFormat", err)
	}
	if _, err := DecodePhyMsg(path); !errors.Is(err, ErrFormat) {
		t.Errorf("DecodePhyMsg(JSON) err = %v, want ErrFormat", err)
	}
	if _, err := DecodeCommitLogEntry(path); !errors.Is(err, ErrFormat) {
		t.Errorf("DecodeCommitLogEntry(JSON) err = %v, want ErrFormat", err)
	}
	// Each message type has its own format byte.
	if _, err := DecodeCommitLogEntry(PhyMsg{TxnPath: "/a"}.Encode()); !errors.Is(err, ErrFormat) {
		t.Errorf("phy msg read as a commit entry: err = %v", err)
	}
}

// TestMessageDecodesAllocateNothing: decoded strings alias the item, so
// reading a queue item or commit-log entry allocates nothing, and an
// encoding is one allocation.
func TestMessageDecodesAllocateNothing(t *testing.T) {
	for _, m := range inputMsgCases() {
		b := m.Encode()
		if n := testing.AllocsPerRun(100, func() { DecodeInputMsg(b) }); n != 0 {
			t.Errorf("DecodeInputMsg(%+v) allocates %.0f times", m, n)
		}
		if n := testing.AllocsPerRun(100, func() { m.Encode() }); n != 1 {
			t.Errorf("%+v.Encode() allocates %.0f times", m, n)
		}
	}
	phy := PhyMsg{TxnPath: TxnsPath + "/t-0000000001"}
	pm := phy.Encode()
	if n := testing.AllocsPerRun(100, func() { DecodePhyMsg(pm) }); n != 0 {
		t.Errorf("DecodePhyMsg allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { phy.Encode() }); n != 1 {
		t.Errorf("PhyMsg.Encode allocates %.0f times", n)
	}
	ce := CommitLogEntry{TxnPath: TxnsPath + "/t-0000000001"}.Encode()
	if n := testing.AllocsPerRun(100, func() { DecodeCommitLogEntry(ce) }); n != 0 {
		t.Errorf("DecodeCommitLogEntry allocates %.0f times", n)
	}
}

func FuzzInputMsg(f *testing.F) {
	for _, m := range inputMsgCases() {
		f.Add(m.Encode(), string(m.Kind), m.TxnPath, m.Target, m.Signal, m.Reply, m.Outcome,
			m.Error, m.Code, m.UndoneThrough, m.ChildIndex, m.Decision, m.Epoch, m.Via)
	}
	f.Add([]byte(`{"kind":"submit"}`), "", "", "", "", "", "", "", "", 0, 0, "", 0, "")
	f.Fuzz(func(t *testing.T, data []byte, kind, txnPath, target, signal, reply, outcome,
		errStr, code string, undone, child int, decision string, epoch int, via string) {
		checkInputMsg(t, InputMsg{Kind: MsgKind(kind), TxnPath: txnPath, Target: target,
			Signal: signal, Reply: reply, Outcome: outcome, Error: errStr, Code: code,
			UndoneThrough: undone, ChildIndex: child, Decision: decision, Epoch: epoch, Via: via})
		// Arbitrary bytes never panic the decoders; an accepted item
		// re-encodes to exactly its bytes.
		if m, err := DecodeInputMsg(data); err == nil {
			if b := m.Encode(); string(b) != string(data) {
				t.Fatalf("accepted % x re-encodes to % x", data, b)
			}
		}
		if pm, err := DecodePhyMsg(data); err == nil && string(pm.Encode()) != string(data) {
			t.Fatalf("accepted phy msg % x re-encodes differently", data)
		}
		if ce, err := DecodeCommitLogEntry(data); err == nil && string(ce.Encode()) != string(data) {
			t.Fatalf("accepted commit entry % x re-encodes differently", data)
		}
	})
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeInputMsg([]byte("nope")); err == nil {
		t.Error("input msg garbage decoded")
	}
	if _, err := DecodePhyMsg([]byte("{")); err == nil {
		t.Error("phy msg garbage decoded")
	}
	if _, err := DecodeCommitLogEntry([]byte("[]")); err == nil {
		t.Error("commit entry garbage decoded")
	}
	if _, err := DecodeReply([]byte("x")); err == nil {
		t.Error("reply garbage decoded")
	}
	if _, err := DecodeSnapshot([]byte("-")); err == nil {
		t.Error("snapshot garbage decoded")
	}
}

func TestPhyMsgAndCommitEntry(t *testing.T) {
	for _, p := range []string{"/tropic/txns/t-1", "", string(make([]byte, 200))} {
		b := PhyMsg{TxnPath: p}.Encode()
		pm, err := DecodePhyMsg(b)
		if err != nil || pm.TxnPath != p {
			t.Fatalf("phy: %+v %v", pm, err)
		}
		if js := jsonSize(t, map[string]string{"txnPath": p}); len(b) > js {
			t.Fatalf("phy msg of a %d-byte path: %d bytes, JSON %d", len(p), len(b), js)
		}
		ce, err := DecodeCommitLogEntry(CommitLogEntry{TxnPath: p}.Encode())
		if err != nil || ce.TxnPath != p {
			t.Fatalf("entry: %+v %v", ce, err)
		}
		for n := range len(b) {
			if _, err := DecodePhyMsg(b[:n]); err == nil {
				t.Fatalf("%d-byte prefix of a phy msg decoded", n)
			}
		}
		if _, err := DecodePhyMsg(append(b, 0)); err == nil {
			t.Fatal("phy msg with a trailing byte decoded")
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r, err := DecodeReply(Reply{OK: false, Error: "busy"}.Encode())
	if err != nil || r.OK || r.Error != "busy" {
		t.Fatalf("reply: %+v %v", r, err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := Snapshot{Tree: []byte(`{"name":"","type":"root"}`), LastCommitSeq: "c-0000000009"}
	back, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.LastCommitSeq != s.LastCommitSeq || string(back.Tree) != string(s.Tree) {
		t.Fatalf("snapshot: %+v", back)
	}
}

// Property: EncodePath/DecodePath invert each other for slash-separated
// model paths, and encoded names never contain '/'.
func TestPathEncodingProperty(t *testing.T) {
	f := func(segs []string) bool {
		path := ""
		for _, s := range segs {
			clean := ""
			for _, r := range s {
				if r != '/' && r != '|' && r > 31 && r < 127 {
					clean += string(r)
				}
			}
			if clean == "" {
				clean = "x"
			}
			path += "/" + clean
		}
		if path == "" {
			path = "/a"
		}
		enc := EncodePath(path)
		for i := 0; i < len(enc); i++ {
			if enc[i] == '/' {
				return false
			}
		}
		return DecodePath(enc) == path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPathEncodingKnown(t *testing.T) {
	if got := EncodePath("/vmRoot/h1/vm2"); got != "|vmRoot|h1|vm2" {
		t.Fatalf("encode = %q", got)
	}
	if got := DecodePath("|vmRoot|h1"); got != "/vmRoot/h1" {
		t.Fatalf("decode = %q", got)
	}
}
