package txn

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the JSON goldens in testdata/ from encoding/json's reflection")

// goldenPage mirrors tropic.TxnPage, the GET /v1/txns body, which this
// package cannot import.
type goldenPage struct {
	Txns       []*Txn `json:"txns"`
	NextCursor string `json:"nextCursor,omitempty"`
}

// jsonRef is Txn without any JSON methods of its own: encoding/json
// reads and writes it by reflection over the struct tags, the reference
// the goldens are written from.
type jsonRef Txn

// jsonRefPage is goldenPage over jsonRef.
type jsonRefPage struct {
	Txns       []*jsonRef `json:"txns"`
	NextCursor string     `json:"nextCursor,omitempty"`
}

// reflected returns a fixture as its reflection-only mirror.
func reflected(v any) any {
	switch v := v.(type) {
	case *Txn:
		return (*jsonRef)(v)
	case goldenPage:
		p := jsonRefPage{NextCursor: v.NextCursor}
		if v.Txns != nil {
			p.Txns = make([]*jsonRef, len(v.Txns))
			for i, t := range v.Txns {
				p.Txns[i] = (*jsonRef)(t)
			}
		}
		return p
	}
	panic("unknown fixture type")
}

// stamp returns a fixed instant ms milliseconds into a transaction, in
// zone, so the goldens do not depend on the local time zone.
func stamp(zone *time.Location, ms int) time.Time {
	return time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC).
		Add(time.Duration(ms) * time.Millisecond).In(zone)
}

// jsonFixtures are the records and pages the API renders, one golden
// file each, named after the fixture.
func jsonFixtures() []struct {
	name string
	v    any
} {
	utc, east := time.UTC, time.FixedZone("", 5*3600+30*60)
	host, store := "/vmRoot/vmHost00017", "/storageRoot/storageHost0004"
	spawn := &Txn{
		ID:    "t-s5c00000001",
		Proc:  "spawnVM",
		Args:  []string{store, host, "vm17", "1024"},
		State: StateCommitted,
		Log: []LogRecord{
			{Seq: 1, Path: store, Action: "cloneImage", Args: []string{"imageTemplate", "vm17-img"},
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
		SubmittedAt: stamp(utc, 0),
		CompletedAt: stamp(utc, 9),
		History: []StateStamp{
			{State: StateAccepted, At: stamp(utc, 1)},
			{State: StateStarted, At: stamp(utc, 3)},
			{State: StateCommitted, At: stamp(utc, 9)},
		},
	}
	aborted := &Txn{
		ID:    "t-s5c00000002",
		Proc:  "spawnVM",
		Args:  []string{store, host, "<vm>&\"x\"", ""},
		State: StateAborted,
		Log: []LogRecord{
			{Seq: 1, Path: store, Action: "cloneImage", Args: []string{"imageTemplate", "a\u2029b"},
				Undo: "removeImage", UndoArgs: []string{"a\u2029b"}},
		},
		UndoneThrough: 1,
		Error:         "cloneImage: <img> & \"tab\"\there\u2028next\xffbad\\ \x01\b\f\n\r é €",
		Code:          "txn.<code>&\u2028\xfe",
		SubmittedAt:   stamp(east, 0),
		CompletedAt:   stamp(east, 4),
		History: []StateStamp{
			{State: StateAccepted, At: stamp(east, 1)},
			{State: StateAborted, At: stamp(east, 4)},
		},
	}
	signalled := &Txn{
		ID:    "t-s5c00000003",
		Proc:  "stopVM",
		Args:  []string{host, "vm17"},
		State: StateStarted,
		Log: []LogRecord{
			{Seq: 1, Path: host, Action: "stopVM", Args: []string{"vm17"}, Undo: "startVM", UndoArgs: []string{"vm17"}},
		},
		SubmittedAt: stamp(utc, 0),
		History: []StateStamp{
			{State: StateAccepted, At: stamp(utc, 1)},
			{State: StateStarted, At: stamp(utc, 2)},
		},
		Signal: SignalTerm,
	}
	parent := &Txn{
		ID: "s0-t-s1c00000042", Proc: "spawnVM",
		Args:        []string{"/storageRoot/storageHost0000", "/vmRoot/vmHost00009", "vm9"},
		State:       StateCommitted,
		SubmittedAt: stamp(utc, 0),
		CompletedAt: stamp(utc, 20),
		History: []StateStamp{
			{State: StateAccepted, At: stamp(utc, 1)},
			{State: StateDeciding, At: stamp(utc, 4)},
			{State: StateCommitted, At: stamp(utc, 20)},
		},
		Children: []ChildRef{
			{ID: "s0-t-s1c00000042.c0", Shard: 0, State: StateCommitted},
			{ID: "s0-t-s1c00000042.c1", Shard: 3, State: StateCommitted, Epoch: 2},
			{ID: "s0-t-s1c00000042.c2", Shard: 5, State: StateAborted,
				Error: "voided <prepare>", Code: "txn.wounded"},
		},
		Decision: DecisionCommit,
	}
	child := &Txn{
		ID: "s0-t-s1c00000042.c1", Proc: "spawnVM",
		Args:         []string{"/storageRoot/storageHost0000", "/vmRoot/vmHost00009", "vm9"},
		State:        StateCommitted,
		Parent:       "s0-t-s1c00000042",
		Participants: []int{0, 3, 5},
		Log: []LogRecord{
			{Seq: 1, Path: "/storageRoot/storageHost0000", Action: "cloneImage",
				Args: []string{"imageTemplate", "vm9-img"}, Undo: "removeImage",
				UndoArgs: []string{"vm9-img"}, Foreign: true},
			{Seq: 2, Path: "/vmRoot/vmHost00009", Action: "migrateVM", Args: []string{"vm9"},
				Undo: "migrateVM", UndoPath: "/vmRoot/vmHost00001"},
		},
		SubmittedAt: stamp(utc, 2),
		CompletedAt: stamp(utc, 19),
		History: []StateStamp{
			{State: StatePrepared, At: stamp(utc, 3)},
			{State: StateStarted, At: stamp(utc, 5)},
			{State: StateCommitted, At: stamp(utc, 19)},
		},
		DecisionVia: "ack",
		Epoch:       2,
	}
	pending := &Txn{
		ID: "t-s5c00000004", Proc: "spawnVM",
		Args:        []string{store, host, "vm18"},
		State:       StateAccepted,
		SubmittedAt: time.Date(2026, 3, 14, 15, 9, 26, 0, utc),
		History:     []StateStamp{{State: StateAccepted, At: time.Date(2026, 3, 14, 15, 9, 26, 500000000, utc)}},
	}
	return []struct {
		name string
		v    any
	}{
		{"spawn", spawn},
		{"aborted", aborted},
		{"signalled", signalled},
		{"parent", parent},
		{"child", child},
		{"pending", pending},
		{"page-null", goldenPage{}},
		{"page-cursor", goldenPage{Txns: []*Txn{spawn, pending}, NextCursor: "t-s5c00000004"}},
	}
}

// encodeAsAPI renders v as the gateway writes a 200 body: encoding/json
// with its defaults (HTML-safe escapes) and a trailing newline.
func encodeAsAPI(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONGolden pins the API's record and page JSON to files written by
// encoding/json from the struct tags, so a change to how records are
// rendered cannot change a byte of the wire format. The fixtures go
// through json.Encoder as they are, the way the API rendered them before
// records had a codec; -update rewrites the files from the reflection
// mirror.
func TestJSONGolden(t *testing.T) {
	for _, fx := range jsonFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", fx.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, encodeAsAPI(t, reflected(fx.v)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeAsAPI(t, fx.v); !bytes.Equal(got, want) {
				t.Errorf("encoding differs from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
