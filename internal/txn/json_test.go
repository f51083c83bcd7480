package txn

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sameAsEncodingJSON checks the codec against encoding/json on one
// input, read as a record and as a page: either both reject it, or both
// accept it with deeply equal results that re-encode to the same bytes.
func sameAsEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	var got Txn
	gerr := got.UnmarshalJSON(data)
	var want jsonRef
	werr := json.Unmarshal(data, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("record %q: codec error %v, encoding/json error %v", data, gerr, werr)
	}
	if gerr == nil {
		if !reflect.DeepEqual(got, Txn(want)) {
			t.Fatalf("record %q:\ncodec         %+v\nencoding/json %+v", data, got, Txn(want))
		}
		sameEncoding(t, "record", func() ([]byte, error) { return got.AppendJSON(nil) },
			func() ([]byte, error) { return json.Marshal(&want) })
	}

	var txns []*Txn
	var next string
	gerr = UnmarshalPageJSON(data, &txns, &next)
	var page jsonRefPage
	werr = json.Unmarshal(data, &page)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("page %q: codec error %v, encoding/json error %v", data, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if (txns == nil) != (page.Txns == nil) || len(txns) != len(page.Txns) || next != page.NextCursor {
		t.Fatalf("page %q: codec %d records (nil %v) cursor %q, encoding/json %d (nil %v) cursor %q",
			data, len(txns), txns == nil, next, len(page.Txns), page.Txns == nil, page.NextCursor)
	}
	for i, rec := range txns {
		w := page.Txns[i]
		if (rec == nil) != (w == nil) || rec != nil && !reflect.DeepEqual(*rec, Txn(*w)) {
			t.Fatalf("page %q: record %d: codec %+v, encoding/json %+v", data, i, rec, w)
		}
	}
	sameEncoding(t, "page", func() ([]byte, error) { return AppendPageJSON(nil, txns, next) },
		func() ([]byte, error) { return json.Marshal(&page) })
}

func sameEncoding(t *testing.T, what string, codec, reference func() ([]byte, error)) {
	t.Helper()
	got, gerr := codec()
	want, werr := reference()
	if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%s re-encodes differently:\ncodec         %s (%v)\nencoding/json %s (%v)", what, got, gerr, want, werr)
	}
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppendJSONGolden renders the golden fixtures with the codec
// directly, as the gateway does, and decodes the goldens back.
func TestAppendJSONGolden(t *testing.T) {
	for _, fx := range jsonFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			want := readGolden(t, fx.name)
			var got []byte
			var err error
			switch v := fx.v.(type) {
			case *Txn:
				got, err = v.AppendJSON(nil)
			case goldenPage:
				got, err = AppendPageJSON(nil, v.Txns, v.NextCursor)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, want) {
				t.Errorf("AppendJSON:\n got %s\nwant %s", got, want)
			}
			sameAsEncodingJSON(t, want)
		})
	}
}

// jsonSeeds are inputs the codec must judge as encoding/json does: the
// goldens reshaped, and the corners of the grammar and of field
// matching.
func jsonSeeds(t testing.TB) [][]byte {
	spawn := string(readGolden(t, "spawn"))
	seeds := [][]byte{
		// Keys in reverse order, whitespace everywhere.
		[]byte(` { "epoch" : 0 , "history" :[ {"at":"2026-03-14T15:09:26Z" , "state":"accepted"} ] ,` +
			"\n\t\r" + `"completedAt":"0001-01-01T00:00:00Z","submittedAt":"2026-03-14T15:09:26.5+01:00",` +
			`"log":[{"foreign":true,"undoPath":"/b","undoArgs":[],"undo":"u","args":["x"],"action":"a","path":"/a","seq":-0}],` +
			`"state":"committed","args":["a","b"],"proc":"p","id":"t"} `),
		// Unknown fields of every kind, nested.
		[]byte(`{"id":"t","extra":{"a":[1,2.5e-3,{"b":null}],"c":"\u00e9"},"more":[true,false,null,-1E+2],"x":""}`),
		// null for every field, then fields given twice.
		[]byte(`{"id":null,"proc":null,"args":null,"state":null,"log":null,"undoneThrough":null,"error":null,` +
			`"code":null,"submittedAt":null,"completedAt":null,"history":null,"signal":null,"parent":null,` +
			`"participants":null,"children":null,"decision":null,"decisionVia":null,"epoch":null}`),
		[]byte(`{"id":"a","id":null,"args":["x","y","z"],"args":["q"],"args":[null,null],"log":[{"seq":1,"path":"/p"},{"seq":2}],"log":[{"action":"b"}],"log":[{},{}]}`),
		[]byte(`{"args":["x"],"args":[],"args":[null],"participants":[1,null,3],"children":[{"id":"c","shard":2},null],"children":[null,{"epoch":1}]}`),
		[]byte(`{"txns":[{"id":"a","proc":"p"},null],"txns":[{"state":"x"},{"id":"b"},null],"nextCursor":"c","NextCursor":null}`),
		[]byte(`{"txns":[],"nextCursor":""}`),
		[]byte(`{"txns":null}`),
		[]byte(`{"txns":[null]}`),
		// Case-folded keys, Kelvin sign and long s included.
		[]byte(`{"ID":"a","Proc":"p","STATE":"s","sIgNaL":"TERM","ſignal":"KILL","decisionvia":"ack","EPOCH":2,"\u212aey":1}`),
		[]byte(`{"log":[{"SEQ":3,"UndoArgs":["u"],"FOREIGN":false}],"children":[{"ID":"c","Shard":1}]}`),
		// Escapes: \u in keys and values, surrogate pairs, lone and
		// mismatched surrogates, invalid UTF-8.
		[]byte(`{"\u0069d":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u00e9\u2028\/\b\f\n\r\t\"\\","proc":"a` + "\xff\xfe" + `b"}`),
		[]byte(`{"i` + "\xc3\x28" + `d":"x","error":"` + "\xe2\x82" + `"}`),
		// Rejected by both.
		[]byte(`{"id":"t"}x`),
		[]byte(`{"id":"t",}`),
		[]byte(`{"id":'t'}`),
		[]byte(`{"id":"\'"}`),
		[]byte(`{"id":"a` + "\x01" + `"}`),
		[]byte(`{"id":"\u12"}`),
		[]byte(`{"epoch":1.0}`),
		[]byte(`{"epoch":1e2}`),
		[]byte(`{"epoch":99999999999999999999}`),
		[]byte(`{"epoch":01}`),
		[]byte(`{"epoch":-}`),
		[]byte(`{"epoch":"1"}`),
		[]byte(`{"id":1}`),
		[]byte(`{"args":"a"}`),
		[]byte(`{"args":[1]}`),
		[]byte(`{"log":[[]]}`),
		[]byte(`{"log":{}}`),
		[]byte(`{"submittedAt":"2026-03-14"}`),
		[]byte(`{"submittedAt":"2026-03-14T15:09:26\u005a"}`),
		[]byte(`{"submittedAt":1}`),
		[]byte(`{"log":[{"foreign":"true"}]}`),
		[]byte(`{"log":[{"foreign":nul}]}`),
		[]byte(`{"txns":{}}`),
		[]byte(`{"txns":[1]}`),
		[]byte(`[]`),
		[]byte(`"t"`),
		[]byte(`null`),
		[]byte(` null `),
		[]byte(``),
		[]byte(`{`),
		[]byte(`{"id"`),
		[]byte(`{"id":"t"`),
		[]byte("\xef\xbb\xbf{}"),
		// Nesting at encoding/json's depth limit and one past it.
		[]byte(`{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`),
		[]byte(`{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`),
		[]byte(`{"txns":[{"x":` + strings.Repeat("{\"y\":", maxJSONDepth-3) + "1" + strings.Repeat("}", maxJSONDepth-3) + `}]}`),
		[]byte(`{"txns":[{"x":` + strings.Repeat("{\"y\":", maxJSONDepth-2) + "1" + strings.Repeat("}", maxJSONDepth-2) + `}]}`),
		// A golden with its keys upper-cased.
		[]byte(strings.NewReplacer(`"id"`, `"Id"`, `"state"`, `"State"`, `"log"`, `"LOG"`).Replace(spawn)),
	}
	for _, fx := range jsonFixtures() {
		seeds = append(seeds, readGolden(t, fx.name))
	}
	return seeds
}

func TestUnmarshalJSONMatchesEncodingJSON(t *testing.T) {
	for _, data := range jsonSeeds(t) {
		sameAsEncodingJSON(t, data)
	}
}

// FuzzTxnJSON checks the codec against encoding/json on arbitrary input
// read as a record and as a page.
func FuzzTxnJSON(f *testing.F) {
	for _, data := range jsonSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsEncodingJSON(t, data)
	})
}

// TestMarshalJSONUsesCodec pins that encoding/json renders a record
// through the codec, so every JSON of a Txn has one source.
func TestMarshalJSONUsesCodec(t *testing.T) {
	rec := spawnRecord()
	viaJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaJSON, direct) {
		t.Errorf("json.Marshal %s\nAppendJSON %s", viaJSON, direct)
	}
	if n := testing.AllocsPerRun(100, func() {
		var dec Txn
		if err := dec.UnmarshalJSON(direct); err != nil {
			t.Fatal(err)
		}
	}); n > 20 {
		t.Errorf("UnmarshalJSON of a spawn record: %v allocations, want at most 20", n)
	}
}

// TestUnmarshalJSONConcurrent decodes from several goroutines at once:
// the decoders and their scratch slices are pooled, and no record may
// see another's elements.
func TestUnmarshalJSONConcurrent(t *testing.T) {
	var inputs [][]byte
	var wants []Txn
	for _, fx := range jsonFixtures() {
		if _, ok := fx.v.(*Txn); ok {
			data := readGolden(t, fx.name)
			var want jsonRef
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			inputs, wants = append(inputs, data), append(wants, Txn(want))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(inputs)
				var got Txn
				if err := got.UnmarshalJSON(inputs[k]); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, wants[k]) {
					t.Errorf("goroutine %d: record %d decoded as %+v", g, k, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
