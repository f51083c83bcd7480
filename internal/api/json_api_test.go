package api_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/tcloud"
	"repro/tropic"
)

// plainTxn is tropic.Txn without its JSON methods: encoding/json renders
// it by reflection over the struct tags, as the gateway did before
// records had a codec of their own.
type plainTxn tropic.Txn

type plainPage struct {
	Txns       []*plainTxn `json:"txns"`
	NextCursor string      `json:"nextCursor,omitempty"`
}

// getBody fetches url and checks what every record response carries: a
// 200, a JSON content type, and a Content-Length that matches the body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q", url, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("GET %s: Content-Length %q for a %d-byte body", url, cl, len(body))
	}
	return body
}

// sameAsReflection checks body is byte for byte what encoding/json's
// Encoder writes for the value it decodes into v by reflection.
func sameAsReflection(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s:\n got %s\nwant %s", what, body, want.Bytes())
	}
}

// TestAPIRecordJSONMatchesEncodingJSON: the record bodies the codec
// renders — GET /v1/txn, /v1/wait, /v1/txns pages and the SSE state
// events — are the bytes encoding/json writes from the struct tags.
func TestAPIRecordJSONMatchesEncodingJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	var ids []string
	for i, vm := range []string{"vm1", "vm,<&>\u2028"} {
		code, body := postJSON(t, srv.URL+"/v1/submit", map[string]any{
			"proc": tcloud.ProcSpawnVM, "args": spawnArgs(i, vm),
		})
		if code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, body)
		}
		var res api.SubmitResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	for _, id := range ids {
		sameAsReflection(t, "wait "+id, getBody(t, srv.URL+"/v1/wait?id="+id), new(plainTxn))
		sameAsReflection(t, "txn "+id, getBody(t, srv.URL+"/v1/txn?id="+id), new(plainTxn))
	}
	var rec plainTxn
	json.Unmarshal(getBody(t, srv.URL+"/v1/txn?id="+ids[1]), &rec)
	if rec.State != tropic.StateAborted || rec.Error == "" {
		t.Errorf("spawn of a VM named with a comma: %s %q, want an abort with its reason", rec.State, rec.Error)
	}

	page := new(plainPage)
	sameAsReflection(t, "page of 1", getBody(t, srv.URL+"/v1/txns?limit=1"), page)
	if len(page.Txns) != 1 || page.NextCursor == "" {
		t.Errorf("page of 1: %d records, cursor %q", len(page.Txns), page.NextCursor)
	}
	sameAsReflection(t, "full page", getBody(t, srv.URL+"/v1/txns"), new(plainPage))
	sameAsReflection(t, "empty page", getBody(t, srv.URL+"/v1/txns?state=failed"), new(plainPage))

	resp, err := http.Get(srv.URL + "/v1/watch?id=" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 2, 5*time.Second)
	if len(events) == 0 || events[0].event != "state" {
		t.Fatalf("watch: events %+v", events)
	}
	// An SSE data line is the record without the Encoder's newline.
	sameAsReflection(t, "watch state event", []byte(events[0].data+"\n"), new(plainTxn))
}
