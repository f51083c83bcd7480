package httpclient_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/tropic"
	"repro/tropic/httpclient"
)

// TestLyingContentLength: a gateway that declares more body than it
// sends fails the call with an error, and the client allocates in
// proportion to the bytes that arrived, not to the declared length.
func TestLyingContentLength(t *testing.T) {
	for _, tc := range []struct {
		name     string
		declared int64
		sent     int
	}{
		{"short by one", 1024 + 1, 1024},
		{"1GiB declared, 1KiB sent", 1 << 30, 1 << 10},
		{"1GiB declared, 256KiB sent", 1 << 30, 256 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := append([]byte(`{"id":"t-1","proc":"p","state":"committed","error":"`),
				bytes.Repeat([]byte{'x'}, tc.sent)...)[:tc.sent]
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", strconv.FormatInt(tc.declared, 10))
				w.Write(body)
			}))
			defer srv.Close()
			c := httpclient.New(srv.URL)
			defer c.Close()
			calls := map[string]func() error{
				"Get": func() error { _, err := c.Get("t-1"); return err },
				"List": func() error {
					_, err := c.List(tropic.ListOptions{})
					return err
				},
			}
			for name, call := range calls {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				err := call()
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s: no error for a body %d bytes short", name, tc.declared-int64(tc.sent))
				}
				// The buffer at most doubles past the bytes received, so
				// all its sizes together stay under four times them; the
				// allowance covers the connection and the request.
				limit := uint64(4*tc.sent + 256<<10)
				if got := after.TotalAlloc - before.TotalAlloc; got > limit {
					t.Errorf("%s: allocated %d bytes for %d received (%d declared), want at most %d",
						name, got, tc.sent, tc.declared, limit)
				}
			}
		})
	}
}
