package shard

import (
	"path/filepath"
	"testing"
)

// TestRouterOneShardNamesUnqualified pins the one-shard format: ids,
// List cursors, data directories and component names are exactly what
// the platform used before it had shards.
func TestRouterOneShardNamesUnqualified(t *testing.T) {
	r := NewRouter(NewMap(1))
	for _, id := range []string{"t-s5c00000001", "t-x5c00000001.c0", "s0-t-1", ""} {
		if got := r.QualifyID(0, id); got != id {
			t.Errorf("QualifyID(0, %q) = %q, want it unchanged", id, got)
		}
		if s, local, ok := r.ResolveID(id); !ok || s != 0 || local != id {
			t.Errorf("ResolveID(%q) = (%d, %q, %v), want (0, %q, true)", id, s, local, ok, id)
		}
		if got := r.FormatCursor(0, id); got != id {
			t.Errorf("FormatCursor(0, %q) = %q, want it unchanged", id, got)
		}
		if s, local, ok := r.ParseCursor(id); !ok || s != 0 || local != id {
			t.Errorf("ParseCursor(%q) = (%d, %q, %v), want (0, %q, true)", id, s, local, ok, id)
		}
	}
	if got := r.Dir("/data", 0); got != "/data" {
		t.Errorf("Dir = %q, want the base directory", got)
	}
	if got := r.NamePrefix(0); got != "" {
		t.Errorf("NamePrefix = %q, want none", got)
	}
}

// TestRouterShardedNames: over several shards ids and cursors carry
// their shard and round-trip, malformed ones are refused, and each
// shard gets its own directory and name prefix.
func TestRouterShardedNames(t *testing.T) {
	r := NewRouter(NewMap(3))
	for s := 0; s < 3; s++ {
		for _, local := range []string{"t-s5c00000001", ""} {
			if local != "" {
				id := r.QualifyID(s, local)
				if id != FormatID(s, local) {
					t.Fatalf("QualifyID(%d, %q) = %q, want FormatID's form", s, local, id)
				}
				if gs, gl, ok := r.ResolveID(id); !ok || gs != s || gl != local {
					t.Fatalf("ResolveID(%q) = (%d, %q, %v)", id, gs, gl, ok)
				}
			}
			c := r.FormatCursor(s, local)
			if gs, gl, ok := r.ParseCursor(c); !ok || gs != s || gl != local {
				t.Fatalf("ParseCursor(%q) = (%d, %q, %v)", c, gs, gl, ok)
			}
		}
	}
	for _, bad := range []string{"", "t-1", "s3:t-1", "s:t-1", "sx:t-1", "s1", "x1:t-1"} {
		if _, _, ok := r.ParseCursor(bad); ok {
			t.Errorf("ParseCursor(%q) = ok, want reject", bad)
		}
	}
	if _, _, ok := r.ResolveID("t-s5c00000001"); ok {
		t.Error("ResolveID accepted an unqualified id on a 3-shard map")
	}
	if got, want := r.Dir("/data", 2), filepath.Join("/data", "shard-02"); got != want {
		t.Errorf("Dir = %q, want %q", got, want)
	}
	if got := r.Dir("", 2); got != "" {
		t.Errorf("Dir of an in-memory store = %q, want empty", got)
	}
	if got := r.NamePrefix(2); got != "s2-" {
		t.Errorf("NamePrefix = %q, want s2-", got)
	}
}
