package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCreateGetDelete(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/vmRoot", "root.vm", nil); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := tr.Create("/vmRoot/host1", "vmHost", map[string]any{"memMB": int64(8192)}); err != nil {
		t.Fatalf("create child: %v", err)
	}
	n, err := tr.Get("/vmRoot/host1")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if n.Type != "vmHost" || n.GetInt("memMB") != 8192 {
		t.Fatalf("node = %+v", n)
	}
	if err := tr.Delete("/vmRoot/host1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if tr.Exists("/vmRoot/host1") {
		t.Fatal("node still exists after delete")
	}
}

func TestCreateErrors(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/a/b", "t", nil); err == nil {
		t.Fatal("create under missing parent succeeded")
	}
	if _, err := tr.Create("/", "t", nil); err == nil {
		t.Fatal("create root succeeded")
	}
	tr.Create("/a", "t", nil)
	if _, err := tr.Create("/a", "t", nil); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if err := tr.Delete("/missing"); err == nil {
		t.Fatal("delete missing succeeded")
	}
}

func TestPathHelpers(t *testing.T) {
	if got := ParentPath("/a/b/c"); got != "/a/b" {
		t.Errorf("ParentPath = %q", got)
	}
	if got := ParentPath("/a"); got != "/" {
		t.Errorf("ParentPath(/a) = %q", got)
	}
	anc := Ancestors("/a/b/c")
	if len(anc) != 2 || anc[0] != "/a" || anc[1] != "/a/b" {
		t.Errorf("Ancestors = %v", anc)
	}
	if len(Ancestors("/a")) != 0 {
		t.Errorf("Ancestors(/a) = %v", Ancestors("/a"))
	}
	if Join("/", "x") != "/x" || Join("/a", "x") != "/a/x" {
		t.Error("Join misbehaves")
	}
}

// TestTreeCreateAllocs: Create cuts the path in place and sizes the
// new node's attributes up front, so one create costs the node and its
// two maps; a rejected create or delete gets the error it always did.
func TestTreeCreateAllocs(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create("/vmRoot", "x", nil); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]any{"image": "vm1-img", "memMB": int64(1024), "state": "stopped", "hypervisor": "xen"}
	n := testing.AllocsPerRun(100, func() {
		if _, err := tr.Create("/vmRoot/vm1", "vm", attrs); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete("/vmRoot/vm1"); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Errorf("Create+Delete: %.0f allocs, want at most 4", n)
	}
	for _, c := range []struct {
		path, create, delete string
	}{
		{"", `model: path "" must start with '/'`, `model: path "" must start with '/'`},
		{"/", "model: cannot create root", "model: cannot delete root"},
		{"/vmRoot/", `model: path "/vmRoot/" must not end with '/'`, `model: path "/vmRoot/" must not end with '/'`},
		{"/a//b", `model: path "/a//b" has empty component`, `model: path "/a//b" has empty component`},
		{"/nope/vm", "model: create /nope/vm: model: no node at /nope", "model: delete /nope/vm: model: no node at /nope"},
		{"/vmRoot", "model: node /vmRoot already exists", ""},
		{"/vmRoot/vm9", "", "model: no node at /vmRoot/vm9"},
	} {
		if c.create != "" {
			if _, err := tr.Create(c.path, "x", nil); err == nil || err.Error() != c.create {
				t.Errorf("Create(%q) = %v, want %s", c.path, err, c.create)
			}
		}
		if c.delete != "" {
			if err := tr.Delete(c.path); err == nil || err.Error() != c.delete {
				t.Errorf("Delete(%q) = %v, want %s", c.path, err, c.delete)
			}
		}
	}
}

// TestTreeGetAllocs: Get walks the path in place, so a hit allocates
// nothing, and a malformed path or a miss gets the error it always did.
func TestTreeGetAllocs(t *testing.T) {
	tr := NewTree()
	for _, p := range []string{"/vmRoot", "/vmRoot/host1", "/vmRoot/host1/vm3"} {
		if _, err := tr.Create(p, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/", "/vmRoot", "/vmRoot/host1/vm3"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := tr.Get(p); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Get(%q) hit: %.0f allocs, want 0", p, n)
		}
	}
	for p, want := range map[string]string{
		"":                    `model: path "" must start with '/'`,
		"vmRoot":              `model: path "vmRoot" must start with '/'`,
		"/vmRoot/":            `model: path "/vmRoot/" must not end with '/'`,
		"//":                  `model: path "//" must not end with '/'`,
		"/nope//vm3":          `model: path "/nope//vm3" has empty component`,
		"/vmRoot/host2":       "model: no node at /vmRoot/host2",
		"/vmRoot/host1/vm3/x": "model: no node at /vmRoot/host1/vm3/x",
	} {
		if _, err := tr.Get(p); err == nil || err.Error() != want {
			t.Errorf("Get(%q) = %v, want %s", p, err, want)
		}
	}
}

func TestBadPaths(t *testing.T) {
	for _, p := range []string{"", "a", "/a/", "//x", "/a//b"} {
		if _, err := SplitPath(p); err == nil {
			t.Errorf("SplitPath(%q) accepted", p)
		}
	}
}

func TestAttrAccessors(t *testing.T) {
	n := NewNode("x", "t")
	n.Attrs["s"] = "str"
	n.Attrs["i"] = int64(7)
	n.Attrs["f"] = float64(9) // as after JSON decode
	n.Attrs["b"] = true
	if n.GetString("s") != "str" || n.GetInt("i") != 7 || n.GetInt("f") != 9 || !n.GetBool("b") {
		t.Fatalf("accessors: %+v", n.Attrs)
	}
	if n.GetString("missing") != "" || n.GetInt("missing") != 0 || n.GetBool("missing") {
		t.Fatal("missing attrs should zero")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tr := buildSampleTree(t)
	data, err := tr.MarshalSnapshot()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !Equal(tr.Root, back.Root) {
		t.Fatal("round-tripped tree differs")
	}
	// Integer attributes must stay comparable after the round trip.
	n, _ := back.Get("/vmRoot/host1")
	if n.GetInt("memMB") != 8192 {
		t.Fatalf("memMB = %v", n.Attrs["memMB"])
	}
}

func TestCloneIsolation(t *testing.T) {
	tr := buildSampleTree(t)
	cp := tr.Clone()
	n, _ := cp.Get("/vmRoot/host1")
	n.Attrs["memMB"] = int64(1)
	cp.Delete("/vmRoot/host1/vm1")
	orig, _ := tr.Get("/vmRoot/host1")
	if orig.GetInt("memMB") != 8192 {
		t.Fatal("clone shares attrs with original")
	}
	if !tr.Exists("/vmRoot/host1/vm1") {
		t.Fatal("clone shares children with original")
	}
}

func TestWalkOrderAndSize(t *testing.T) {
	tr := buildSampleTree(t)
	var paths []string
	err := tr.Walk(func(p string, n *Node) error {
		paths = append(paths, p)
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if len(paths) != tr.Size() {
		t.Fatalf("walk visited %d, size %d", len(paths), tr.Size())
	}
	// Depth-first: parent before child.
	idx := make(map[string]int)
	for i, p := range paths {
		idx[p] = i
	}
	for _, p := range paths {
		pp := ParentPath(p)
		if pp == "/" {
			continue
		}
		if idx[pp] > idx[p] {
			t.Fatalf("parent %s visited after child %s", pp, p)
		}
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := buildSampleTree(t)
	b := buildSampleTree(t)
	if !Equal(a.Root, b.Root) {
		t.Fatal("identical trees reported unequal")
	}
	n, _ := b.Get("/vmRoot/host1/vm1")
	n.Attrs["state"] = "stopped"
	if Equal(a.Root, b.Root) {
		t.Fatal("attr difference missed")
	}
	b = buildSampleTree(t)
	b.Delete("/vmRoot/host1/vm1")
	if Equal(a.Root, b.Root) {
		t.Fatal("structural difference missed")
	}
}

// Property: snapshot round trip preserves Equal for arbitrary-ish trees.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(names []string, mem uint16) bool {
		tr := NewTree()
		tr.Create("/r", "root.vm", nil)
		for _, raw := range names {
			name := sanitize(raw)
			if name == "" {
				continue
			}
			tr.Create("/r/"+name, "vmHost", map[string]any{"memMB": int64(mem)})
		}
		data, err := tr.MarshalSnapshot()
		if err != nil {
			return false
		}
		back, err := UnmarshalSnapshot(data)
		if err != nil {
			return false
		}
		return Equal(tr.Root, back.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() > 8 {
		return b.String()[:8]
	}
	return b.String()
}

func buildSampleTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	mustCreate := func(path, typ string, attrs map[string]any) {
		if _, err := tr.Create(path, typ, attrs); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
	}
	mustCreate("/vmRoot", "root.vm", nil)
	mustCreate("/vmRoot/host1", "vmHost", map[string]any{"memMB": int64(8192), "hypervisor": "xen"})
	mustCreate("/vmRoot/host1/vm1", "vm", map[string]any{"state": "running", "memMB": int64(1024)})
	mustCreate("/vmRoot/host2", "vmHost", map[string]any{"memMB": int64(4096), "hypervisor": "kvm"})
	mustCreate("/storageRoot", "root.storage", nil)
	mustCreate("/storageRoot/s1", "storageHost", map[string]any{"capGB": int64(500)})
	mustCreate("/storageRoot/s1/img1", "image", map[string]any{"sizeGB": int64(10)})
	return tr
}
