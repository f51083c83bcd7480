package tcloud

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/tropic"
)

// sim applies an action through the schema directly (no platform).
func sim(t *testing.T, s *tropic.Schema, tree *tropic.Tree, path, action string, args ...string) error {
	t.Helper()
	_, def, err := s.ActionFor(tree, path, action)
	if err != nil {
		t.Fatalf("resolve %s at %s: %v", action, path, err)
	}
	return def.Simulate(tree, path, args)
}

func mustSim(t *testing.T, s *tropic.Schema, tree *tropic.Tree, path, action string, args ...string) {
	t.Helper()
	if err := sim(t, s, tree, path, action, args...); err != nil {
		t.Fatalf("%s at %s: %v", action, path, err)
	}
}

func smallModel(t *testing.T) (*tropic.Schema, *tropic.Tree) {
	t.Helper()
	return NewSchema(), Topology{ComputeHosts: 4}.BuildModel()
}

func TestBuildModelShape(t *testing.T) {
	tp := Topology{ComputeHosts: 10, ComputePerStorage: 4}
	tree := tp.BuildModel()
	if tp.StorageHosts() != 3 {
		t.Fatalf("storage hosts = %d", tp.StorageHosts())
	}
	for i := 0; i < 10; i++ {
		h, err := tree.Get(ComputeHostPath(i))
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		if h.GetInt("memMB") != 8192 || h.GetString("hypervisor") != "xen" {
			t.Fatalf("host attrs: %+v", h.Attrs)
		}
	}
	for i := 0; i < 3; i++ {
		if !tree.Exists(StorageHostPath(i) + "/" + TemplateImage) {
			t.Fatalf("storage %d missing template", i)
		}
	}
	if !tree.Exists(SwitchPath(0)) {
		t.Fatal("switch missing")
	}
}

func TestBuildModelMixedHypervisors(t *testing.T) {
	tree := Topology{ComputeHosts: 4, MixedHypervisors: true}.BuildModel()
	for i := 0; i < 4; i++ {
		h, _ := tree.Get(ComputeHostPath(i))
		want := "xen"
		if i%2 == 1 {
			want = "kvm"
		}
		if got := h.GetString("hypervisor"); got != want {
			t.Errorf("host %d hypervisor = %s, want %s", i, got, want)
		}
	}
}

func TestStorageForMapping(t *testing.T) {
	tp := Topology{ComputeHosts: 10, ComputePerStorage: 4}
	cases := map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 2, 9: 2}
	for host, want := range cases {
		if got := tp.StorageFor(host); got != want {
			t.Errorf("StorageFor(%d) = %d, want %d", host, got, want)
		}
	}
}

func TestBuildCloudMatchesModel(t *testing.T) {
	tp := Topology{ComputeHosts: 6, MixedHypervisors: true}
	cloud, err := tp.BuildCloud()
	if err != nil {
		t.Fatal(err)
	}
	// The device snapshot and the synthetic model must be identical —
	// that is what makes reload/repair diffs exact.
	snap := cloud.Snapshot()
	model := tp.BuildModel()
	var diffs []string
	model.Walk(func(p string, n *tropic.Node) error {
		sn, err := snap.Get(p)
		if err != nil {
			diffs = append(diffs, p+" missing in snapshot")
			return nil
		}
		if sn.Type != n.Type {
			diffs = append(diffs, p+" type differs")
		}
		return nil
	})
	if len(diffs) > 0 {
		t.Fatalf("model/snapshot diverge: %v", diffs)
	}
	if snap.Size() != model.Size() {
		t.Fatalf("sizes: snapshot=%d model=%d", snap.Size(), model.Size())
	}
}

func TestCloneImageSimulation(t *testing.T) {
	s, tree := smallModel(t)
	sp := StorageHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "img1")
	n, err := tree.Get(sp + "/img1")
	if err != nil {
		t.Fatal(err)
	}
	if n.GetBool("template") || n.GetBool("exported") || n.GetInt("sizeGB") != 10 {
		t.Fatalf("clone attrs: %+v", n.Attrs)
	}
	if err := sim(t, s, tree, sp, "cloneImage", "ghost", "img2"); err == nil {
		t.Fatal("clone from missing template succeeded")
	}
	if err := sim(t, s, tree, sp, "cloneImage", TemplateImage, "img1"); err == nil {
		t.Fatal("duplicate clone succeeded")
	}
}

func TestExportImportLifecycle(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "img")
	mustSim(t, s, tree, sp, "exportImage", "img")
	if err := sim(t, s, tree, sp, "exportImage", "img"); err == nil {
		t.Fatal("double export succeeded")
	}
	mustSim(t, s, tree, hp, "importImage", "img")
	if err := sim(t, s, tree, hp, "importImage", "img"); err == nil {
		t.Fatal("double import succeeded")
	}
	host, _ := tree.Get(hp)
	if host.GetString("imports") != "img" {
		t.Fatalf("imports = %q", host.GetString("imports"))
	}
	mustSim(t, s, tree, hp, "unimportImage", "img")
	if host.GetString("imports") != "" {
		t.Fatalf("imports after unimport = %q", host.GetString("imports"))
	}
}

func TestImportsCanonicalOrder(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	for _, img := range []string{"zz", "aa", "mm"} {
		mustSim(t, s, tree, sp, "cloneImage", TemplateImage, img)
		mustSim(t, s, tree, sp, "exportImage", img)
		mustSim(t, s, tree, hp, "importImage", img)
	}
	host, _ := tree.Get(hp)
	if got := host.GetString("imports"); got != "aa,mm,zz" {
		t.Fatalf("imports = %q, want sorted canonical form", got)
	}
}

// TestNamesWithCommaOrSlashRejected: a comma in an image name would
// split it into two entries of the host's import list, which then never
// matches it again, and a slash would make it a nested path; the actions
// that name images and VMs refuse both, leaving the model untouched.
func TestNamesWithCommaOrSlashRejected(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "ok-img")
	mustSim(t, s, tree, sp, "exportImage", "ok-img")
	mustSim(t, s, tree, hp, "importImage", "ok-img")
	host, _ := tree.Get(hp)
	for _, bad := range []string{"a,b-img", "a/b-img", ",", "/"} {
		if err := sim(t, s, tree, sp, "cloneImage", TemplateImage, bad); err == nil {
			t.Errorf("cloneImage %q succeeded", bad)
		}
		if err := sim(t, s, tree, hp, "importImage", bad); err == nil {
			t.Errorf("importImage %q succeeded", bad)
		}
		if err := sim(t, s, tree, hp, "createVM", bad, "ok-img", "1024"); err == nil {
			t.Errorf("createVM named %q succeeded", bad)
		}
		if err := sim(t, s, tree, hp, "createVM", "vm1", bad, "1024"); err == nil {
			t.Errorf("createVM of image %q succeeded", bad)
		}
	}
	if got := host.GetString("imports"); got != "ok-img" {
		t.Errorf("imports = %q, want ok-img", got)
	}
	for _, c := range host.Children {
		t.Errorf("host has child %q", c.Name)
	}
}

func TestCreateVMRequiresImport(t *testing.T) {
	s, tree := smallModel(t)
	hp := ComputeHostPath(0)
	if err := sim(t, s, tree, hp, "createVM", "vm1", "img", "1024"); err == nil {
		t.Fatal("createVM without import succeeded")
	}
}

func TestVMStateTransitions(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "img")
	mustSim(t, s, tree, sp, "exportImage", "img")
	mustSim(t, s, tree, hp, "importImage", "img")
	mustSim(t, s, tree, hp, "createVM", "vm1", "img", "2048")

	vm, _ := tree.Get(hp + "/vm1")
	if vm.GetString("state") != VMStopped || vm.GetString("hypervisor") != "xen" {
		t.Fatalf("new VM attrs: %+v", vm.Attrs)
	}
	mustSim(t, s, tree, hp, "startVM", "vm1")
	if err := sim(t, s, tree, hp, "startVM", "vm1"); err == nil {
		t.Fatal("double start succeeded")
	}
	// Running VMs cannot be removed, nor their import dropped.
	if err := sim(t, s, tree, hp, "removeVM", "vm1"); err == nil {
		t.Fatal("remove running VM succeeded")
	}
	if err := sim(t, s, tree, hp, "unimportImage", "img"); err == nil {
		t.Fatal("unimport in-use image succeeded")
	}
	mustSim(t, s, tree, hp, "stopVM", "vm1")
	mustSim(t, s, tree, hp, "removeVM", "vm1")
	if tree.Exists(hp + "/vm1") {
		t.Fatal("vm1 survived removeVM")
	}
}

func TestRemoveVMUndoCapturesPreState(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "img")
	mustSim(t, s, tree, sp, "exportImage", "img")
	mustSim(t, s, tree, hp, "importImage", "img")
	mustSim(t, s, tree, hp, "createVM", "vm1", "img", "2048")

	_, def, err := s.ActionFor(tree, hp, "removeVM")
	if err != nil {
		t.Fatal(err)
	}
	undoArgs := def.UndoArgs(tree, hp, []string{"vm1"})
	want := []string{"vm1", "img", "2048"}
	if len(undoArgs) != 3 {
		t.Fatalf("undo args = %v", undoArgs)
	}
	for i := range want {
		if undoArgs[i] != want[i] {
			t.Fatalf("undo args = %v, want %v", undoArgs, want)
		}
	}
}

func TestMigrateSimulationMovesEverything(t *testing.T) {
	s, tree := smallModel(t)
	sp, src, dst := StorageHostPath(0), ComputeHostPath(0), ComputeHostPath(1)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "img")
	mustSim(t, s, tree, sp, "exportImage", "img")
	mustSim(t, s, tree, src, "importImage", "img")
	mustSim(t, s, tree, src, "createVM", "vm1", "img", "1024")
	mustSim(t, s, tree, src, "startVM", "vm1")

	mustSim(t, s, tree, src, "migrateVM", "vm1", dst)
	if tree.Exists(src + "/vm1") {
		t.Fatal("vm1 still on source")
	}
	vm, err := tree.Get(dst + "/vm1")
	if err != nil || vm.GetString("state") != VMRunning {
		t.Fatalf("vm on dst: %v %v", vm, err)
	}
	srcHost, _ := tree.Get(src)
	dstHost, _ := tree.Get(dst)
	if srcHost.GetString("imports") != "" || dstHost.GetString("imports") != "img" {
		t.Fatalf("imports: src=%q dst=%q", srcHost.GetString("imports"), dstHost.GetString("imports"))
	}
	// Undo metadata: reverse migration runs at the destination.
	_, def, _ := s.ActionFor(tree, dst, "migrateVM")
	if at := def.UndoAt(src, []string{"vm1", dst}); at != dst {
		t.Fatalf("UndoAt = %s, want %s", at, dst)
	}
	if args := def.UndoArgs(tree, src, []string{"vm1", dst}); args[1] != src {
		t.Fatalf("UndoArgs = %v, want reverse to %s", args, src)
	}
}

func TestMigrateErrors(t *testing.T) {
	s, tree := smallModel(t)
	src, dst := ComputeHostPath(0), ComputeHostPath(1)
	if err := sim(t, s, tree, src, "migrateVM", "ghost", dst); err == nil {
		t.Fatal("migrate missing VM succeeded")
	}
	if err := sim(t, s, tree, src, "migrateVM", "ghost", "/storageRoot/storageHost0000"); err == nil {
		t.Fatal("migrate to non-host succeeded")
	}
}

func TestMemoryConstraint(t *testing.T) {
	s, tree := smallModel(t)
	sp, hp := StorageHostPath(0), ComputeHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "i1")
	mustSim(t, s, tree, sp, "exportImage", "i1")
	mustSim(t, s, tree, hp, "importImage", "i1")
	mustSim(t, s, tree, hp, "createVM", "big", "i1", "9000") // over 8192

	err := s.CheckConstraints(tree, hp+"/big")
	if err == nil || !strings.Contains(err.Error(), "vm-memory") {
		t.Fatalf("err = %v, want vm-memory violation", err)
	}
}

func TestTypeConstraint(t *testing.T) {
	s := NewSchema()
	tree := Topology{ComputeHosts: 2, MixedHypervisors: true}.BuildModel()
	// Hand-plant a xen VM onto the kvm host (what a cross-hypervisor
	// migrate would produce).
	kvmHost := ComputeHostPath(1)
	if _, err := tree.Create(kvmHost+"/alien", TypeVM, map[string]any{
		"memMB": int64(1024), "state": VMStopped, "hypervisor": "xen", "image": "x",
	}); err != nil {
		t.Fatal(err)
	}
	err := s.CheckConstraints(tree, kvmHost+"/alien")
	if err == nil || !strings.Contains(err.Error(), "vm-type") {
		t.Fatalf("err = %v, want vm-type violation", err)
	}
}

func TestStorageCapacityConstraint(t *testing.T) {
	s := NewSchema()
	tree := Topology{ComputeHosts: 4, StorageCapGB: 25, TemplateSizeGB: 10}.BuildModel()
	sp := StorageHostPath(0)
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "a") // 20/25
	if err := s.CheckConstraints(tree, sp); err != nil {
		t.Fatalf("within capacity: %v", err)
	}
	mustSim(t, s, tree, sp, "cloneImage", TemplateImage, "b") // 30/25
	err := s.CheckConstraints(tree, sp)
	if err == nil || !strings.Contains(err.Error(), "storage-capacity") {
		t.Fatalf("err = %v, want storage-capacity violation", err)
	}
}

func TestVLANSimulation(t *testing.T) {
	s, tree := smallModel(t)
	sw := SwitchPath(0)
	mustSim(t, s, tree, sw, "createVLAN", "100")
	mustSim(t, s, tree, sw, "attachPort", "100", "vm1.eth0")
	if err := sim(t, s, tree, sw, "deleteVLAN", "100"); err == nil {
		t.Fatal("delete VLAN with ports succeeded")
	}
	mustSim(t, s, tree, sw, "detachPort", "100", "vm1.eth0")
	if err := sim(t, s, tree, sw, "detachPort", "100", "vm1.eth0"); err == nil {
		t.Fatal("detach from empty VLAN succeeded")
	}
	mustSim(t, s, tree, sw, "deleteVLAN", "100")
	if tree.Exists(sw + "/100") {
		t.Fatal("VLAN survived delete")
	}
}

// TestEveryActionHasUndo enforces TROPIC's atomicity prerequisite: each
// registered action must name a compensating action that also exists on
// the same entity.
func TestEveryActionHasUndo(t *testing.T) {
	s := NewSchema()
	for _, entName := range s.EntityNames() {
		ent, _ := s.Lookup(entName)
		for name, def := range ent.Actions {
			if def.Undo == "" {
				t.Errorf("%s.%s has no undo", entName, name)
				continue
			}
			if _, ok := ent.Actions[def.Undo]; !ok {
				t.Errorf("%s.%s declares undo %q which is not registered", entName, name, def.Undo)
			}
		}
	}
}

// editImportsReference is the map+sort+join form of editImports: the
// import list the edit leaves on host, or the error it returns.
func editImportsReference(host *tropic.Node, hostPath, image string, add bool) (string, error) {
	set := importSet(host)
	if add {
		if set[image] {
			return "", fmt.Errorf("host %s already imported %q", hostPath, image)
		}
		set[image] = true
	} else {
		if !set[image] {
			return "", fmt.Errorf("host %s has no import %q", hostPath, image)
		}
		for _, c := range host.Children {
			if c.Type == TypeVM && c.GetString("image") == image {
				return "", fmt.Errorf("import %q in use by VM %q", image, c.Name)
			}
		}
		delete(set, image)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ","), nil
}

// TestEditImportsCanonical: random add/remove sequences — images that
// prefix each other, the empty name, imports held by a VM — leave the
// same import list and return the same errors as the map+sort+join
// form, and hasImport agrees with the set.
func TestEditImportsCanonical(t *testing.T) {
	images := []string{"", "a", "a-img", "ab", "b", "b-img", "img", "imageTemplate", "z"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, tree := smallModel(t)
		hp := ComputeHostPath(0)
		host, _ := tree.Get(hp)
		used := map[string]bool{}
		for i := 0; i < 200; i++ {
			image, add := images[rng.Intn(len(images))], rng.Intn(2) == 0
			if !used[image] && rng.Intn(20) == 0 {
				// A VM using image, so removing its import is refused (one
				// per image: which VM the error names is map order).
				used[image] = true
				vm := fmt.Sprintf("vm%d", i)
				if _, err := tree.Create(hp+"/"+vm, TypeVM, map[string]any{"image": image}); err != nil {
					t.Fatal(err)
				}
			}
			before := host.GetString("imports")
			want, wantErr := editImportsReference(host, hp, image, add)
			err := editImports(tree, hp, image, add)
			got := host.GetString("imports")
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d: edit(%q, %q, add=%v) err = %v, want %v", seed, before, image, add, err, wantErr)
			}
			if wantErr != nil {
				want = before
			}
			if got != want {
				t.Fatalf("seed %d: edit(%q, %q, add=%v) = %q, want %q", seed, before, image, add, got, want)
			}
			for _, img := range images {
				if hasImport(host, img) != importSet(host)[img] {
					t.Fatalf("seed %d: hasImport(%q, %q) disagrees with the set", seed, got, img)
				}
			}
		}
	}
}
