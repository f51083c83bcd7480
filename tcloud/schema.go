// Package tcloud is the cloud service the paper builds on TROPIC (§5):
// an EC2-like IaaS offering within one data center. End users spawn VMs
// from disk images and start, stop, and destroy them; operators migrate
// VMs between hosts to balance or consolidate load. Storage servers
// export block devices over the network, compute servers host the VMs,
// and a programmable switch layer provides VLANs.
//
// The package contributes three things to a tropic.Platform: the data
// model schema (entities, actions with undo, and the paper's two
// representative constraints — host memory capacity and hypervisor
// type), the stored procedures, and helpers to build matching logical
// models and simulated device clouds.
package tcloud

import (
	"fmt"
	"strconv"
	"strings"

	"repro/tropic"
)

// Entity type names (shared with the device layer's snapshots).
const (
	TypeStorageRoot = "root.storage"
	TypeVMRoot      = "root.vm"
	TypeNetRoot     = "root.net"
	TypeStorageHost = "storageHost"
	TypeVMHost      = "vmHost"
	TypeSwitch      = "switch"
	TypeImage       = "image"
	TypeVM          = "vm"
	TypeVLAN        = "vlan"
)

// Model path roots.
const (
	StorageRoot = "/storageRoot"
	VMRoot      = "/vmRoot"
	NetRoot     = "/netRoot"
)

// VM states.
const (
	VMStopped = "stopped"
	VMRunning = "running"
)

// NewSchema builds the TCloud data model schema: every entity, action
// (with its undo, as required for rollback), and constraint.
func NewSchema() *tropic.Schema {
	s := tropic.NewSchema()
	s.Entity(TypeStorageRoot)
	s.Entity(TypeVMRoot)
	s.Entity(TypeNetRoot)
	s.Entity(TypeImage)
	s.Entity(TypeVM)
	s.Entity(TypeVLAN)
	registerStorageHost(s)
	registerVMHost(s)
	registerSwitch(s)
	return s
}

// --- storageHost ------------------------------------------------------

func registerStorageHost(s *tropic.Schema) {
	e := s.Entity(TypeStorageHost)
	e.Action(&tropic.ActionDef{
		Name: "cloneImage",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 2 {
				return fmt.Errorf("cloneImage needs [template, clone], got %v", args)
			}
			template, clone := args[0], args[1]
			if err := checkName("cloneImage", "image", clone); err != nil {
				return err
			}
			tn, err := t.Get(path + "/" + template)
			if err != nil {
				return fmt.Errorf("cloneImage: no template %q on %s", template, path)
			}
			_, err = t.Create(path+"/"+clone, TypeImage, map[string]any{
				"sizeGB":   tn.GetInt("sizeGB"),
				"template": false,
				"exported": false,
			})
			return err
		},
		Undo:     "removeImage",
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string { return args[1:2] },
	})
	e.Action(&tropic.ActionDef{
		Name: "removeImage",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("removeImage needs [name]")
			}
			return t.Delete(path + "/" + args[0])
		},
		// TROPIC requires an undo for atomicity; removing a clone is
		// undone by re-cloning from the standard template, which yields
		// an equivalent fresh, unexported volume (TCloud only removes
		// images that were unexported earlier in the same transaction).
		Undo: "cloneImage",
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string {
			return []string{TemplateImage, args[0]}
		},
	})
	e.Action(&tropic.ActionDef{
		Name:     "exportImage",
		Simulate: setImageExported(true),
		Undo:     "unexportImage",
	})
	e.Action(&tropic.ActionDef{
		Name:     "unexportImage",
		Simulate: setImageExported(false),
		Undo:     "exportImage",
	})
	e.Constrain(tropic.Constraint{
		Name: "storage-capacity",
		Check: func(t *tropic.Tree, path string, n *tropic.Node) error {
			var sum int64
			for _, c := range n.Children {
				sum += c.GetInt("sizeGB")
			}
			if cap := n.GetInt("capGB"); sum > cap {
				return fmt.Errorf("images use %dGB > capacity %dGB", sum, cap)
			}
			return nil
		},
	})
}

func setImageExported(exported bool) func(*tropic.Tree, string, []string) error {
	return func(t *tropic.Tree, path string, args []string) error {
		if len(args) < 1 {
			return fmt.Errorf("image action needs [name]")
		}
		n, err := t.Get(path + "/" + args[0])
		if err != nil {
			return err
		}
		if n.GetBool("exported") == exported {
			return fmt.Errorf("image %q exported=%v already", args[0], exported)
		}
		n.Attrs["exported"] = exported
		return nil
	}
}

// TemplateImage is the standard golden image every storage host carries.
const TemplateImage = "imageTemplate"

// --- vmHost -----------------------------------------------------------

func registerVMHost(s *tropic.Schema) {
	e := s.Entity(TypeVMHost)
	e.Action(&tropic.ActionDef{
		Name: "importImage",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("importImage needs [image]")
			}
			if err := checkName("importImage", "image", args[0]); err != nil {
				return err
			}
			return editImports(t, path, args[0], true)
		},
		Undo: "unimportImage",
	})
	e.Action(&tropic.ActionDef{
		Name: "unimportImage",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("unimportImage needs [image]")
			}
			return editImports(t, path, args[0], false)
		},
		Undo: "importImage",
	})
	e.Action(&tropic.ActionDef{
		Name: "createVM",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 2 {
				return fmt.Errorf("createVM needs [name, image, memMB?]")
			}
			name, image := args[0], args[1]
			if err := checkName("createVM", "VM", name); err != nil {
				return err
			}
			if err := checkName("createVM", "image", image); err != nil {
				return err
			}
			mem := int64(1024)
			if len(args) >= 3 {
				m, err := strconv.ParseInt(args[2], 10, 64)
				if err != nil || m <= 0 {
					return fmt.Errorf("createVM: bad memMB %q", args[2])
				}
				mem = m
			}
			host, err := t.Get(path)
			if err != nil {
				return err
			}
			if !hasImport(host, image) {
				return fmt.Errorf("createVM: host %s has not imported %q", path, image)
			}
			_, err = t.Create(path+"/"+name, TypeVM, map[string]any{
				"image":      image,
				"memMB":      mem,
				"state":      VMStopped,
				"hypervisor": host.GetString("hypervisor"),
			})
			return err
		},
		Undo:     "removeVM",
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string { return args[:1] },
	})
	e.Action(&tropic.ActionDef{
		Name: "removeVM",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("removeVM needs [name]")
			}
			vm, err := t.Get(path + "/" + args[0])
			if err != nil {
				return err
			}
			if vm.GetString("state") == VMRunning {
				return fmt.Errorf("removeVM: %q is running", args[0])
			}
			return t.Delete(path + "/" + args[0])
		},
		// The inverse re-creates the VM definition from its pre-removal
		// attributes, captured before the forward action applies.
		Undo: "createVM",
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string {
			vm, err := t.Get(path + "/" + args[0])
			if err != nil {
				return args
			}
			return []string{args[0], vm.GetString("image"), strconv.FormatInt(vm.GetInt("memMB"), 10)}
		},
	})
	e.Action(&tropic.ActionDef{
		Name: "setVMMem",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 2 {
				return fmt.Errorf("setVMMem needs [name, memMB]")
			}
			vm, err := t.Get(path + "/" + args[0])
			if err != nil {
				return err
			}
			if vm.GetString("state") == VMRunning {
				return fmt.Errorf("setVMMem: %q must be stopped to resize", args[0])
			}
			mem, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || mem <= 0 {
				return fmt.Errorf("setVMMem: bad memMB %q", args[1])
			}
			vm.Attrs["memMB"] = mem
			return nil
		},
		// The inverse restores the pre-resize reservation, captured
		// before the forward action applies.
		Undo: "setVMMem",
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string {
			vm, err := t.Get(path + "/" + args[0])
			if err != nil {
				return args
			}
			return []string{args[0], strconv.FormatInt(vm.GetInt("memMB"), 10)}
		},
	})
	e.Action(&tropic.ActionDef{
		Name:     "startVM",
		Simulate: setVMState(VMRunning),
		Undo:     "stopVM",
	})
	e.Action(&tropic.ActionDef{
		Name:     "stopVM",
		Simulate: setVMState(VMStopped),
		Undo:     "startVM",
	})
	e.Action(&tropic.ActionDef{
		Name: "migrateVM",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 2 {
				return fmt.Errorf("migrateVM needs [name, dstHostPath]")
			}
			name, dstPath := args[0], args[1]
			vm, err := t.Get(path + "/" + name)
			if err != nil {
				return err
			}
			dst, err := t.Get(dstPath)
			if err != nil {
				return fmt.Errorf("migrateVM: destination: %w", err)
			}
			if dst.Type != TypeVMHost {
				return fmt.Errorf("migrateVM: %s is not a vmHost", dstPath)
			}
			if _, exists := dst.Children[name]; exists {
				return fmt.Errorf("migrateVM: %s already has VM %q", dstPath, name)
			}
			image := vm.GetString("image")
			// Move the guest first, then its network-attached disk
			// import, so the "import in use" guard sees a consistent
			// picture on both hosts.
			clone := vm.Clone()
			if err := t.Delete(path + "/" + name); err != nil {
				return err
			}
			if err := editImports(t, path, image, false); err != nil {
				return err
			}
			if err := editImports(t, dstPath, image, true); err != nil {
				return err
			}
			dst.Children[name] = clone
			return nil
		},
		Undo: "migrateVM",
		// The reverse migration executes at the destination host and
		// moves the VM back to the source (the forward action's own
		// path).
		UndoArgs: func(t *tropic.Tree, path string, args []string) []string {
			return []string{args[0], path}
		},
		UndoAt: func(path string, args []string) string {
			if len(args) >= 2 {
				return args[1]
			}
			return path
		},
		Touches: func(path string, args []string) []string {
			if len(args) >= 2 {
				return []string{args[1]}
			}
			return nil
		},
	})
	e.Constrain(tropic.Constraint{
		Name: "vm-memory",
		Check: func(t *tropic.Tree, path string, n *tropic.Node) error {
			var sum int64
			for _, c := range n.Children {
				if c.Type == TypeVM {
					sum += c.GetInt("memMB")
				}
			}
			if cap := n.GetInt("memMB"); sum > cap {
				return fmt.Errorf("VM memory %dMB exceeds host capacity %dMB", sum, cap)
			}
			return nil
		},
	})
	e.Constrain(tropic.Constraint{
		Name: "vm-type",
		Check: func(t *tropic.Tree, path string, n *tropic.Node) error {
			hv := n.GetString("hypervisor")
			for name, c := range n.Children {
				if c.Type == TypeVM && c.GetString("hypervisor") != hv {
					return fmt.Errorf("VM %q built for %q cannot run on %q host",
						name, c.GetString("hypervisor"), hv)
				}
			}
			return nil
		},
	})
}

func setVMState(state string) func(*tropic.Tree, string, []string) error {
	return func(t *tropic.Tree, path string, args []string) error {
		if len(args) < 1 {
			return fmt.Errorf("vm state action needs [name]")
		}
		vm, err := t.Get(path + "/" + args[0])
		if err != nil {
			return err
		}
		if vm.GetString("state") == state {
			return fmt.Errorf("VM %q already %s", args[0], state)
		}
		vm.Attrs["state"] = state
		return nil
	}
}

// checkName rejects an image or VM name the model cannot hold: a comma
// would split it into two entries of a host's comma-joined import list,
// and a slash would make it a path of several nodes.
func checkName(action, kind, name string) error {
	if strings.ContainsAny(name, ",/") {
		return fmt.Errorf("%s: %s name %q contains ',' or '/'", action, kind, name)
	}
	return nil
}

// editImports adds or removes an image from a host's import list, the
// canonical comma-joined, sorted set of its imported images (image names
// hold no comma: checkName). It edits the string in place: the image is inserted at
// its sorted position, or its entry is cut out, so the result is the
// canonical form of the new set with one string allocation at most.
func editImports(t *tropic.Tree, hostPath, image string, add bool) error {
	host, err := t.Get(hostPath)
	if err != nil {
		return err
	}
	// An imported empty name leaves a leading empty entry, which no
	// lookup matches and the next edit drops.
	list := strings.TrimPrefix(host.GetString("imports"), ",")
	at, found := importAt(list, image)
	var next string
	if add {
		if found {
			return fmt.Errorf("host %s already imported %q", hostPath, image)
		}
		switch {
		case list == "":
			next = image
		case at == len(list):
			next = list + "," + image
		default:
			next = list[:at] + image + "," + list[at:]
		}
	} else {
		if !found {
			return fmt.Errorf("host %s has no import %q", hostPath, image)
		}
		for _, c := range host.Children {
			if c.Type == TypeVM && c.GetString("image") == image {
				return fmt.Errorf("import %q in use by VM %q", image, c.Name)
			}
		}
		switch end := at + len(image); {
		case at == 0 && end == len(list):
			next = ""
		case end == len(list):
			next = list[:at-1]
		default:
			next = list[:at] + list[end+1:]
		}
	}
	host.Attrs["imports"] = next
	return nil
}

// importAt returns the byte offset of image's entry in the canonical
// import list, or, when it has none, of the first entry sorting after it
// (len(list) if no entry does).
func importAt(list, image string) (at int, found bool) {
	for off := 0; off < len(list); {
		entry, _, _ := strings.Cut(list[off:], ",")
		if entry >= image {
			return off, entry == image
		}
		off += len(entry) + 1
	}
	return len(list), false
}

// hasImport reports whether host has imported image.
func hasImport(host *tropic.Node, image string) bool {
	_, found := importAt(strings.TrimPrefix(host.GetString("imports"), ","), image)
	return found
}

// --- switch -----------------------------------------------------------

func registerSwitch(s *tropic.Schema) {
	e := s.Entity(TypeSwitch)
	e.Action(&tropic.ActionDef{
		Name: "createVLAN",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("createVLAN needs [id]")
			}
			_, err := t.Create(path+"/"+args[0], TypeVLAN, map[string]any{"ports": int64(0)})
			return err
		},
		Undo: "deleteVLAN",
	})
	e.Action(&tropic.ActionDef{
		Name: "deleteVLAN",
		Simulate: func(t *tropic.Tree, path string, args []string) error {
			if len(args) < 1 {
				return fmt.Errorf("deleteVLAN needs [id]")
			}
			v, err := t.Get(path + "/" + args[0])
			if err != nil {
				return err
			}
			if v.GetInt("ports") > 0 {
				return fmt.Errorf("VLAN %s has %d ports attached", args[0], v.GetInt("ports"))
			}
			return t.Delete(path + "/" + args[0])
		},
		Undo: "createVLAN",
	})
	e.Action(&tropic.ActionDef{
		Name:     "attachPort",
		Simulate: editVLANPorts(+1),
		Undo:     "detachPort",
	})
	e.Action(&tropic.ActionDef{
		Name:     "detachPort",
		Simulate: editVLANPorts(-1),
		Undo:     "attachPort",
	})
	e.Constrain(tropic.Constraint{
		Name: "vlan-capacity",
		Check: func(t *tropic.Tree, path string, n *tropic.Node) error {
			if max := n.GetInt("maxVLANs"); max > 0 && int64(len(n.Children)) > max {
				return fmt.Errorf("%d VLANs exceed table size %d", len(n.Children), max)
			}
			return nil
		},
	})
}

func editVLANPorts(delta int64) func(*tropic.Tree, string, []string) error {
	return func(t *tropic.Tree, path string, args []string) error {
		if len(args) < 2 {
			return fmt.Errorf("port action needs [vlan, port]")
		}
		v, err := t.Get(path + "/" + args[0])
		if err != nil {
			return err
		}
		next := v.GetInt("ports") + delta
		if next < 0 {
			return fmt.Errorf("VLAN %s has no port to detach", args[0])
		}
		v.Attrs["ports"] = next
		return nil
	}
}
