package tcloud

import (
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/reconcile"
)

// RepairRules returns TCloud's pre-defined repair actions (§4): for each
// entity type, how to drive a divergent physical resource back to the
// logical (authoritative) state. The paper's example — a compute server
// reboot powering off its VMs, repaired by re-running startVM — is the
// TypeVM state rule.
func RepairRules() reconcile.Rules {
	return reconcile.Rules{
		TypeVM:     repairVM,
		TypeVMHost: repairVMHost,
		TypeImage:  repairImage,
		TypeVLAN:   repairVLAN,
		TypeStorageHost: func(string, *model.Node, *model.Node) []reconcile.Action {
			return nil // host-level attrs (capacity) are inventory, not runtime state
		},
	}
}

func repairVM(path string, logical, physical *model.Node) []reconcile.Action {
	host := model.ParentPath(path)
	name := nodeName(logical, physical)
	switch {
	case logical == nil:
		// Orphan VM left behind physically (e.g. failed undo): stop it
		// if needed and remove its configuration.
		var acts []reconcile.Action
		if physical.GetString("state") == VMRunning {
			acts = append(acts, reconcile.Action{
				Path: host, Name: "stopVM", Args: []string{name}, UndoOf: "orphan VM",
			})
		}
		return append(acts, reconcile.Action{
			Path: host, Name: "removeVM", Args: []string{name}, UndoOf: "orphan VM",
		})
	case physical == nil:
		// VM missing physically (e.g. lost by a crash): re-create from
		// the logical definition.
		acts := []reconcile.Action{{
			Path: host, Name: "createVM",
			Args:   []string{name, logical.GetString("image"), strconv.FormatInt(logical.GetInt("memMB"), 10)},
			UndoOf: "missing VM",
		}}
		if logical.GetString("state") == VMRunning {
			acts = append(acts, reconcile.Action{
				Path: host, Name: "startVM", Args: []string{name}, UndoOf: "missing VM",
			})
		}
		return acts
	default:
		// The paper's scenario: states diverge (host reboot powered the
		// VM off while the logical layer says running).
		ls, ps := logical.GetString("state"), physical.GetString("state")
		if ls == ps {
			return nil
		}
		action := "startVM"
		if ls == VMStopped {
			action = "stopVM"
		}
		return []reconcile.Action{{
			Path: host, Name: action, Args: []string{name}, UndoOf: "VM state divergence",
		}}
	}
}

func repairVMHost(path string, logical, physical *model.Node) []reconcile.Action {
	if logical == nil || physical == nil {
		return nil // host add/decommission is a reload concern
	}
	want, have := importSet(logical), importSet(physical)
	var acts []reconcile.Action
	for img := range want {
		if !have[img] {
			acts = append(acts, reconcile.Action{
				Path: path, Name: "importImage", Args: []string{img}, UndoOf: "missing import",
			})
		}
	}
	for img := range have {
		if !want[img] {
			// Deferred past child repairs: an orphan VM using this
			// import must be removed before the import can go.
			acts = append(acts, reconcile.Action{
				Path: path, Name: "unimportImage", Args: []string{img},
				UndoOf: "orphan import", Phase: reconcile.PhasePost,
			})
		}
	}
	return acts
}

func repairImage(path string, logical, physical *model.Node) []reconcile.Action {
	host := model.ParentPath(path)
	name := nodeName(logical, physical)
	switch {
	case logical == nil:
		// Orphan clone (failed spawn rollback): unexport and remove.
		var acts []reconcile.Action
		if physical.GetBool("exported") {
			acts = append(acts, reconcile.Action{
				Path: host, Name: "unexportImage", Args: []string{name}, UndoOf: "orphan image",
			})
		}
		if !physical.GetBool("template") {
			acts = append(acts, reconcile.Action{
				Path: host, Name: "removeImage", Args: []string{name}, UndoOf: "orphan image",
			})
		}
		return acts
	case physical == nil:
		// Volume lost (disk wiped out-of-band): re-clone and re-export
		// per the logical definition. Templates cannot be re-cloned
		// from themselves; their loss makes the host unusable, which
		// Repair reports via the convergence check.
		if logical.GetBool("template") {
			return nil
		}
		acts := []reconcile.Action{{
			Path: host, Name: "cloneImage", Args: []string{TemplateImage, name}, UndoOf: "missing image",
		}}
		if logical.GetBool("exported") {
			acts = append(acts, reconcile.Action{
				Path: host, Name: "exportImage", Args: []string{name}, UndoOf: "missing image",
			})
		}
		return acts
	default:
		le, pe := logical.GetBool("exported"), physical.GetBool("exported")
		if le == pe {
			return nil
		}
		action := "exportImage"
		if !le {
			action = "unexportImage"
		}
		return []reconcile.Action{{
			Path: host, Name: action, Args: []string{name}, UndoOf: "export divergence",
		}}
	}
}

func repairVLAN(path string, logical, physical *model.Node) []reconcile.Action {
	sw := model.ParentPath(path)
	name := nodeName(logical, physical)
	switch {
	case logical == nil:
		return []reconcile.Action{{
			Path: sw, Name: "deleteVLAN", Args: []string{name}, UndoOf: "orphan VLAN",
		}}
	case physical == nil:
		return []reconcile.Action{{
			Path: sw, Name: "createVLAN", Args: []string{name}, UndoOf: "missing VLAN",
		}}
	default:
		// Port membership repair needs per-port identity, which the
		// count-based model does not carry; VLAN existence is repaired,
		// port divergence is reported via the convergence check.
		return nil
	}
}

func nodeName(logical, physical *model.Node) string {
	if logical != nil {
		return logical.Name
	}
	return physical.Name
}

// importSet returns a host's imported images as a set.
func importSet(host *model.Node) map[string]bool {
	set := make(map[string]bool)
	for _, s := range strings.Split(host.GetString("imports"), ",") {
		if s != "" {
			set[s] = true
		}
	}
	return set
}
