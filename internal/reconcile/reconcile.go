// Package reconcile implements TROPIC's two eventual-consistency
// mechanisms for cross-layer divergence (paper §4):
//
//   - reload — physical→logical synchronization: device state is
//     retrieved and replaces the corresponding logical subtree, subject
//     to constraint validation and non-interference with outstanding
//     transactions;
//   - repair — logical→physical synchronization: device state is
//     retrieved, diffed against the logical subtree, and pre-defined
//     repair actions drive the devices back to the logical state (e.g.
//     startVM for every VM a host reboot powered off).
//
// Divergence arises from failed undo rollbacks, out-of-band changes by
// operators, and crashes. Nodes found divergent are marked inconsistent
// (denying transactions) until a reconciliation succeeds; resources
// whose reconciliation fails are marked unusable.
package reconcile

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/lock"
	"repro/internal/model"
)

// Snapshotter exposes the physical data model: the device layer's
// current truth. device.Cloud implements it.
type Snapshotter interface {
	Snapshot() *model.Tree
}

// Executor performs physical repair actions; device.Cloud implements it.
type Executor interface {
	Execute(path, action string, args []string) error
}

// Phase orders a repair action relative to the node's descendants.
type Phase int

const (
	// PhasePre actions run before the node's children are repaired
	// (e.g. adding a missing disk import a child VM will need).
	PhasePre Phase = iota
	// PhasePost actions run after the children (e.g. dropping an
	// orphan import only once the orphan VM using it is removed).
	PhasePost
)

// Action is one physical repair step.
type Action struct {
	Path   string
	Name   string
	Args   []string
	UndoOf string // human-readable cause, for logs
	Phase  Phase
}

// RepairRule derives the repair actions for one divergent node.
// logical is nil when the node exists only physically (an orphan to
// decommission); physical is nil when it exists only logically (a
// resource to re-create). Both non-nil means attributes differ.
type RepairRule func(path string, logical, physical *model.Node) []Action

// Rules maps entity type names to their repair rules.
type Rules map[string]RepairRule

// Reconciler implements controller.Reconciler over a simulated (or
// real) device substrate.
type Reconciler struct {
	phys  Snapshotter
	exec  Executor
	rules Rules
}

// New builds a reconciler. phys supplies physical snapshots, exec
// performs repair actions, rules derive per-entity repairs.
func New(phys Snapshotter, exec Executor, rules Rules) *Reconciler {
	return &Reconciler{phys: phys, exec: exec, rules: rules}
}

var _ controller.Reconciler = (*Reconciler)(nil)

// ErrBusy reports that outstanding transactions hold locks under the
// reconciliation target; retry after they complete.
var ErrBusy = errors.New("reconcile: target busy with outstanding transactions")

// checkIdle refuses to reconcile under in-flight transactions: the
// controller grants us an exclusive view by construction (we run on its
// event goroutine), but started transactions already hold locks whose
// simulated effects would be clobbered.
func checkIdle(c *controller.Controller, target string) error {
	if ce := c.LockManager().WouldConflict("__reconcile__",
		[]lock.Request{{Path: target, Mode: lock.W}}); ce != nil {
		return fmt.Errorf("%w: %v", ErrBusy, ce)
	}
	return nil
}

// Reload replaces the logical subtree at target with the physical
// state. Constraints are validated on the result; on violation the
// previous logical state is restored and the reload aborts (§4).
func (r *Reconciler) Reload(c *controller.Controller, target string) error {
	if err := checkIdle(c, target); err != nil {
		return err
	}
	phys := r.phys.Snapshot()
	pnode, perr := phys.Get(target)
	ltree := c.LogicalTree()
	lnode, lerr := ltree.Get(target)

	switch {
	case perr != nil && lerr != nil:
		return fmt.Errorf("reconcile: reload %s: unknown on both layers", target)
	case perr != nil:
		// Device decommissioned out-of-band: drop the logical node.
		if err := ltree.Delete(target); err != nil {
			return err
		}
		clearMarks(c, target, nil)
		return nil
	}

	// Install the physical subtree, keeping the old one for restore.
	parent := model.ParentPath(target)
	pn, err := ltree.Get(parent)
	if err != nil {
		return fmt.Errorf("reconcile: reload %s: logical parent missing: %w", target, err)
	}
	replacement := pnode.Clone()
	var old *model.Node
	if lerr == nil {
		old = lnode
	}
	pn.Children[replacement.Name] = replacement

	// Validate constraints over the replaced subtree and its ancestors.
	if err := checkSubtreeConstraints(c, target); err != nil {
		if old != nil {
			pn.Children[old.Name] = old
		} else {
			delete(pn.Children, replacement.Name)
		}
		return fmt.Errorf("reconcile: reload %s aborted: %w", target, err)
	}
	clearMarks(c, target, replacement)
	return nil
}

// checkSubtreeConstraints validates every constrained node at or under
// target, plus target's ancestors.
func checkSubtreeConstraints(c *controller.Controller, target string) error {
	ltree, schema := c.LogicalTree(), c.Schema()
	if err := schema.CheckConstraints(ltree, target); err != nil {
		return err
	}
	n, err := ltree.Get(target)
	if err != nil {
		return err
	}
	return walkConstraints(schema, ltree, target, n)
}

func walkConstraints(schema *model.Schema, t *model.Tree, path string, n *model.Node) error {
	if ent, ok := schema.Lookup(n.Type); ok {
		for _, con := range ent.Constraints {
			if err := con.Check(t, path, n); err != nil {
				return fmt.Errorf("constraint %q at %s: %w", con.Name, path, err)
			}
		}
	}
	for _, name := range n.SortedChildren() {
		if err := walkConstraints(schema, t, model.Join(path, name), n.Children[name]); err != nil {
			return err
		}
	}
	return nil
}

// clearMarks removes inconsistency marks for target and its descendants
// after a successful reconciliation.
func clearMarks(c *controller.Controller, target string, n *model.Node) {
	c.ClearInconsistent(target)
	if n == nil {
		return
	}
	var walk func(path string, n *model.Node)
	walk = func(path string, n *model.Node) {
		n.Inconsistent = false
		c.ClearInconsistent(path)
		for _, name := range n.SortedChildren() {
			walk(model.Join(path, name), n.Children[name])
		}
	}
	walk(target, n)
}

// Repair drives the physical state of the target subtree back to the
// logical state. The logical layer is authoritative and stays intact
// (§4: "After repair the logical layer is intact and hence no
// constraint violation should be found"). Failed repair actions mark
// the target unusable.
func (r *Reconciler) Repair(c *controller.Controller, target string) error {
	if err := checkIdle(c, target); err != nil {
		return err
	}
	phys := r.phys.Snapshot()
	ltree := c.LogicalTree()
	lnode, lerr := ltree.Get(target)
	if lerr != nil {
		return fmt.Errorf("reconcile: repair %s: no logical node: %w", target, lerr)
	}
	pnode, perr := phys.Get(target)
	if perr != nil {
		return fmt.Errorf("reconcile: repair %s: no physical node (reload to decommission): %w", target, perr)
	}
	actions := r.diff(target, lnode, pnode)
	for _, a := range actions {
		if err := r.exec.Execute(a.Path, a.Name, a.Args); err != nil {
			c.MarkUnusable(target)
			return fmt.Errorf("reconcile: repair %s: %s %s%v: %w (target marked unusable)",
				target, a.UndoOf, a.Name, a.Args, err)
		}
	}
	// Verify convergence and clear the marks.
	phys = r.phys.Snapshot()
	pnode, perr = phys.Get(target)
	if perr != nil || !model.Equal(lnode, pnode) {
		c.MarkUnusable(target)
		return fmt.Errorf("reconcile: repair %s: layers still diverge after %d actions (target marked unusable)",
			target, len(actions))
	}
	clearMarks(c, target, lnode)
	return nil
}

// diff walks the logical (authoritative) and physical subtrees in
// parallel, emitting repair actions from the registered rules.
func (r *Reconciler) diff(path string, logical, physical *model.Node) []Action {
	var out, post []Action
	typ := ""
	if logical != nil {
		typ = logical.Type
	} else if physical != nil {
		typ = physical.Type
	}
	if rule, ok := r.rules[typ]; ok {
		if logical == nil || physical == nil || !attrsEqual(logical, physical) {
			for _, a := range rule(path, logical, physical) {
				if a.Phase == PhasePost {
					post = append(post, a)
				} else {
					out = append(out, a)
				}
			}
		}
	}
	if logical == nil || physical == nil {
		return append(out, post...)
	}
	names := make(map[string]bool)
	for n := range logical.Children {
		names[n] = true
	}
	for n := range physical.Children {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, name := range ordered {
		out = append(out, r.diff(model.Join(path, name),
			logical.Children[name], physical.Children[name])...)
	}
	return append(out, post...)
}

func attrsEqual(a, b *model.Node) bool {
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, av := range a.Attrs {
		bv, ok := b.Attrs[k]
		if !ok || fmt.Sprint(av) != fmt.Sprint(bv) {
			return false
		}
	}
	return true
}

// Diverged reports the paths at or under target whose logical and
// physical states differ — the periodic detection probe (§4: divergence
// "can be detected by periodically comparing the data between the two
// layers").
func (r *Reconciler) Diverged(c *controller.Controller, target string) ([]string, error) {
	phys := r.phys.Snapshot()
	ltree := c.LogicalTree()
	lnode, lerr := ltree.Get(target)
	pnode, perr := phys.Get(target)
	if lerr != nil && perr != nil {
		return nil, fmt.Errorf("reconcile: %s unknown on both layers", target)
	}
	var out []string
	var walk func(path string, l, p *model.Node)
	walk = func(path string, l, p *model.Node) {
		switch {
		case l == nil || p == nil:
			out = append(out, path)
			return
		case !attrsEqual(l, p) || l.Type != p.Type:
			out = append(out, path)
		}
		names := make(map[string]bool)
		for n := range l.Children {
			names[n] = true
		}
		for n := range p.Children {
			names[n] = true
		}
		ordered := make([]string, 0, len(names))
		for n := range names {
			ordered = append(ordered, n)
		}
		sort.Strings(ordered)
		for _, name := range ordered {
			walk(model.Join(path, name), l.Children[name], p.Children[name])
		}
	}
	var l, p *model.Node
	if lerr == nil {
		l = lnode
	}
	if perr == nil {
		p = pnode
	}
	walk(target, l, p)
	return out, nil
}
