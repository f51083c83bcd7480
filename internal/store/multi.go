package store

import "fmt"

// multiValidator validates the sub-ops of a Multi batch sequentially,
// overlaying the hypothetical effects of earlier sub-ops on the real
// tree instead of copying it. It tracks:
//
//   - created: paths created earlier in the batch (with their parent, so
//     later children can hang off them);
//   - deleted: paths deleted earlier in the batch;
//   - setCount: extra version bumps from earlier sets;
//   - seqOffset: extra sequence-counter increments per parent.
//
// Only validation happens here — the resolved ops are applied to every
// replica by applyOp afterwards, exactly as for single operations.
type multiValidator struct {
	t         *tree
	created   map[string]*createdNode
	deleted   map[string]bool
	setCount  map[string]int32
	seqOffset map[string]uint64
	childAdds map[string]int // net child-count delta per parent
}

// createdNode records what the batch created at a path.
type createdNode struct {
	ephemeralOwner int64
}

func newMultiValidator(t *tree) *multiValidator {
	return &multiValidator{
		t:         t,
		created:   make(map[string]*createdNode),
		deleted:   make(map[string]bool),
		setCount:  make(map[string]int32),
		seqOffset: make(map[string]uint64),
		childAdds: make(map[string]int),
	}
}

// exists reports whether a path exists in the overlaid view, returning
// the ephemeral owner for parent checks.
func (mv *multiValidator) exists(path string) (bool, int64) {
	if mv.deleted[path] {
		return false, 0
	}
	if cn, ok := mv.created[path]; ok {
		return true, cn.ephemeralOwner
	}
	n, err := mv.t.lookup(path)
	if err != nil {
		return false, 0
	}
	return true, n.ephemeralOwner
}

// version returns the overlaid version of an existing tree node (batch
// creations have version 0 and cannot have pre-existing versions).
func (mv *multiValidator) version(path string) (int32, bool) {
	if mv.deleted[path] {
		return 0, false
	}
	if _, ok := mv.created[path]; ok {
		return mv.setCount[path], true
	}
	n, err := mv.t.lookup(path)
	if err != nil {
		return 0, false
	}
	return n.version + mv.setCount[path], true
}

// childCount returns the overlaid child count.
func (mv *multiValidator) childCount(path string) int {
	base := 0
	if n, err := mv.t.lookup(path); err == nil {
		base = len(n.children)
	}
	return base + mv.childAdds[path]
}

func (mv *multiValidator) validate(op Op) (Op, error) {
	switch op.kind {
	case opCreate:
		if err := validPath(op.Path); err != nil {
			return op, err
		}
		if op.Path == "/" {
			return op, fmt.Errorf("%w: cannot create root", ErrBadPath)
		}
		parent := parentPath(op.Path)
		if parent != "/" {
			ok, eph := mv.exists(parent)
			if !ok {
				return op, fmt.Errorf("%w: %s", ErrNoNode, parent)
			}
			if eph != 0 {
				return op, fmt.Errorf("%w: parent of %s", ErrEphemeralChildren, op.Path)
			}
		}
		name := baseName(op.Path)
		if op.Flags&FlagSequence != 0 {
			base := uint64(0)
			if pn, err := mv.t.lookup(parent); err == nil {
				base = pn.seqCounter
			}
			name = fmt.Sprintf("%s%010d", name, base+mv.seqOffset[parent])
			mv.seqOffset[parent]++
		}
		full := childFullPath(op.Path, name)
		if ok, _ := mv.exists(full); ok {
			return op, fmt.Errorf("%w: %s", ErrNodeExists, full)
		}
		op.resolvedName = name
		mv.created[full] = &createdNode{ephemeralOwner: op.session}
		delete(mv.deleted, full)
		mv.childAdds[parent]++
		return op, nil

	case opSet:
		v, ok := mv.version(op.Path)
		if !ok {
			return op, fmt.Errorf("%w: %s", ErrNoNode, op.Path)
		}
		if op.Version >= 0 && v != op.Version {
			return op, fmt.Errorf("%w: %s has version %d, want %d", ErrBadVersion, op.Path, v, op.Version)
		}
		mv.setCount[op.Path]++
		return op, nil

	case opDelete:
		v, ok := mv.version(op.Path)
		if !ok {
			return op, fmt.Errorf("%w: %s", ErrNoNode, op.Path)
		}
		if op.Version >= 0 && v != op.Version {
			return op, fmt.Errorf("%w: %s has version %d, want %d", ErrBadVersion, op.Path, v, op.Version)
		}
		if mv.childCount(op.Path) > 0 {
			return op, fmt.Errorf("%w: %s", ErrNotEmpty, op.Path)
		}
		mv.deleted[op.Path] = true
		delete(mv.created, op.Path)
		mv.childAdds[parentPath(op.Path)]--
		return op, nil

	default:
		return op, fmt.Errorf("store: op kind %d not allowed in multi", op.kind)
	}
}
