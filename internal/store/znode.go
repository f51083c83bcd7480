package store

import (
	"fmt"
	"strings"
)

// Stat carries metadata about a znode, in the style of ZooKeeper's Stat.
type Stat struct {
	// Version counts data changes; Create leaves it at 0.
	Version int32
	// Czxid and Mzxid are the total-order ids of the transactions that
	// created and last modified the node.
	Czxid int64
	Mzxid int64
	// EphemeralOwner is the session id that owns the node, or 0 for
	// persistent nodes.
	EphemeralOwner int64
	// NumChildren is the number of direct children.
	NumChildren int
}

// Create flags.
const (
	// FlagEphemeral nodes are deleted automatically when the owning
	// session ends or expires.
	FlagEphemeral = 1 << iota
	// FlagSequence appends a monotonically increasing, zero-padded
	// counter (scoped to the parent) to the node name.
	FlagSequence
)

// znode is one node in the ensemble's tree, mutated only by applying
// the committed operation sequence. Its data slice is immutable once
// applied (a set installs a new one), so reads hand it out uncopied.
type znode struct {
	name           string
	data           []byte
	version        int32
	czxid          int64
	mzxid          int64
	ephemeralOwner int64
	seqCounter     uint64
	children       map[string]*znode
	// index orders children by name, so listings and snapshots read
	// them in order without sorting.
	index childIndex
}

func newZnode(name string) *znode {
	return &znode{name: name, children: make(map[string]*znode)}
}

func (z *znode) stat() Stat {
	return Stat{
		Version:        z.version,
		Czxid:          z.czxid,
		Mzxid:          z.mzxid,
		EphemeralOwner: z.ephemeralOwner,
		NumChildren:    len(z.children),
	}
}

// validPath checks that path is a well-formed znode path: it starts
// with '/' and, unless it is the root "/", has no trailing '/' and no
// empty, "." or ".." component. It walks the path in place, so the
// lookups on every store read allocate nothing.
func validPath(path string) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("%w: %q must start with '/'", ErrBadPath, path)
	}
	if path == "/" {
		return nil
	}
	if path[len(path)-1] == '/' {
		return fmt.Errorf("%w: %q must not end with '/'", ErrBadPath, path)
	}
	for rest := path[1:]; ; {
		name, next, more := strings.Cut(rest, "/")
		if name == "" || name == "." || name == ".." {
			return fmt.Errorf("%w: %q contains empty or relative component", ErrBadPath, path)
		}
		if !more {
			return nil
		}
		rest = next
	}
}

// baseName returns the last component of a validated path other than
// the root.
func baseName(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// parentPath returns the path of the parent of a validated path.
func parentPath(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// tree is the znode hierarchy plus the bookkeeping needed to apply
// committed operations deterministically.
type tree struct {
	root *znode
}

func newTree() *tree {
	return &tree{root: newZnode("")}
}

// lookup walks to the znode at path, or returns ErrNoNode.
func (t *tree) lookup(path string) (*znode, error) {
	if err := validPath(path); err != nil {
		return nil, err
	}
	n := t.root
	for rest := path[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		child, ok := n.children[name]
		if !ok {
			return nil, &noNodeError{path: path}
		}
		n = child
	}
	return n, nil
}

// noNodeError reports a missing znode: it matches ErrNoNode under
// errors.Is and reads "<ErrNoNode>: <path>". Reads miss often (the
// read path probes records, existence checks expect misses), so the
// message is built only when Error is called.
type noNodeError struct{ path string }

func (e *noNodeError) Error() string { return ErrNoNode.Error() + ": " + e.path }

func (e *noNodeError) Unwrap() error { return ErrNoNode }

// addChild links child under z by its name, replacing any child of
// that name.
func (z *znode) addChild(child *znode) {
	if _, ok := z.children[child.name]; ok {
		z.index.remove(child.name)
	}
	z.index.insert(child)
	z.children[child.name] = child
}

// removeChild unlinks the child called name, if there is one.
func (z *znode) removeChild(name string) {
	if _, ok := z.children[name]; ok {
		delete(z.children, name)
		z.index.remove(name)
	}
}

// childNames returns every child name in lexicographic order, which
// for sequence nodes is also creation order.
func (z *znode) childNames() []string {
	return z.index.appendAfter(make([]string, 0, len(z.children)), "", len(z.children))
}

// collectEphemerals appends the paths of all ephemeral nodes owned by the
// session under the subtree rooted at path prefix. Ephemeral nodes have
// no children, so only the paths of matches and of inner nodes are
// built, not one per leaf.
func collectEphemerals(n *znode, prefix string, session int64, out *[]string) {
	for name, child := range n.children {
		if child.ephemeralOwner == session {
			*out = append(*out, prefix+"/"+name)
		} else if len(child.children) > 0 {
			collectEphemerals(child, prefix+"/"+name, session, out)
		}
	}
}
