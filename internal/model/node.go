// Package model implements TROPIC's semi-structured hierarchical data
// model (paper §2.2). Cloud resources form a tree; each tree node is an
// object representing an instance of an entity. Entities define queries
// (read-only inspection), actions (atomic state transitions, defined once
// for logical simulation and once for physical execution), and
// constraints (service and engineering rules enforced at runtime).
//
// The same representation serves both layers: the controller's logical
// data model is a tree of Nodes, and the simulated devices export their
// physical state as a tree of Nodes for reconciliation (§4).
package model

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Node is one object in the hierarchical data model.
type Node struct {
	// Name is the last path component, e.g. "vmHost3".
	Name string
	// Type names the entity this node instantiates, e.g. "vmHost".
	Type string
	// Attrs holds the node's attributes. Values must be JSON-compatible
	// scalars (string, int64/float64, bool); use the typed accessors,
	// which normalize across JSON round trips.
	Attrs map[string]any
	// Children indexes child nodes by name.
	Children map[string]*Node
	// Inconsistent marks the node (and implicitly its subtree) as out of
	// sync between the logical and physical layers; transactions touching
	// it are denied until reconciled (§4).
	Inconsistent bool
	// Unusable marks a node whose repair/reload failed due to hardware
	// faults; future transactions must not use it (§4).
	Unusable bool
}

// NewNode creates a node with no attributes or children.
func NewNode(name, typ string) *Node {
	return &Node{
		Name:     name,
		Type:     typ,
		Attrs:    make(map[string]any),
		Children: make(map[string]*Node),
	}
}

// GetString returns a string attribute ("" when absent).
func (n *Node) GetString(key string) string {
	s, _ := n.Attrs[key].(string)
	return s
}

// GetInt returns an integer attribute, coercing float64 values that
// appear after JSON decoding. Returns 0 when absent.
func (n *Node) GetInt(key string) int64 {
	switch v := n.Attrs[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	default:
		return 0
	}
}

// GetBool returns a boolean attribute (false when absent).
func (n *Node) GetBool(key string) bool {
	b, _ := n.Attrs[key].(bool)
	return b
}

// SortedChildren returns child names in lexicographic order.
func (n *Node) SortedChildren() []string {
	names := make([]string, 0, len(n.Children))
	for name := range n.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the subtree rooted at n.
func (n *Node) Clone() *Node {
	c := &Node{
		Name:         n.Name,
		Type:         n.Type,
		Attrs:        make(map[string]any, len(n.Attrs)),
		Children:     make(map[string]*Node, len(n.Children)),
		Inconsistent: n.Inconsistent,
		Unusable:     n.Unusable,
	}
	for k, v := range n.Attrs {
		c.Attrs[k] = v
	}
	for name, child := range n.Children {
		c.Children[name] = child.Clone()
	}
	return c
}

// CountNodes returns the number of nodes in the subtree including n.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Tree is a data model instance: a rooted hierarchy addressed by
// slash-separated paths such as /vmRoot/vmHost1/vm3. A Tree is not
// internally synchronized — the controller serializes all access to its
// logical tree, matching TROPIC's single-leader execution model.
type Tree struct {
	Root *Node
}

// NewTree creates an empty tree whose root has type "root".
func NewTree() *Tree {
	return &Tree{Root: NewNode("", "root")}
}

// SplitPath validates a model path and returns its components.
func SplitPath(path string) ([]string, error) {
	if err := checkPath(path); err != nil || path == "/" {
		return nil, err
	}
	return strings.Split(path[1:], "/"), nil
}

// checkPath validates a model path: it starts with '/' and, unless it is
// the root "/", has no trailing '/' and no empty component.
func checkPath(path string) error {
	switch {
	case path == "" || path[0] != '/':
		return fmt.Errorf("model: path %q must start with '/'", path)
	case path == "/":
		return nil
	case strings.HasSuffix(path, "/"):
		return fmt.Errorf("model: path %q must not end with '/'", path)
	case strings.Contains(path, "//"):
		return fmt.Errorf("model: path %q has empty component", path)
	}
	return nil
}

// ParentPath returns the parent of a validated path ("/" for top-level).
func ParentPath(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Ancestors returns all proper ancestor paths of path from the root down,
// excluding "/" itself. For /a/b/c it returns [/a, /a/b].
func Ancestors(path string) []string {
	var out []string
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			out = append(out, path[:i])
		}
	}
	return out
}

// Join appends a child name to a path.
func Join(path, name string) string {
	if path == "/" {
		return "/" + name
	}
	return path + "/" + name
}

// Get returns the node at path, or an error naming the missing path. It
// walks the path in place, so a hit allocates nothing.
func (t *Tree) Get(path string) (*Node, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	n := t.Root
	for rest, more := path[1:], path != "/"; more; {
		var name string
		name, rest, more = strings.Cut(rest, "/")
		child, ok := n.Children[name]
		if !ok {
			return nil, fmt.Errorf("model: no node at %s", path)
		}
		n = child
	}
	return n, nil
}

// Exists reports whether a node exists at path.
func (t *Tree) Exists(path string) bool {
	n, err := t.Get(path)
	return err == nil && n != nil
}

// Create inserts a new node at path. The parent must exist and the name
// must be free. The path is validated and cut at its last '/' in place.
func (t *Tree) Create(path, typ string, attrs map[string]any) (*Node, error) {
	parent, name, err := t.parentOf(path, "create")
	if err != nil {
		return nil, err
	}
	if _, exists := parent.Children[name]; exists {
		return nil, fmt.Errorf("model: node %s already exists", path)
	}
	n := &Node{
		Name:     name,
		Type:     typ,
		Attrs:    make(map[string]any, len(attrs)),
		Children: make(map[string]*Node),
	}
	for k, v := range attrs {
		n.Attrs[k] = v
	}
	parent.Children[name] = n
	return n, nil
}

// Delete removes the node at path and its subtree.
func (t *Tree) Delete(path string) error {
	parent, name, err := t.parentOf(path, "delete")
	if err != nil {
		return err
	}
	if _, ok := parent.Children[name]; !ok {
		return fmt.Errorf("model: no node at %s", path)
	}
	delete(parent.Children, name)
	return nil
}

// parentOf validates path for op (create or delete) and returns its
// parent node and last segment.
func (t *Tree) parentOf(path, op string) (*Node, string, error) {
	if err := checkPath(path); err != nil {
		return nil, "", err
	}
	if path == "/" {
		return nil, "", fmt.Errorf("model: cannot %s root", op)
	}
	parent, err := t.Get(ParentPath(path))
	if err != nil {
		return nil, "", fmt.Errorf("model: %s %s: %w", op, path, err)
	}
	return parent, path[strings.LastIndexByte(path, '/')+1:], nil
}

// Clone deep-copies the whole tree.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: t.Root.Clone()}
}

// Size returns the total node count (excluding the synthetic root).
func (t *Tree) Size() int {
	return t.Root.CountNodes() - 1
}

// Walk visits every node (excluding the root) in depth-first order with
// its full path. Returning a non-nil error from fn stops the walk.
func (t *Tree) Walk(fn func(path string, n *Node) error) error {
	var walk func(prefix string, n *Node) error
	walk = func(prefix string, n *Node) error {
		for _, name := range n.SortedChildren() {
			child := n.Children[name]
			p := prefix + "/" + name
			if err := fn(p, child); err != nil {
				return err
			}
			if err := walk(p, child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", t.Root)
}

// nodeJSON is the serialized node form used for snapshots and
// reconciliation transfers.
type nodeJSON struct {
	Name         string               `json:"name"`
	Type         string               `json:"type"`
	Attrs        map[string]any       `json:"attrs,omitempty"`
	Children     map[string]*nodeJSON `json:"children,omitempty"`
	Inconsistent bool                 `json:"inconsistent,omitempty"`
	Unusable     bool                 `json:"unusable,omitempty"`
}

func toJSONNode(n *Node) *nodeJSON {
	j := &nodeJSON{
		Name:         n.Name,
		Type:         n.Type,
		Attrs:        n.Attrs,
		Inconsistent: n.Inconsistent,
		Unusable:     n.Unusable,
	}
	if len(n.Children) > 0 {
		j.Children = make(map[string]*nodeJSON, len(n.Children))
		for name, c := range n.Children {
			j.Children[name] = toJSONNode(c)
		}
	}
	return j
}

func fromJSONNode(j *nodeJSON) *Node {
	n := NewNode(j.Name, j.Type)
	for k, v := range j.Attrs {
		n.Attrs[k] = normalizeValue(v)
	}
	for name, c := range j.Children {
		n.Children[name] = fromJSONNode(c)
	}
	n.Inconsistent = j.Inconsistent
	n.Unusable = j.Unusable
	return n
}

// normalizeValue coerces JSON-decoded numbers to int64 when they are
// integral, so attribute comparisons behave identically before and after
// a snapshot round trip.
func normalizeValue(v any) any {
	if f, ok := v.(float64); ok {
		if f == float64(int64(f)) {
			return int64(f)
		}
	}
	return v
}

// MarshalSnapshot serializes the tree for persistence in the
// coordination store (checkpointing) or transfer between layers.
func (t *Tree) MarshalSnapshot() ([]byte, error) {
	return json.Marshal(toJSONNode(t.Root))
}

// UnmarshalSnapshot restores a tree serialized by MarshalSnapshot.
func UnmarshalSnapshot(data []byte) (*Tree, error) {
	var j nodeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("model: decode snapshot: %w", err)
	}
	return &Tree{Root: fromJSONNode(&j)}, nil
}

// Equal reports whether two subtrees have identical structure, types and
// attributes (ignoring Inconsistent/Unusable marks, which are control
// metadata rather than resource state).
func Equal(a, b *Node) bool {
	if a.Name != b.Name || a.Type != b.Type {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for k, av := range a.Attrs {
		bv, ok := b.Attrs[k]
		if !ok || !valueEqual(av, bv) {
			return false
		}
	}
	for name, ac := range a.Children {
		bc, ok := b.Children[name]
		if !ok || !Equal(ac, bc) {
			return false
		}
	}
	return true
}

func valueEqual(a, b any) bool {
	return fmt.Sprint(normalizeValue(a)) == fmt.Sprint(normalizeValue(b))
}
