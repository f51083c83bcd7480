package model

import (
	"fmt"
	"sort"
)

// SimulateFunc applies an action's state transition to the logical data
// model. It receives the tree and the full path of the target node so
// that actions may create or delete nodes (e.g. createVM adds a child
// under the compute host). Args carry the action's parameters.
type SimulateFunc func(t *Tree, path string, args []string) error

// UndoArgsFunc derives the arguments of the undo action from the forward
// action's arguments, as in Table 1 (cloneImage [template, image] is
// undone by removeImage [image]). It is evaluated against the tree
// *before* the forward action applies, so it can capture pre-state the
// undo must restore (e.g. removeVM's undo re-creates the VM with its
// original image and memory).
type UndoArgsFunc func(t *Tree, path string, args []string) []string

// ActionDef defines an atomic state transition of an entity (paper
// §2.2). The logical definition (Simulate) runs in the controller; the
// physical definition is supplied by the device layer and invoked by
// workers. Undo names the compensating action used for rollback; actions
// without an Undo cannot be rolled back once physically executed, so
// TROPIC requires one for every reversible action.
type ActionDef struct {
	Name string
	// Simulate applies the transition to the logical tree.
	Simulate SimulateFunc
	// Undo is the name of the compensating action ("" if irreversible).
	Undo string
	// UndoArgs derives undo arguments; nil means "same args".
	UndoArgs UndoArgsFunc
	// UndoAt derives the path the undo action must execute at; nil
	// means the forward action's own path. migrateVM's reverse runs at
	// the destination host, for example.
	UndoAt func(path string, args []string) string
	// Touches returns additional model paths the action writes besides
	// its target — e.g. migrateVM on a source host also writes the
	// destination host. The scheduler write-locks and constraint-checks
	// these paths too. Nil when the action only writes its target.
	Touches func(path string, args []string) []string
}

// Constraint is a service or engineering rule attached to an entity.
// Check inspects the node (and typically its descendants) and returns a
// descriptive error when the rule is violated. TROPIC enforces
// constraints automatically during logical simulation; a violation
// aborts the transaction before any physical action runs.
type Constraint struct {
	Name  string
	Check func(t *Tree, path string, n *Node) error
}

// Entity describes one node type in the data model: its actions and
// constraints. Queries need no registration — any read through the
// transaction context is a query and takes read locks.
type Entity struct {
	Name        string
	Actions     map[string]*ActionDef
	Constraints []Constraint
}

// Schema is the registry of entities. It is immutable once the platform
// starts, so lookups are unsynchronized.
type Schema struct {
	entities map[string]*Entity
}

// NewSchema creates an empty schema.
func NewSchema() *Schema {
	return &Schema{entities: make(map[string]*Entity)}
}

// Entity registers (or returns the existing) entity with the given name.
func (s *Schema) Entity(name string) *Entity {
	e, ok := s.entities[name]
	if !ok {
		e = &Entity{Name: name, Actions: make(map[string]*ActionDef)}
		s.entities[name] = e
	}
	return e
}

// Lookup returns the entity definition for a type name.
func (s *Schema) Lookup(name string) (*Entity, bool) {
	e, ok := s.entities[name]
	return e, ok
}

// EntityNames lists registered entity types in sorted order.
func (s *Schema) EntityNames() []string {
	names := make([]string, 0, len(s.entities))
	for n := range s.entities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Action registers an action on the entity. It panics on duplicate
// registration, which is a programming error during service definition.
func (e *Entity) Action(def *ActionDef) *Entity {
	if def.Name == "" || def.Simulate == nil {
		panic(fmt.Sprintf("model: action on %s needs name and simulate", e.Name))
	}
	if _, dup := e.Actions[def.Name]; dup {
		panic(fmt.Sprintf("model: duplicate action %s.%s", e.Name, def.Name))
	}
	e.Actions[def.Name] = def
	return e
}

// Constrain attaches a constraint to the entity.
func (e *Entity) Constrain(c Constraint) *Entity {
	if c.Name == "" || c.Check == nil {
		panic(fmt.Sprintf("model: constraint on %s needs name and check", e.Name))
	}
	e.Constraints = append(e.Constraints, c)
	return e
}

// HasConstraints reports whether the entity has any constraints; the
// lock manager uses this to find the highest constrained ancestor of a
// written node (paper §3.1.3).
func (e *Entity) HasConstraints() bool { return len(e.Constraints) > 0 }

// ActionFor resolves an action on the node at path, returning the node's
// entity and action definitions.
func (s *Schema) ActionFor(t *Tree, path, action string) (*Entity, *ActionDef, error) {
	n, err := t.Get(path)
	if err != nil {
		return nil, nil, err
	}
	ent, ok := s.Lookup(n.Type)
	if !ok {
		return nil, nil, fmt.Errorf("model: node %s has unregistered type %q", path, n.Type)
	}
	def, ok := ent.Actions[action]
	if !ok {
		return nil, nil, fmt.Errorf("model: entity %q has no action %q", n.Type, action)
	}
	return ent, def, nil
}

// CheckConstraints validates every constraint relevant to a mutation at
// path: the constraints of the node itself and of each ancestor, since
// constraints typically aggregate over descendants (e.g. a host memory
// cap aggregates its VMs). The first violation is returned.
//
// If the mutation deleted the node, callers pass the parent path.
func (s *Schema) CheckConstraints(t *Tree, path string) error {
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		p := path[:i] // each ancestor, then path itself
		n, err := t.Get(p)
		if err != nil {
			continue // node vanished (deleted); ancestors still checked
		}
		ent, ok := s.Lookup(n.Type)
		if !ok {
			continue
		}
		for _, c := range ent.Constraints {
			if err := c.Check(t, p, n); err != nil {
				return fmt.Errorf("constraint %q violated at %s: %w", c.Name, p, err)
			}
		}
	}
	return nil
}

// HighestConstrainedAncestor returns the closest-to-root path among
// {ancestors of path, path itself} whose entity defines constraints, or
// "" when none do. Per §3.1.3, a write acquires a read lock on this node
// so concurrent transactions cannot change descendant state that the
// constraint check depended on.
func (s *Schema) HighestConstrainedAncestor(t *Tree, path string) string {
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		p := path[:i] // each ancestor, then path itself
		n, err := t.Get(p)
		if err != nil {
			continue
		}
		if ent, ok := s.Lookup(n.Type); ok && ent.HasConstraints() {
			return p
		}
	}
	return ""
}
