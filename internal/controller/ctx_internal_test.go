package controller

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/txn"
)

func ctxSchema() *model.Schema {
	s := model.NewSchema()
	s.Entity("box").
		Action(&model.ActionDef{
			Name: "put",
			Simulate: func(t *model.Tree, path string, args []string) error {
				n, err := t.Get(path)
				if err != nil {
					return err
				}
				n.Attrs["item"] = args[0]
				return nil
			},
			Undo: "take",
			UndoArgs: func(t *model.Tree, path string, args []string) []string {
				n, err := t.Get(path)
				if err != nil {
					return args
				}
				return []string{n.GetString("item")} // capture pre-state
			},
		}).
		Action(&model.ActionDef{
			Name: "take",
			Simulate: func(t *model.Tree, path string, args []string) error {
				n, err := t.Get(path)
				if err != nil {
					return err
				}
				n.Attrs["item"] = args[0]
				return nil
			},
			Undo: "put",
		}).
		Action(&model.ActionDef{
			Name: "link",
			Simulate: func(t *model.Tree, path string, args []string) error {
				if _, err := t.Get(args[0]); err != nil {
					return err
				}
				return nil
			},
			Undo: "link",
			Touches: func(path string, args []string) []string {
				return []string{args[0]}
			},
		}).
		Constrain(model.Constraint{
			Name: "no-bomb",
			Check: func(t *model.Tree, path string, n *model.Node) error {
				if n.GetString("item") == "bomb" {
					return fmt.Errorf("bomb in %s", path)
				}
				return nil
			},
		})
	return s
}

func ctxTree() *model.Tree {
	t := model.NewTree()
	t.Create("/b1", "box", map[string]any{"item": "pear"})
	t.Create("/b2", "box", map[string]any{"item": "plum"})
	return t
}

func newTestCtx() (*Ctx, *model.Tree) {
	tree := ctxTree()
	rec := &txn.Txn{ID: "t-1", Proc: "p"}
	return newCtx(tree, ctxSchema(), rec), tree
}

func TestCtxDoRecordsLogAndWrites(t *testing.T) {
	c, tree := newTestCtx()
	if err := c.Do("/b1", "put", "apple"); err != nil {
		t.Fatal(err)
	}
	n, _ := tree.Get("/b1")
	if n.GetString("item") != "apple" {
		t.Fatal("simulate not applied")
	}
	if len(c.log) != 1 {
		t.Fatalf("log = %v", c.log)
	}
	r := c.log[0]
	if r.Undo != "take" || len(r.UndoArgs) != 1 || r.UndoArgs[0] != "pear" {
		t.Fatalf("undo = %s %v, want take [pear] (pre-state)", r.Undo, r.UndoArgs)
	}
	if !c.writes["/b1"] {
		t.Fatal("write set missing /b1")
	}
}

func TestCtxDoConstraintViolationStillLogged(t *testing.T) {
	c, _ := newTestCtx()
	err := c.Do("/b1", "put", "bomb")
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("err = %v", err)
	}
	// The mutation is already applied and logged, so rollback can undo
	// it.
	if len(c.log) != 1 {
		t.Fatalf("violating action not logged: %v", c.log)
	}
	if err := rollbackLog(c.tree, c.schema, c.log); err != nil {
		t.Fatal(err)
	}
	n, _ := c.tree.Get("/b1")
	if n.GetString("item") != "pear" {
		t.Fatalf("rollback left %q", n.GetString("item"))
	}
}

func TestCtxTouchesExtendWriteSet(t *testing.T) {
	c, _ := newTestCtx()
	if err := c.Do("/b1", "link", "/b2"); err != nil {
		t.Fatal(err)
	}
	if !c.writes["/b1"] || !c.writes["/b2"] {
		t.Fatalf("writes = %v, want both boxes", c.writes)
	}
	reqs := c.lockRequests()
	var wPaths []string
	for _, r := range reqs {
		if r.Mode == lock.W {
			wPaths = append(wPaths, r.Path)
		}
	}
	if len(wPaths) != 2 {
		t.Fatalf("W locks = %v", wPaths)
	}
}

func TestCtxReadRecordsReadLock(t *testing.T) {
	c, _ := newTestCtx()
	if _, err := c.Read("/b2"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range c.lockRequests() {
		if r.Path == "/b2" && r.Mode == lock.R {
			found = true
		}
	}
	if !found {
		t.Fatalf("no R lock for read: %v", c.lockRequests())
	}
}

func TestCtxConstrainedAncestorReadLock(t *testing.T) {
	// Writes under a constrained entity acquire R on the highest
	// constrained ancestor — here the box itself is constrained.
	c, _ := newTestCtx()
	if err := c.Do("/b1", "put", "apple"); err != nil {
		t.Fatal(err)
	}
	hasR := false
	for _, r := range c.lockRequests() {
		if r.Path == "/b1" && r.Mode == lock.R {
			hasR = true
		}
	}
	if !hasR {
		t.Fatalf("no constraint R lock: %v", c.lockRequests())
	}
}

func TestCtxInconsistentNodeDenied(t *testing.T) {
	c, tree := newTestCtx()
	n, _ := tree.Get("/b1")
	n.Inconsistent = true
	if err := c.Do("/b1", "put", "x"); !errors.Is(err, ErrAbort) {
		t.Fatalf("Do on inconsistent node: %v", err)
	}
	if _, err := c.Read("/b1"); !errors.Is(err, ErrAbort) {
		t.Fatalf("Read on inconsistent node: %v", err)
	}
	n.Inconsistent = false
	n.Unusable = true
	if err := c.Do("/b1", "put", "x"); !errors.Is(err, ErrAbort) {
		t.Fatalf("Do on unusable node: %v", err)
	}
}

func TestCtxUnknownActionAndPath(t *testing.T) {
	c, _ := newTestCtx()
	if err := c.Do("/b1", "explode"); err == nil {
		t.Fatal("unknown action accepted")
	}
	if err := c.Do("/ghost", "put", "x"); err == nil {
		t.Fatal("missing node accepted")
	}
	if c.Exists("/ghost") {
		t.Fatal("ghost exists")
	}
	if !c.Exists("/b1") {
		t.Fatal("b1 missing")
	}
}

func TestReplayLogReproducesEffects(t *testing.T) {
	c, tree := newTestCtx()
	if err := c.Do("/b1", "put", "apple"); err != nil {
		t.Fatal(err)
	}
	if err := c.Do("/b2", "put", "fig"); err != nil {
		t.Fatal(err)
	}
	// Replay the log onto a fresh tree: same result.
	fresh := ctxTree()
	if err := replayLog(fresh, ctxSchema(), c.log); err != nil {
		t.Fatal(err)
	}
	if !model.Equal(tree.Root, fresh.Root) {
		t.Fatal("replayed tree differs from simulated tree")
	}
}

func TestLockRequestsFromLogMatchesWrites(t *testing.T) {
	c, tree := newTestCtx()
	if err := c.Do("/b1", "link", "/b2"); err != nil {
		t.Fatal(err)
	}
	reqs := lockRequestsFromLog(tree, ctxSchema(), c.log)
	paths := map[string]bool{}
	for _, r := range reqs {
		if r.Mode == lock.W {
			paths[r.Path] = true
		}
	}
	if !paths["/b1"] || !paths["/b2"] {
		t.Fatalf("recovered W locks = %v", paths)
	}
}

func TestRollbackLogFailsWithoutUndo(t *testing.T) {
	tree := ctxTree()
	records := []txn.LogRecord{{Seq: 1, Path: "/b1", Action: "put", Args: []string{"x"}}}
	if err := rollbackLog(tree, ctxSchema(), records); err == nil {
		t.Fatal("rollback without undo succeeded")
	}
}
