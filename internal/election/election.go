// Package election implements quorum-backed leader election over the
// coordination store, following the ephemeral-sequential recipe of Reed &
// Junqueira's totally ordered broadcast protocol note, which TROPIC uses
// to pick the lead controller among replicas.
//
// Each candidate creates an ephemeral sequence node under the election
// path; the candidate owning the lowest sequence number is the leader.
// Every other candidate watches its immediate predecessor, so a failure
// wakes exactly one candidate (no herd effect). Because the nodes are
// ephemeral, a crashed leader's node disappears after its session times
// out — which is why TROPIC's measured failover time is dominated by the
// store's failure-detection interval (§6.4).
package election

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/store"
)

const candidatePrefix = "n-"

// Candidate is one participant in an election.
type Candidate struct {
	cli  *store.Client
	path string
	id   string // opaque identity stored in the candidate node, e.g. controller name

	myNode string // absolute path of our ephemeral-sequential node
}

// New prepares a candidate rooted at the given election path.
func New(cli *store.Client, path, id string) (*Candidate, error) {
	if err := cli.EnsurePath(path); err != nil {
		return nil, fmt.Errorf("election: ensure %s: %w", path, err)
	}
	return &Candidate{cli: cli, path: path, id: id}, nil
}

// Enroll registers the candidate. It must be called once before
// AwaitLeadership.
func (c *Candidate) Enroll() error {
	p, err := c.cli.Create(c.path+"/"+candidatePrefix, []byte(c.id),
		store.FlagEphemeral|store.FlagSequence)
	if err != nil {
		return fmt.Errorf("election: enroll %s: %w", c.id, err)
	}
	c.myNode = p
	return nil
}

// Node returns the candidate's election node path ("" before Enroll).
func (c *Candidate) Node() string { return c.myNode }

// AwaitLeadership blocks until this candidate becomes leader, its session
// expires, or ctx is done. It implements the predecessor-watch pattern.
func (c *Candidate) AwaitLeadership(ctx context.Context) error {
	if c.myNode == "" {
		return errors.New("election: AwaitLeadership before Enroll")
	}
	myName := lastComponent(c.myNode)
	for {
		names, err := c.sortedCandidates()
		if err != nil {
			return err
		}
		idx := indexOf(names, myName)
		if idx < 0 {
			return fmt.Errorf("election: own node %s vanished (session expired?)", c.myNode)
		}
		if idx == 0 {
			return nil // we are the leader
		}
		if err := c.awaitChange(ctx, c.path+"/"+names[idx-1]); err != nil {
			return err
		}
		// Predecessor changed (or vanished); re-evaluate standing.
	}
}

// awaitChange blocks until the predecessor node pred changes, returning
// at once if it is already gone. The watch is armed before the
// existence check, so a deletion between the two cannot be missed, and
// it is released on every exit.
func (c *Candidate) awaitChange(ctx context.Context, pred string) error {
	w, err := c.cli.NodeWatch(pred)
	if err != nil {
		return err
	}
	defer w.Close()
	exists, _, err := c.cli.Exists(pred)
	if err != nil || !exists {
		return err // !exists: predecessor vanished between list and watch
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case ev, ok := <-w.C():
		if !ok || ev.Type == store.EventSessionExpired {
			return store.ErrSessionExpired
		}
		return nil
	}
}

// Leader returns the id stored by the current leader, or ok=false when no
// candidate is enrolled.
func (c *Candidate) Leader() (id string, ok bool, err error) {
	names, err := c.sortedCandidates()
	if err != nil {
		return "", false, err
	}
	if len(names) == 0 {
		return "", false, nil
	}
	data, _, err := c.cli.Get(c.path + "/" + names[0])
	if errors.Is(err, store.ErrNoNode) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	return string(data), true, nil
}

// Resign withdraws the candidate (deletes its node). A leader that
// resigns triggers immediate failover without waiting for session expiry.
func (c *Candidate) Resign() error {
	if c.myNode == "" {
		return nil
	}
	err := c.cli.Delete(c.myNode, -1)
	c.myNode = ""
	if errors.Is(err, store.ErrNoNode) {
		return nil
	}
	return err
}

func (c *Candidate) sortedCandidates() ([]string, error) {
	names, err := c.cli.Children(c.path) // ascending
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, candidatePrefix) {
			out = append(out, n)
		}
	}
	return out, nil
}

func lastComponent(path string) string {
	i := strings.LastIndexByte(path, '/')
	return path[i+1:]
}

func indexOf(names []string, target string) int {
	for i, n := range names {
		if n == target {
			return i
		}
	}
	return -1
}
