package tropic

import (
	"fmt"
	"testing"

	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/txn"
)

// BenchmarkClientLocate times the routing step every id-taking call
// (Get, Wait, WatchTxn, Signal) makes before its read: resolving the
// id to its shard client, local id and public id.
func BenchmarkClientLocate(b *testing.B) {
	for _, shards := range []int{1, 2} {
		p, err := New(Config{Schema: NewSchema(), Bootstrap: NewTree(), Shards: shards, StoreReplicas: 1, Controllers: 1})
		if err != nil {
			b.Fatal(err)
		}
		c := p.Client()
		id := c.router.QualifyID(shards-1, "t-s4c00000001")
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := c.locate(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		c.Close()
		p.Stop()
	}
}

// TestClientLocateAllocs: resolving an id already in its canonical
// public form reuses it, so the lookup every Get, Wait, WatchTxn and
// Signal makes allocates nothing, at one shard and at two.
func TestClientLocateAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		p, err := New(Config{Schema: NewSchema(), Bootstrap: NewTree(), Shards: shards, StoreReplicas: 1, Controllers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := p.Client()
		id := c.router.QualifyID(shards-1, "t-s4c00000001")
		var public string
		n := testing.AllocsPerRun(100, func() {
			if _, _, public, err = c.locate(id); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 || public != id {
			t.Errorf("%d shards: locate(%q) = %q with %v allocs, want itself with 0", shards, id, public, n)
		}
		c.Close()
		p.Stop()
	}
}

// TestClientLocateCanonicalizes: an id whose shard prefix is spelled
// other than canonically still resolves, to the canonical public id.
func TestClientLocateCanonicalizes(t *testing.T) {
	p, err := New(Config{Schema: NewSchema(), Bootstrap: NewTree(), Shards: 2, StoreReplicas: 1, Controllers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Client()
	defer p.Stop()
	defer c.Close()
	for _, id := range []string{"s01-t-s4c00000001", "s+1-t-s4c00000001", "s1-t-s4c00000001"} {
		sub, local, public, err := c.locate(id)
		if err != nil {
			t.Fatalf("locate(%q): %v", id, err)
		}
		if sub != c.subs[1] || local != "t-s4c00000001" || public != "s1-t-s4c00000001" {
			t.Fatalf("locate(%q) = shard client %p, %q, %q; want shard 1's, t-s4c00000001, s1-t-s4c00000001",
				id, sub, local, public)
		}
	}
}

// TestRefreshChildrenSkipsVoidedAttempt: the overlay Get and Wait lay
// over a parent's ledger shows a child's live state only at the prepare
// attempt its entry counts. A child still prepared at an attempt
// wound-wait voided leaves its entry unvoted, as the coordinator counts
// it; a child at the counted attempt shows through.
func TestRefreshChildrenSkipsVoidedAttempt(t *testing.T) {
	p, err := New(Config{Schema: NewSchema(), Bootstrap: NewTree(), Shards: 2, StoreReplicas: 1, Controllers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Client()
	defer p.Stop()
	defer c.Close()
	const parent = "s0-t-x4c00000001"
	rec := &Txn{ID: parent, State: txn.StateAccepted}
	for k, childEpoch := range []int{1, 0} {
		ref := txn.ChildRef{ID: shard.ChildID(parent, k), Shard: k, Epoch: 1}
		rec.Children = append(rec.Children, ref)
		child := &txn.Txn{Proc: "p", State: txn.StatePrepared, Epoch: childEpoch, Parent: parent}
		if _, err := c.subs[k].cli.Create(proto.TxnsPath+"/"+ref.ID, child.Encode(), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.refreshChildren(rec)
	if got := rec.Children[0].State; got != txn.StatePrepared {
		t.Errorf("child at the counted attempt shows %q, want prepared", got)
	}
	if got := rec.Children[1].State; got != "" {
		t.Errorf("child prepared at a voided attempt shows %q, want unvoted", got)
	}
}
