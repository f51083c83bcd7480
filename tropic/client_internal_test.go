package tropic

import (
	"fmt"
	"testing"
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
