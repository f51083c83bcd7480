package store

import (
	"fmt"
	"testing"
)

// BenchmarkDecodeOp decodes one WAL record as recovery replays it: a
// sequential create with its path, data and resolved name.
func BenchmarkDecodeOp(b *testing.B) {
	rec := encodeOp(nil, Op{kind: opCreate, Path: "/tropic/inputq/item-", Data: []byte("notice"),
		Flags: FlagSequence, Version: -1, resolvedName: "item-0000000042"})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeOp(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSnapshot decodes a snapshot payload of 256 queue items
// under one parent; allocs/op over the node count is the cost of one
// snapshot entry.
func BenchmarkDecodeSnapshot(b *testing.B) {
	tr := newTree()
	ops := []Op{{kind: opCreate, Path: "/q"}}
	for i := 0; i < 256; i++ {
		ops = append(ops, Op{kind: opCreate, Path: fmt.Sprintf("/q/item-%010d", i), Data: []byte("d")})
	}
	for _, op := range ops {
		resolved, err := validateOp(tr, op)
		if err != nil {
			b.Fatal(err)
		}
		applyOp(tr, resolved, 1, nil)
	}
	payload := encodeSnapshot(b, tr, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := decodeTreeSnapshot(payload); err != nil {
			b.Fatal(err)
		}
	}
}
