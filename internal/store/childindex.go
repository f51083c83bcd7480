package store

import "sort"

// chunkCap bounds the names one chunk of a childIndex holds. It keeps
// an insert or delete inside a chunk a short copy, while the chunk list
// stays short enough that its binary search is a handful of compares
// even for /txns at cloud scale.
const chunkCap = 128

// childIndex keeps a znode's children in lexicographic order of their
// names, as a sorted list of sorted chunks of at most chunkCap entries
// each: a seek is a binary search over the chunks' first names and then
// inside one chunk, and an insert or delete touches one chunk. Ascending
// names (sequence nodes, session-scoped ids) append to the last chunk
// and deletes from the front (queue heads) shrink the first, so the
// common churn never moves more than one chunk's entries. No chunk is
// empty. An entry carries the child with its name, so a walk of the
// tree in order (a snapshot capture) needs no map lookup.
type childIndex struct {
	chunks [][]indexEntry
}

// indexEntry is one child in a childIndex.
type indexEntry struct {
	name string
	node *znode
}

// searchChunk returns the position in c of the first entry whose name is
// not below name.
func searchChunk(c []indexEntry, name string) int {
	return sort.Search(len(c), func(i int) bool { return c[i].name >= name })
}

// chunkFor returns the index of the chunk name belongs in: the last
// chunk whose first name is ≤ name, or 0 when name precedes them all.
func (x *childIndex) chunkFor(name string) int {
	k := sort.Search(len(x.chunks), func(k int) bool { return x.chunks[k][0].name > name })
	if k > 0 {
		k--
	}
	return k
}

// insert adds child, whose name must not be present already. A
// chunk's array grows by append up to chunkCap, so the many small
// directories (queues, locks, election) never pay for a full chunk.
func (x *childIndex) insert(child *znode) {
	entry := indexEntry{child.name, child}
	if len(x.chunks) == 0 {
		var c []indexEntry
		if cap(x.chunks) > 0 {
			c = x.chunks[:1][0][:0] // the array remove kept (see there)
		}
		x.chunks = append(x.chunks[:0], append(c, entry))
		return
	}
	k := x.chunkFor(entry.name)
	c := x.chunks[k]
	i := searchChunk(c, entry.name)
	if len(c) == chunkCap {
		if i == len(c) && k == len(x.chunks)-1 {
			// Past the end of a full last chunk: open a new one rather
			// than split, so ascending inserts leave full chunks behind.
			x.chunks = append(x.chunks, []indexEntry{entry})
			return
		}
		// Split the full chunk in two and insert into the half that
		// holds name's position.
		half := append([]indexEntry(nil), c[chunkCap/2:]...)
		clear(c[chunkCap/2:])
		c = c[:chunkCap/2]
		x.chunks[k] = c
		x.chunks = append(x.chunks, nil)
		copy(x.chunks[k+2:], x.chunks[k+1:])
		x.chunks[k+1] = half
		if i > len(c) {
			k, c, i = k+1, half, i-len(c)
		}
	}
	c = append(c, indexEntry{})
	copy(c[i+1:], c[i:])
	c[i] = entry
	x.chunks[k] = c
}

// remove deletes name if present.
func (x *childIndex) remove(name string) {
	if len(x.chunks) == 0 {
		return
	}
	k := x.chunkFor(name)
	c := x.chunks[k]
	i := searchChunk(c, name)
	if i == len(c) || c[i].name != name {
		return
	}
	copy(c[i:], c[i+1:])
	c[len(c)-1] = indexEntry{}
	c = c[:len(c)-1]
	if len(c) > 0 {
		x.chunks[k] = c
		return
	}
	if len(x.chunks) == 1 {
		// The index is empty. Keep the chunk's array in the list's spare
		// capacity for the next insert: a queue that drains and refills
		// then allocates nothing.
		x.chunks[0] = c
		x.chunks = x.chunks[:0]
		return
	}
	// Drop the empty chunk. Dropping the first one is a reslice, which
	// is what keeps queue-head deletes O(1) in the number of chunks.
	if k == 0 {
		x.chunks[0] = nil
		x.chunks = x.chunks[1:]
		return
	}
	copy(x.chunks[k:], x.chunks[k+1:])
	x.chunks[len(x.chunks)-1] = nil
	x.chunks = x.chunks[:len(x.chunks)-1]
}

// appendAfter appends to dst, in order, up to limit names greater than
// after (every name when after is ""), and returns the extended slice.
// It costs O(log n + limit).
func (x *childIndex) appendAfter(dst []string, after string, limit int) []string {
	if limit <= 0 || len(x.chunks) == 0 {
		return dst
	}
	k := x.chunkFor(after)
	i := sort.Search(len(x.chunks[k]), func(i int) bool { return x.chunks[k][i].name > after })
	for ; k < len(x.chunks) && limit > 0; k, i = k+1, 0 {
		c := x.chunks[k][i:]
		if len(c) > limit {
			c = c[:limit]
		}
		for _, en := range c {
			dst = append(dst, en.name)
		}
		limit -= len(c)
	}
	return dst
}
