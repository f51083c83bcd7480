package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file is the store's half of the persistence contract: it encodes
// validated operations for WAL records and the tree for snapshot
// payloads. The persist package frames, checksums, and files these bytes
// without interpreting them.
//
// Only resolved ops (post-validateOp) are encoded, so replaying a record
// with applyOp is deterministic: sequence names are already fixed and
// version checks already passed when the record was written.

const codecVersion = 1

// --- Operation encoding ------------------------------------------------

// encodeOp appends the WAL record of a resolved op to b.
func encodeOp(b []byte, op Op) []byte {
	return appendOp(append(b, codecVersion), op)
}

func appendOp(b []byte, op Op) []byte {
	b = append(b, byte(op.kind))
	b = appendBlob(b, op.Path)
	b = appendBlob(b, op.Data)
	b = binary.AppendUvarint(b, uint64(op.Flags))
	b = binary.AppendVarint(b, int64(op.Version))
	b = binary.AppendVarint(b, op.session)
	b = appendBlob(b, op.resolvedName)
	b = binary.AppendUvarint(b, uint64(len(op.ops)))
	for _, sub := range op.ops {
		b = appendOp(b, sub)
	}
	return b
}

// decodeOp parses a WAL record payload back into an op.
func decodeOp(b []byte) (Op, error) {
	if len(b) == 0 || b[0] != codecVersion {
		return Op{}, fmt.Errorf("store: wal record: unsupported codec version")
	}
	op, rest, err := readOp(b[1:])
	if err != nil {
		return Op{}, fmt.Errorf("store: wal record: %w", err)
	}
	if len(rest) != 0 {
		return Op{}, fmt.Errorf("store: wal record: %d trailing bytes", len(rest))
	}
	return op, nil
}

func readOp(b []byte) (Op, []byte, error) {
	var op Op
	if len(b) < 1 {
		return op, nil, errTruncated
	}
	op.kind = opKind(b[0])
	b = b[1:]
	var blob []byte
	var err error
	if op.Path, b, err = readString(b); err != nil {
		return op, nil, err
	}
	if blob, b, err = readBlob(b); err != nil {
		return op, nil, err
	}
	if len(blob) > 0 {
		op.Data = blob
	}
	var u uint64
	if u, b, err = readUvarint(b); err != nil {
		return op, nil, err
	}
	op.Flags = int(u)
	var v int64
	if v, b, err = readVarint(b); err != nil {
		return op, nil, err
	}
	op.Version = int32(v)
	if op.session, b, err = readVarint(b); err != nil {
		return op, nil, err
	}
	if op.resolvedName, b, err = readString(b); err != nil {
		return op, nil, err
	}
	if u, b, err = readUvarint(b); err != nil {
		return op, nil, err
	}
	if u > uint64(len(b)) { // each sub-op needs ≥1 byte
		return op, nil, errTruncated
	}
	for i := uint64(0); i < u; i++ {
		var sub Op
		if sub, b, err = readOp(b); err != nil {
			return op, nil, err
		}
		op.ops = append(op.ops, sub)
	}
	return op, b, nil
}

// maxSessionOf returns the largest session id referenced by an op, so
// recovery can resume the session counter past every id the WAL used.
func maxSessionOf(op Op) int64 {
	max := op.session
	for _, sub := range op.ops {
		if s := maxSessionOf(sub); s > max {
			max = s
		}
	}
	return max
}

// --- Tree snapshot encoding --------------------------------------------

// snapNode is one persistent node of a captured tree: its fields as of
// the capture, and its data slice shared with the tree, not copied
// (applied data is never modified in place, so the slice stays valid
// after the tree moves on).
type snapNode struct {
	name         string
	depth        int
	data         []byte
	version      int32
	czxid, mzxid int64
	seqCounter   uint64
}

// snapCapture is the state a snapshot covers: the persistent nodes of
// the tree in pre-order (parents before children, siblings in name
// order) plus the session counter. Capturing copies only the nodes'
// fixed-size fields, so it is cheap enough to run under the commit
// lock; encode then builds the paths and payload bytes off it. Its
// buffers are reused across snapshots.
type snapCapture struct {
	zxid     int64
	nextSess int64
	nodes    []snapNode
	chunk    []byte // encoded payload not yet written
	path     []byte // path of the node being encoded
	ends     []int  // ends[d]: length of the path prefix at depth d
}

// snapChunk is how much encoded payload encode gathers before handing
// it to the writer.
const snapChunk = 64 << 10

// capture records the persistent portion of t as of zxid. Ephemeral
// nodes are deliberately skipped: their owning sessions cannot survive
// a process restart, so persisting them would resurrect state
// ZooKeeper semantics say must die (the paper's failover behavior
// depends on exactly this — election and queue-consumer ephemerals
// vanishing on crash). Ephemerals never have children, so skipping one
// never orphans a subtree.
func (c *snapCapture) capture(t *tree, zxid, nextSess int64) {
	c.zxid, c.nextSess = zxid, nextSess
	c.nodes = captureNode(c.nodes[:0], t.root, 0)
}

func captureNode(out []snapNode, n *znode, depth int) []snapNode {
	out = slices.Grow(out, 1)[:len(out)+1]
	s := &out[len(out)-1] // filled in place: no temporary to copy
	s.name, s.depth, s.data, s.version = n.name, depth, n.data, n.version
	s.czxid, s.mzxid, s.seqCounter = n.czxid, n.mzxid, n.seqCounter
	for _, entries := range n.index.chunks {
		for _, en := range entries {
			if en.node.ephemeralOwner == 0 {
				out = captureNode(out, en.node, depth+1)
			}
		}
	}
	return out
}

// encode writes the snapshot payload of the capture to w, in pieces of
// about snapChunk bytes. The payload is the codec version, the session
// counter, and one entry per node: its path, data, version, czxid,
// mzxid and sequence counter.
func (c *snapCapture) encode(w io.Writer) error {
	b := append(c.chunk[:0], codecVersion)
	b = binary.AppendVarint(b, c.nextSess)
	path, ends := c.path, c.ends
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.depth == 0 {
			path, ends = append(path[:0], '/'), append(ends[:0], 0)
		} else {
			path = append(append(path[:ends[n.depth-1]], '/'), n.name...)
			ends = append(ends[:n.depth], len(path))
		}
		b = appendBlob(b, path)
		b = appendBlob(b, n.data)
		b = binary.AppendVarint(b, int64(n.version))
		b = binary.AppendVarint(b, n.czxid)
		b = binary.AppendVarint(b, n.mzxid)
		b = binary.AppendUvarint(b, n.seqCounter)
		if len(b) >= snapChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	c.chunk, c.path, c.ends = b, path, ends
	_, err := w.Write(b)
	return err
}

// release drops the capture's references to the tree's data, so a
// snapshot does not keep since-replaced data alive until the next one.
func (c *snapCapture) release() {
	clear(c.nodes)
	c.nodes = c.nodes[:0]
}

// decodeTreeSnapshot rebuilds a tree from a snapshot payload.
func decodeTreeSnapshot(b []byte) (*tree, int64, error) {
	if len(b) == 0 || b[0] != codecVersion {
		return nil, 0, fmt.Errorf("store: snapshot: unsupported codec version")
	}
	b = b[1:]
	nextSess, b, err := readVarint(b)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot: %w", err)
	}
	t := newTree()
	for len(b) > 0 {
		if b, err = readNodeInto(t, b); err != nil {
			return nil, 0, fmt.Errorf("store: snapshot: %w", err)
		}
	}
	return t, nextSess, nil
}

func readNodeInto(t *tree, b []byte) ([]byte, error) {
	path, b, err := readString(b)
	if err != nil {
		return nil, err
	}
	data, b, err := readBlob(b)
	if err != nil {
		return nil, err
	}
	version, b, err := readVarint(b)
	if err != nil {
		return nil, err
	}
	czxid, b, err := readVarint(b)
	if err != nil {
		return nil, err
	}
	mzxid, b, err := readVarint(b)
	if err != nil {
		return nil, err
	}
	seq, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	var n *znode
	if path == "/" {
		n = t.root
	} else {
		if err := validPath(path); err != nil {
			return nil, err
		}
		parent, err := t.lookup(parentPath(path))
		if err != nil {
			return nil, fmt.Errorf("entry %s before its parent: %w", path, err)
		}
		n = newZnode(baseName(path))
		parent.addChild(n)
	}
	if len(data) > 0 {
		n.data = data
	}
	n.version = int32(version)
	n.czxid = czxid
	n.mzxid = mzxid
	n.seqCounter = seq
	return b, nil
}

// --- Primitive readers ---------------------------------------------------

var errTruncated = fmt.Errorf("truncated encoding")

// appendBlob appends blob with its length. It takes strings as they
// are, so encoding a path copies its bytes once, into b.
func appendBlob[T string | []byte](b []byte, blob T) []byte {
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

func readBlob(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	blob := make([]byte, n)
	copy(blob, b[:n])
	return blob, b[n:], nil
}

// readString reads a length-prefixed string straight from b: the
// conversion is its one copy.
func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, errTruncated
	}
	return string(b[:n]), b[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}
