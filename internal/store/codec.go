package store

import (
	"encoding/binary"
	"fmt"
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
	if blob, b, err = readBlob(b); err != nil {
		return op, nil, err
	}
	op.Path = string(blob)
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
	if blob, b, err = readBlob(b); err != nil {
		return op, nil, err
	}
	op.resolvedName = string(blob)
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

// encodeTreeSnapshot appends the persistent portion of a tree plus the
// session counter to b. Ephemeral nodes are deliberately skipped: their
// owning sessions cannot survive a process restart, so persisting them
// would resurrect state ZooKeeper semantics say must die (the paper's
// failover behavior depends on exactly this — election and queue-consumer
// ephemerals vanishing on crash). Ephemerals never have children, so
// skipping one never orphans a subtree.
func encodeTreeSnapshot(b []byte, t *tree, nextSess int64) []byte {
	b = append(b, codecVersion)
	b = binary.AppendVarint(b, nextSess)
	return appendNode(b, t.root, "/")
}

// appendNode emits one node entry followed by its persistent children
// in sorted order (pre-order, parents before children).
func appendNode(b []byte, n *znode, path string) []byte {
	b = appendBlob(b, path)
	b = appendBlob(b, n.data)
	b = binary.AppendVarint(b, int64(n.version))
	b = binary.AppendVarint(b, n.czxid)
	b = binary.AppendVarint(b, n.mzxid)
	b = binary.AppendUvarint(b, n.seqCounter)
	for name := range n.index.all() {
		child := n.children[name]
		if child.ephemeralOwner != 0 {
			continue
		}
		childPath := path + "/" + name
		if path == "/" {
			childPath = "/" + name
		}
		b = appendNode(b, child, childPath)
	}
	return b
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
	pathB, b, err := readBlob(b)
	if err != nil {
		return nil, err
	}
	path := string(pathB)
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
