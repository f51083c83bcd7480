// Package store implements a replicated, hierarchical coordination store
// modeled on ZooKeeper. TROPIC uses it for its distributed queues (inputQ,
// phyQ), leader election among controllers, and as the highly available
// persistent storage for transaction states and logs.
//
// The store is an in-process ensemble of replica state machines. Every
// write is sequenced by the ensemble into a single total order (a
// simplified atomic broadcast), applied to all live replicas, and succeeds
// only while a majority of replicas are alive. Sessions expire when a
// client stops heartbeating, at which point the ensemble deletes the
// session's ephemeral nodes — the failure-detection primitive TROPIC's
// controller failover builds on.
//
// Each znode keeps its child names in an ordered index beside its
// child map: a sorted list of sorted chunks of at most 128 names. A
// listing page (Client.ChildrenPage) seeks it in O(log n + k) under the
// tree's read lock, Children copies names out without sorting, and
// snapshots walk it in order. Transaction records all live under one
// directory, so a page of them costs the same at 100 records as at
// 100,000.
//
// A Client writes through one synchronous primitive, Multi (Create, Set
// and Delete are its one-op forms), and one group primitive, MultiAll,
// which commits independent batches in one proposal round. A Batcher,
// owned by the code that uses it, is the one asynchronous write path: it
// coalesces concurrent MultiAsync submissions into MultiAll rounds. A
// Watch (NodeWatch, ChildWatch) is the one kind of watch: it stays armed
// across events, coalescing them, until it is closed or its session
// expires.
package store

import "repro/tropic/trerr"

// Errors returned by store operations. They mirror the ZooKeeper error
// codes TROPIC's recipes (queues, election) depend on. Each sentinel
// carries its trerr taxonomy code, so a store failure that escapes to
// the HTTP gateway keeps a stable machine-readable identity
// (errors.Is against these sentinels continues to work as before).
var (
	// ErrNoNode is returned when the target znode does not exist.
	ErrNoNode = trerr.New(trerr.StoreNoNode, "store: node does not exist")
	// ErrNodeExists is returned by Create when the znode already exists.
	ErrNodeExists = trerr.New(trerr.StoreNodeExists, "store: node already exists")
	// ErrBadVersion is returned when a conditional Set/Delete specifies a
	// version that does not match the znode's current version.
	ErrBadVersion = trerr.New(trerr.StoreBadVersion, "store: version conflict")
	// ErrNotEmpty is returned by Delete when the znode still has children.
	ErrNotEmpty = trerr.New(trerr.StoreNotEmpty, "store: node has children")
	// ErrNoQuorum is returned when fewer than a majority of replicas are
	// alive and the ensemble cannot commit writes.
	ErrNoQuorum = trerr.New(trerr.StoreNoQuorum, "store: no quorum")
	// ErrSessionExpired is returned on any operation through a client whose
	// session the ensemble has expired.
	ErrSessionExpired = trerr.New(trerr.StoreSessionExpired, "store: session expired")
	// ErrEphemeralChildren is returned when creating a child under an
	// ephemeral znode, which ZooKeeper forbids.
	ErrEphemeralChildren = trerr.New(trerr.StoreEphemeralChildren, "store: ephemeral nodes may not have children")
	// ErrBadPath is returned for malformed znode paths.
	ErrBadPath = trerr.New(trerr.StoreBadPath, "store: invalid path")
	// ErrClosed is returned when the ensemble has been shut down.
	ErrClosed = trerr.New(trerr.StoreClosed, "store: ensemble closed")
)
