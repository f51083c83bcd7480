package store

import "sync"

// EventType identifies what happened to a watched znode.
type EventType int

const (
	// EventCreated fires when the watched path is created.
	EventCreated EventType = iota
	// EventDeleted fires when the watched path is deleted.
	EventDeleted
	// EventDataChanged fires when the watched path's data is set.
	EventDataChanged
	// EventChildrenChanged fires when a child of the watched path is
	// created or deleted.
	EventChildrenChanged
	// EventSessionExpired is delivered to all of a client's outstanding
	// watches when its session expires.
	EventSessionExpired
)

// String renders the event type for logs.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventDataChanged:
		return "data-changed"
	case EventChildrenChanged:
		return "children-changed"
	case EventSessionExpired:
		return "session-expired"
	default:
		return "unknown"
	}
}

// Event notifies a watcher of a change.
type Event struct {
	Type EventType
	Path string
}

// watcher is a watch registration. One-shot watchers (the default,
// matching ZooKeeper semantics) have a capacity-1 channel that delivers
// exactly one event and is then closed. Persistent watchers stay
// registered across events: deliveries are non-blocking into the same
// capacity-1 channel, so back-to-back changes coalesce into one pending
// wakeup — exactly the level-triggered semantics a queue consumer needs
// (one pending event means "re-list", however many changes produced it).
type watcher struct {
	ch         chan Event
	session    int64
	persistent bool
}

// watchTable indexes outstanding watches by path. Node watches observe
// create/delete/set on the path itself; child watches observe membership
// changes of the path's children.
type watchTable struct {
	mu    sync.Mutex
	node  map[string][]*watcher
	child map[string][]*watcher
}

func newWatchTable() *watchTable {
	return &watchTable{
		node:  make(map[string][]*watcher),
		child: make(map[string][]*watcher),
	}
}

func (wt *watchTable) addNode(path string, w *watcher) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	wt.node[path] = append(wt.node[path], w)
}

func (wt *watchTable) addChild(path string, w *watcher) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	wt.child[path] = append(wt.child[path], w)
}

// cancelNode removes an armed node watch that will not be consumed,
// identified by its channel, and closes the channel without delivering
// an event. A watch that already fired (and was therefore removed) is
// left alone — each watcher is finalized by exactly one path, since
// both fire and cancel detach it from the table under the mutex before
// touching the channel.
func (wt *watchTable) cancelNode(path string, ch <-chan Event) {
	wt.mu.Lock()
	var victim *watcher
	ws := wt.node[path]
	for i, w := range ws {
		if w.ch == ch {
			victim = w
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(wt.node, path)
	} else if victim != nil {
		wt.node[path] = ws
	}
	wt.mu.Unlock()
	if victim != nil {
		close(victim.ch)
	}
}

// firedWatches accumulates the events produced while applying one
// committed operation; fire delivers them after the tree mutation is
// complete.
type firedWatches struct {
	node  []Event
	child []string
}

func (f *firedWatches) reset() { f.node, f.child = f.node[:0], f.child[:0] }

func (f *firedWatches) add(path string, t EventType) {
	if f != nil {
		f.node = append(f.node, Event{Type: t, Path: path})
	}
}

func (f *firedWatches) addChild(path string) {
	if f != nil {
		f.child = append(f.child, path)
	}
}

// fire delivers accumulated events. One-shot watchers are detached under
// the mutex and finalized (delivered + closed) after it, so exactly one
// path ever touches their channel. Persistent watchers are delivered
// non-blockingly while the mutex is held — they stay in the table, and
// holding the mutex means a concurrent cancel cannot close the channel
// mid-send.
func (wt *watchTable) fire(f *firedWatches) {
	if f == nil {
		return
	}
	wt.mu.Lock()
	var deliveries []struct {
		w  *watcher
		ev Event
	}
	deliver := func(m map[string][]*watcher, path string, ev Event) {
		ws := m[path]
		if len(ws) == 0 {
			return
		}
		keep := ws[:0] // filtered in place: persistent watchers stay
		for _, w := range ws {
			if w.persistent {
				select {
				case w.ch <- ev:
				default: // coalesce: a wakeup is already pending
				}
				keep = append(keep, w)
				continue
			}
			deliveries = append(deliveries, struct {
				w  *watcher
				ev Event
			}{w, ev})
		}
		clear(ws[len(keep):]) // drop the detached watchers' pointers
		if len(keep) == 0 {
			delete(m, path)
		} else {
			m[path] = keep
		}
	}
	for _, ev := range f.node {
		deliver(wt.node, ev.Path, ev)
	}
	for _, path := range f.child {
		deliver(wt.child, path, Event{Type: EventChildrenChanged, Path: path})
	}
	wt.mu.Unlock()
	for _, d := range deliveries {
		d.w.ch <- d.ev
		close(d.w.ch)
	}
}

// expireSession delivers EventSessionExpired to all watches registered by
// the session and removes them.
func (wt *watchTable) expireSession(session int64) {
	wt.mu.Lock()
	var victims []*watcher
	for path, ws := range wt.node {
		var keep []*watcher
		for _, w := range ws {
			if w.session == session {
				victims = append(victims, w)
			} else {
				keep = append(keep, w)
			}
		}
		if len(keep) == 0 {
			delete(wt.node, path)
		} else {
			wt.node[path] = keep
		}
	}
	for path, ws := range wt.child {
		var keep []*watcher
		for _, w := range ws {
			if w.session == session {
				victims = append(victims, w)
			} else {
				keep = append(keep, w)
			}
		}
		if len(keep) == 0 {
			delete(wt.child, path)
		} else {
			wt.child[path] = keep
		}
	}
	wt.mu.Unlock()
	for _, w := range victims {
		if w.persistent {
			// The slot may hold a coalesced event; the closed channel
			// itself signals expiry to the consumer either way.
			select {
			case w.ch <- Event{Type: EventSessionExpired}:
			default:
			}
		} else {
			w.ch <- Event{Type: EventSessionExpired}
		}
		close(w.ch)
	}
}

// cancelChild removes a child watcher (persistent or one-shot) that will
// not be consumed further and closes its channel. Safe against
// concurrent fire: the watcher is detached under the mutex before the
// channel is touched, and persistent deliveries happen under the same
// mutex, so exactly one path finalizes it.
func (wt *watchTable) cancelChild(path string, w *watcher) {
	wt.mu.Lock()
	ws := wt.child[path]
	found := false
	for i, x := range ws {
		if x == w {
			found = true
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(wt.child, path)
	} else if found {
		wt.child[path] = ws
	}
	wt.mu.Unlock()
	if found {
		close(w.ch)
	}
}

// cancelNodeWatcher is cancelChild for the node map: it removes a node
// watcher (persistent or one-shot) by identity and closes its channel,
// with the same detach-under-mutex finalization guarantee.
func (wt *watchTable) cancelNodeWatcher(path string, w *watcher) {
	wt.mu.Lock()
	ws := wt.node[path]
	found := false
	for i, x := range ws {
		if x == w {
			found = true
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(wt.node, path)
	} else if found {
		wt.node[path] = ws
	}
	wt.mu.Unlock()
	if found {
		close(w.ch)
	}
}

// counts reports outstanding watch registrations, for leak tests and the
// stats surface.
func (wt *watchTable) counts() (node, child int) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	for _, ws := range wt.node {
		node += len(ws)
	}
	for _, ws := range wt.child {
		child += len(ws)
	}
	return node, child
}

// ChildWatch is a reusable child watch: unlike the one-shot
// WatchChildren, it stays armed across events, with back-to-back
// membership changes coalescing into one pending wakeup. A closed
// channel means the session expired (an EventSessionExpired may precede
// the close when the slot was free). Close releases the registration;
// queue consumers arm one ChildWatch per blocking take instead of
// leaking a fresh one-shot watch per poll round.
type ChildWatch struct {
	path string
	w    *watcher
	wt   *watchTable
}

// C returns the event channel.
func (cw *ChildWatch) C() <-chan Event { return cw.w.ch }

// Close releases the watch and closes its channel. Idempotent.
func (cw *ChildWatch) Close() { cw.wt.cancelChild(cw.path, cw.w) }

// NodeWatch is ChildWatch's node-level sibling: a reusable watch on
// create/delete/set of one path, coalescing back-to-back changes into
// one pending wakeup. A closed channel means the session expired. One
// NodeWatch fans out to arbitrarily many read-path subscribers, which
// is what keeps 100k concurrent watch streams at O(records) store
// watches instead of O(sessions).
type NodeWatch struct {
	path string
	w    *watcher
	wt   *watchTable
}

// C returns the event channel.
func (nw *NodeWatch) C() <-chan Event { return nw.w.ch }

// Close releases the watch and closes its channel. Idempotent.
func (nw *NodeWatch) Close() { nw.wt.cancelNodeWatcher(nw.path, nw.w) }
