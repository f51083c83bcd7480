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

// watcher is a watch registration. It stays registered across events
// until it is closed or its session expires: deliveries are
// non-blocking into a capacity-1 channel, so back-to-back changes
// coalesce into one pending wakeup — level-triggered semantics (one
// pending event means "re-read", however many changes produced it).
type watcher struct {
	ch      chan Event
	session int64
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

func (wt *watchTable) add(m map[string][]*watcher, path string, w *watcher) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	m[path] = append(m[path], w)
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

// fire delivers accumulated events non-blockingly while the mutex is
// held: every watcher stays in the table, and holding the mutex means a
// concurrent cancel cannot close a channel mid-send.
func (wt *watchTable) fire(f *firedWatches) {
	if f == nil {
		return
	}
	wt.mu.Lock()
	defer wt.mu.Unlock()
	deliver := func(ws []*watcher, ev Event) {
		for _, w := range ws {
			select {
			case w.ch <- ev:
			default: // coalesce: a wakeup is already pending
			}
		}
	}
	for _, ev := range f.node {
		deliver(wt.node[ev.Path], ev)
	}
	for _, path := range f.child {
		deliver(wt.child[path], Event{Type: EventChildrenChanged, Path: path})
	}
}

// expireSession removes every watch registered by the session and
// closes its channel, after an EventSessionExpired when the slot is
// free (it may hold a coalesced event; the closed channel itself
// signals expiry to the consumer either way).
func (wt *watchTable) expireSession(session int64) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	for _, m := range []map[string][]*watcher{wt.node, wt.child} {
		for path, ws := range m {
			keep := ws[:0]
			for _, w := range ws {
				if w.session != session {
					keep = append(keep, w)
					continue
				}
				select {
				case w.ch <- Event{Type: EventSessionExpired}:
				default:
				}
				close(w.ch)
			}
			clear(ws[len(keep):])
			if len(keep) == 0 {
				delete(m, path)
			} else {
				m[path] = keep
			}
		}
	}
}

// cancel removes a watcher by identity and closes its channel. A
// watcher already removed (closed before, or reaped with its session)
// is left alone, so each channel is closed exactly once.
func (wt *watchTable) cancel(m map[string][]*watcher, path string, w *watcher) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	ws := m[path]
	for i, x := range ws {
		if x != w {
			continue
		}
		ws = append(ws[:i], ws[i+1:]...)
		if len(ws) == 0 {
			delete(m, path)
		} else {
			m[path] = ws
		}
		close(w.ch)
		return
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

// Watch is a registration made by Client.NodeWatch or Client.ChildWatch.
// It stays armed across events, with back-to-back changes coalescing
// into one pending wakeup, until Close. A closed channel means the
// session expired (an EventSessionExpired may precede the close when the
// slot was free). The usual pattern arms the watch, then reads, so no
// change can slip between the read and the registration, and closes it
// on every exit.
type Watch struct {
	path string
	w    *watcher
	m    map[string][]*watcher
	wt   *watchTable
}

// C returns the event channel.
func (w *Watch) C() <-chan Event { return w.w.ch }

// Close releases the watch and closes its channel. Idempotent.
func (w *Watch) Close() { w.wt.cancel(w.m, w.path, w.w) }
