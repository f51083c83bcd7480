package controller

// Cross-shard two-phase commit (2PC). A submission whose resource roots
// hash to different shards is split by the client into one PARENT
// record on the coordinator shard (the lowest-numbered participant)
// plus one CHILD per participant shard. The coordinator shard's lead
// controller drives the protocol over the shards' independent
// coordination stores:
//
//	accept parent  → create child records + prepare notices on every
//	                 participant (one grouped Multi per shard)
//	participants   → simulate the full procedure, acquire locks, persist
//	                 state "prepared" (vote yes) or abort (vote no), and
//	                 report the vote to the coordinator's inputQ
//	coordinator    → all votes in: write the durable COMMIT/ABORT
//	                 decision into the parent record (state "deciding"),
//	                 then deliver it to every prepared child
//	participants   → commit: prepared → started + phyQ (physical
//	                 execution of the child's own-shard actions);
//	                 abort: roll back, release locks
//	coordinator    → all children terminal: finalize the parent
//	                 (committed iff every child committed)
//
// Crash safety: the decision lives in the parent record, which each
// shard's store persists and replays like any znode, so a participant
// leader elected after a crash resolves its in-doubt prepared children
// by reading the coordinator record (stageXResolve), and a coordinator
// leader resumes undecided or undelivered parents from its record scan
// (a resume event). An undecided parent past its prepare
// deadline is aborted with xshard.indoubt_timeout — the standard 2PC
// presumed-abort escape hatch — so crashed participants can never
// strand locks on the survivors.
//
// Every parent and child transition is one step function (step.go):
// parentStep for accepts, votes, child-dones, deadlines and resumes,
// childStep for commit, abort and restart. Their executors
// (stageXParent, stageXChild) stage the record write into the leader's
// event round, so message handling and recovery write through the same
// grouped flush. The one 2PC record write outside it is a wound's CAS on
// the coordinator's ledger (xWound), which another shard's leader makes.
//
// Lock waits between children cannot deadlock: every participant
// prepares children in one global order (shard.PrepareLess), and a child
// blocked by a prepared child later in that order wounds it — the
// younger child's vote is revoked at its coordinator and its prepare is
// voided and retried (xWound), so a wound delays a transaction but
// never aborts it.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/lock"
	"repro/internal/proto"
	"repro/internal/queue"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/tropic/trerr"
)

// XShardConfig wires a controller into the cross-shard transaction
// layer. Every controller has one: New resolves a nil Config.XShard to
// the one-shard map over the controller's own ensemble, where a parent
// naming any other shard fails its prepare and aborts.
type XShardConfig struct {
	// Self is this controller's shard index.
	Self int
	// Router resolves which shard owns a resource root (foreign-action
	// marking, parent id parsing).
	Router *shard.Router
	// Connect opens a store session on another shard's ensemble. The
	// controller caches one session per peer shard and closes them with
	// its own.
	Connect func(shard int) *store.Client
	// PrepareTimeout bounds how long an undecided parent may wait for
	// participant votes before the coordinator aborts it
	// (xshard.indoubt_timeout). It also paces re-delivery of decisions
	// to children that have not reported terminal. 0 selects
	// DefaultPrepareTimeout.
	PrepareTimeout time.Duration
	// Hook, when non-nil, observes coordinator protocol milestones
	// ("prepare_sent" after the prepare fan-out, "decided" after the
	// durable decision write). Chaos tests use it to crash the leader at
	// exact protocol points; nil in production.
	Hook func(event, parentID string)
}

// DefaultPrepareTimeout is the default vote-collection deadline.
const DefaultPrepareTimeout = 10 * time.Second

// Coordinator protocol events delivered to XShardConfig.Hook.
const (
	XEventPrepareSent = "prepare_sent"
	XEventDecided     = "decided"
)

// xTimeoutDur returns the resolved prepare deadline.
func (c *Controller) xTimeoutDur() time.Duration {
	if c.cfg.XShard.PrepareTimeout > 0 {
		return c.cfg.XShard.PrepareTimeout
	}
	return DefaultPrepareTimeout
}

// xHook fires a coordinator protocol event.
func (c *Controller) xHook(event, parentID string) {
	if c.cfg.XShard.Hook != nil {
		c.cfg.XShard.Hook(event, parentID)
	}
}

// peer is one shard's store session as the cross-shard layer reaches
// it, with the batcher every asynchronous send to that shard commits
// through, bounded like the platform's other batchers (BatchMaxOps,
// BatchMaxDelay).
type peer struct {
	cli *store.Client
	b   *store.Batcher
}

// xPeer returns the (cached) peer for shard i's ensemble — over the
// controller's own session for its own shard, so a Kill()ed controller
// loses its cross-shard reach exactly like its local one.
func (c *Controller) xPeer(i int) (*peer, error) {
	x := c.cfg.XShard
	c.xmu.Lock()
	defer c.xmu.Unlock()
	if c.killed.Load() {
		return nil, errors.New("controller: killed")
	}
	if p, ok := c.xpeers[i]; ok {
		return p, nil
	}
	cli := c.cli
	if i != x.Self {
		if x.Connect == nil {
			return nil, fmt.Errorf("controller: no connector for peer shard %d", i)
		}
		if cli = x.Connect(i); cli == nil {
			return nil, fmt.Errorf("controller: cannot connect to peer shard %d", i)
		}
	}
	if c.xpeers == nil {
		c.xpeers = make(map[int]*peer)
	}
	p := &peer{cli: cli, b: cli.NewBatcher(store.BatcherConfig{
		MaxOps:   c.batchMax(),
		MaxDelay: c.cfg.BatchMaxDelay,
	})}
	c.xpeers[i] = p
	return p, nil
}

// xKillPeers simulates the crash of this controller's cross-shard
// sessions alongside its own: each session dies first, so whatever its
// batcher still holds fails instead of committing.
func (c *Controller) xKillPeers() {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	for _, p := range c.xpeers {
		p.cli.Kill()
		p.b.Close()
	}
}

// xClosePeers flushes and releases the peers; the controller's own
// session is closed by its owner.
func (c *Controller) xClosePeers() {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	for i, p := range c.xpeers {
		p.b.Close()
		if p.cli != c.cli {
			p.cli.Close()
		}
		delete(c.xpeers, i)
	}
}

// xEnqueue appends one inputQ item on the given session (a peer shard's
// queue, or this shard's own for self-addressed deadline checks).
func xEnqueue(cli *store.Client, msg proto.InputMsg) error {
	return cli.Multi(queue.ItemOp(proto.InputQPath, msg.Encode()))
}

// peerSend is one staged cross-shard send: the ops of one logical
// message (or one message group, e.g. a child record plus its prepare
// notice) and its error disposition. onErr must tolerate a nil client
// (the peer was unreachable at flush time).
type peerSend struct {
	ops   []store.Op
	onErr func(cli *store.Client, err error)
}

// xPeerSend stages ops for shard i's store: every message bound for one
// peer in an event round (or in recovery) — several parents' prepares,
// decisions, votes — rides a single Multi through that peer's batcher
// when the round ends (xFlushPeerSends), asynchronously, never blocking
// the leader on the peer's quorum latency. Failures route to onErr (or
// the log): every cross-shard message has a recovery backstop (the
// coordinator's direct ledger sync, the prepare deadline, participant
// in-doubt resolution), so a lost message costs latency, never
// correctness.
func (c *Controller) xPeerSend(i int, what string, onErr func(cli *store.Client, err error), ops ...store.Op) {
	if onErr == nil {
		onErr = func(_ *store.Client, err error) {
			c.cfg.Logf("controller %s: %s: %v", c.cfg.Name, what, err)
		}
	}
	if c.peerSends == nil {
		c.peerSends = make(map[int][]peerSend)
	}
	c.peerSends[i] = append(c.peerSends[i], peerSend{ops: ops, onErr: onErr})
}

// xSendMsg stages one inputQ item for shard i (the common peerSend
// shape: votes, child-dones, decisions).
func (c *Controller) xSendMsg(i int, msg proto.InputMsg, what string) {
	c.xPeerSend(i, what, nil, queue.ItemOp(proto.InputQPath, msg.Encode()))
}

// xFlushPeerSends commits every send staged during the round, one
// grouped Multi per peer shard; an unreachable peer fails its sends. A
// failed group degrades to per-message sends so one bad op (a prepare's
// ErrNodeExists on a coordinator retry) cannot veto the rest of its
// peer's traffic.
func (c *Controller) xFlushPeerSends() {
	sends := c.peerSends
	c.peerSends = nil
	for i, group := range sends {
		p, err := c.xPeer(i)
		if err != nil {
			for _, s := range group {
				s.onErr(nil, err)
			}
			continue
		}
		var ops []store.Op
		for _, s := range group {
			ops = append(ops, s.ops...)
		}
		c.met.xPeerBatch.Observe(float64(len(ops)))
		ch := p.b.MultiAsync(ops...)
		go func() {
			if err := <-ch; err == nil {
				return
			}
			for _, s := range group {
				sch := p.b.MultiAsync(s.ops...)
				go func() {
					if err := <-sch; err != nil {
						s.onErr(p.cli, err)
					}
				}()
			}
		}()
	}
}

// --- Coordinator ------------------------------------------------------

// xBuildChild materializes the k'th child record of a parent: the full
// procedure invocation (every child keeps a whole-transaction view and
// simulates it all; foreign-action marking at prepare time restricts
// what it executes physically), linked back to the parent and carrying
// the participant set.
func (c *Controller) xBuildChild(parent *txn.Txn, k int) *txn.Txn {
	participants := make([]int, len(parent.Children))
	for i, ref := range parent.Children {
		participants[i] = ref.Shard
	}
	return &txn.Txn{
		Proc:         parent.Proc,
		Args:         parent.Args,
		State:        txn.StateInitialized,
		SubmittedAt:  parent.SubmittedAt,
		History:      []txn.StateStamp{{State: txn.StateInitialized, At: time.Now()}},
		Parent:       c.cfg.XShard.Router.QualifyID(c.cfg.XShard.Self, parent.ID),
		Participants: participants,
	}
}

// xSendPrepare ships the k'th child record and its prepare notice to
// the participant shard in one grouped Multi (staged per peer mid-round,
// asynchronous through that shard's batcher otherwise — the leader never
// blocks on a peer's quorum latency). Idempotent: if the child already
// exists (coordinator retry or recovery resume), only a fresh notice is
// sent, which the participant drops if the child has moved past
// initialized. A send lost to a crash is re-driven by coordinator
// recovery or resolved by the prepare deadline.
func (c *Controller) xSendPrepare(parent *txn.Txn, k int) {
	ref := parent.Children[k]
	childPath := proto.TxnsPath + "/" + ref.ID
	notice := proto.InputMsg{Kind: proto.KindSubmit, TxnPath: childPath}
	what := fmt.Sprintf("prepare %s to shard %d", ref.ID, ref.Shard)
	c.xPeerSend(ref.Shard,
		what,
		func(cli *store.Client, err error) {
			if errors.Is(err, store.ErrNodeExists) && cli != nil {
				err = xEnqueue(cli, notice)
			}
			if err != nil {
				c.cfg.Logf("controller %s: %s: %v", c.cfg.Name, what, err)
			}
		},
		store.CreateOp(childPath, c.xBuildChild(parent, k).Encode(), 0),
		queue.ItemOp(proto.InputQPath, notice.Encode()),
	)
}

// xArmTimeout schedules a deadline check for a parent into this shard's
// own inputQ, replacing the parent's earlier deadline. The check is
// processed by whichever controller leads when it fires (the enqueue is
// just a store write). The timer lives only while this controller
// leads: it is stopped when the parent finalizes and, with every other,
// when the controller stops leading or exits, so it never pins a
// stopped platform in memory or fires into a closed store. A parent
// whose coordinator crashed is re-armed by the next leader's recovery.
func (c *Controller) xArmTimeout(parentID string) {
	path := c.txnPath(parentID)
	c.xtMu.Lock()
	defer c.xtMu.Unlock()
	var tm *time.Timer
	tm = time.AfterFunc(c.xTimeoutDur(), func() {
		c.xtMu.Lock()
		current := c.xDeadlines[parentID] == tm
		if current {
			delete(c.xDeadlines, parentID)
		}
		c.xtMu.Unlock()
		if !current || c.killed.Load() {
			return // replaced, stopped after it fired, or crashed
		}
		// Free local read before the store write: a parent that
		// finalized long ago (the overwhelmingly common case) costs no
		// inputQ commit. Any read failure other than a reaped record
		// falls through to the enqueue — the deadline check errs toward
		// firing.
		data, _, err := c.cli.Get(path)
		switch {
		case errors.Is(err, store.ErrNoNode):
			return // record already reaped: long terminal
		case err == nil:
			if st, derr := txn.DecodeState(data); derr == nil && st.Terminal() {
				return
			}
		}
		if err := xEnqueue(c.cli, proto.InputMsg{Kind: proto.KindXTimeout, TxnPath: path}); err != nil {
			c.cfg.Logf("controller %s: arm xshard timeout for %s: %v", c.cfg.Name, parentID, err)
		}
	})
	if old := c.xDeadlines[parentID]; old != nil {
		old.Stop()
	}
	if c.xDeadlines == nil {
		c.xDeadlines = make(map[string]*time.Timer)
	}
	c.xDeadlines[parentID] = tm
}

// xStopDeadlines stops every armed deadline timer.
func (c *Controller) xStopDeadlines() {
	c.xtMu.Lock()
	for id, tm := range c.xDeadlines {
		tm.Stop()
		delete(c.xDeadlines, id)
	}
	c.xtMu.Unlock()
}

// XDeadlinesArmed reports how many cross-shard prepare-deadline timers
// this controller holds: one per parent it coordinates that has not
// finalized, and none once it stops leading.
func (c *Controller) XDeadlinesArmed() int {
	c.xtMu.Lock()
	defer c.xtMu.Unlock()
	return len(c.xDeadlines)
}

// xPhaseClock is the coordinator's in-memory phase timer for one parent
// in flight: when prepares fanned out and when the decision landed. It
// feeds the exported tropic_xshard_phase_seconds histogram; it is NOT
// persisted, so a parent coordinated across a failover simply goes
// untimed — timing is an observability aid, never a correctness input.
type xPhaseClock struct {
	prepStart time.Time
	decidedAt time.Time
}

// xClockStart stamps the prepare fan-out time for a parent, once.
func (c *Controller) xClockStart(id string) {
	c.xtMu.Lock()
	if c.xTimes == nil {
		c.xTimes = make(map[string]*xPhaseClock)
	}
	if _, ok := c.xTimes[id]; !ok {
		c.xTimes[id] = &xPhaseClock{prepStart: time.Now()}
	}
	c.xtMu.Unlock()
}

// xClockVote observes one participant's prepare round trip: fan-out to
// its first vote arriving at the coordinator.
func (c *Controller) xClockVote(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	c.xtMu.Unlock()
	if clk != nil {
		c.met.xPhase.With(c.met.shard, "vote").ObserveDuration(time.Since(clk.prepStart))
	}
}

// xClockDecided closes the prepare phase: fan-out to durable decision.
func (c *Controller) xClockDecided(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	if clk != nil {
		clk.decidedAt = time.Now()
	}
	c.xtMu.Unlock()
	if clk != nil {
		c.met.xPhase.With(c.met.shard, "prepare").ObserveDuration(clk.decidedAt.Sub(clk.prepStart))
	}
}

// xClockFinalized closes the decide phase (decision to finalized
// parent), drops the clock entry and stops the parent's deadline timer.
func (c *Controller) xClockFinalized(id string) {
	c.xtMu.Lock()
	clk := c.xTimes[id]
	delete(c.xTimes, id)
	if tm := c.xDeadlines[id]; tm != nil {
		tm.Stop()
		delete(c.xDeadlines, id)
	}
	c.xtMu.Unlock()
	if clk != nil && !clk.decidedAt.IsZero() {
		c.met.xPhase.With(c.met.shard, "decide").ObserveDuration(time.Since(clk.decidedAt))
	}
}

// xDecideMsg carries parent's decision to the child childID. via names
// how the decision skipped the decide-notice round trip ("local",
// "inline", "ack"), or is empty for a real notice.
func xDecideMsg(parent *txn.Txn, childID, via string) proto.InputMsg {
	msg := proto.InputMsg{
		Kind:     proto.KindXDecide,
		TxnPath:  proto.TxnsPath + "/" + childID,
		Decision: parent.Decision,
		Via:      via,
	}
	if parent.Decision == txn.DecisionAbort {
		msg.Error, msg.Code = parent.Error, parent.Code
	}
	return msg
}

// xSendDecide delivers the decision for child k to its shard's inputQ —
// or, for a coordinator-local child, straight to this controller's own
// leader loop in memory (no store round trip; a crash loses only the
// in-memory copy, and recovery's in-doubt resolution reads the decision
// off the parent record).
func (c *Controller) xSendDecide(rec *txn.Txn, k int) {
	ref := rec.Children[k]
	if ref.Shard == c.cfg.XShard.Self {
		if _, tracked := c.prepared[ref.ID]; !tracked {
			// Already applied (e.g. the inline piggyback staged it into
			// the decision round) — a delivery would just be consumed.
			return
		}
		c.enqueueLocal(xDecideMsg(rec, ref.ID, "local"))
		return
	}
	c.xSendMsg(ref.Shard, xDecideMsg(rec, ref.ID, ""), "decide for "+ref.ID)
}

// xWatchDecision is the participant half of decision piggybacking: arm
// a watch on the coordinator's parent record and deliver the 2PC
// decision to this shard's leader loop the moment the durable decision
// write lands — the decision rides the (watched) vote-ack instead of a
// decide notice through this shard's inputQ. Best-effort: on any
// failure or after two prepare-timeout windows the goroutine exits and
// the coordinator's paced re-delivery (real notices) resolves the
// child.
func (c *Controller) xWatchDecision(t *txn.Txn) {
	x := c.cfg.XShard
	coord, parentLocal, ok := x.Router.ResolveID(t.Parent)
	if !ok || coord == x.Self {
		return // local children get their decision delivered in memory
	}
	pr, err := c.xPeer(coord)
	if err != nil {
		return
	}
	cli, id := pr.cli, t.ID
	parentPath := proto.TxnsPath + "/" + parentLocal
	deadline := time.Now().Add(2 * c.xTimeoutDur())
	go func() {
		for time.Now().Before(deadline) {
			if c.killed.Load() {
				return
			}
			// Arm before reading, so a decision landing between the read
			// and the wait still fires the watch.
			w, err := cli.NodeWatch(parentPath)
			if err != nil {
				return
			}
			// Most changes are other votes landing: only a decided parent
			// is decoded in full.
			data, _, gerr := cli.Get(parentPath)
			if gerr != nil {
				w.Close()
				return
			}
			dec, derr := txn.DecodeDecision(data)
			if derr != nil {
				w.Close()
				return
			}
			if dec != "" {
				w.Close()
				if parent, err := txn.Decode(data); err == nil {
					c.enqueueLocal(xDecideMsg(parent, id, "ack"))
				}
				return
			}
			select {
			case _, open := <-w.C():
				w.Close()
				if !open {
					return // session expired; redelivery covers us
				}
			case <-time.After(time.Until(deadline)):
				w.Close()
				return
			}
		}
	}()
}

// xCountParent tallies a parent's terminal outcome once its finalize
// write committed, closes the decide-phase timer, and exports the
// outcome-labeled parent counter.
func (c *Controller) xCountParent(rec *txn.Txn) {
	var outcome string
	switch rec.State {
	case txn.StateCommitted:
		c.countStage(&c.stats.Committed, "committed")
		outcome = "committed"
	case txn.StateAborted:
		c.countStage(&c.stats.Aborted, "aborted")
		outcome = "aborted"
	case txn.StateFailed:
		c.countStage(&c.stats.Failed, "failed")
		outcome = "failed"
	default:
		return
	}
	c.met.xParents.With(c.met.shard, outcome).Inc()
	c.xClockFinalized(rec.ID)
}

// stageXParentMsg applies a vote, child-done or deadline notice to the
// parent it names (stageXParent). A second message touching the same
// parent this round stays queued for the next drain (the discipline
// shared with stageAccept).
func (c *Controller) stageXParentMsg(r *round, msg proto.InputMsg, itemPath string) error {
	rec, ok, err := c.loadStaged(r, msg, itemPath)
	if !ok {
		return err
	}
	if !rec.IsParent() {
		c.stageNotice(r, itemPath)
		return nil
	}
	ev := parentEvent{kind: evVote, child: msg.ChildIndex, state: txn.State(msg.Outcome),
		err: msg.Error, code: msg.Code, epoch: msg.Epoch}
	switch msg.Kind {
	case proto.KindXChildDone:
		ev.kind = evChildDone
	case proto.KindXTimeout:
		ev = parentEvent{kind: evDeadline, seen: c.xReadChildren(rec)}
	}
	return c.stageXParent(r, rec, ev, itemPath)
}

// stageXParent is parentStep's executor. It applies ev to rec, the held
// copy, and stages the record write — at the held version, so a write
// that raced it (a wound's CAS) fails the round, which re-runs against
// the fresh record — into the round together with the consumption of
// the event's notice at itemPath ("" for none). A step that fails drops
// the copy it changed from the table. An accept creates the
// coordinator-local child, already accepted, in the same Multi, skipping
// its cross-store prepare round and its accept's decode; a decision
// bound for a coordinator-local prepared child rides the same round
// ("inline"), so the durable decision and the child's promotion (or
// abort) commit in one Multi. The rest — counters, sends, the next
// deadline — runs once the round is durable.
func (c *Controller) stageXParent(r *round, rec *txn.Txn, ev parentEvent, itemPath string) error {
	path := c.txnPath(rec.ID)
	out, err := parentStep(rec, ev)
	if errors.Is(err, errXMalformed) {
		c.cfg.Logf("controller %s: %v", c.cfg.Name, err)
		c.stageNotice(r, itemPath)
		return nil
	}
	if err != nil {
		delete(c.held, path)
		return err
	}
	var inline, later []int
	for _, k := range out.deliver {
		ref := rec.Children[k]
		switch _, tracked := c.prepared[ref.ID]; {
		case ref.Shard != c.cfg.XShard.Self:
			if !out.eager {
				later = append(later, k)
			}
		case tracked && !r.staged[c.txnPath(ref.ID)]:
			inline = append(inline, k)
		default:
			// Not prepared in memory yet (its admission rides this round)
			// or already decided this round: xSendDecide re-checks once
			// the round is durable.
			later = append(later, k)
		}
	}
	c.stageNotice(r, itemPath)
	if out.write {
		r.put(c.recordOp(r, path, rec))
	}
	// An accept coalesces the coordinator-local child: its record rides
	// the parent's accepted write, so a 2-shard transaction pays one
	// remote prepare, not two. A resume sends the prepare instead, as the
	// child may exist already.
	accept := ev.kind == evAccept && out.accepted
	local := -1
	var kid *txn.Txn
	for _, k := range out.prepare {
		if ref := rec.Children[k]; accept && ref.Shard == c.cfg.XShard.Self {
			local, kid = k, c.xBuildChild(rec, k)
			kid.ID = ref.ID
			_ = kid.Transition(txn.StateAccepted) // a fresh record: cannot fail
			kidPath := c.txnPath(ref.ID)
			r.staged[kidPath] = true
			r.writes[kidPath] = heldRec{rec: kid}
			r.put(store.CreateOp(kidPath, kid.Encode(), 0))
			break
		}
	}
	r.stage(func() {
		if out.accepted {
			c.countStage(&c.stats.Accepted, "accepted")
		}
		if kid != nil {
			// No submit notice exists: the round's post-flush scheduling
			// pass prepares it, and recovery queues it like any accepted
			// record.
			c.todo = append(c.todo, kid)
			c.resched = true
			c.met.xLocalKids.Inc()
			c.countStage(&c.stats.Accepted, "accepted")
		}
		if out.firstVote {
			c.xClockVote(rec.ID)
		}
		if out.indoubt {
			c.met.xInDoubt.Inc()
		}
		if out.finalized {
			c.xCountParent(rec)
		}
		if out.decided {
			c.xClockDecided(rec.ID)
			c.xHook(XEventDecided, rec.ID)
		}
		if accept {
			c.xClockStart(rec.ID)
		}
		for _, k := range out.prepare {
			if k != local {
				c.xSendPrepare(rec, k)
			}
		}
		if accept {
			c.xHook(XEventPrepareSent, rec.ID)
		}
		for _, k := range later {
			c.xSendDecide(rec, k)
		}
		if out.rearm {
			c.xArmTimeout(rec.ID)
		}
	}, nil)
	// Staged after the parent's write: a child whose stage fails still
	// gets the decision, delivered once the round is durable.
	for _, k := range inline {
		id := rec.Children[k].ID
		if err := c.stageXChild(r, xDecideMsg(rec, id, "inline"), ""); err != nil {
			c.cfg.Logf("controller %s: inline decide for %s: %v", c.cfg.Name, id, err)
			later = append(later, k)
		}
	}
	return nil
}

// xReadChildren reads the record of every child whose ledger entry is
// open straight from its shard, for a deadline or a resume to sync the
// ledger with (syncLedger). A child on a shard outside the map (only a
// hand-written parent names one) has no record anywhere, like a child
// whose prepare send was lost.
func (c *Controller) xReadChildren(rec *txn.Txn) []childRead {
	shards := c.cfg.XShard.Router.Shards()
	seen := make([]childRead, len(rec.Children))
	for k, ref := range rec.Children {
		if ref.State.Terminal() {
			continue
		}
		if ref.Shard < 0 || ref.Shard >= shards {
			seen[k].missing = true
			continue
		}
		pr, err := c.xPeer(ref.Shard)
		if err != nil {
			continue
		}
		data, _, err := pr.cli.Get(proto.TxnsPath + "/" + ref.ID)
		if errors.Is(err, store.ErrNoNode) {
			seen[k].missing = true
			continue
		}
		if err != nil {
			continue
		}
		if child, err := txn.Decode(data); err == nil {
			seen[k] = childRead{state: child.State, epoch: child.Epoch, err: child.Error, code: child.Code}
		}
	}
	return seen
}

// --- Participant ------------------------------------------------------

// xMarkForeign assigns each of a child's log records to exactly one
// executing shard: the owner of the record's path, or the coordinator's
// child for paths no participant owns (a procedure touching a path
// outside its arguments' roots). Foreign records still simulate, lock,
// and roll back here — only physical execution is elsewhere.
func (c *Controller) xMarkForeign(t *txn.Txn) {
	x := c.cfg.XShard
	if !t.IsChild() {
		return
	}
	coordinator := x.Self
	inPlan := make(map[int]bool, len(t.Participants))
	for _, s := range t.Participants {
		inPlan[s] = true
	}
	if len(t.Participants) > 0 {
		coordinator = t.Participants[0]
	}
	for i := range t.Log {
		owner := x.Router.RouteTarget(t.Log[i].Path)
		executes := owner == x.Self || (!inPlan[owner] && x.Self == coordinator)
		t.Log[i].Foreign = !executes
	}
}

// xParentOf locates child t's parent: the coordinator shard, the
// parent record's path there, and t's index in its ledger. ok=false
// when t's ids do not parse.
func (c *Controller) xParentOf(t *txn.Txn) (coord int, parentPath string, k int, ok bool) {
	coord, parentLocal, ok := c.cfg.XShard.Router.ResolveID(t.Parent)
	if !ok {
		return 0, "", 0, false
	}
	if _, k, ok = shard.ParseChildID(t.ID); !ok {
		return 0, "", 0, false
	}
	return coord, proto.TxnsPath + "/" + parentLocal, k, true
}

// xReportMsg is child t's report of its state to the ledger entry k of
// the parent at parentPath: a vote (kind KindXVote, prepared or
// aborted, carrying the prepare attempt it speaks for) or a terminal
// outcome (KindXChildDone).
func xReportMsg(kind proto.MsgKind, t *txn.Txn, parentPath string, k int) proto.InputMsg {
	msg := proto.InputMsg{
		Kind:       kind,
		TxnPath:    parentPath,
		ChildIndex: k,
		Outcome:    string(t.State),
		Error:      t.Error,
		Code:       t.Code,
	}
	if kind == proto.KindXVote {
		msg.Epoch = t.Epoch
	}
	return msg
}

// xSendReport sends child t's vote or terminal outcome to its
// coordinator's inputQ, or, when this shard IS the coordinator, straight
// to the local leader loop in memory (the coordinator-local child's
// reports never leave the process). Best-effort either way: a lost
// report is recovered by the coordinator's direct ledger sync or,
// failing that, the prepare deadline.
func (c *Controller) xSendReport(kind proto.MsgKind, t *txn.Txn) {
	coord, parentPath, k, ok := c.xParentOf(t)
	if !ok {
		c.cfg.Logf("controller %s: child %s has malformed ids (parent %q)", c.cfg.Name, t.ID, t.Parent)
		return
	}
	msg := xReportMsg(kind, t, parentPath, k)
	if coord == c.cfg.XShard.Self {
		c.enqueueLocal(msg)
		return
	}
	c.xSendMsg(coord, msg, string(kind)+" for "+t.ID)
}

// stageXLocalVote folds the yes-vote of a coordinator-local child
// admitted as prepared this round into the same round: the parent-ledger
// write commits atomically with the child's durable prepare, so the
// local vote costs no store commit and no leader round of its own.
// Returns false when the child must vote by message instead (not
// coordinated here, or its parent already has a write staged this
// round). On a failed flush the child is unwound and votes again when
// the re-run admits it.
func (c *Controller) stageXLocalVote(r *round, t *txn.Txn) bool {
	coord, parentPath, k, ok := c.xParentOf(t)
	if !ok || coord != c.cfg.XShard.Self || r.staged[parentPath] {
		return false
	}
	rec, err := c.loadTxn(parentPath)
	if err != nil {
		return false
	}
	ev := parentEvent{kind: evVote, child: k, state: t.State, epoch: t.Epoch}
	return c.stageXParent(r, rec, ev, "") == nil
}

// stageXChildDoneLocal stages a terminal local child's child-done
// ledger write (and, when it completes the set, the parent's finalize)
// into the round that persists the child's own terminal state
// (stageCleanup's committed branch), when this shard coordinates the
// parent. Returns true when the report was staged or queued — the
// caller then skips its child-done report.
func (c *Controller) stageXChildDoneLocal(r *round, t *txn.Txn) bool {
	coord, parentPath, k, ok := c.xParentOf(t)
	if !ok || coord != c.cfg.XShard.Self {
		return false
	}
	msg := xReportMsg(proto.KindXChildDone, t, parentPath, k)
	if err := c.stageXParentMsg(r, msg, ""); err != nil {
		c.cfg.Logf("controller %s: inline child-done for %s: %v", c.cfg.Name, t.ID, err)
		c.enqueueLocal(msg)
	}
	return true
}

// stageXChild is childStep's executor for a decide or restart message
// naming a prepared child tracked here. The child's write — at the
// version it was read at, with the phyQ enqueue for a commit — and the
// notice's consumption ride the round's grouped Multi, so decisions for
// many transactions share one store commit. Rollback and lock release
// (abort, restart) run only once the write is durable, the
// persist-before-rollback discipline of cleanup; a failed flush undoes
// the in-memory step. A late, duplicate or malformed message, or one for
// a child not prepared, is consumed without acting: prepared on disk but
// untracked in memory can only mean a bug in recovery, and refusing to
// act blind keeps the store consistent.
func (c *Controller) stageXChild(r *round, msg proto.InputMsg, itemPath string) error {
	rec, ok, err := c.loadStaged(r, msg, itemPath)
	if !ok {
		return err
	}
	t, tracked := c.prepared[rec.ID]
	if rec.State != txn.StatePrepared || !tracked {
		if rec.State == txn.StatePrepared {
			c.cfg.Logf("controller %s: %s for untracked prepared child %s", c.cfg.Name, msg.Kind, rec.ID)
		}
		c.stageNotice(r, itemPath)
		return nil
	}
	// What childStep may change, to undo it if the round fails.
	state, history, completed, log := t.State, t.History, t.CompletedAt, t.Log
	epoch, errStr, code, via := t.Epoch, t.Error, t.Code, t.DecisionVia
	undo := func() {
		t.State, t.History, t.CompletedAt, t.Log = state, history, completed, log
		t.Epoch, t.Error, t.Code, t.DecisionVia = epoch, errStr, code, via
	}
	out, err := childStep(t, childEvent{restart: msg.Kind == proto.KindXRestart, epoch: msg.Epoch,
		decision: msg.Decision, via: msg.Via, err: msg.Error, code: msg.Code})
	if err != nil {
		undo()
		if !errors.Is(err, errXMalformed) {
			return err
		}
		c.cfg.Logf("controller %s: %v", c.cfg.Name, err)
	}
	c.stageNotice(r, itemPath)
	if !out.write {
		return nil
	}
	path := c.txnPath(t.ID)
	r.put(c.recordOp(r, path, t))
	if out.execute {
		r.put(c.phyQ.PutOp(proto.PhyMsg{TxnPath: path}.Encode()))
	}
	r.stage(func() {
		if out.piggy {
			c.met.xPiggy.Inc()
		}
		delete(c.prepared, t.ID)
		if out.execute {
			c.inFlight[t.ID] = t
			return
		}
		c.rollbackTimed(t.ID, out.rollback)
		c.locks.ReleaseAll(t.ID)
		// The freed locks may unblock deferred work this round's
		// scheduling pass already skipped.
		c.resched = true
		if out.requeue {
			c.todo = append(c.todo, t)
		}
		if out.done {
			c.countStage(&c.stats.Aborted, "aborted")
			c.xSendReport(proto.KindXChildDone, t)
		}
	}, undo)
	return nil
}

// --- Recovery ---------------------------------------------------------

// stageXResolve resolves one recovered prepared child against its
// coordinator's record — the §2.3 recovery protocol extended across
// shards — staging the outcome into the recovery round. A commit
// decision promotes the child into phyQ (it was never enqueued: prepared
// children enter phyQ only by promotion, so execution stays exactly-once
// across the failover); an abort decision rolls it back; a ledger that
// has voided this attempt restarts it. Undecided, the child stays
// prepared, locks held, and votes again.
func (c *Controller) stageXResolve(r *round, t *txn.Txn) {
	r.stage(c.met.xInDoubt.Inc, nil)
	coord, parentLocal, ok := c.cfg.XShard.Router.ResolveID(t.Parent)
	if !ok {
		c.cfg.Logf("controller %s: child %s has malformed parent id %q", c.cfg.Name, t.ID, t.Parent)
		return
	}
	pr, err := c.xPeer(coord)
	if err != nil {
		c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
		return
	}
	path := c.txnPath(t.ID)
	data, _, err := pr.cli.Get(proto.TxnsPath + "/" + parentLocal)
	var msg proto.InputMsg
	switch {
	case errors.Is(err, store.ErrNoNode):
		// A prepared child always has a coordinator record (the parent is
		// created before any child and outlives them all); a missing one
		// is unreachable state — abort rather than hold locks forever.
		c.cfg.Logf("controller %s: in-doubt child %s has no coordinator record %s; aborting",
			c.cfg.Name, t.ID, t.Parent)
		msg = proto.InputMsg{Kind: proto.KindXDecide, TxnPath: path, Decision: txn.DecisionAbort,
			Error: "coordinator record missing", Code: string(trerr.XShardPrepareFailed)}
	case err != nil:
		// Coordinator shard unreachable: stay prepared, re-vote so a
		// recovered coordinator sees us, and let its deadline decide.
		c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
		r.stage(func() { c.xSendReport(proto.KindXVote, t) }, nil)
		return
	default:
		parent, err := txn.Decode(data)
		if err != nil {
			c.cfg.Logf("controller %s: decode coordinator record for %s: %v", c.cfg.Name, t.ID, err)
			return
		}
		_, k, ok := shard.ParseChildID(t.ID)
		switch {
		case parent.Decision != "":
			msg = xDecideMsg(parent, t.ID, "")
		case ok && k < len(parent.Children) && parent.Children[k].Epoch > t.Epoch:
			// Wound-wait voided this prepare and the old leader died before
			// restarting it.
			msg = proto.InputMsg{Kind: proto.KindXRestart, TxnPath: path, Epoch: parent.Children[k].Epoch}
		default:
			// Undecided: re-vote — the old leader's vote may never have
			// left this shard — and re-arm the decision watch, which died
			// with the old leader; the coordinator skips the eager decide
			// notice assuming a watch exists.
			r.stage(func() {
				c.xSendReport(proto.KindXVote, t)
				c.xWatchDecision(t)
			}, nil)
			return
		}
	}
	if err := c.stageXChild(r, msg, ""); err != nil {
		c.cfg.Logf("controller %s: resolve in-doubt %s: %v", c.cfg.Name, t.ID, err)
	}
}

// --- Deterministic prepare order & wound-wait -------------------------

// xOrderChildren sorts the cross-shard children waiting in todoQ into
// the deterministic global prepare order (shard.PrepareLess: by parent
// id, then child index), leaving single-shard work in place. Every
// participant scheduling its children in the same order makes the
// classic 2PC lock-order inversion — shard A prepares t1 then t2, shard
// B prepares t2 then t1, both stuck until the prepare deadline — simply
// not arise between transactions that are both still waiting; wound-wait
// (xMaybeWound) covers the races that slip through interleaved rounds.
//
// It runs on every scheduling round, so it allocates only when there
// are children to sort.
func (c *Controller) xOrderChildren() {
	n := 0
	for _, t := range c.todo {
		if t.IsChild() {
			n++
		}
	}
	if n < 2 {
		return
	}
	idx := make([]int, 0, n)
	for i, t := range c.todo {
		if t.IsChild() {
			idx = append(idx, i)
		}
	}
	kids := make([]*txn.Txn, len(idx))
	for j, i := range idx {
		kids[j] = c.todo[i]
	}
	sort.SliceStable(kids, func(a, b int) bool {
		return shard.PrepareLess(kids[a].ID, kids[b].ID)
	})
	for j, i := range idx {
		c.todo[i] = kids[j]
	}
}

// xMaybeWound runs when a cross-shard child's lock acquisition
// conflicted: if any conflicting holder is a PREPARED child of a
// YOUNGER cross-shard transaction (later in the global prepare order),
// this is a lock-order inversion that local ordering could not prevent
// — the younger transaction won its locks on this shard before the
// older one arrived. Waiting may resolve nothing (the younger one's own
// prepare can be blocked on another shard by the older one), so wound
// it: void its prepare here and requeue it behind the older one.
// Holders that are merely in-flight (already executing) finish on their
// own; only prepared holders — parked awaiting a decision — can
// deadlock. A holder whose decision or restart this round has staged
// is no longer prepared in memory: its locks go once the round lands,
// and a wound would void the attempt its restart is about to start.
func (c *Controller) xMaybeWound(t *txn.Txn, reqs []lock.Request) {
	for _, conflict := range c.locks.Conflicts(t.ID, reqs) {
		victim, ok := c.prepared[conflict.Holder]
		if !ok || victim.State != txn.StatePrepared || !shard.PrepareLess(t.ID, conflict.Holder) {
			continue
		}
		c.xWound(victim)
	}
}

// xWound restarts the (younger) victim's prepare — textbook wound-wait,
// where the wounded transaction retries under its original timestamp
// (here its parent id, its place in shard.PrepareLess order) instead of
// aborting. A prepared child's yes-vote may already count at the
// coordinator, so the vote is revoked there first: a CAS write to the
// parent record bumps the child's ledger epoch and clears its vote,
// given up if the parent has a decision (which frees the victim's locks
// anyway) or the attempt is already voided. Only once that write is
// durable does this shard's leader void the prepare (a restart event),
// so the coordinator can never decide commit on a vote whose locks were
// released. A victim whose attempt the ledger has already voided gets
// its restart sent again, so a restart lost to a failed write is
// repaired by the next conflict on its locks. Asynchronous and
// best-effort — a lost wound costs the prepare-deadline window, never
// correctness.
func (c *Controller) xWound(victim *txn.Txn) {
	coord, parentLocal, ok := c.cfg.XShard.Router.ResolveID(victim.Parent)
	if !ok {
		return
	}
	_, k, ok := shard.ParseChildID(victim.ID)
	if !ok {
		return
	}
	id, epoch := victim.ID, victim.Epoch
	c.wmu.Lock()
	if c.wounding == nil {
		c.wounding = make(map[string]bool)
	}
	if c.wounding[id] {
		c.wmu.Unlock()
		return // a wound for this child is already in flight
	}
	c.wounding[id] = true
	c.wmu.Unlock()
	unmark := func() {
		c.wmu.Lock()
		delete(c.wounding, id)
		c.wmu.Unlock()
	}
	pr, err := c.xPeer(coord)
	if err != nil {
		unmark()
		return
	}
	cli := pr.cli
	parentPath := proto.TxnsPath + "/" + parentLocal
	go func() {
		defer unmark()
		for try := 0; try < 8; try++ {
			if c.killed.Load() {
				return
			}
			data, stat, err := cli.Get(parentPath)
			if err != nil {
				return
			}
			parent, err := txn.Decode(data)
			if err != nil {
				return
			}
			if parent.Decision != "" || parent.State != txn.StateAccepted || k >= len(parent.Children) {
				return // decided: the decision releases the victim
			}
			ref := &parent.Children[k]
			if ref.State.Terminal() || ref.Epoch < epoch {
				return // the child is done (or the ledger lags the child)
			}
			if ref.Epoch > epoch {
				// An earlier wound voided this attempt, but its restart
				// never took effect here (lost with a failed write): send
				// it again. A restart at an epoch the child has
				// already reached does nothing.
				c.enqueueLocal(proto.InputMsg{Kind: proto.KindXRestart, TxnPath: c.txnPath(id), Epoch: ref.Epoch})
				return
			}
			parent.ID = parentLocal
			ref.Epoch, ref.State, ref.Error, ref.Code = epoch+1, "", "", ""
			err = cli.Set(parentPath, parent.Encode(), stat.Version)
			if err == nil {
				c.met.xWounds.Inc()
				c.enqueueLocal(proto.InputMsg{Kind: proto.KindXRestart, TxnPath: c.txnPath(id), Epoch: epoch + 1})
				return
			}
			if !errors.Is(err, store.ErrBadVersion) {
				return
			}
			// Lost a CAS race (a vote landed, or the coordinator decided);
			// re-read and re-check.
		}
	}()
}

// gcReapable guards the terminal-record sweep against breaking 2PC
// recovery: a PARENT may be reaped only once every ledger entry is
// terminal (children still resolve their in-doubt state by reading it),
// and a CHILD only once its parent is terminal or gone (an in-flight
// parent's ledger sync still reads child records directly). Peer-read
// failures err toward keeping the record — the next checkpoint retries.
func (c *Controller) gcReapable(rec *txn.Txn) bool {
	if rec.IsParent() {
		return xAllTerminal(rec)
	}
	if !rec.IsChild() {
		return true
	}
	coord, parentLocal, ok := c.cfg.XShard.Router.ResolveID(rec.Parent)
	if !ok {
		return true
	}
	pr, err := c.xPeer(coord)
	if err != nil {
		return false
	}
	cli := pr.cli
	data, _, err := cli.Get(proto.TxnsPath + "/" + parentLocal)
	if errors.Is(err, store.ErrNoNode) {
		return true // parent already reaped: its ledger completed
	}
	if err != nil {
		return false
	}
	parent, err := txn.Decode(data)
	if err != nil {
		return false
	}
	return parent.State.Terminal()
}
