package fastpath

// Replay plans. Every kernel cell of a batch replays the same snapshot
// range, and most of what a replay computes does not depend on the
// predictor: which events are conditional branches, their PCs, targets
// and outcomes, the instruction, trap, class and taken counts, and where
// the context switches fall. A Plan computes all of that once; the
// kernel loops then walk the plan's conditional-branch columns and step
// only the predictor. The functions that walk the snapshot here (plan*)
// are held to the hot-loop contract by the flatloop and hotalloc
// analyzers, like the loops themselves.

import (
	"math"
	"slices"
	"sort"
	"sync"

	"twolevel/internal/flat"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// Plan is the predictor-independent half of replaying one snapshot
// range: columns indexed by conditional branch — the branch's
// resolution index — plus one view per budget and context-switch
// configuration. NewPlan builds one for a batch of kernels and Replay
// runs each kernel over it; a built plan is only read, so any number of
// kernels may replay it at once.
type Plan struct {
	snap  trace.Snapshot
	start int // event index of the range's first event

	// Per conditional branch j.
	pcs, targets []uint32
	outs         []uint8 // outcome: 1 taken, 0 not taken

	// Dense PC ids in first-occurrence order, built only when some
	// kernel of the plan profiles mispredicts per PC or keeps a log
	// (Tap.Telemetry, Tap.Forensics):
	// ids[j] is branch j's site, sites[id] its PC, first[id] the branch
	// index of its first occurrence (ascending in id).
	ids   []int32
	sites []uint32
	first []int32
	idx   flat.PCIndex

	// polls holds one entry per checkInterval events of the range: the
	// branch index before which that cancellation poll falls.
	polls []int32
	buf   *columns // recycled storage of the columns above (nil after Release)

	views []view

	mu     sync.Mutex
	counts map[int]telemetry.SiteCounts // per-site executions over a branch prefix, by prefix length
}

// viewKey identifies one replay over a plan.
type viewKey struct {
	end    int    // exclusive event bound
	budget uint64 // conditional-branch bound (0 = none)
	cs     bool   // context-switch injection
	// The quantum and the instructions since the last switch at the
	// range's start; both zero unless cs.
	interval, sinceCS uint64
}

// view is the predictor-independent outcome of one complete replay.
type view struct {
	key   viewKey
	conds int // conditional branches resolved
	end   int // event index just past the replay
	// c holds every counter but Correct and the target counters.
	c       Counters
	sinceCS uint64 // instructions since the last context switch at end
	// switches holds, per context switch, the index of the branch it
	// precedes: conds for one after the last branch.
	switches []int32
}

// viewKey returns the key of k's replay over events up to end.
func (k *Kernel) viewKey(end int, budget uint64) viewKey {
	key := viewKey{end: end, budget: budget}
	if k.cfg.ContextSwitches {
		key.cs, key.interval, key.sinceCS = true, k.cfg.CSInterval, k.sinceCS
	}
	return key
}

// NewPlan builds the plan every kernel of ks replays from event start of
// snap: one view per distinct budget and context-switch configuration,
// and the conditional-branch columns over the furthest range any of them
// reaches.
func NewPlan(snap trace.Snapshot, start int, ks ...*Kernel) *Plan {
	keys := make([]viewKey, len(ks))
	withIDs := false
	for i, k := range ks {
		keys[i] = k.viewKey(snap.Len(), k.cfg.MaxCondBranches)
		withIDs = withIDs || k.cfg.logged()
	}
	return newPlan(snap, start, keys, withIDs)
}

// newPlan builds a plan with a view per distinct key; withIDs requests
// the dense PC ids of the per-PC profile. The views' tally and the
// column decode read the snapshot independently, so they run side by
// side.
func newPlan(snap trace.Snapshot, start int, keys []viewKey, withIDs bool) *Plan {
	p := &Plan{snap: snap, start: start}
	var distinct []viewKey
	limit, bound := start, 0
	for _, key := range keys {
		if slices.Contains(distinct, key) {
			continue
		}
		distinct = append(distinct, key)
		limit = max(limit, key.end)
		if key.budget == 0 {
			bound = snap.Len()
		}
		bound = max(bound, int(min(key.budget, uint64(snap.Len()))))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.planColumns(limit, min(bound, limit-start), withIDs)
	}()
	p.views = p.planViews(distinct)
	<-done
	return p
}

// view returns the plan's view for key, or nil.
func (p *Plan) view(key viewKey) *view {
	for i := range p.views {
		if p.views[i].key == key {
			return &p.views[i]
		}
	}
	return nil
}

// prefix returns the view of the first n conditional branches of v's
// replay: what a replay stopped at branch n has consumed.
func (p *Plan) prefix(v *view, n int) view {
	if n == 0 {
		return view{key: v.key, end: p.start, sinceCS: v.key.sinceCS}
	}
	key := v.key
	key.budget = uint64(n)
	return p.planViews([]viewKey{key})[0]
}

// planViews returns one view per key. Keys that share a context-switch
// configuration share one walk of the snapshot, and keys without
// context switches ride along with the first walk, so a batch costs one
// walk per distinct configuration and usually just one.
func (p *Plan) planViews(keys []viewKey) []view {
	views := make([]view, len(keys))
	walked := make([]bool, len(keys))
	lead := slices.IndexFunc(keys, func(k viewKey) bool { return k.cs })
	for first := max(lead, 0); first >= 0; first = slices.Index(walked, false) {
		var group []int
		for i, key := range keys {
			same := key.cs == keys[first].cs && key.interval == keys[first].interval && key.sinceCS == keys[first].sinceCS
			if !walked[i] && (same || (first == lead && !key.cs)) {
				walked[i] = true
				group = append(group, i) //lint:allow hotalloc one append per key, not per event
			}
		}
		p.planWalk(group, views, keys, keys[first])
	}
	return views
}

// planWalk walks events from the plan's start once, as the interpretive
// runner would but without a predictor, and fills views[i] for each i of
// group: a view stops before the event after its budget-th conditional
// branch, or at its end bound. Context switches follow phase's
// configuration; they are recorded for the views that ask for them. The
// walk runs from stop to stop through the snapshot's tally, which only
// counts events per metadata byte; tallied turns those counts into
// Counters.
func (p *Plan) planWalk(group []int, views []view, keys []viewKey, phase viewKey) {
	for _, vi := range group {
		views[vi].key, views[vi].end = keys[vi], -1
	}
	ph := csPhase{interval: phase.interval, since: phase.sinceCS}
	t := trace.Tally{Event: p.start}
	for {
		open, stopConds, stopEvent := planSettle(views, group, tallied(&t), t.Conds, t.Event, ph.switches, ph.since)
		if open == 0 {
			return
		}
		if phase.cs {
			ph.planTally(&p.snap, &t, stopEvent, stopConds)
		} else {
			p.snap.DecodeTally(&t, stopEvent, stopConds)
		}
	}
}

// csPhase is a walk's context-switch state: the quantum, the
// instructions since the last switch, and the branch index each switch
// precedes.
type csPhase struct {
	interval, since uint64
	switches        []int32
}

// planTally tallies events up to end, stopping early once stopConds
// conditional branches are counted, with context-switch injection: a
// trap, or the first event that completes the quantum, switches before
// the event's own branch is counted.
func (ph *csPhase) planTally(snap *trace.Snapshot, t *trace.Tally, end, stopConds int) {
	for t.Event < min(end, snap.Len()) && t.Conds < stopConds {
		if switched, cond := snap.DecodeQuantum(t, end, stopConds, ph.interval, &ph.since); switched {
			ph.switches = append(ph.switches, int32(t.Conds-cond)) //lint:allow hotalloc one append per context switch, not per event
		}
	}
}

// planSettle closes every open view of group whose replay stops before
// event i, with counters c, j conditional branches resolved, and the
// walk's context switches and phase so far. It returns how many of the
// group's views are still open and the branch count and event index at
// which the next of them stops.
func planSettle(views []view, group []int, c Counters, j, i int, switches []int32, since uint64) (open, stopConds, stopEvent int) {
	stopConds, stopEvent = math.MaxInt, math.MaxInt
	for _, vi := range group {
		v := &views[vi]
		if v.end >= 0 {
			continue
		}
		key := v.key
		if i < key.end && (key.budget == 0 || uint64(j) < key.budget) {
			open++
			stopEvent = min(stopEvent, key.end)
			if key.budget > 0 {
				stopConds = min(stopConds, int(key.budget))
			}
			continue
		}
		v.c, v.conds, v.end = c, j, i
		if key.cs {
			v.switches = switches[:len(switches):len(switches)]
			v.sinceCS = since
			v.c.ContextSwitches = uint64(len(v.switches))
		}
	}
	return open, stopConds, stopEvent
}

// tallied turns a walk's tally into Counters.
func tallied(t *trace.Tally) Counters {
	var c Counters
	c.Instructions = t.Instructions
	c.ByClass, c.Traps, c.TakenCond = t.Counts()
	c.Predictions = c.ByClass[trace.Cond]
	return c
}

// planColumns decodes the first bound conditional branches of events
// [start, limit) into the plan's columns (and, withIDs, the site ids)
// and places the cancellation polls, one per checkInterval events. Every
// column is sized up front; only the site directory grows, once per
// distinct PC.
func (p *Plan) planColumns(limit, bound int, withIDs bool) {
	buf, _ := columnPool.Get().(*columns)
	if buf == nil || cap(buf.pcs) < bound {
		buf = &columns{
			pcs:     make([]uint32, bound),
			targets: make([]uint32, bound),
			outs:    make([]uint8, bound),
		}
	}
	if withIDs && cap(buf.ids) < bound {
		buf.ids = make([]int32, bound)
	}
	p.buf = buf
	pcs, targets, outs := buf.pcs[:bound], buf.targets[:bound], buf.outs[:bound]
	polls := make([]int32, 0, (limit-p.start)/checkInterval+1)
	j := 0
	for from := p.start; from < limit && j < bound; from += checkInterval {
		if from > p.start {
			polls = polls[:len(polls)+1]
			polls[len(polls)-1] = int32(j)
		}
		j += p.snap.DecodeBranches(from, min(from+checkInterval, limit), pcs[j:], targets[j:], outs[j:])
	}
	p.pcs, p.targets, p.outs, p.polls = pcs[:j], targets[:j], outs[:j], polls
	if withIDs {
		p.ids = buf.ids[:j]
		for i, pc := range p.pcs {
			p.ids[i] = p.site(pc, i)
		}
	}
}

// columns is the storage behind a plan's per-branch columns. A plan
// lives for one batch, so its storage is recycled through columnPool
// rather than left to the collector: every batch would otherwise
// allocate, zero and fault in a fresh megabyte or so per 100,000
// branches.
type columns struct {
	pcs, targets []uint32
	outs         []uint8
	ids          []int32
}

var columnPool sync.Pool

// Release returns the plan's column storage for reuse by a later plan.
// The plan, and any Tap that was bound to it and has not produced its
// Telemetry yet, must not be used afterwards.
func (p *Plan) Release() {
	if p.buf == nil {
		return
	}
	columnPool.Put(p.buf)
	p.buf, p.pcs, p.targets, p.outs, p.ids = nil, nil, nil, nil, nil
}

// site returns pc's dense id, registering pc as first seen at branch j
// when it is new.
func (p *Plan) site(pc uint32, j int) int32 {
	id, added := p.idx.Add(pc)
	if added {
		p.sites = append(p.sites, pc)       //lint:allow hotalloc amortised growth: one append per distinct PC, not per event
		p.first = append(p.first, int32(j)) //lint:allow hotalloc amortised growth: one append per distinct PC, not per event
	}
	return id
}

// push appends one resolved conditional branch to an owned log: the
// interpretive runner's feed of a Tap, which records what the per-PC
// profile and Tap.Forensics read.
func (p *Plan) push(pc uint32, taken bool) {
	var o uint8
	if taken {
		o = 1
	}
	p.ids = append(p.ids, p.site(pc, len(p.outs)))
	p.pcs = append(p.pcs, pc)
	p.outs = append(p.outs, o)
}

// seen returns the number of sites whose first occurrence falls among
// branches [0, n): ids below it are exactly the sites of that prefix.
func (p *Plan) seen(n int) int {
	return sort.Search(len(p.first), func(i int) bool { return int(p.first[i]) >= n })
}

// siteLog returns the log of branches [0, n) of the plan, with
// mispredict bitset miss. A nil plan logs nothing.
func (p *Plan) siteLog(miss []uint64, n int) telemetry.SiteLog {
	if p == nil {
		return telemetry.SiteLog{}
	}
	return telemetry.SiteLog{IDs: p.ids[:n], Outs: p.outs[:n], Sites: p.sites[:p.seen(n)], Miss: miss[:(n+63)/64]}
}

// siteCounts returns the per-site executions and taken outcomes of l, a
// prefix of the plan's log. The counts are the same for every kernel
// that resolved that prefix, so they are folded once per prefix length
// and shared.
func (p *Plan) siteCounts(l telemetry.SiteLog) telemetry.SiteCounts {
	n := len(l.IDs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if sc, ok := p.counts[n]; ok {
		return sc
	}
	sc := telemetry.FoldCounts(l)
	if p.counts == nil {
		p.counts = make(map[int]telemetry.SiteCounts)
	}
	p.counts[n] = sc
	return sc
}
