package engine

import (
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Holistic twig execution (docs/EXECUTION.md). Where probe evaluates a path
// binding-at-a-time and merge step-at-a-time, the twig executor evaluates a
// whole run of consecutive steps in ONE synchronized sweep: one galloping
// cursor per step over that step's document-order posting list, all cursors
// advanced together in global (tid, left, depth) order, with the partial
// matches between adjacent steps encoded compactly in per-step state — an
// ancestor stack for the vertical axes, a stack of pending adjacency edges
// for ->, a running minimum right edge for --> — instead of
// materialized (and deduplicated) inter-step binding frontiers.
//
// The sweep works because for every twig-able axis the supporting row
// arrives no later than the supported row in document order: a descendant's
// ancestors open before it, an adjacent row's left edge equals a context's
// right edge (which closed strictly earlier), a following row starts after
// its context ended. Support can therefore be decided once, at arrival time,
// and never revised — the PathStack/TwigStack insight carried over to the
// paper's interval labels. A row of the final step is emitted the moment it
// arrives supported, so per scope group the output is duplicate-free without
// a dedup set, and intermediate state stays proportional to the tree depth
// (both stacks — spans are laminar, so the open frontier is an ancestor
// chain), not to the per-step candidate counts.

// twigCursor walks one stream's posting list within the current scope
// group's (tid, left) window. keys is the packed (tid, left) sort-key slice
// parallel to post (relstore.DocKey order), so every comparison the sweep
// makes — min-selection, gallop probes — reads one sequential int64 array
// instead of chasing the permutation through two columns. key caches
// keys[pos] (exhaustedKey once the window is spent); depth — needed only to
// break exact key ties — is fetched lazily from the column.
type twigCursor struct {
	post []int32
	keys []int64
	pos  int
	hi   int
	key  int64
}

// exhaustedKey sorts a spent cursor after every real arrival.
const exhaustedKey = int64(^uint64(0) >> 1)

// load refreshes the cursor's cached sort key after a position change.
func (c *twigCursor) load() {
	if c.pos >= c.hi {
		c.key = exhaustedKey
		return
	}
	c.key = c.keys[c.pos]
}

// gallop advances the cursor to the first arrival at or past the packed
// bound, staying within the group window: an exponential probe followed by
// binary search. Callers only gallop forward — the bound strictly exceeds
// the current arrival's key.
func (c *twigCursor) gallop(bound int64) {
	keys := c.keys
	lo, hi := c.pos, c.hi
	step := 1
	for lo+step < hi && keys[lo+step] < bound {
		lo += step
		step <<= 1
	}
	u := lo + step
	if u > hi {
		u = hi
	}
	for lo+1 < u {
		m := int(uint(lo+u) >> 1)
		if keys[m] < bound {
			lo = m
		} else {
			u = m
		}
	}
	c.pos = u
}

// twigStepState encodes the supported arrivals of one stream, organized for
// the NEXT step's axis — the structure consulted when the next stream asks
// "does any supporter relate to me?".
type twigStepState struct {
	axis lpath.Axis

	// tid owns every entry of stack, adj and minRight; an arrival from a
	// later tree resets the state lazily.
	tid int32

	// stack (vertical axes): supported rows whose spans contain the sweep
	// position, bottom→top nested with non-decreasing depth. Rows are
	// popped as the sweep passes their right edge, so membership alone
	// answers descendant-or-self; the bottom entry's depth answers strict
	// descendant, and a (depth, id) scan from the top answers child.
	stack []int32

	// adj (immediate following): pending right edges of supported rows.
	// Because spans are laminar, the rows still open at the sweep position
	// are a nested ancestor chain, so their right edges are non-increasing
	// bottom→top — the pending edges form a stack (top = least right), no
	// heap needed. due says an edge's right equals the sweep's current
	// left, (curTid, curLeft): an arrival at this position is adjacent.
	adj             []int32
	due             bool
	curTid, curLeft int32

	// minRight (following): the least right edge among supported rows of
	// tid — x follows some supporter iff minRight ≤ x.left.
	minRight int32

	// lastSup is the most recent supported arrival of this stream; the
	// or-self axes use it for self-support (the same row arrives on the
	// lower stream first at the same sweep key).
	lastSup int32
}

func (st *twigStepState) reset() {
	st.tid = -1
	st.stack = st.stack[:0]
	st.adj = st.adj[:0]
	st.due = false
	st.curTid, st.curLeft = -1, -1
	st.minRight = maxInt32
	st.lastSup = noRow
}

// twigScratch is the evalCtx-held reusable state of one twig run: cursors,
// per-step states and supported-arrival counters. The slices-of-structs are
// retained across evaluations (the evalCtx is pooled on the Engine); the
// per-state buffers are drawn from the arena at run start and returned at
// run end, so warm runs allocate nothing.
type twigScratch struct {
	cur    []twigCursor
	st     []twigStepState
	counts []int
}

func (tw *twigScratch) ensure(k int, ar *arena) {
	if cap(tw.cur) < k+1 {
		tw.cur = make([]twigCursor, k+1)
	}
	tw.cur = tw.cur[:k+1]
	if cap(tw.st) < k {
		tw.st = make([]twigStepState, k)
	}
	tw.st = tw.st[:k]
	if cap(tw.counts) < k {
		tw.counts = make([]int, k)
	}
	tw.counts = tw.counts[:k]
	for i := range tw.st {
		st := &tw.st[i]
		st.stack = ar.getInts()
		st.adj = ar.getInts()
		tw.counts[i] = 0
	}
}

func (tw *twigScratch) release(ar *arena) {
	for i := range tw.st {
		st := &tw.st[i]
		ar.putInts(st.stack)
		ar.putInts(st.adj)
		st.stack, st.adj = nil, nil
	}
	for i := range tw.cur {
		tw.cur[i] = twigCursor{}
	}
}

// twigRunLen returns the number of steps starting at p.Steps[i] to evaluate
// as one holistic sweep, or 0 to fall back to per-step execution. Under
// twigAuto the plan's cost-marked run decides; twigAlways recomputes the
// maximal eligible run from the AST so differential tests exercise every
// shape, including single-step runs the cost model would never choose.
func (e *Engine) twigRunLen(p *lpath.Path, i int, binds []bind, ctx *evalCtx) int {
	var n int
	switch {
	case e.twig == twigOff:
		return 0
	case e.twig == twigAlways:
		n = e.maxTwigRun(p, i, binds)
	case e.exec != execAuto:
		// Forced probe (merge off) and forced merge both pin a specific
		// per-step executor under test; the twig path would shadow it.
		return 0
	default:
		sp := ctx.stepPlan(&p.Steps[i])
		if sp == nil || sp.TwigRun < 2 || i+sp.TwigRun > len(p.Steps) {
			return 0
		}
		if len(binds) == 1 && binds[0].row != noRow {
			// A one-binding frontier gains nothing from a synchronized
			// sweep; nested predicate paths evaluate one binding at a time,
			// whatever the planner estimated for the enclosing pipeline.
			return 0
		}
		n = sp.TwigRun
	}
	if n > 0 && !e.twigFrontierOK(p.Steps[i:i+n], binds) {
		return 0
	}
	return n
}

// maxTwigRun computes the longest twig-able run at i from the AST alone.
func (e *Engine) maxTwigRun(p *lpath.Path, i int, binds []bind) int {
	inScope := len(binds) > 0 && binds[0].scope != noRow
	n := 0
	for j := i; j < len(p.Steps); j++ {
		if !planner.TwigableStep(&p.Steps[j], inScope) {
			break
		}
		n++
	}
	return n
}

// twigFrontierOK re-verifies at runtime what the run marking assumed about
// the frontier: the virtual root only opens the vertical axes, a frontier
// mixing the virtual root with real rows never twigs, and edge alignment
// needs every binding to carry a real scope (the sweep compares against the
// group's scope row).
func (e *Engine) twigFrontierOK(steps []lpath.Step, binds []bind) bool {
	if len(binds) == 1 && binds[0].row == noRow {
		switch steps[0].Axis {
		case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
			return true
		default:
			return false
		}
	}
	aligned := false
	for i := range steps {
		if steps[i].LeftAlign || steps[i].RightAlign {
			aligned = true
			break
		}
	}
	for _, b := range binds {
		if b.row == noRow || (aligned && b.scope == noRow) {
			return false
		}
	}
	return true
}

// twigSweep bundles the hot column arrays and run shape so the per-arrival
// helpers stay call-cheap. It lives on evalTwigRun's stack.
type twigSweep struct {
	e                                      *Engine
	tids, lefts, rights, depths, ids, pids []int32
	steps                                  []lpath.Step
	k                                      int
	tw                                     *twigScratch
	rootMode                               bool
	// ec is the evaluation context, polled for cooperative cancellation at
	// the top of the arrival loop; a cancelled sweep stops and leaves the
	// context error in ec.cerr for evalPath to propagate.
	ec *evalCtx

	// depthTie: break exact key ties by depth. Required only when a
	// vertical axis is in the run — a same-position supporter must be
	// pushed before the deeper arrival it contains is tested. Adjacency and
	// following supporters can never support a same-position arrival (their
	// right edge exceeds their left), so those runs skip the depth fetch
	// and fall back to the stream-index tiebreak alone.
	depthTie bool

	// fastRoot: stream 1 qualifies for the specialized root-mode drain —
	// every arrival is supported unconditionally (no predicates, no scope,
	// not the root-pinned child axis), so its inner loop reduces to
	// count-and-push with the push's axis switch hoisted out.
	fastRoot bool
}

// evalTwigRun evaluates the run of steps as one holistic sweep per scope
// group and returns the final step's bindings (arena-owned, duplicate-free
// per (row, scope), like the other executors).
func (e *Engine) evalTwigRun(steps []lpath.Step, binds []bind, ctx *evalCtx) []bind {
	k := len(steps)
	tw := &ctx.tw
	tw.ensure(k, ctx.ar)
	cols := e.s.Cols()
	sw := twigSweep{
		e: e, steps: steps, k: k, tw: tw,
		tids: cols.TID, lefts: cols.Left, rights: cols.Right,
		depths: cols.Depth, ids: cols.ID, pids: cols.PID,
		ec: ctx,
	}
	for i := range steps {
		switch steps[i].Axis {
		case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
			sw.depthTie = true
		}
	}
	// Resolve every stream's document-order posting list once per run.
	for j := 1; j <= k; j++ {
		tw.cur[j].post, tw.cur[j].keys = e.docPosting(&steps[j-1])
	}
	out := ctx.ar.getBinds()
	if len(binds) == 1 && binds[0].row == noRow {
		sw.rootMode = true
		sw.fastRoot = k >= 2 && len(steps[0].Preds) == 0 && steps[0].Axis != lpath.AxisChild
		out = sw.group(nil, nil, noRow, out)
	} else {
		work := append(ctx.ar.getBinds(), binds...)
		sort.Slice(work, func(i, j int) bool {
			if work[i].scope != work[j].scope {
				return work[i].scope < work[j].scope
			}
			return work[i].row < work[j].row
		})
		ctxRows := ctx.ar.getInts()
		ctxKeys := ctx.ar.getI64s()
		for gi := 0; gi < len(work); {
			scope := work[gi].scope
			gj := gi
			for gj < len(work) && work[gj].scope == scope {
				gj++
			}
			ctxRows = ctxRows[:0]
			for _, b := range work[gi:gj] {
				ctxRows = append(ctxRows, b.row)
			}
			gi = gj
			sw.sortDoc(ctxRows)
			ctxKeys = ctxKeys[:0]
			for _, ri := range ctxRows {
				ctxKeys = append(ctxKeys, relstore.DocKey(sw.tids[ri], sw.lefts[ri]))
			}
			out = sw.group(ctxRows, ctxKeys, scope, out)
		}
		ctx.ar.putInts(ctxRows)
		ctx.ar.putI64s(ctxKeys)
		ctx.ar.putBinds(work)
	}
	for j := 0; j < k; j++ {
		ctx.countStep(ctx.stepPlan(&steps[j]), tw.counts[j])
	}
	tw.release(ctx.ar)
	return out
}

// docPosting returns the step's posting list in document order (tid, left,
// depth) with its parallel packed-key slice: the per-name permutation where
// the clustered order differs, the zero-copy clustered range otherwise, the
// whole-relation document order for wildcards.
func (e *Engine) docPosting(step *lpath.Step) ([]int32, []int64) {
	if step.Wildcard() {
		return e.s.ElementsByLeft(), e.s.ElementKeys()
	}
	if idx := e.s.NameByDoc(step.Test); idx != nil {
		return idx, e.s.NameKeysByDoc(step.Test)
	}
	lo, hi, ok := e.s.NameRange(step.Test)
	if !ok {
		return nil, nil
	}
	return e.s.RowSeq()[lo:hi], e.s.ClusterKeys()[lo:hi]
}

// group sweeps one scope group: stream 0 is the group's context rows (always
// supported), stream j ∈ 1..k is step j's posting window. Each iteration
// processes the globally earliest arrival in (tid, left, depth, stream)
// order — the stream-index tiebreak guarantees that when the same row sits
// on two adjacent streams, the supporting occurrence processes first.
func (sw *twigSweep) group(ctxRows []int32, ctxKeys []int64, scope int32, out []bind) []bind {
	tw, k := sw.tw, sw.k
	tw.cur[0] = twigCursor{post: ctxRows, keys: ctxKeys, pos: 0, hi: len(ctxRows)}
	tw.cur[0].load()
	var sTid, sLeft, sRight, sDepth int32
	if scope != noRow {
		sTid, sLeft, sRight, sDepth = sw.tids[scope], sw.lefts[scope], sw.rights[scope], sw.depths[scope]
	}
	for j := 1; j <= k; j++ {
		c := &tw.cur[j]
		switch {
		case scope != noRow:
			c.pos, c.hi = window(c.keys, relstore.DocKey(sTid, sLeft), relstore.DocKey(sTid, sRight))
		case sw.rootMode && sw.ec.windowed:
			// Streaming tid window: in root mode the cursors ARE the
			// virtual-root candidate lists, so the window restricts them
			// directly (non-root groups are already windowed through their
			// context rows, which descend from windowed first-step output).
			c.pos, c.hi = window(c.keys, relstore.DocKey(sw.ec.winLo, 0), relstore.DocKey(sw.ec.winHi, 0))
		default:
			c.pos, c.hi = 0, len(c.post)
		}
		c.load()
	}
	for i := 0; i < k; i++ {
		st := &tw.st[i]
		st.axis = sw.steps[i].Axis
		st.reset()
	}
	final := &tw.cur[k]
	for final.pos < final.hi {
		if sw.ec.interrupted() {
			break
		}
		// Pick the earliest arrival across all live streams: least cached
		// (tid, left) key, depth then stream index breaking ties (strict <
		// keeps the lowest stream, so a supporting occurrence of a row always
		// processes before the occurrence it supports). The same pass tracks
		// the runner-up key ru: the chosen stream then drains WITHOUT
		// re-selecting for as long as it stays strictly below every other
		// stream — sweeps spend most iterations in long single-stream bursts
		// between synchronization points, and a tie on ru falls back to the
		// full depth-aware pick.
		j := 0
		bk := tw.cur[0].key
		bd := int32(-1) // best arrival's depth, fetched only on key ties
		ru := exhaustedKey
		for s := 1; s <= k; s++ {
			ck := tw.cur[s].key
			if ck < bk {
				ru = bk // the dethroned best is the least loser so far
				j, bk, bd = s, ck, -1
			} else {
				if ck < ru {
					ru = ck
				}
				if ck == bk && ck != exhaustedKey && sw.depthTie {
					if bd < 0 {
						bc := &tw.cur[j]
						bd = sw.depths[bc.post[bc.pos]]
					}
					c := &tw.cur[s]
					if cd := sw.depths[c.post[c.pos]]; cd < bd {
						j, bd = s, cd
					}
				}
			}
		}
		c := &tw.cur[j]
		if j == 1 && sw.fastRoot {
			// Specialized root-mode stream-1 drain: every arrival is
			// supported, so the body is count-and-push with the push's axis
			// switch (and the dead-supporter test against the consumer's
			// cursor) hoisted out of the loop. dk splices the supporter's
			// right edge into the tid half of its own key.
			st := &tw.st[1]
			ck2 := tw.cur[2].key
			switch st.axis {
			case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
				for {
					ri := c.post[c.pos]
					tw.counts[0]++
					if dk := c.key&^0xffffffff | int64(uint32(sw.rights[ri])); dk > ck2 {
						sw.cleanStack(st, int32(c.key>>32), int32(uint32(c.key)))
						st.stack = append(st.stack, ri)
					}
					c.pos++
					c.load()
					if c.key < ru {
						continue
					}
					break
				}
			case lpath.AxisImmediateFollowing:
				for {
					ri := c.post[c.pos]
					tw.counts[0]++
					if dk := c.key&^0xffffffff | int64(uint32(sw.rights[ri])); dk >= ck2 {
						sw.refreshAdj(st, int32(c.key>>32), int32(uint32(c.key)))
						st.adj = append(st.adj, sw.rights[ri])
					}
					c.pos++
					c.load()
					if c.key < ru {
						continue
					}
					break
				}
			case lpath.AxisFollowing, lpath.AxisFollowingOrSelf:
				for {
					ri := c.post[c.pos]
					tw.counts[0]++
					st.lastSup = ri
					if tid := int32(c.key >> 32); st.tid != tid {
						st.minRight = maxInt32
						st.tid = tid
					}
					if r := sw.rights[ri]; r < st.minRight {
						st.minRight = r
					}
					c.pos++
					c.load()
					if c.key < ru {
						continue
					}
					break
				}
			}
			continue
		}
		for {
			ri := c.post[c.pos]
			bt, bl := int32(c.key>>32), int32(uint32(c.key))
			if j > 0 && !(sw.rootMode && j == 1) {
				// If the predecessor state cannot support anything here,
				// gallop the stream to the earliest position where support
				// could exist — from pending state (an adjacency edge, the
				// running minRight) or from the predecessor's own next
				// arrival — instead of testing arrival by arrival.
				ps := &tw.st[j-1]
				if now, ek, none := sw.earliest(ps, ri, bt, bl); !now {
					pc := &tw.cur[j-1]
					if pc.key != exhaustedKey {
						// Adding the axis delta to the packed key advances
						// its left-edge half.
						pk := pc.key + int64(twigDelta(ps.axis))
						if none || pk < ek {
							ek, none = pk, false
						}
					}
					if none {
						// No supporter can ever arrive: the stream is dead,
						// and deadness cascades until the final stream
						// exhausts.
						c.pos = c.hi
						c.key = exhaustedKey
						break
					}
					if ek > c.key {
						c.gallop(ek)
					} else {
						// The bound is this very position: the only future
						// supporter would sit deeper at the same left and
						// could not contain this arrival, so it is provably
						// unsupported.
						c.pos++
					}
					c.load()
					if c.key < ru {
						continue
					}
					break
				}
			}
			c.pos++
			c.load()
			if j == 0 {
				sw.push(&tw.st[0], ri, bt, bl, tw.cur[1].key)
			} else {
				step := &sw.steps[j-1]
				ok := true
				if scope != noRow {
					// Residual scope constraints (the window already pinned
					// tid and left) and edge alignment against the scope row.
					ok = sw.rights[ri] <= sRight && sw.depths[ri] >= sDepth &&
						(!step.LeftAlign || bl == sLeft) &&
						(!step.RightAlign || sw.rights[ri] == sRight)
				}
				if ok && len(step.Preds) > 0 {
					ok = sw.predsHold(step, ri)
				}
				if ok {
					if sw.rootMode && j == 1 {
						ok = step.Axis != lpath.AxisChild || sw.pids[ri] == 0
					} else {
						ok = sw.supported(&tw.st[j-1], ri, bt, bl)
					}
				}
				if ok {
					tw.counts[j-1]++
					if j == k {
						out = append(out, bind{row: ri, scope: scope})
					} else {
						sw.push(&tw.st[j], ri, bt, bl, tw.cur[j+1].key)
					}
				}
			}
			if c.key < ru {
				continue
			}
			break
		}
	}
	return out
}

// earliest reports whether the state could support an arrival at the current
// sweep position (now), and otherwise the earliest packed (tid, left) key
// where pending state could support one — none when no pending state exists
// and only a future predecessor arrival could help.
func (sw *twigSweep) earliest(st *twigStepState, ri, tid, left int32) (now bool, ek int64, none bool) {
	switch st.axis {
	case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		sw.cleanStack(st, tid, left)
		if len(st.stack) > 0 {
			return true, 0, false
		}
		return false, 0, true
	case lpath.AxisImmediateFollowing:
		sw.refreshAdj(st, tid, left)
		if st.due {
			return true, 0, false
		}
		if n := len(st.adj); n > 0 {
			// Top of the stack = least pending right edge.
			return false, relstore.DocKey(tid, st.adj[n-1]), false
		}
		return false, 0, true
	case lpath.AxisFollowingOrSelf:
		if st.lastSup == ri {
			return true, 0, false
		}
		fallthrough
	case lpath.AxisFollowing:
		if st.tid == tid {
			if st.minRight <= left {
				return true, 0, false
			}
			if st.minRight < maxInt32 {
				return false, relstore.DocKey(tid, st.minRight), false
			}
		}
		return false, 0, true
	}
	return true, 0, false
}

// twigDelta is the minimal left-edge advance between a future supporter's
// left and the earliest row it could support: an adjacent or following row
// starts at or after the supporter's right edge (> left), a descendant at
// the supporter's own left, a following-or-self row at its own position.
func twigDelta(axis lpath.Axis) int32 {
	switch axis {
	case lpath.AxisFollowing, lpath.AxisImmediateFollowing:
		return 1
	}
	return 0
}

// supported decides, at arrival time, whether any supporter of the given
// axis relates to row ri at sweep position (tid, left).
func (sw *twigSweep) supported(st *twigStepState, ri, tid, left int32) bool {
	switch st.axis {
	case lpath.AxisDescendant:
		sw.cleanStack(st, tid, left)
		// Every remaining entry's span contains ri's; the bottom entry is
		// the shallowest, and strict descent needs a strictly shallower
		// supporter (equal depth = the row itself, via a lower stream).
		return len(st.stack) > 0 && sw.depths[st.stack[0]] < sw.depths[ri]
	case lpath.AxisDescendantOrSelf:
		sw.cleanStack(st, tid, left)
		return len(st.stack) > 0
	case lpath.AxisChild:
		sw.cleanStack(st, tid, left)
		pid, d := sw.pids[ri], sw.depths[ri]
		for i := len(st.stack) - 1; i >= 0; i-- {
			ei := st.stack[i]
			ed := sw.depths[ei]
			if ed < d-1 {
				break
			}
			if ed == d-1 && sw.ids[ei] == pid {
				return true
			}
		}
		return false
	case lpath.AxisImmediateFollowing:
		sw.refreshAdj(st, tid, left)
		return st.due
	case lpath.AxisFollowing:
		return st.tid == tid && st.minRight <= left
	case lpath.AxisFollowingOrSelf:
		return st.lastSup == ri || (st.tid == tid && st.minRight <= left)
	}
	return false
}

// push records a supported arrival into the state consulted by the next
// stream. ck is the consuming stream's current cursor key: a supporter whose
// consumable window already lies behind it can never be used (the consumer
// only moves forward), so it skips the structure entirely — dead edges never
// cost an append and a pop.
func (sw *twigSweep) push(st *twigStepState, ri, tid, left int32, ck int64) {
	st.lastSup = ri
	switch st.axis {
	case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		// Containment needs a consumer position strictly before this span's
		// right edge.
		if int64(tid)<<32|int64(uint32(sw.rights[ri])) <= ck {
			return
		}
		sw.cleanStack(st, tid, left)
		st.stack = append(st.stack, ri)
	case lpath.AxisImmediateFollowing:
		// Adjacency is due exactly at the right edge's position.
		if int64(tid)<<32|int64(uint32(sw.rights[ri])) < ck {
			return
		}
		// Pop the edges that expired before this position first, then
		// append: the new span nests inside every span still open here, so
		// its right edge is the least — the stack invariant holds. (right >
		// left always, so the fresh edge is never already due.)
		sw.refreshAdj(st, tid, left)
		st.adj = append(st.adj, sw.rights[ri])
	case lpath.AxisFollowing, lpath.AxisFollowingOrSelf:
		if st.tid != tid {
			st.minRight = maxInt32
			st.tid = tid
		}
		if r := sw.rights[ri]; r < st.minRight {
			st.minRight = r
		}
	}
}

// cleanStack pops entries whose span closed before the sweep position; what
// remains are exactly the supporters whose spans contain it.
func (sw *twigSweep) cleanStack(st *twigStepState, tid, left int32) {
	if st.tid != tid {
		st.stack = st.stack[:0]
		st.tid = tid
		return
	}
	for n := len(st.stack); n > 0 && sw.rights[st.stack[n-1]] <= left; n-- {
		st.stack = st.stack[:n-1]
	}
}

// refreshAdj advances the adjacency stack to the sweep position: edges whose
// right passed are popped, and due records whether one of them ends exactly
// here. Arrivals sharing (tid, left) reuse due — and a supporter pushed at
// this position cannot be due here, since its right exceeds its left. Only
// the top is ever inspected: the open edges are nested, so rights are
// non-increasing bottom→top.
func (sw *twigSweep) refreshAdj(st *twigStepState, tid, left int32) {
	if st.curTid == tid && st.curLeft == left {
		return
	}
	st.due = false
	st.curTid, st.curLeft = tid, left
	if st.tid != tid {
		st.adj = st.adj[:0]
		st.tid = tid
		return
	}
	for n := len(st.adj); n > 0; n-- {
		r := st.adj[n-1]
		if r > left {
			break
		}
		st.adj = st.adj[:n-1]
		st.due = st.due || r == left
	}
}

// predsHold evaluates the step's pushed-down attribute comparisons; the run
// eligibility check guarantees every predicate is a direct @attr cmp, which
// matches the probe executor's existential semantics (a missing attribute
// satisfies neither = nor !=).
func (sw *twigSweep) predsHold(step *lpath.Step, ri int32) bool {
	r := sw.e.s.Row(ri)
	for _, p := range step.Preds {
		cmp := p.(*lpath.CmpExpr)
		v, ok := sw.e.s.AttrValueBare(r.TID, r.ID, cmp.Path.Steps[0].Test)
		if !ok {
			return false
		}
		if (cmp.Op == "=") != (v == cmp.Value) {
			return false
		}
	}
	return true
}

// window binary-searches the key-ordered posting for the packed-key span
// [lo, hi).
func window(keys []int64, lo, hi int64) (int, int) {
	start := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
	end := start + sort.Search(len(keys)-start, func(i int) bool { return keys[start+i] >= hi })
	return start, end
}

// sortDoc orders context rows in document order (tid, left, depth). Scoped
// groups are typically tiny, so small inputs use insertion sort to keep the
// per-group constant (and allocation) cost down.
func (sw *twigSweep) sortDoc(rows []int32) {
	if len(rows) > 24 {
		sort.Slice(rows, func(i, j int) bool { return sw.docLess(rows[i], rows[j]) })
		return
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && sw.docLess(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func (sw *twigSweep) docLess(a, b int32) bool {
	if sw.tids[a] != sw.tids[b] {
		return sw.tids[a] < sw.tids[b]
	}
	if sw.lefts[a] != sw.lefts[b] {
		return sw.lefts[a] < sw.lefts[b]
	}
	return sw.depths[a] < sw.depths[b]
}
