// Package engine is the LPath query engine of Section 4 of the paper: it
// evaluates LPath queries over the interval-labeled relational store by
// translating each location step into an index-assisted join against the
// node relation.
//
// Every axis becomes a sargable range over a clustered name scan (Table 2):
// descendant probes left ∈ [c.left, c.right), immediate-following probes
// left = c.right, the sibling axes probe the {tid, pid} index, and the
// vertical reverse axes walk the pid chain. A value predicate ([@lex=w]) with
// a short posting list supplies its step's candidates from the {value, tid,
// id} secondary index instead of the name scan, which is what makes
// high-selectivity word lookups fast (Section 5.2).
//
// The engine must agree exactly with the reference tree-walking evaluator
// (package treeval); the cross-validation tests enforce this.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"lpath/internal/label"
	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// bitmapMode selects whether the dense-set kernels may execute subtree-scope
// entries and axis steps (bitmap.go) and answer filters for whole frontiers
// (semijoin.go); every other step runs per-binding probes.
type bitmapMode int

const (
	// bitmapAuto picks the side of every kernel-capable step — scope
	// entry, unscoped step, step over a scoped frontier — by the engine's
	// one side rule on the actual sizes (kernelGate, kernelFits), per
	// frontier and, over a scoped frontier, per scope; filters choose
	// between forward evaluation and their satisfier sets per frontier.
	bitmapAuto bitmapMode = iota
	// bitmapOff disables the kernels (a differential-test hook): every step
	// runs per-binding probes, scoped tails expand per scope and every
	// filter evaluates forward, candidate by candidate.
	bitmapOff
	// bitmapAlways runs every shape-eligible scope entry and axis step
	// through the bitmap kernels, bypassing the side rule;
	// differential tests and fuzzers use it to keep the kernels under
	// continuous cross-checking.
	bitmapAlways
)

// filterMode overrides the run-time choice between forward evaluation and a
// whole-frontier answer (satisfier set, scope-only kernel) for the filters
// that have one; differential tests and fuzzers force each side in turn.
type filterMode int

const (
	filterAuto filterMode = iota
	// filterForward evaluates every filter candidate by candidate.
	filterForward
	// filterSet answers every set-capable filter from its satisfier set and
	// every scope-only filter through the frontier kernel, whatever the
	// frontier's size.
	filterSet
)

// Engine evaluates LPath queries against an interval-labeled store.
type Engine struct {
	s *relstore.Store
	// pl is the cost-based planner over the store's own catalog; Plan plans
	// each query through it unless noPlanner is set.
	pl *planner.Planner
	// disableValueIndex turns off the value-index access path; used by the
	// ablation benchmarks.
	disableValueIndex bool
	// noPlanner restores the pre-planner evaluation strategy (no predicate
	// reordering, no semijoins, no kernel steps, no value drive); the
	// differential tests hold the two paths result-identical.
	noPlanner bool
	// bitmap selects whether the dense-bitset kernels are available.
	bitmap bitmapMode
	// filters forces one side of the filters' forward/set choice.
	filters filterMode

	// ctxPool recycles evalCtx values (and their scratch arenas) across
	// evaluations, so a hot compiled query runs without steady-state
	// allocation. Safe for concurrent evaluations: each takes its own ctx.
	ctxPool sync.Pool
}

// Option configures an Engine.
type Option func(*Engine)

// WithoutValueIndex disables the {value, tid, id} access path so every step
// is driven by name scans; used to measure the value index's contribution.
func WithoutValueIndex() Option {
	return func(e *Engine) { e.disableValueIndex = true }
}

// WithoutPlanner disables cost-based planning: queries evaluate with the
// engine's default strategy only, every step as per-binding probes (the side
// rule's gate needs a plan). Used by the differential tests and to measure
// the planner's contribution.
func WithoutPlanner() Option {
	return func(e *Engine) { e.noPlanner = true }
}

// WithoutBitmap disables the dense-bitset kernels: every step runs
// per-binding probes, subtree scopes expand per scope, and every filter
// evaluates forward, candidate by candidate. It is the probe reference of
// the differential tests: the forward path stays under cross-checking
// against the kernels and satisfier sets.
func WithoutBitmap() Option {
	return func(e *Engine) { e.bitmap = bitmapOff }
}

// WithBitmapAlways runs every shape-eligible subtree-scope entry and every
// kernel-capable step, scoped or not, through the bitmap kernels, bypassing
// the run-time side rule's gate and size test. The kernels are
// result-identical to per-binding probing by construction; this option
// keeps them under continuous differential testing even on inputs where
// the side rule would not pick them.
func WithBitmapAlways() Option {
	return func(e *Engine) { e.bitmap = bitmapAlways }
}

// WithFilterPath forces the filters that can be answered for a whole
// frontier onto one side of the run-time choice: satisfier sets and the
// scope-only kernel when set is true, forward evaluation when false. Both
// sides are result-identical; the option keeps each under differential
// testing on inputs where the cost model would never pick it.
func WithFilterPath(set bool) Option {
	return func(e *Engine) {
		e.filters = filterForward
		if set {
			e.filters = filterSet
		}
	}
}

// New creates an engine over the store, which must use the interval scheme.
func New(s *relstore.Store, opts ...Option) (*Engine, error) {
	if s.Scheme() != relstore.SchemeInterval {
		return nil, fmt.Errorf("engine: store uses %v labels; the LPath engine requires the interval scheme", s.Scheme())
	}
	e := &Engine{s: s}
	e.ctxPool.New = func() any { return &evalCtx{ar: &arena{setLen: s.Len()}} }
	for _, o := range opts {
		o(e)
	}
	// The planner says what each step is and how its candidates are
	// accessed; which side runs it is the engine's run-time choice, so the
	// only engine option the planner mirrors is the value index's.
	var popts []planner.Option
	if e.disableValueIndex {
		popts = append(popts, planner.WithoutValueIndex())
	}
	e.pl = planner.New(s, popts...)
	return e, nil
}

// Plan returns the cost-based plan Eval would execute for the query, or nil
// when planning is disabled. Plans are immutable and may be executed
// concurrently (as the tid windows of a parallel Run do).
func (e *Engine) Plan(p *lpath.Path) *planner.Plan {
	if e.noPlanner {
		return nil
	}
	return e.pl.Plan(p)
}

// Match is one query result: a node within a tree.
type Match struct {
	TreeID int
	Node   *tree.Node
}

// Mode selects what Run computes.
type Mode int

const (
	// ModeSelect returns the distinct matches of the final step in (tree,
	// document) order.
	ModeSelect Mode = iota
	// ModeCount returns only their number: the same joins, no match is
	// materialized.
	ModeCount
	// ModeExplain executes the plan, serially, with fresh cardinality
	// counters and returns the EXPLAIN report; a nil plan is planned here.
	ModeExplain
)

// Spec says what Run computes. Its zero value is the serial full select.
type Spec struct {
	Mode Mode
	// Limit keeps a ModeSelect run's first Limit matches (below 1: all);
	// trees past the window holding the Limit-th match are never evaluated.
	Limit int
	// Yield, when set, receives a ModeSelect run's matches in order on the
	// caller's goroutine instead of Result.Matches; false stops the run.
	Yield func(Match) bool
	// Workers bounds how many windows evaluate at once; below 2 (and for
	// ModeExplain) the run is serial. The result never depends on it.
	Workers int
}

// Result is what Run computed: Matches for ModeSelect without a Yield
// (non-nil, possibly empty), Count for ModeCount and ModeSelect, Explain for
// ModeExplain.
type Result struct {
	Matches []Match
	Count   int
	Explain string
}

const noRow = int32(-1)

// bind is one tuple of the running join: the current context row and the
// innermost subtree-scope row (noRow = the virtual super-root / no scope).
type bind struct {
	row   int32
	scope int32
}

// Eval evaluates the query over the whole corpus and returns the distinct
// matches of the final step in (tree, document) order. Unless the engine
// was built WithoutPlanner, the query is planned first; the plan never
// changes the result, only the evaluation strategy.
func (e *Engine) Eval(p *lpath.Path) ([]Match, error) {
	return e.EvalPlanContext(context.Background(), p, e.Plan(p))
}

// EvalPlanContext is Run's serial full select.
func (e *Engine) EvalPlanContext(cctx context.Context, p *lpath.Path, plan *planner.Plan) ([]Match, error) {
	res, err := e.Run(cctx, p, plan, Spec{})
	return res.Matches, err
}

// EvalPlanLimitContext is Run's serial select of the first limit matches
// (limit <= 0: all of them).
func (e *Engine) EvalPlanLimitContext(cctx context.Context, p *lpath.Path, plan *planner.Plan, limit int) ([]Match, error) {
	res, err := e.Run(cctx, p, plan, Spec{Limit: limit})
	return res.Matches, err
}

// evalRows runs the join pipeline and returns the distinct result rows in
// (tree, document) order. The returned slice is owned by ctx's arena.
func (e *Engine) evalRows(p *lpath.Path, ctx *evalCtx) ([]int32, error) {
	start := [1]bind{{row: noRow, scope: noRow}}
	binds, err := e.evalPath(p, start[:], ctx)
	if err != nil {
		return nil, err
	}
	rows := e.distinctRows(binds, ctx.ar.getInts(), ctx)
	ctx.ar.putBinds(binds)
	return rows, nil
}

// distinctRows appends the distinct rows of binds to dst in document order:
// as they come when they already are (a single name range, a per-binding
// probe in frontier order), else by setting their positions in a position
// set and walking it — the set's span is the window, or the result's extent.
func (e *Engine) distinctRows(binds []bind, dst []int32, ctx *evalCtx) []int32 {
	last := int32(-1)
	sorted := true
	for _, b := range binds {
		if b.row == noRow {
			continue
		}
		if p := e.s.Pos(b.row); p > last {
			last = p
			dst = append(dst, b.row)
			continue
		}
		sorted = false
		break
	}
	if sorted {
		return dst
	}
	dst = dst[:0]
	set := ctx.ar.getSet()
	for _, b := range binds {
		if b.row != noRow {
			set.add(e.s.Pos(b.row))
		}
	}
	dst = set.bits.AppendRange(dst, set.lo, set.hi)
	ctx.ar.putSet(set)
	elems := e.s.ElementsByLeft()
	for i, pos := range dst {
		dst[i] = elems[pos]
	}
	return dst
}

// Count returns the number of distinct matches without materializing them:
// the same join pipeline as Eval, skipping the row → node mapping.
func (e *Engine) Count(p *lpath.Path) (int, error) {
	return e.CountPlanContext(context.Background(), p, e.Plan(p))
}

// CountPlanContext is Run's serial count.
func (e *Engine) CountPlanContext(cctx context.Context, p *lpath.Path, plan *planner.Plan) (int, error) {
	res, err := e.Run(cctx, p, plan, Spec{Mode: ModeCount})
	return res.Count, err
}

// evalPath runs the join pipeline for one relative path. The input binds are
// owned by the caller and never released here; the returned slice is owned
// by ctx's arena and must be released by the caller with ctx.ar.putBinds.
func (e *Engine) evalPath(p *lpath.Path, binds []bind, ctx *evalCtx) ([]bind, error) {
	return e.evalSteps(p, 0, binds, false, ctx)
}

// evalSteps runs the join pipeline from step index start — the bitmap
// scope-entry kernel re-enters here at index 1 after evaluating a scoped
// tail's first step set-at-a-time. When owned is set the input binds are
// arena-owned and released here; otherwise they belong to the caller.
func (e *Engine) evalSteps(p *lpath.Path, start int, binds []bind, owned bool, ctx *evalCtx) ([]bind, error) {
	cur := binds
	for i := start; i < len(p.Steps); i++ {
		next, err := e.evalStep(&p.Steps[i], cur, ctx)
		if owned {
			ctx.ar.putBinds(cur)
		}
		if err != nil {
			return nil, err
		}
		cur, owned = next, true
		if len(cur) == 0 {
			ctx.ar.putBinds(cur)
			return nil, nil
		}
	}
	if p.Scoped != nil {
		res, err := e.evalScoped(p.Scoped, cur, ctx)
		if owned {
			ctx.ar.putBinds(cur)
		}
		return res, err
	}
	if !owned {
		// Zero-step path: hand back an arena-owned copy so the release
		// protocol stays uniform.
		out := append(ctx.ar.getBinds(), cur...)
		return out, nil
	}
	return cur, nil
}

// evalScoped opens a subtree scope at every row of the frontier (at every
// tree root for the virtual root) and evaluates the tail from there, through
// the bitmap scope entry when it applies. cur is read-only; the caller
// releases it.
func (e *Engine) evalScoped(tail *lpath.Path, cur []bind, ctx *evalCtx) ([]bind, error) {
	if e.useBitmapEntry(tail, cur, ctx) {
		return e.evalBitmapScoped(tail, cur, ctx)
	}
	// Every scope binding is (r, r): the frontier's distinct rows.
	scoped := ctx.ar.getBinds()
	seen := ctx.ar.getSet()
	for _, b := range cur {
		rows := [1]int32{b.row}
		open := rows[:]
		if b.row == noRow {
			// Scope on the virtual root: evaluate per tree root (within the
			// streaming tid window, when one is active).
			open = e.narrowToWindow(e.s.Roots(), ctx)
		}
		for _, r := range open {
			if p := e.s.Pos(r); !seen.has(p) {
				seen.add(p)
				scoped = append(scoped, bind{row: r, scope: r})
			}
		}
	}
	ctx.ar.putSet(seen)
	res, err := e.evalPath(tail, scoped, ctx)
	ctx.ar.putBinds(scoped)
	return res, err
}

// evalStep performs one join step: through the bitmap step kernel
// (bitmap.go) when the side rule picks it — per scope over a scoped
// frontier — and per binding otherwise.
func (e *Engine) evalStep(step *lpath.Step, binds []bind, ctx *evalCtx) ([]bind, error) {
	if step.Axis == lpath.AxisAttribute {
		return nil, lpath.ErrAttrInMainPath
	}
	positional := step.HasPositional()
	// Plan-directed choices: the value drive, the cheapest-first predicate
	// order and the vacuous predicates left out. None changes the result —
	// reordering is restricted to commutative conjuncts, a vacuous predicate
	// holds on every row the step can bind, and the value posting holds
	// exactly the rows the equality it replaces keeps.
	sp := ctx.stepPlan(step)
	preds := step.Preds
	if sp != nil {
		preds = sp.Exec
	}
	if e.scopedKernel(step, sp, binds, ctx) {
		return e.evalScopedStep(step, sp, preds, binds, ctx)
	}
	if cands, ok := e.bitmapStep(step, sp, binds, ctx); ok {
		return e.evalBitmapStep(step, sp, preds, noRow, binds, cands, ctx.ar.getBinds(), ctx)
	}
	return e.evalStepProbe(step, sp, preds, positional, binds, ctx.ar.getBinds(), ctx)
}

// evalStepProbe is the per-binding executor: for every context binding,
// probe the store for candidate rows on the axis, then filter by scope,
// alignment and predicates. It appends the results to out.
func (e *Engine) evalStepProbe(step *lpath.Step, sp *planner.StepPlan, preds []lpath.Expr, positional bool, binds, out []bind, ctx *evalCtx) ([]bind, error) {
	n0 := len(out)
	value := sp != nil && sp.Value != "" // never positional (planStep)
	nlo, nhi, _ := e.s.NameRange(step.Test)
	// A single binding's probe already yields distinct rows, so the
	// cross-binding dedup map is only needed for fan-in — predicates
	// evaluate paths from one binding at a time and skip it entirely.
	var seen map[bind]bool
	if len(binds) > 1 {
		seen = ctx.ar.getBindSet()
	}
	for _, b := range binds {
		if ctx.interrupted() {
			return nil, ctx.cerr
		}
		var cands []int32
		var borrowed bool
		if value {
			cands, borrowed = e.valueCandidates(step, sp, b, ctx)
		} else {
			cands, borrowed = e.axisCandidates(step, nlo, nhi, b, ctx)
		}
		var scratch []int32 // arena buffer to release, if one was drawn
		if !borrowed {
			scratch = cands
		}
		// Static filters: subtree scope and edge alignment. Skipped entirely
		// when no constraint applies; an owned buffer compacts in place, a
		// borrowed slice is never mutated — filtering copies into an arena
		// buffer instead.
		if b.scope != noRow || step.LeftAlign || step.RightAlign {
			var filtered []int32
			if borrowed {
				filtered = ctx.ar.getInts()
				borrowed = false
			} else {
				filtered = cands[:0]
			}
			for _, ci := range cands {
				if e.staticAccept(step, b, ci) {
					filtered = append(filtered, ci)
				}
			}
			if scratch == nil {
				scratch = filtered
			}
			cands = filtered
		}
		// The predicate pipeline filters in place; a borrowed slice must be
		// materialized first. Positional sorting mutates too.
		if borrowed && (len(preds) > 0 || positional) {
			scratch = append(ctx.ar.getInts(), cands...)
			cands = scratch
			borrowed = false
		}
		// position() counts within one context node. The virtual root stands
		// for every tree root at once, so its candidates are partitioned per
		// tree before counting — the per-tree semantics the reference oracle
		// and the windowed paths share.
		groups := [][]int32{cands}
		if positional && b.row == noRow {
			groups = e.groupByTID(cands)
		}
		for _, g := range groups {
			// Positional ordering: document order (preorder ids), reversed
			// for the reverse axes.
			if positional {
				ids := e.s.Cols().ID
				sort.Slice(g, func(i, j int) bool {
					return ids[g[i]] < ids[g[j]]
				})
				if lpath.ReverseAxis(step.Axis) {
					for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
						g[i], g[j] = g[j], g[i]
					}
				}
			}
			// Predicate pipeline with positional context.
			for _, pred := range preds {
				var err error
				g, err = e.filterPred(pred, b.scope, b.row == noRow && !positional, g, ctx)
				if err != nil {
					return nil, err
				}
				if len(g) == 0 {
					break
				}
			}
			for _, ci := range g {
				nb := bind{row: ci, scope: b.scope}
				if seen != nil {
					if seen[nb] {
						continue
					}
					seen[nb] = true
				}
				out = append(out, nb)
			}
		}
		if scratch != nil {
			ctx.ar.putInts(scratch)
		}
	}
	if seen != nil {
		ctx.ar.putBindSet(seen)
	}
	ctx.countStep(sp, len(out)-n0)
	return out, nil
}

// groupByTID partitions candidate rows per tree, trees in ascending tid
// order, so position() under the virtual root never counts across trees.
func (e *Engine) groupByTID(cands []int32) [][]int32 {
	byTID := make(map[int32][]int32)
	tids := make([]int32, 0, 4)
	rowTIDs := e.s.Cols().TID
	for _, ci := range cands {
		tid := rowTIDs[ci]
		if _, ok := byTID[tid]; !ok {
			tids = append(tids, tid)
		}
		byTID[tid] = append(byTID[tid], ci)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	out := make([][]int32, len(tids))
	for i, tid := range tids {
		out[i] = byTID[tid]
	}
	return out
}

// filterPred keeps the candidates satisfying one predicate, supplying the
// positional context. The filter compacts in place: the caller must own the
// slice (both executors materialize borrowed slices before the pipeline).
// Planned filters resolve for the whole frontier where they can: a
// scope-only filter runs its tail once for every candidate, a one-step //
// filter on a whole unscoped frontier (whole: every candidate of the
// window, not one binding's) merges it against its posting, and unscoped
// set-capable filters answer from satisfier sets when those are cheaper on
// the frontier at hand (semijoin.go). WithoutBitmap and WithFilterPath(false)
// evaluate every candidate forward; WithFilterPath(true) takes the sets.
func (e *Engine) filterPred(pred lpath.Expr, scope int32, whole bool, cands []int32, ctx *evalCtx) ([]int32, error) {
	if len(cands) == 0 {
		return cands, nil
	}
	if e.bitmap != bitmapOff && e.filters != filterForward && ctx.plan != nil {
		x, neg := pred, false
		if n, ok := pred.(*lpath.NotExpr); ok {
			x, neg = n.X, true
		}
		if tail := planner.ScopeOnlyTail(x); tail != nil && (len(cands) > 1 || e.filters == filterSet) {
			return e.filterScopeOnly(x, tail, neg, cands, ctx)
		}
		if scope == noRow {
			if sj := ctx.semijoin(x); whole && e.filters == filterAuto && mergeable(sj) && ctx.setFor(x) == nil {
				if out, ok, err := e.mergeFilter(sj, neg, cands, ctx); ok {
					return out, err
				}
			}
			if err := e.chooseSets(pred, len(cands), ctx); err != nil {
				return nil, err
			}
			// A filter or its negation answered by a set: one bit test per
			// candidate. Other combinations test their sets per candidate
			// through evalExpr below.
			if set := ctx.setFor(x); set != nil {
				out := cands[:0]
				for _, ci := range cands {
					if set.has(e.s.Pos(ci)) != neg {
						out = append(out, ci)
					}
				}
				return out, nil
			}
		}
	}
	out := cands[:0]
	size := len(cands)
	for i, ci := range cands {
		if ctx.interrupted() {
			return out, ctx.cerr
		}
		ok, err := e.evalExpr(pred, bind{row: ci, scope: scope}, i+1, size, ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ci)
		}
	}
	return out, nil
}

// staticAccept applies the scope constraint and edge alignment to a
// candidate row; predicates run afterwards in the positional pipeline.
func (e *Engine) staticAccept(step *lpath.Step, b bind, ci int32) bool {
	cols := e.s.Cols()
	tid, cl := cols.TID[ci], edges(cols, ci)
	if b.scope != noRow {
		if cols.TID[b.scope] != tid || !label.InScope(cl, edges(cols, b.scope)) {
			return false
		}
	}
	if step.LeftAlign || step.RightAlign {
		ref := e.alignRef(b, tid)
		if ref == noRow {
			return false
		}
		rl := edges(cols, ref)
		if step.LeftAlign && !label.IsLeftAligned(cl, rl) {
			return false
		}
		if step.RightAlign && !label.IsRightAligned(cl, rl) {
			return false
		}
	}
	return true
}

// alignRef resolves the node that ^/$ compare against: the innermost scope,
// else the context node, else (from the virtual root) the candidate's tree
// root.
func (e *Engine) alignRef(b bind, candTID int32) int32 {
	if b.scope != noRow {
		return b.scope
	}
	if b.row != noRow {
		return b.row
	}
	if root, ok := e.s.ElementByID(candTID, 1); ok {
		return root
	}
	return noRow
}

// edges is the part of row i's label that scoping and alignment compare.
func edges(cols *relstore.Cols, i int32) label.Label {
	return label.Label{Left: cols.Left[i], Right: cols.Right[i], Depth: cols.Depth[i]}
}

// narrowToWindow returns the subslice of idx covering the evaluation's
// streaming tid window. idx must be tid-ascending — true of every store index
// the virtual-root entry points hand out (the clustered order is
// (name, tid, left, ...), the document-order indexes are (tid, left)-sorted,
// and Roots is tid-sorted). Subslicing keeps borrowed slices borrowed.
func (e *Engine) narrowToWindow(idx []int32, ctx *evalCtx) []int32 {
	if !ctx.windowed {
		return idx
	}
	return e.narrowToTIDs(idx, ctx.winLo, ctx.winHi)
}

// narrowToTIDs returns the subslice of the tid-ascending idx covering the
// trees with tid ∈ [lo, hi).
func (e *Engine) narrowToTIDs(idx []int32, lo, hi int32) []int32 {
	tids := e.s.Cols().TID
	i := sort.Search(len(idx), func(k int) bool { return tids[idx[k]] >= lo })
	j := i + sort.Search(len(idx)-i, func(k int) bool { return tids[idx[i+k]] >= hi })
	return idx[i:j]
}

// valueCandidates is a value-driven step's probe: its tree's run of the
// value posting tested against the axis from a context row, the window's
// value rows (stepPosting) from the virtual root.
func (e *Engine) valueCandidates(step *lpath.Step, sp *planner.StepPlan, b bind, ctx *evalCtx) (cands []int32, borrowed bool) {
	if b.row != noRow {
		tid := e.s.Cols().TID[b.row]
		rows := e.valueRows(ctx.ar.getInts(), sp.Value, sp.Attr[1:], step, tid, tid+1)
		return e.filterByAxis(rows, step, b, rows[:0]), false
	}
	rows := e.stepPosting(step, ctx)
	if step.Axis == lpath.AxisDescendant || step.Axis == lpath.AxisDescendantOrSelf {
		return rows, true
	}
	return e.filterByAxis(rows, step, b, ctx.ar.getInts()), false
}

// valueRows appends to dst, in document order, the element rows of the trees
// with tid ∈ [lo, hi) that carry value in attribute attr (named without its
// '@') and satisfy step's node test, and returns dst. ByValue is (tid, id)
// ordered, so those trees' postings are one run of it.
func (e *Engine) valueRows(dst []int32, value, attr string, step *lpath.Step, lo, hi int32) []int32 {
	cols := e.s.Cols()
	alo, ahi := e.s.AttrRange(attr)
	nlo, nhi, _ := e.s.NameRange(step.Test)
	for _, pi := range e.narrowToTIDs(e.s.ByValue(value), lo, hi) {
		if pi < alo || pi >= ahi {
			continue
		}
		ei, ok := e.s.ElementByID(cols.TID[pi], cols.ID[pi])
		if !ok || (!step.Wildcard() && (ei < nlo || ei >= nhi)) {
			continue
		}
		dst = append(dst, ei)
	}
	return dst
}

// filterByAxis appends to dst the candidates satisfying the axis relation to
// the context binding, and returns dst; dst may be cands[:0]. From the
// virtual root only the child axis reaches a row (valueCandidates takes a
// descendant step's posting whole): the trees' roots.
func (e *Engine) filterByAxis(cands []int32, step *lpath.Step, b bind, dst []int32) []int32 {
	if b.row == noRow {
		if step.Axis == lpath.AxisChild {
			pids := e.s.Cols().PID
			for _, ci := range cands {
				if pids[ci] == 0 {
					dst = append(dst, ci)
				}
			}
		}
		return dst
	}
	cols := e.s.Cols()
	tid, cl := cols.TID[b.row], cols.Label(b.row)
	for _, ci := range cands {
		if cols.TID[ci] != tid {
			continue
		}
		if axisHolds(step.Axis, cols.Label(ci), cl) {
			dst = append(dst, ci)
		}
	}
	return dst
}

// axisHolds evaluates the Table 2 label predicate for the axis.
func axisHolds(axis lpath.Axis, x, c label.Label) bool {
	switch axis {
	case lpath.AxisSelf:
		return label.IsSelf(x, c)
	case lpath.AxisChild:
		return label.IsChild(x, c)
	case lpath.AxisParent:
		return label.IsParent(x, c)
	case lpath.AxisDescendant:
		return label.IsDescendant(x, c)
	case lpath.AxisDescendantOrSelf:
		return label.IsDescendantOrSelf(x, c)
	case lpath.AxisAncestor:
		return label.IsAncestor(x, c)
	case lpath.AxisAncestorOrSelf:
		return label.IsAncestorOrSelf(x, c)
	case lpath.AxisFollowing:
		return label.IsFollowing(x, c)
	case lpath.AxisFollowingOrSelf:
		return label.IsSelf(x, c) || label.IsFollowing(x, c)
	case lpath.AxisImmediateFollowing:
		return label.IsImmediateFollowing(x, c)
	case lpath.AxisPreceding:
		return label.IsPreceding(x, c)
	case lpath.AxisPrecedingOrSelf:
		return label.IsSelf(x, c) || label.IsPreceding(x, c)
	case lpath.AxisImmediatePreceding:
		return label.IsImmediatePreceding(x, c)
	case lpath.AxisFollowingSibling:
		return label.IsFollowingSibling(x, c)
	case lpath.AxisFollowingSiblingOrSelf:
		return label.IsSelf(x, c) || label.IsFollowingSibling(x, c)
	case lpath.AxisImmediateFollowingSibling:
		return label.IsImmediateFollowingSibling(x, c)
	case lpath.AxisPrecedingSibling:
		return label.IsPrecedingSibling(x, c)
	case lpath.AxisPrecedingSiblingOrSelf:
		return label.IsSelf(x, c) || label.IsPrecedingSibling(x, c)
	case lpath.AxisImmediatePrecedingSibling:
		return label.IsImmediatePrecedingSibling(x, c)
	}
	return false
}
