package xpath

import (
	"fmt"
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// Engine evaluates the XPath subset over a start/end-labeled store.
//
// Under start/end labels the containment test c.left < x.left ∧ x.right <
// c.right characterizes descendants without a depth column (every position
// is unique), the pid column serves the child/parent axes, and — the point
// of Figure 10 — no label comparison exists for immediate-following, so the
// engine supports exactly the Core XPath vertical fragment plus attributes.
type Engine struct {
	s *relstore.Store
	// disableValueIndex mirrors the LPath engine option, keeping "other
	// components of both labeling schemes the same" (Section 5.4).
	disableValueIndex bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithoutValueIndex disables the value-index access path.
func WithoutValueIndex() Option {
	return func(e *Engine) { e.disableValueIndex = true }
}

// New creates an XPath engine; the store must use the start/end scheme.
func New(s *relstore.Store, opts ...Option) (*Engine, error) {
	if s.Scheme() != relstore.SchemeStartEnd {
		return nil, fmt.Errorf("xpath: store uses %v labels; the XPath engine requires the start/end scheme", s.Scheme())
	}
	e := &Engine{s: s}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Match is one query result.
type Match struct {
	TreeID int
	Node   *tree.Node
}

const noRow = int32(-1)

// Eval evaluates the query and returns distinct final-step matches in
// document order.
func (e *Engine) Eval(p *lpath.Path) ([]Match, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	rows, err := e.evalPath(p, []int32{noRow})
	if err != nil {
		return nil, err
	}
	seen := make(map[int32]bool, len(rows))
	uniq := rows[:0:0]
	for _, r := range rows {
		if r != noRow && !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	c := e.s.Cols()
	sort.Slice(uniq, func(i, j int) bool {
		a, b := uniq[i], uniq[j]
		if c.TID[a] != c.TID[b] {
			return c.TID[a] < c.TID[b]
		}
		return c.ID[a] < c.ID[b]
	})
	out := make([]Match, 0, len(uniq))
	for _, ri := range uniq {
		out = append(out, Match{TreeID: int(c.TID[ri]), Node: e.s.NodeFor(ri)})
	}
	return out, nil
}

// Count returns the number of distinct matches.
func (e *Engine) Count(p *lpath.Path) (int, error) {
	ms, err := e.Eval(p)
	return len(ms), err
}

// validate rejects AST features the start/end scheme cannot evaluate.
func validate(p *lpath.Path) error {
	if p.Scoped != nil {
		return fmt.Errorf("xpath: subtree scoping is not expressible in XPath")
	}
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.LeftAlign || s.RightAlign {
			return fmt.Errorf("xpath: edge alignment is not expressible in XPath")
		}
		switch s.Axis {
		case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf,
			lpath.AxisParent, lpath.AxisAncestor, lpath.AxisAncestorOrSelf,
			lpath.AxisSelf, lpath.AxisAttribute:
		default:
			return fmt.Errorf("xpath: axis %s is not supported by the start/end labeling", s.Axis)
		}
		for _, pred := range s.Preds {
			if err := validateExpr(pred); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateExpr(x lpath.Expr) error {
	switch ex := x.(type) {
	case *lpath.AndExpr:
		if err := validateExpr(ex.L); err != nil {
			return err
		}
		return validateExpr(ex.R)
	case *lpath.OrExpr:
		if err := validateExpr(ex.L); err != nil {
			return err
		}
		return validateExpr(ex.R)
	case *lpath.NotExpr:
		return validateExpr(ex.X)
	case *lpath.PathExpr:
		return validate(ex.Path)
	case *lpath.CmpExpr:
		return validate(ex.Path)
	case *lpath.PositionExpr, *lpath.LastExpr, *lpath.CountExpr, *lpath.StrFnExpr:
		return fmt.Errorf("xpath: the function library is not part of the comparison subset")
	}
	return nil
}

func (e *Engine) evalPath(p *lpath.Path, ctxs []int32) ([]int32, error) {
	var err error
	for i := range p.Steps {
		ctxs, err = e.evalStep(&p.Steps[i], ctxs)
		if err != nil {
			return nil, err
		}
		if len(ctxs) == 0 {
			return nil, nil
		}
	}
	return ctxs, nil
}

func (e *Engine) evalStep(step *lpath.Step, ctxs []int32) ([]int32, error) {
	if step.Axis == lpath.AxisAttribute {
		return nil, lpath.ErrAttrInMainPath
	}
	valueDriven, eqValue := e.valueDrivenCandidates(step)
	var out []int32
	seen := make(map[int32]bool)
	for _, ctx := range ctxs {
		var cands []int32
		if valueDriven != nil {
			cands = e.filterContained(valueDriven, step, ctx)
		} else {
			cands = e.axisCandidates(step, ctx)
		}
		for _, ci := range cands {
			if seen[ci] {
				continue
			}
			ok, err := e.preds(step, ci, eqValue)
			if err != nil {
				return nil, err
			}
			if ok {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	return out, nil
}

func (e *Engine) preds(step *lpath.Step, ci int32, eqValue string) (bool, error) {
	for _, pred := range step.Preds {
		if eqValue != "" {
			if cmp, ok := pred.(*lpath.CmpExpr); ok && isDirectEq(cmp) && cmp.Value == eqValue {
				continue
			}
		}
		ok, err := e.evalExpr(pred, ci)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func isDirectEq(c *lpath.CmpExpr) bool {
	return c.Op == "=" && c.Path.Scoped == nil && len(c.Path.Steps) == 1 &&
		c.Path.Steps[0].Axis == lpath.AxisAttribute
}

func (e *Engine) valueDrivenCandidates(step *lpath.Step) ([]int32, string) {
	if e.disableValueIndex {
		return nil, ""
	}
	for _, pred := range step.Preds {
		cmp, ok := pred.(*lpath.CmpExpr)
		if !ok || !isDirectEq(cmp) {
			continue
		}
		postings := e.s.ByValue(cmp.Value)
		nameCost := e.s.NameCount(step.Test)
		if step.Wildcard() {
			nameCost = e.s.ElementCount()
		}
		if len(postings) >= nameCost {
			continue
		}
		c := e.s.Cols()
		alo, ahi := e.s.AttrRange(cmp.Path.Steps[0].Test)
		named := e.named(step)
		cands := make([]int32, 0, len(postings))
		for _, pi := range postings {
			if pi < alo || pi >= ahi {
				continue
			}
			ei, ok := e.s.ElementByID(c.TID[pi], c.ID[pi])
			if ok && named(ei) {
				cands = append(cands, ei)
			}
		}
		return cands, cmp.Value
	}
	return nil, ""
}

// filterContained filters precomputed candidates by the axis relation.
func (e *Engine) filterContained(cands []int32, step *lpath.Step, ctx int32) []int32 {
	if ctx == noRow {
		switch step.Axis {
		case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
			return cands
		case lpath.AxisChild:
			out := cands[:0:0]
			for _, ci := range cands {
				if e.s.Cols().PID[ci] == 0 {
					out = append(out, ci)
				}
			}
			return out
		default:
			return nil
		}
	}
	cols := e.s.Cols()
	c := cols.Label(ctx)
	out := cands[:0:0]
	for _, ci := range cands {
		if cols.TID[ci] != cols.TID[ctx] {
			continue
		}
		x := cols.Label(ci)
		switch step.Axis {
		case lpath.AxisChild:
			if x.PID == c.ID {
				out = append(out, ci)
			}
		case lpath.AxisDescendant:
			if c.Left < x.Left && x.Right < c.Right {
				out = append(out, ci)
			}
		case lpath.AxisDescendantOrSelf:
			if c.Left <= x.Left && x.Right <= c.Right {
				out = append(out, ci)
			}
		case lpath.AxisSelf:
			if x.ID == c.ID {
				out = append(out, ci)
			}
		case lpath.AxisParent:
			if x.ID == c.PID {
				out = append(out, ci)
			}
		case lpath.AxisAncestor:
			if x.Left < c.Left && c.Right < x.Right {
				out = append(out, ci)
			}
		case lpath.AxisAncestorOrSelf:
			if x.Left <= c.Left && c.Right <= x.Right {
				out = append(out, ci)
			}
		}
	}
	return out
}

// axisCandidates probes the store for nodes on the axis from ctx.
func (e *Engine) axisCandidates(step *lpath.Step, ctx int32) []int32 {
	if ctx == noRow {
		switch step.Axis {
		case lpath.AxisChild:
			return e.filterName(e.s.Roots(), step)
		case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
			if step.Wildcard() {
				return e.s.ElementsByLeft()
			}
			lo, hi, ok := e.s.NameRange(step.Test)
			if !ok {
				return nil
			}
			out := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out
		default:
			return nil
		}
	}
	cols := e.s.Cols()
	tid, c := cols.TID[ctx], cols.Label(ctx)
	switch step.Axis {
	case lpath.AxisSelf:
		return e.filterName([]int32{ctx}, step)
	case lpath.AxisChild:
		return e.filterName(e.s.Children(tid, c.ID), step)
	case lpath.AxisParent:
		if c.PID == 0 {
			return nil
		}
		if pi, ok := e.s.ElementByID(tid, c.PID); ok {
			return e.filterName([]int32{pi}, step)
		}
		return nil
	case lpath.AxisAncestor, lpath.AxisAncestorOrSelf:
		var out []int32
		named := e.named(step)
		cur := ctx
		if step.Axis == lpath.AxisAncestor {
			next, ok := e.s.ElementByID(tid, cols.PID[cur])
			if !ok {
				return nil
			}
			cur = next
		}
		for {
			if named(cur) {
				out = append(out, cur)
			}
			next, ok := e.s.ElementByID(tid, cols.PID[cur])
			if !ok {
				break
			}
			cur = next
		}
		return out
	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		// start ∈ (c.start, c.end) — containment needs no depth column.
		lo, hi := c.Left+1, c.Right-1
		if step.Axis == lpath.AxisDescendantOrSelf {
			lo = c.Left
		}
		return e.scanLeftRange(step, tid, lo, hi)
	}
	return nil
}

// named returns the step's node test on row indexes: a row's name is the
// clustered range that holds it.
func (e *Engine) named(step *lpath.Step) func(int32) bool {
	if step.Wildcard() {
		return func(int32) bool { return true }
	}
	lo, hi, _ := e.s.NameRange(step.Test)
	return func(ri int32) bool { return ri >= lo && ri < hi }
}

func (e *Engine) filterName(rows []int32, step *lpath.Step) []int32 {
	if step.Wildcard() {
		return rows
	}
	named := e.named(step)
	out := rows[:0:0]
	for _, ri := range rows {
		if named(ri) {
			out = append(out, ri)
		}
	}
	return out
}

func (e *Engine) scanLeftRange(step *lpath.Step, tid, lo, hi int32) []int32 {
	if hi < lo {
		return nil
	}
	c := e.s.Cols()
	if step.Wildcard() {
		idxs := e.s.ElementsByLeft()
		start := sort.Search(len(idxs), func(i int) bool {
			ri := idxs[i]
			return c.TID[ri] > tid || (c.TID[ri] == tid && c.Left[ri] >= lo)
		})
		var out []int32
		for i := start; i < len(idxs); i++ {
			if ri := idxs[i]; c.TID[ri] != tid || c.Left[ri] > hi {
				break
			}
			out = append(out, idxs[i])
		}
		return out
	}
	rlo, rhi, ok := e.s.NameRange(step.Test)
	if !ok {
		return nil
	}
	n := int(rhi - rlo)
	start := sort.Search(n, func(i int) bool {
		ri := rlo + int32(i)
		return c.TID[ri] > tid || (c.TID[ri] == tid && c.Left[ri] >= lo)
	})
	var out []int32
	for i := start; i < n; i++ {
		ri := rlo + int32(i)
		if c.TID[ri] != tid || c.Left[ri] > hi {
			break
		}
		out = append(out, ri)
	}
	return out
}

// --- predicates -----------------------------------------------------------

func (e *Engine) evalExpr(x lpath.Expr, ctx int32) (bool, error) {
	switch ex := x.(type) {
	case *lpath.AndExpr:
		ok, err := e.evalExpr(ex.L, ctx)
		if err != nil || !ok {
			return false, err
		}
		return e.evalExpr(ex.R, ctx)
	case *lpath.OrExpr:
		ok, err := e.evalExpr(ex.L, ctx)
		if err != nil || ok {
			return ok, err
		}
		return e.evalExpr(ex.R, ctx)
	case *lpath.NotExpr:
		ok, err := e.evalExpr(ex.X, ctx)
		return !ok, err
	case *lpath.PathExpr:
		return e.exists(ex.Path, ctx, "", "")
	case *lpath.CmpExpr:
		return e.exists(ex.Path, ctx, ex.Op, ex.Value)
	}
	return false, nil
}

func (e *Engine) exists(p *lpath.Path, ctx int32, op, value string) (bool, error) {
	head, attr, err := lpath.SplitAttr(p)
	if err != nil {
		return false, err
	}
	if op != "" && attr == "" {
		return false, lpath.ErrCmpNeedsAttr
	}
	var elems []int32
	if head == nil {
		elems = []int32{ctx}
	} else {
		elems, err = e.evalPath(head, []int32{ctx})
		if err != nil {
			return false, err
		}
	}
	if attr == "" {
		return len(elems) > 0, nil
	}
	for _, ei := range elems {
		if ei == noRow {
			continue
		}
		v, ok := e.s.AttrValue(ei, attr)
		if !ok {
			continue
		}
		switch op {
		case "":
			return true, nil
		case "=":
			if v == value {
				return true, nil
			}
		case "!=":
			if v != value {
				return true, nil
			}
		}
	}
	return false, nil
}
