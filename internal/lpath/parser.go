package lpath

import "fmt"

// Parse parses an LPath query and returns its syntax tree.
//
// The grammar follows Figure 4 of the paper:
//
//	RLP  ::= HP | HP '{' RLP '}'
//	HP   ::= ε | S HP
//	S    ::= A ['^'] NodeTest ['$'] Predicate*
//	A    ::= '/' | '//' | '\' | '\\' | '.' | '@'
//	       | '->' | '-->' | '<-' | '<--'
//	       | '=>' | '==>' | '<=' | '<=='
//	       | '/' AxisName '::' | '\' AxisName '::'
//
// plus predicates [expr] where expr is a boolean combination (and, or,
// not(...)) of relative paths and comparisons path = literal / path != literal.
func Parse(query string) (*Path, error) {
	p := &parser{lx: newLexer(query)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("unexpected %s after end of path", p.tok.kind)
	}
	if len(path.Steps) == 0 && path.Scoped == nil {
		return nil, p.errHere("empty query")
	}
	return path, nil
}

// MustParse is Parse panicking on error; for tests and examples.
func MustParse(query string) *Path {
	p, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return p
}

// maxNesting bounds how deeply a query may nest: each predicate '[', scope
// '{', and parenthesised or function-call '(' opens one level. The paper's
// queries nest at most three deep. The bound caps the recursion of the
// parser and of every later walk of the tree (validation, printing,
// planning, evaluation); the planner re-walks nested filters at each level,
// so without it planning time grows with the square of the depth.
const maxNesting = 64

type parser struct {
	lx    *lexer
	tok   token
	depth int // open '[', '{' and '(' levels
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &SyntaxError{Query: p.lx.src, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

// open consumes the opener k and enters the nesting level it opens; close
// consumes the matching closer and leaves it. Past maxNesting, open fails at
// the opener's offset.
func (p *parser) open(k tokenKind) error {
	if p.tok.kind == k && p.depth == maxNesting {
		return p.errHere("query nests deeper than %d levels", maxNesting)
	}
	p.depth++
	return p.expect(k)
}

func (p *parser) close(k tokenKind) error {
	p.depth--
	return p.expect(k)
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errHere("expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

// axisStarters maps tokens that begin a step directly to their axis.
var axisStarters = map[tokenKind]Axis{
	tokSlashSlash: AxisDescendant,
	tokSlash:      AxisChild,
	tokBackslash:  AxisParent,
	tokBackslash2: AxisAncestor,
	tokDot:        AxisSelf,
	tokAt:         AxisAttribute,
	tokArrow:      AxisImmediateFollowing,
	tokDArrow:     AxisFollowing,
	tokLArrow:     AxisImmediatePreceding,
	tokDLArrow:    AxisPreceding,
	tokFatArrow:   AxisImmediateFollowingSibling,
	tokDFatArrow:  AxisFollowingSibling,
	tokLFatArrow:  AxisImmediatePrecedingSibling,
	tokDLFatArrow: AxisPrecedingSibling,
}

// parsePath parses a relative location path: zero or more steps optionally
// followed by a braced scoped tail.
func (p *parser) parsePath() (*Path, error) {
	path := &Path{}
	for {
		if _, ok := axisStarters[p.tok.kind]; ok {
			step, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, *step)
			continue
		}
		if p.tok.kind == tokLBrace {
			if err := p.open(tokLBrace); err != nil {
				return nil, err
			}
			inner, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			if len(inner.Steps) == 0 && inner.Scoped == nil {
				return nil, p.errHere("empty scope {}")
			}
			if err := p.close(tokRBrace); err != nil {
				return nil, err
			}
			path.Scoped = inner
		}
		return path, nil
	}
}

// parseStep parses one location step; the current token is the axis starter.
func (p *parser) parseStep() (*Step, error) {
	axis := axisStarters[p.tok.kind]
	axisTok := p.tok.kind
	if err := p.advance(); err != nil {
		return nil, err
	}

	// Long axis form: '/' name '::' or '\' name '::'.
	if (axisTok == tokSlash || axisTok == tokBackslash) && p.tok.kind == tokName {
		if named, ok := axisByName[p.tok.text]; ok {
			savedName := p.tok
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind == tokAxisSep {
				if axisTok == tokBackslash && named != AxisAncestor && named != AxisAncestorOrSelf && named != AxisParent {
					return nil, p.errHere(`axis %s may not follow '\'`, named)
				}
				axis = named
				if err := p.advance(); err != nil {
					return nil, err
				}
				return p.parseStepRest(axis)
			}
			// Not an axis name after all: it was the node test.
			return p.parseStepRestWithTest(axis, savedName.text)
		}
	}
	return p.parseStepRest(axis)
}

// parseStepRest parses [^] NodeTest [$] Predicate* for the given axis.
func (p *parser) parseStepRest(axis Axis) (*Step, error) {
	step := &Step{Axis: axis}
	if p.tok.kind == tokCaret {
		step.LeftAlign = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	switch {
	case axis == AxisSelf && p.tok.kind != tokName && p.tok.kind != tokUnderscore && p.tok.kind != tokString:
		// Bare '.' — self with implicit wildcard.
		step.Test = "_"
	case p.tok.kind == tokName || p.tok.kind == tokString:
		step.Test = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.tok.kind == tokUnderscore:
		step.Test = "_"
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errHere("expected node test, found %s", p.tok.kind)
	}
	if axis == AxisAttribute && step.Test == "_" {
		return nil, p.errHere("attribute axis requires an attribute name")
	}
	return p.finishStep(step)
}

// parseStepRestWithTest continues a step whose node test has already been
// consumed (disambiguation of long axis names).
func (p *parser) parseStepRestWithTest(axis Axis, test string) (*Step, error) {
	step := &Step{Axis: axis, Test: test}
	return p.finishStep(step)
}

func (p *parser) finishStep(step *Step) (*Step, error) {
	if p.tok.kind == tokDollar {
		step.RightAlign = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for p.tok.kind == tokLBracket {
		if err := p.open(tokLBracket); err != nil {
			return nil, err
		}
		e, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.close(tokRBracket); err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, e)
	}
	return step, nil
}

func (p *parser) parseOrExpr() (Expr, error) {
	l, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "or" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAndExpr() (Expr, error) {
	l, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "and" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

// cmpOps maps comparison tokens to their operator spelling; tokLFatArrow
// (the immediate-preceding-sibling axis) doubles as <= in comparison
// position.
var cmpOps = map[tokenKind]string{
	tokEq: "=", tokNeq: "!=", tokLT: "<", tokGT: ">", tokGE: ">=",
	tokLFatArrow: "<=",
}

func (p *parser) parseUnaryExpr() (Expr, error) {
	if p.tok.kind == tokName {
		switch p.tok.text {
		case "position":
			return p.parsePositionExpr()
		case "last":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &LastExpr{}, nil
		case "count":
			return p.parseCountExpr()
		case "contains", "starts-with", "ends-with":
			return p.parseStrFnExpr(p.tok.text)
		}
		// A bare integer is positional shorthand: [3] = [position()=3].
		if n, ok := atoiName(p.tok.text); ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &PositionExpr{Op: "=", Value: n}, nil
		}
	}
	if p.tok.kind == tokName && p.tok.text == "not" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.open(tokLParen); err != nil {
			return nil, err
		}
		inner, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.close(tokRParen); err != nil {
			return nil, err
		}
		return &NotExpr{X: inner}, nil
	}
	if p.tok.kind == tokLParen {
		if err := p.open(tokLParen); err != nil {
			return nil, err
		}
		inner, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.close(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parsePathExpr()
}

// atoiName converts a name token consisting solely of digits.
func atoiName(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// parseCmpOp consumes a comparison operator token.
func (p *parser) parseCmpOp() (string, error) {
	op, ok := cmpOps[p.tok.kind]
	if !ok {
		return "", p.errHere("expected comparison operator, found %s", p.tok.kind)
	}
	return op, p.advance()
}

// parsePositionExpr parses position() Op (INT | last()).
func (p *parser) parsePositionExpr() (Expr, error) {
	if err := p.advance(); err != nil { // position
		return nil, err
	}
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokName && p.tok.text == "last" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &PositionExpr{Op: op, Last: true}, nil
	}
	if p.tok.kind != tokName {
		return nil, p.errHere("expected integer or last() after position()%s", op)
	}
	n, ok := atoiName(p.tok.text)
	if !ok {
		return nil, p.errHere("expected integer, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &PositionExpr{Op: op, Value: n}, nil
}

// parseCountExpr parses count(path) Op INT.
func (p *parser) parseCountExpr() (Expr, error) {
	if err := p.advance(); err != nil { // count
		return nil, err
	}
	if err := p.open(tokLParen); err != nil {
		return nil, err
	}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 && path.Scoped == nil {
		return nil, p.errHere("count() requires a path argument")
	}
	if err := p.close(tokRParen); err != nil {
		return nil, err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokName {
		return nil, p.errHere("expected integer after count()%s", op)
	}
	n, ok := atoiName(p.tok.text)
	if !ok {
		return nil, p.errHere("expected integer, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &CountExpr{Path: path, Op: op, Value: n}, nil
}

// parseStrFnExpr parses fn(path, 'literal') for the string functions.
func (p *parser) parseStrFnExpr(fn string) (Expr, error) {
	if err := p.advance(); err != nil { // fn name
		return nil, err
	}
	if err := p.open(tokLParen); err != nil {
		return nil, err
	}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 && path.Scoped == nil {
		return nil, p.errHere("%s() requires an attribute path argument", fn)
	}
	if err := p.expect(tokComma); err != nil {
		return nil, err
	}
	if p.tok.kind != tokName && p.tok.kind != tokString {
		return nil, p.errHere("expected literal argument to %s()", fn)
	}
	arg := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.close(tokRParen); err != nil {
		return nil, err
	}
	return &StrFnExpr{Fn: fn, Path: path, Arg: arg}, nil
}

// parsePathExpr parses a relative path possibly followed by a comparison.
func (p *parser) parsePathExpr() (Expr, error) {
	start := p.tok
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 && path.Scoped == nil {
		return nil, &SyntaxError{Query: p.lx.src, Pos: start.pos,
			Msg: fmt.Sprintf("expected predicate expression, found %s", start.kind)}
	}
	if p.tok.kind == tokEq || p.tok.kind == tokNeq {
		op := "="
		if p.tok.kind == tokNeq {
			op = "!="
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokName && p.tok.kind != tokString {
			return nil, p.errHere("expected literal after %s", op)
		}
		val := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &CmpExpr{Path: path, Op: op, Value: val}, nil
	}
	return &PathExpr{Path: path}, nil
}
