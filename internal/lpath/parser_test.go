package lpath

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseSimpleDescendant(t *testing.T) {
	p := MustParse("//S")
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	s := p.Steps[0]
	if s.Axis != AxisDescendant || s.Test != "S" {
		t.Errorf("step = %v %q", s.Axis, s.Test)
	}
}

func TestParseFigure2Queries(t *testing.T) {
	// The LPath column of Figure 2.
	queries := []string{
		`//S[//_[@lex=saw]]`,
		`//V==>NP`,
		`//V->NP`,
		`//VP/V-->N`,
		`//VP{/V-->N}`,
		`//VP{/NP$}`,
		`//VP{//NP$}`,
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseEvalQueries(t *testing.T) {
	if len(EvalQueries) != 23 {
		t.Fatalf("eval query set has %d queries, want 23", len(EvalQueries))
	}
	nXPath := 0
	for _, q := range EvalQueries {
		if _, err := Parse(q.Text); err != nil {
			t.Errorf("Q%d %q: %v", q.ID, q.Text, err)
		}
		if q.XPathExpressible {
			nXPath++
		}
	}
	if nXPath != 11 {
		t.Errorf("XPath-expressible count = %d, want 11 (paper Section 5.1.3)", nXPath)
	}
}

func TestParseAxes(t *testing.T) {
	cases := []struct {
		query string
		axis  Axis
		test  string
	}{
		{"/NP", AxisChild, "NP"},
		{"//NP", AxisDescendant, "NP"},
		{`\NP`, AxisParent, "NP"},
		{`\\NP`, AxisAncestor, "NP"},
		{"->NP", AxisImmediateFollowing, "NP"},
		{"-->NP", AxisFollowing, "NP"},
		{"<-NP", AxisImmediatePreceding, "NP"},
		{"<--NP", AxisPreceding, "NP"},
		{"=>NP", AxisImmediateFollowingSibling, "NP"},
		{"==>NP", AxisFollowingSibling, "NP"},
		{"<=NP", AxisImmediatePrecedingSibling, "NP"},
		{"<==NP", AxisPrecedingSibling, "NP"},
		{".NP", AxisSelf, "NP"},
		{"@lex", AxisAttribute, "lex"},
		{"/descendant::NP", AxisDescendant, "NP"},
		{"/descendant-or-self::NP", AxisDescendantOrSelf, "NP"},
		{"/following::NP", AxisFollowing, "NP"},
		{"/following-or-self::NP", AxisFollowingOrSelf, "NP"},
		{"/immediate-following::NP", AxisImmediateFollowing, "NP"},
		{"/preceding-sibling-or-self::NP", AxisPrecedingSiblingOrSelf, "NP"},
		{`\ancestor::NP`, AxisAncestor, "NP"},
		{`\ancestor-or-self::NP`, AxisAncestorOrSelf, "NP"},
		{`\parent::NP`, AxisParent, "NP"},
		{"/self::NP", AxisSelf, "NP"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.query)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.query, err)
			continue
		}
		if len(p.Steps) != 1 {
			t.Errorf("Parse(%q): %d steps", tc.query, len(p.Steps))
			continue
		}
		if p.Steps[0].Axis != tc.axis || p.Steps[0].Test != tc.test {
			t.Errorf("Parse(%q) = %s %q, want %s %q",
				tc.query, p.Steps[0].Axis, p.Steps[0].Test, tc.axis, tc.test)
		}
	}
}

// TestParseAxisNameAsTag ensures tags that collide with axis names still
// parse as node tests when no '::' follows.
func TestParseAxisNameAsTag(t *testing.T) {
	p := MustParse("/descendant")
	if p.Steps[0].Axis != AxisChild || p.Steps[0].Test != "descendant" {
		t.Errorf("got %s %q", p.Steps[0].Axis, p.Steps[0].Test)
	}
	p = MustParse("/self/NP")
	if p.Steps[0].Axis != AxisChild || p.Steps[0].Test != "self" {
		t.Errorf("got %s %q", p.Steps[0].Axis, p.Steps[0].Test)
	}
}

func TestParseHyphenTags(t *testing.T) {
	cases := map[string]string{
		"//NP-SBJ":       "NP-SBJ",
		"//-NONE-":       "-NONE-",
		"//-DFL-":        "-DFL-",
		"//ADVP-LOC-CLR": "ADVP-LOC-CLR",
		"//NP-SBJ-1":     "NP-SBJ-1",
	}
	for q, tag := range cases {
		p, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		if p.Steps[0].Test != tag {
			t.Errorf("Parse(%q) test = %q, want %q", q, p.Steps[0].Test, tag)
		}
	}
	// The arrow must still split.
	p := MustParse("//VB-->NN")
	if len(p.Steps) != 2 || p.Steps[0].Test != "VB" || p.Steps[1].Axis != AxisFollowing {
		t.Errorf("//VB-->NN parsed wrong: %v", p)
	}
	p = MustParse("//VB->NP")
	if len(p.Steps) != 2 || p.Steps[1].Axis != AxisImmediateFollowing {
		t.Errorf("//VB->NP parsed wrong: %v", p)
	}
}

func TestParseScoping(t *testing.T) {
	p := MustParse("//VP{/VB-->NN}")
	if len(p.Steps) != 1 || p.Scoped == nil {
		t.Fatalf("scoped tail missing: %v", p)
	}
	if len(p.Scoped.Steps) != 2 {
		t.Fatalf("scoped steps = %d", len(p.Scoped.Steps))
	}
	if p.Scoped.Steps[0].Axis != AxisChild || p.Scoped.Steps[1].Axis != AxisFollowing {
		t.Errorf("scoped axes wrong")
	}
	// Nested scopes.
	p = MustParse("//S{//VP{//NP$}}")
	if p.Scoped == nil || p.Scoped.Scoped == nil {
		t.Fatal("nested scope missing")
	}
	if !p.Scoped.Scoped.Steps[0].RightAlign {
		t.Error("inner right alignment lost")
	}
}

func TestParseAlignment(t *testing.T) {
	p := MustParse("//VP{//^VB->NP->PP$}")
	inner := p.Scoped
	if !inner.Steps[0].LeftAlign {
		t.Error("^ lost on first scoped step")
	}
	if !inner.Steps[2].RightAlign {
		t.Error("$ lost on last scoped step")
	}
	if inner.Steps[1].LeftAlign || inner.Steps[1].RightAlign {
		t.Error("middle step must not be aligned")
	}
}

func TestParsePredicates(t *testing.T) {
	p := MustParse(`//S[//_[@lex=saw]]`)
	if len(p.Steps[0].Preds) != 1 {
		t.Fatalf("preds = %d", len(p.Steps[0].Preds))
	}
	pe, ok := p.Steps[0].Preds[0].(*PathExpr)
	if !ok {
		t.Fatalf("pred type %T", p.Steps[0].Preds[0])
	}
	if len(pe.Path.Steps) != 1 || !pe.Path.Steps[0].Wildcard() {
		t.Errorf("pred path = %v", pe.Path)
	}
	inner, ok := pe.Path.Steps[0].Preds[0].(*CmpExpr)
	if !ok {
		t.Fatalf("inner pred type %T", pe.Path.Steps[0].Preds[0])
	}
	if inner.Op != "=" || inner.Value != "saw" {
		t.Errorf("cmp = %s %q", inner.Op, inner.Value)
	}
	if inner.Path.Steps[0].Axis != AxisAttribute || inner.Path.Steps[0].Test != "lex" {
		t.Errorf("cmp path = %v", inner.Path.Steps[0])
	}
}

func TestParseNotAndOr(t *testing.T) {
	p := MustParse(`//NP[not(//JJ)]`)
	if _, ok := p.Steps[0].Preds[0].(*NotExpr); !ok {
		t.Errorf("want NotExpr, got %T", p.Steps[0].Preds[0])
	}
	p = MustParse(`//NP[//JJ and //DT or //NN]`)
	or, ok := p.Steps[0].Preds[0].(*OrExpr)
	if !ok {
		t.Fatalf("want OrExpr at top (and binds tighter), got %T", p.Steps[0].Preds[0])
	}
	if _, ok := or.L.(*AndExpr); !ok {
		t.Errorf("left of or should be AndExpr, got %T", or.L)
	}
	p = MustParse(`//NP[//JJ and (//DT or //NN)]`)
	and, ok := p.Steps[0].Preds[0].(*AndExpr)
	if !ok {
		t.Fatalf("want AndExpr, got %T", p.Steps[0].Preds[0])
	}
	if _, ok := and.R.(*OrExpr); !ok {
		t.Errorf("right of and should be OrExpr, got %T", and.R)
	}
	// not with comparison and != operator.
	p = MustParse(`//NP[not(@lex=dog) and @lex!='cat']`)
	andExpr := p.Steps[0].Preds[0].(*AndExpr)
	cmp := andExpr.R.(*CmpExpr)
	if cmp.Op != "!=" || cmp.Value != "cat" {
		t.Errorf("cmp = %+v", cmp)
	}
}

func TestParseScopedPredicate(t *testing.T) {
	p := MustParse(`//VP[{//^VB->NP->PP$}]`)
	pe, ok := p.Steps[0].Preds[0].(*PathExpr)
	if !ok {
		t.Fatalf("pred type %T", p.Steps[0].Preds[0])
	}
	if len(pe.Path.Steps) != 0 || pe.Path.Scoped == nil {
		t.Fatalf("want empty head + scope, got %v", pe.Path)
	}
	if len(pe.Path.Scoped.Steps) != 3 {
		t.Errorf("scoped steps = %d", len(pe.Path.Scoped.Steps))
	}
}

func TestParseMultiplePredicates(t *testing.T) {
	p := MustParse(`//NP[//JJ][//DT]`)
	if len(p.Steps[0].Preds) != 2 {
		t.Errorf("preds = %d, want 2", len(p.Steps[0].Preds))
	}
}

func TestParseQuotedTest(t *testing.T) {
	p := MustParse(`//'.'`)
	if p.Steps[0].Test != "." {
		t.Errorf("test = %q", p.Steps[0].Test)
	}
	p = MustParse(`//_[@lex='don''t']`)
	cmp := p.Steps[0].Preds[0].(*CmpExpr)
	if cmp.Value != "don't" {
		t.Errorf("value = %q", cmp.Value)
	}
	p = MustParse(`//_[@lex="U.S."]`)
	cmp = p.Steps[0].Preds[0].(*CmpExpr)
	if cmp.Value != "U.S." {
		t.Errorf("value = %q", cmp.Value)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"NP",              // no axis
		"//",              // missing node test
		"//NP[",           // unterminated predicate
		"//NP[]",          // empty predicate
		"//NP[@lex=]",     // missing literal
		"//NP{",           // unterminated scope
		"//NP{}",          // empty scope
		"//NP}",           // stray brace
		"//NP)",           // stray paren
		"//NP[not //JJ]",  // not without parens
		"@_",              // attribute wildcard
		"//NP '",          // unterminated string
		"//NP[//JJ and]",  // dangling and
		"//NP[=saw]",      // comparison without path
		"//NP$$",          // double alignment
		"/following::",    // long axis without test
		`\descendant::NP`, // forward axis after backslash
		"//NP ~ //VP",     // bad character
	}
	for _, q := range cases {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("//NP[@lex=]")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("got %T: %v", err, err)
	}
	if se.Query != "//NP[@lex=]" {
		t.Errorf("query = %q", se.Query)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("error text = %q", se.Error())
	}

	// A 10 000-deep query is refused at the first opener past the nesting
	// bound; the message quotes a window around it, not the whole query.
	deep := strings.Repeat(`//A[`, 10000) + `//B` + strings.Repeat(`]`, 10000)
	_, err = Parse(deep)
	if !errors.As(err, &se) {
		t.Fatalf("deep query: got %T: %v", err, err)
	}
	if se.Query != deep {
		t.Errorf("deep query: Query field is %d bytes, want the whole %d", len(se.Query), len(deep))
	}
	msg := se.Error()
	if len(msg) > 200 || !strings.Contains(msg, fmt.Sprintf("offset %d ", se.Pos)) {
		t.Errorf("deep query: %d-byte message %q, want at most 200 naming offset %d", len(msg), msg, se.Pos)
	}
}

func TestRoundTrip(t *testing.T) {
	queries := []string{
		`//S[//_[@lex=saw]]`,
		`//V==>NP`,
		`//VP{/V-->N}`,
		`//VP{//NP$}`,
		`//VP[{//^VB->NP->PP$}]`,
		`//NP[not(//JJ)]`,
		`//NP[->PP[//IN[@lex=of]]=>VP]`,
		`//S[{//_[@lex=what]->_[@lex=building]}]`,
		`//NP/NP/NP/NP/NP`,
		`//NP[//JJ and //DT or //NN]`,
		`//NP[//JJ and (//DT or //NN)]`,
		`\\S/NP<--VP`,
		`/following-or-self::NP`,
		`//_[@lex='U.S.']`,
		`.NP[@lex!=dog]`,
	}
	for _, q := range queries {
		p1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		printed := p1.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q → %q failed: %v", q, printed, err)
			continue
		}
		if !p1.Equal(p2) {
			t.Errorf("round trip not equal: %q → %q", q, printed)
		}
	}
}

func TestLastStep(t *testing.T) {
	p := MustParse("//VP{/VB-->NN}")
	if got := p.LastStep(); got == nil || got.Test != "NN" {
		t.Errorf("LastStep = %v", got)
	}
	p = MustParse("//VP")
	if got := p.LastStep(); got == nil || got.Test != "VP" {
		t.Errorf("LastStep = %v", got)
	}
	if got := (&Path{}).LastStep(); got != nil {
		t.Errorf("empty LastStep = %v", got)
	}
}
