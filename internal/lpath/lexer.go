package lpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind identifies the lexical class of a token.
type tokenKind int

const (
	tokEOF        tokenKind = iota
	tokName                 // tag name, attribute name, bare literal value
	tokString               // quoted literal
	tokSlashSlash           // //
	tokSlash                // /
	tokBackslash            // \
	tokBackslash2           // \\
	tokDot                  // .
	tokAt                   // @
	tokAxisSep              // ::
	tokArrow                // ->
	tokDArrow               // -->
	tokLArrow               // <-
	tokDLArrow              // <--
	tokFatArrow             // =>
	tokDFatArrow            // ==>
	tokLFatArrow            // <=
	tokDLFatArrow           // <==
	tokLBrace               // {
	tokRBrace               // }
	tokLBracket             // [
	tokRBracket             // ]
	tokLParen               // (
	tokRParen               // )
	tokCaret                // ^
	tokDollar               // $
	tokEq                   // =
	tokNeq                  // !=
	tokUnderscore           // _
	tokComma                // , (function argument separator)
	tokLT                   // <  (comparison)
	tokGT                   // >  (comparison)
	tokGE                   // >= (comparison; <= is tokLFatArrow, disambiguated by the parser)
)

var tokenKindNames = map[tokenKind]string{
	tokEOF: "end of query", tokName: "name", tokString: "string",
	tokSlashSlash: "//", tokSlash: "/", tokBackslash: `\`, tokBackslash2: `\\`,
	tokDot: ".", tokAt: "@", tokAxisSep: "::",
	tokArrow: "->", tokDArrow: "-->", tokLArrow: "<-", tokDLArrow: "<--",
	tokFatArrow: "=>", tokDFatArrow: "==>", tokLFatArrow: "<=", tokDLFatArrow: "<==",
	tokLBrace: "{", tokRBrace: "}", tokLBracket: "[", tokRBracket: "]",
	tokLParen: "(", tokRParen: ")", tokCaret: "^", tokDollar: "$",
	tokEq: "=", tokNeq: "!=", tokUnderscore: "_",
	tokComma: ",", tokLT: "<", tokGT: ">", tokGE: ">=",
}

func (k tokenKind) String() string {
	if s, ok := tokenKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string // for tokName / tokString
	pos  int    // byte offset in the query
}

// SyntaxError reports an LPath lexical or syntactic error with its position.
type SyntaxError struct {
	Query string
	Pos   int
	Msg   string
}

// errContext is how many bytes of the query on each side of the offset a
// syntax error's message quotes: a message, and a server's 400 body that
// echoes it, stays short however long the query is.
const errContext = 24

func (e *SyntaxError) Error() string {
	q := e.Query
	lo, hi := max(e.Pos-errContext, 0), min(e.Pos+errContext, len(q))
	for lo > 0 && !utf8.RuneStart(q[lo]) {
		lo--
	}
	for hi < len(q) && !utf8.RuneStart(q[hi]) {
		hi++
	}
	text := strconv.Quote(q[lo:hi])
	if lo > 0 {
		text = "..." + text
	}
	if hi < len(q) {
		text += "..."
	}
	return fmt.Sprintf("lpath: %s at offset %d in %s", e.Msg, e.Pos, text)
}

type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (lx *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Query: lx.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// isNameStart reports whether r can begin a name token. '-' is handled
// separately because of the -> and --> operators.
func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '*' || r == '+' || r == '#'
}

// isNameRune reports whether r can continue a name token (except '-', which
// needs lookahead).
func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '*' || r == '+' || r == '#' || r == '\''
}

// next scans and returns the next token.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	rest := lx.src[lx.pos:]
	emit := func(k tokenKind, n int) (token, error) {
		lx.pos += n
		return token{kind: k, pos: start}, nil
	}
	switch {
	case strings.HasPrefix(rest, "//"):
		return emit(tokSlashSlash, 2)
	case strings.HasPrefix(rest, "/"):
		return emit(tokSlash, 1)
	case strings.HasPrefix(rest, `\\`):
		return emit(tokBackslash2, 2)
	case strings.HasPrefix(rest, `\`):
		return emit(tokBackslash, 1)
	case strings.HasPrefix(rest, "::"):
		return emit(tokAxisSep, 2)
	case strings.HasPrefix(rest, "-->"):
		return emit(tokDArrow, 3)
	case strings.HasPrefix(rest, "->"):
		return emit(tokArrow, 2)
	case strings.HasPrefix(rest, "<--"):
		return emit(tokDLArrow, 3)
	case strings.HasPrefix(rest, "<-"):
		return emit(tokLArrow, 2)
	case strings.HasPrefix(rest, "<=="):
		return emit(tokDLFatArrow, 3)
	case strings.HasPrefix(rest, "<="):
		return emit(tokLFatArrow, 2)
	case strings.HasPrefix(rest, "==>"):
		return emit(tokDFatArrow, 3)
	case strings.HasPrefix(rest, "=>"):
		return emit(tokFatArrow, 2)
	case strings.HasPrefix(rest, "!="):
		return emit(tokNeq, 2)
	case strings.HasPrefix(rest, ">="):
		return emit(tokGE, 2)
	case strings.HasPrefix(rest, "<"):
		// Every multi-character <-operator was tried above; a bare '<' is
		// the numeric comparison.
		return emit(tokLT, 1)
	case strings.HasPrefix(rest, ">"):
		return emit(tokGT, 1)
	}
	switch rest[0] {
	case '=':
		return emit(tokEq, 1)
	case ',':
		return emit(tokComma, 1)
	case '.':
		return emit(tokDot, 1)
	case '@':
		return emit(tokAt, 1)
	case '{':
		return emit(tokLBrace, 1)
	case '}':
		return emit(tokRBrace, 1)
	case '[':
		return emit(tokLBracket, 1)
	case ']':
		return emit(tokRBracket, 1)
	case '(':
		return emit(tokLParen, 1)
	case ')':
		return emit(tokRParen, 1)
	case '^':
		return emit(tokCaret, 1)
	case '$':
		return emit(tokDollar, 1)
	case '\'', '"':
		return lx.scanString(rune(rest[0]))
	}
	r, _ := utf8.DecodeRuneInString(rest)
	if r == '_' {
		// '_' alone is the wildcard; '_' followed by a name rune begins a
		// name (tags with underscores are uncommon but legal).
		nr, _ := utf8.DecodeRuneInString(rest[1:])
		if len(rest) == 1 || !(isNameRune(nr) || nr == '_') {
			return emit(tokUnderscore, 1)
		}
		return lx.scanName()
	}
	if isNameStart(r) || r == '-' {
		return lx.scanName()
	}
	return token{}, lx.errf(start, "unexpected character %q", r)
}

// scanName scans a name. A '-' is included in the name unless it begins the
// -> or --> operator, so Treebank tags such as NP-SBJ, -NONE- and -DFL-
// lex as single names while VB->NP still splits at the arrow.
func (lx *lexer) scanName() (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) {
		r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if isNameRune(r) || r == '_' {
			lx.pos += sz
			continue
		}
		if r == '-' {
			tail := lx.src[lx.pos:]
			if strings.HasPrefix(tail, "->") || strings.HasPrefix(tail, "-->") {
				break
			}
			lx.pos += sz
			continue
		}
		break
	}
	if lx.pos == start {
		return token{}, lx.errf(start, "empty name")
	}
	return token{kind: tokName, text: lx.src[start:lx.pos], pos: start}, nil
}

// scanString scans a quoted literal delimited by quote; a doubled quote
// escapes itself, as in SQL.
func (lx *lexer) scanString(quote rune) (token, error) {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += sz
		if r == quote {
			if lx.pos < len(lx.src) {
				nr, nsz := utf8.DecodeRuneInString(lx.src[lx.pos:])
				if nr == quote {
					b.WriteRune(quote)
					lx.pos += nsz
					continue
				}
			}
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteRune(r)
	}
	return token{}, lx.errf(start, "unterminated string")
}
