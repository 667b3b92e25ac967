package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a parse failure with a byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xquery: parse error at %d: %s", e.Pos, e.Msg)
}

// maxDepth bounds expression nesting. Without it a query of a few hundred
// kilobytes of "(" would overflow the goroutine stack, a fatal error that
// no recover() catches.
const maxDepth = 1000

type parser struct {
	lx    *lexer
	tok   Token
	depth int // expressions currently open, see enter
}

// parseAbort carries the first error from wherever the parser met it up
// to Parse, so no production ever runs on past an error (a production
// that resumed could re-enter itself on the same unconsumed token
// without end).
type parseAbort struct{ err error }

// Parse parses a query module: zero or more function declarations followed
// by the body expression.
func Parse(src string) (q *Query, err error) {
	p := &parser{lx: newLexer(src)}
	defer func() {
		if r := recover(); r != nil {
			abort, ok := r.(parseAbort)
			if !ok {
				panic(r)
			}
			q, err = nil, abort.err
		}
	}()
	p.advance()
	q = &Query{Functions: make(map[string]*FuncDecl)}
	for p.tok.Kind == TokName && p.tok.Text == "declare" {
		fd := p.parseFuncDecl()
		if _, dup := q.Functions[fd.Name]; dup {
			return nil, &ParseError{Pos: p.tok.Pos, Msg: "duplicate function " + fd.Name}
		}
		q.Functions[fd.Name] = fd
	}
	q.Body = p.parseExpr()
	if p.tok.Kind != TokEOF {
		return nil, &ParseError{Pos: p.tok.Pos, Msg: "trailing input " + p.tok.Text}
	}
	return q, nil
}

func (p *parser) advance() {
	t, err := p.lx.next()
	if err != nil {
		panic(parseAbort{err})
	}
	p.tok = t
}

// fail records the parse error and aborts the parse.
func (p *parser) fail(format string, args ...interface{}) {
	panic(parseAbort{&ParseError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}})
}

// enter opens one level of expression nesting; the caller closes it with
// p.depth-- once the nested expression is parsed.
func (p *parser) enter() {
	if p.depth++; p.depth > maxDepth {
		p.fail("expression nested deeper than %d levels", maxDepth)
	}
}

func (p *parser) expect(k TokKind, what string) Token {
	t := p.tok
	if t.Kind != k {
		p.fail("expected %s, found %q", what, t.Text)
	}
	p.advance()
	return t
}

func (p *parser) keyword(word string) bool {
	return p.tok.Kind == TokName && p.tok.Text == word
}

func (p *parser) expectKeyword(word string) {
	if !p.keyword(word) {
		p.fail("expected %q, found %q", word, p.tok.Text)
	}
	p.advance()
}

func (p *parser) parseFuncDecl() *FuncDecl {
	p.expectKeyword("declare")
	p.expectKeyword("function")
	name := p.expect(TokName, "function name").Text
	p.expect(TokLParen, "(")
	var params []string
	for p.tok.Kind != TokRParen {
		params = append(params, p.expect(TokVar, "parameter").Text)
		if p.tok.Kind == TokComma {
			p.advance()
		}
	}
	p.expect(TokRParen, ")")
	p.expect(TokLBrace, "{")
	body := p.parseExpr()
	p.expect(TokRBrace, "}")
	p.expect(TokSemicolon, ";")
	return &FuncDecl{Name: name, Params: params, Body: body}
}

// parseExpr parses one expression without the top-level comma operator,
// dispatching on the FLWOR, quantified and conditional keywords.
func (p *parser) parseExpr() Expr {
	p.enter()
	var e Expr
	switch {
	case p.keyword("for") || p.keyword("let"):
		e = p.parseFLWOR()
	case p.keyword("some") || p.keyword("every"):
		e = p.parseQuantified()
	case p.keyword("if"):
		e = p.parseIf()
	default:
		e = p.parseOr()
	}
	p.depth--
	return e
}

func (p *parser) parseFLWOR() Expr {
	f := &FLWOR{}
	for {
		switch {
		case p.keyword("for"):
			p.advance()
			for {
				v := p.expect(TokVar, "variable").Text
				p.expectKeyword("in")
				seq := p.parseExpr()
				f.Clauses = append(f.Clauses, Clause{For: &ForClause{Var: v, Seq: seq}})
				if p.tok.Kind != TokComma {
					break
				}
				p.advance()
			}
		case p.keyword("let"):
			p.advance()
			for {
				v := p.expect(TokVar, "variable").Text
				p.expect(TokAssign, ":=")
				seq := p.parseExpr()
				f.Clauses = append(f.Clauses, Clause{Let: &LetClause{Var: v, Seq: seq}})
				if p.tok.Kind != TokComma {
					break
				}
				p.advance()
			}
		default:
			goto clausesDone
		}
	}
clausesDone:
	if p.keyword("where") {
		p.advance()
		f.Where = p.parseExpr()
	}
	if p.keyword("order") {
		p.advance()
		p.expectKeyword("by")
		for {
			spec := OrderSpec{Key: p.parseExpr()}
			if p.keyword("ascending") {
				p.advance()
			} else if p.keyword("descending") {
				spec.Descending = true
				p.advance()
			}
			f.Order = append(f.Order, spec)
			if p.tok.Kind != TokComma {
				break
			}
			p.advance()
		}
	}
	p.expectKeyword("return")
	f.Return = p.parseExpr()
	return f
}

func (p *parser) parseQuantified() Expr {
	q := &Quantified{Every: p.tok.Text == "every"}
	p.advance()
	for {
		q.Vars = append(q.Vars, p.expect(TokVar, "variable").Text)
		p.expectKeyword("in")
		q.Seqs = append(q.Seqs, p.parseExpr())
		if p.tok.Kind != TokComma {
			break
		}
		p.advance()
	}
	p.expectKeyword("satisfies")
	q.Satisfies = p.parseExpr()
	return q
}

func (p *parser) parseIf() Expr {
	p.expectKeyword("if")
	p.expect(TokLParen, "(")
	cond := p.parseExpr()
	p.expect(TokRParen, ")")
	p.expectKeyword("then")
	thenE := p.parseExpr()
	p.expectKeyword("else")
	elseE := p.parseExpr()
	return &IfExpr{Cond: cond, Then: thenE, Else: elseE}
}

func (p *parser) parseOr() Expr {
	left := p.parseAnd()
	for p.keyword("or") {
		p.advance()
		left = &Binary{Op: OpOr, Left: left, Right: p.parseAnd()}
	}
	return left
}

func (p *parser) parseAnd() Expr {
	left := p.parseComparison()
	for p.keyword("and") {
		p.advance()
		left = &Binary{Op: OpAnd, Left: left, Right: p.parseComparison()}
	}
	return left
}

var cmpOps = map[TokKind]BinOp{
	TokEq: OpEq, TokNeq: OpNeq, TokLt: OpLt, TokLe: OpLe,
	TokGt: OpGt, TokGe: OpGe, TokBefore: OpBefore, TokAfter: OpAfter,
}

func (p *parser) parseComparison() Expr {
	left := p.parseAdditive()
	if op, ok := cmpOps[p.tok.Kind]; ok {
		p.advance()
		return &Binary{Op: op, Left: left, Right: p.parseAdditive()}
	}
	return left
}

func (p *parser) parseAdditive() Expr {
	left := p.parseMultiplicative()
	for {
		var op BinOp
		switch p.tok.Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return left
		}
		p.advance()
		left = &Binary{Op: op, Left: left, Right: p.parseMultiplicative()}
	}
}

func (p *parser) parseMultiplicative() Expr {
	left := p.parseUnary()
	for {
		var op BinOp
		switch {
		case p.tok.Kind == TokStar:
			op = OpMul
		case p.keyword("div"):
			op = OpDiv
		case p.keyword("mod"):
			op = OpMod
		default:
			return left
		}
		p.advance()
		left = &Binary{Op: op, Left: left, Right: p.parseUnary()}
	}
}

func (p *parser) parseUnary() Expr {
	if p.tok.Kind == TokMinus {
		p.advance()
		p.enter()
		e := &Unary{Operand: p.parseUnary()}
		p.depth--
		return e
	}
	return p.parsePath()
}

// parsePath parses [("/"|"//")] step ( ("/"|"//") step )*.
func (p *parser) parsePath() Expr {
	var input Expr
	var steps []*Step
	switch p.tok.Kind {
	case TokSlash:
		input = &Root{}
		p.advance()
		if !p.startsStep() {
			return input // bare "/"
		}
		steps = append(steps, p.parseStep(AxisChild))
	case TokDblSlash:
		input = &Root{}
		p.advance()
		steps = append(steps, p.parseStep(AxisDescendant))
	case TokAt:
		// A leading attribute step applies to the context item, as in the
		// predicate [@id = "person0"].
		input = &ContextItem{}
		steps = append(steps, p.parseStep(AxisChild))
	default:
		prim := p.parsePrimary()
		if p.tok.Kind != TokSlash && p.tok.Kind != TokDblSlash {
			return prim
		}
		input = prim
	}
	for {
		switch p.tok.Kind {
		case TokSlash:
			p.advance()
			steps = append(steps, p.parseStep(AxisChild))
		case TokDblSlash:
			p.advance()
			steps = append(steps, p.parseStep(AxisDescendant))
		default:
			return &Path{Input: input, Steps: steps}
		}
	}
}

func (p *parser) startsStep() bool {
	switch p.tok.Kind {
	case TokName, TokAt, TokStar:
		return true
	default:
		return false
	}
}

func (p *parser) parseStep(axis Axis) *Step {
	st := &Step{Axis: axis}
	switch p.tok.Kind {
	case TokAt:
		p.advance()
		st.Axis = AxisAttribute
		st.Name = p.expect(TokName, "attribute name").Text
	case TokStar:
		p.advance()
		st.Name = "*"
	case TokName:
		name := p.tok.Text
		p.advance()
		if name == "text" && p.tok.Kind == TokLParen {
			p.advance()
			p.expect(TokRParen, ")")
			st.Axis = AxisText
		} else {
			st.Name = name
		}
	default:
		p.fail("expected path step, found %q", p.tok.Text)
	}
	st.Preds = p.parsePredicates()
	return st
}

func (p *parser) parsePredicates() []Expr {
	var preds []Expr
	for p.tok.Kind == TokLBracket {
		p.advance()
		preds = append(preds, p.parseExpr())
		p.expect(TokRBracket, "]")
	}
	return preds
}

func (p *parser) parsePrimary() Expr {
	switch p.tok.Kind {
	case TokString:
		v := p.tok.Text
		p.advance()
		return &StringLit{Val: v}
	case TokNumber:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			p.fail("bad number %q", p.tok.Text)
		}
		p.advance()
		return &NumberLit{Val: f}
	case TokVar:
		v := p.tok.Text
		p.advance()
		e := Expr(&VarRef{Name: v})
		if preds := p.parsePredicates(); preds != nil {
			e = &Filter{Input: e, Preds: preds}
		}
		return e
	case TokDot:
		p.advance()
		return &ContextItem{}
	case TokLParen:
		p.advance()
		if p.tok.Kind == TokRParen {
			p.advance()
			return &Sequence{}
		}
		first := p.parseExpr()
		items := []Expr{first}
		for p.tok.Kind == TokComma {
			p.advance()
			items = append(items, p.parseExpr())
		}
		p.expect(TokRParen, ")")
		var e Expr
		if len(items) == 1 {
			e = first
		} else {
			e = &Sequence{Items: items}
		}
		if preds := p.parsePredicates(); preds != nil {
			e = &Filter{Input: e, Preds: preds}
		}
		return e
	case TokLt:
		return p.parseConstructor()
	case TokName:
		name := p.tok.Text
		p.advance()
		if p.tok.Kind == TokLParen {
			p.advance()
			var args []Expr
			for p.tok.Kind != TokRParen {
				args = append(args, p.parseExpr())
				if p.tok.Kind == TokComma {
					p.advance()
				}
			}
			p.expect(TokRParen, ")")
			return &Call{Name: name, Args: args}
		}
		// A bare name at primary position is a relative child step.
		st := &Step{Axis: AxisChild, Name: name}
		st.Preds = p.parsePredicates()
		return &Path{Input: &ContextItem{}, Steps: []*Step{st}}
	default:
		p.fail("unexpected token %q", p.tok.Text)
		return nil
	}
}

// parseConstructor parses a direct element constructor at character level,
// since constructor content follows XML rather than XQuery lexing.
// The current token is the opening '<'.
func (p *parser) parseConstructor() Expr {
	// Rewind the lexer to the '<' and scan raw.
	p.lx.pos = p.tok.Pos
	ctor := p.scanCtor()
	p.advance() // refill token lookahead after raw scanning
	return ctor
}

func (p *parser) scanCtor() *ElementCtor {
	lx := p.lx
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '<' {
		p.fail("expected constructor")
	}
	lx.pos++
	tag := p.scanRawName()
	ctor := &ElementCtor{Tag: tag}
	// Attributes.
	for {
		p.skipRawSpace()
		if lx.pos >= len(lx.src) {
			p.fail("unterminated constructor <%s", tag)
		}
		c := lx.src[lx.pos]
		if c == '/' {
			if !strings.HasPrefix(string(lx.src[lx.pos:]), "/>") {
				p.fail("malformed empty constructor")
			}
			lx.pos += 2
			return ctor
		}
		if c == '>' {
			lx.pos++
			break
		}
		aname := p.scanRawName()
		p.skipRawSpace()
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '=' {
			p.fail("constructor attribute %q missing '='", aname)
		}
		lx.pos++
		p.skipRawSpace()
		parts := p.scanAttrValue()
		ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: aname, Parts: parts})
	}
	// Content. Literal text decodes references and doubled braces as it
	// goes; a run of literal whitespace alone between the content's
	// boundaries, constructors and enclosed expressions is boundary
	// whitespace and dropped. Whitespace written as a character
	// reference is not boundary whitespace.
	var txt []byte
	boundary := true
	flushText := func() {
		if len(txt) > 0 && !boundary {
			ctor.Content = append(ctor.Content, &StringLit{Val: string(txt)})
		}
		txt, boundary = txt[:0], true
	}
	for {
		if lx.pos >= len(lx.src) {
			p.fail("unterminated constructor <%s>", tag)
		}
		switch c := lx.src[lx.pos]; c {
		case '<':
			flushText()
			if strings.HasPrefix(string(lx.src[lx.pos:]), "</") {
				lx.pos += 2
				closing := p.scanRawName()
				if closing != tag {
					p.fail("constructor </%s> does not match <%s>", closing, tag)
				}
				p.skipRawSpace()
				if lx.pos >= len(lx.src) || lx.src[lx.pos] != '>' {
					p.fail("malformed closing tag </%s", closing)
				}
				lx.pos++
				return ctor
			}
			p.enter()
			child := p.scanCtor()
			p.depth--
			ctor.Content = append(ctor.Content, child)
		case '{', '}':
			if p.doubledBrace(c) {
				txt = append(txt, c)
				boundary = false
				continue
			}
			flushText()
			lx.pos++
			inner := p.parseEnclosed()
			ctor.Content = append(ctor.Content, inner)
		case '&':
			txt = append(txt, p.scanRef()...)
			boundary = false
		default:
			if !isSpace(c) {
				boundary = false
			}
			txt = append(txt, c)
			lx.pos++
		}
	}
}

// doubledBrace consumes "{{" or "}}" at the raw position, reporting
// whether it found one; c is the brace there. A lone '}' is an error.
func (p *parser) doubledBrace(c byte) bool {
	lx := p.lx
	if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == c {
		lx.pos += 2
		return true
	}
	if c == '}' {
		p.fail("unescaped '}' in constructor; write '}}'")
	}
	return false
}

// scanRef consumes the entity or character reference at the raw
// position and returns its replacement text.
func (p *parser) scanRef() string {
	r, n, err := decodeRef(p.lx.src[p.lx.pos:])
	if err != nil {
		p.fail("%v", err)
	}
	p.lx.pos += n
	return r
}

// scanAttrValue scans a quoted constructor attribute value with optional
// {expr} embeddings. Literal parts decode references, doubled braces and
// the doubled quote character.
func (p *parser) scanAttrValue() []Expr {
	lx := p.lx
	if lx.pos >= len(lx.src) || (lx.src[lx.pos] != '"' && lx.src[lx.pos] != '\'') {
		p.fail("constructor attribute missing quoted value")
	}
	quote := lx.src[lx.pos]
	lx.pos++
	var parts []Expr
	var lit []byte
	flush := func() {
		if len(lit) > 0 {
			parts = append(parts, &StringLit{Val: string(lit)})
			lit = lit[:0]
		}
	}
	for {
		if lx.pos >= len(lx.src) {
			p.fail("unterminated attribute value")
		}
		switch c := lx.src[lx.pos]; c {
		case quote:
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == quote {
				lit = append(lit, quote)
				lx.pos += 2
				continue
			}
			flush()
			lx.pos++
			return parts
		case '{', '}':
			if p.doubledBrace(c) {
				lit = append(lit, c)
				continue
			}
			flush()
			lx.pos++
			parts = append(parts, p.parseEnclosed())
		case '&':
			lit = append(lit, p.scanRef()...)
		default:
			lit = append(lit, c)
			lx.pos++
		}
	}
}

// parseEnclosed parses the body of a constructor's enclosed expression
// "{ expr, expr, ... }" with the token-level parser; on return the lexer is
// positioned just past the closing brace.
func (p *parser) parseEnclosed() Expr {
	p.advance()
	items := []Expr{p.parseExpr()}
	for p.tok.Kind == TokComma {
		p.advance()
		items = append(items, p.parseExpr())
	}
	if p.tok.Kind != TokRBrace {
		p.fail("expected '}' in constructor, found %q", p.tok.Text)
	}
	if len(items) == 1 {
		return items[0]
	}
	return &Sequence{Items: items}
}

func (p *parser) scanRawName() string {
	lx := p.lx
	start := lx.pos
	for lx.pos < len(lx.src) && isNameChar(lx.src[lx.pos]) {
		lx.pos++
	}
	if lx.pos == start {
		p.fail("expected name in constructor")
	}
	return string(lx.src[start:lx.pos])
}

func (p *parser) skipRawSpace() {
	lx := p.lx
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		lx.pos++
	}
}
