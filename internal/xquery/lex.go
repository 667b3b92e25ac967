// Package xquery provides the lexer, parser and abstract syntax tree for
// the XQuery subset of the XMark reproduction.
//
// The paper expresses its twenty queries in XQuery [11], "an amalgamation
// of many research languages for semi-structured data". The dialect
// implemented here is the exact subset those queries exercise: FLWOR
// expressions, quantified expressions, path expressions with predicates,
// element and attribute constructors with embedded expressions, user
// function declarations, arithmetic, comparisons including the document
// order test "<<", and the small function library the queries call.
package xquery

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF       TokKind = iota
	TokName              // identifiers and keywords, incl. qualified local:convert
	TokVar               // $name
	TokString            // "..." or '...'
	TokNumber            // 123 or 123.45
	TokLParen            // (
	TokRParen            // )
	TokLBracket          // [
	TokRBracket          // ]
	TokLBrace            // {
	TokRBrace            // }
	TokComma             // ,
	TokSemicolon         // ;
	TokSlash             // /
	TokDblSlash          // //
	TokAt                // @
	TokStar              // *
	TokPlus              // +
	TokMinus             // -
	TokEq                // =
	TokNeq               // !=
	TokLt                // <
	TokLe                // <=
	TokGt                // >
	TokGe                // >=
	TokBefore            // <<
	TokAfter             // >>
	TokAssign            // :=
	TokDot               // .
	TokTagOpen           // < at a constructor position (resolved by parser)
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset in the query
}

// LexError reports a lexing failure.
type LexError struct {
	Pos int
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("xquery: lex error at %d: %s", e.Pos, e.Msg) }

// lexer tokenizes query text. Because XQuery grammars are context
// dependent (a "<" may open a comparison or a constructor), the lexer is
// re-entrant: the parser drives it token by token and can ask for raw
// constructor content.
type lexer struct {
	src []byte
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: []byte(src)} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return &LexError{Pos: l.pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// XQuery comments: (: ... :), nestable.
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 1
			l.pos += 2
			for l.pos+1 < len(l.src) && depth > 0 {
				if l.src[l.pos] == '(' && l.src[l.pos+1] == ':' {
					depth++
					l.pos += 2
				} else if l.src[l.pos] == ':' && l.src[l.pos+1] == ')' {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			continue
		}
		return
	}
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isSpace reports whether c is XML whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// predefinedEntities are the five entity references XQuery predefines.
var predefinedEntities = map[string]string{
	"lt": "<", "gt": ">", "amp": "&", "quot": `"`, "apos": "'",
}

// decodeRef decodes the entity or character reference at the start of s,
// which begins with '&': a predefined entity (&lt; &gt; &amp; &quot;
// &apos;) or a character reference (&#N; or &#xH;) to a legal XML
// character. It returns the replacement text and the reference's length,
// or an error when the reference is malformed or unknown.
func decodeRef(s []byte) (string, int, error) {
	end := bytes.IndexByte(s, ';')
	if end < 0 {
		return "", 0, errors.New("'&' does not start a reference; write &amp;")
	}
	name := string(s[1:end])
	if r, ok := predefinedEntities[name]; ok {
		return r, end + 1, nil
	}
	if !strings.HasPrefix(name, "#") {
		return "", 0, fmt.Errorf("unknown entity reference &%s;", name)
	}
	digits, base := name[1:], 10
	if strings.HasPrefix(digits, "x") {
		digits, base = digits[1:], 16
	}
	cp, err := strconv.ParseUint(digits, base, 32)
	if err != nil {
		return "", 0, fmt.Errorf("malformed character reference &%s;", name)
	}
	if !isXMLChar(rune(cp)) {
		return "", 0, fmt.Errorf("character reference &%s; is not a legal XML character", name)
	}
	return string(rune(cp)), end + 1, nil
}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isNameStart(c):
		l.pos++
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		// Qualified names (local:convert) and axis-free name tests; a ':'
		// is part of the name when followed by a name start (but "::" is
		// not consumed — axes are not in the subset).
		if l.pos+1 < len(l.src) && l.src[l.pos] == ':' && isNameStart(l.src[l.pos+1]) {
			l.pos++
			for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
				l.pos++
			}
		}
		return Token{Kind: TokName, Text: string(l.src[start:l.pos]), Pos: start}, nil
	case c == '$':
		l.pos++
		ns := l.pos
		if l.pos >= len(l.src) || !isNameStart(l.src[l.pos]) {
			return Token{}, l.errf("'$' not followed by a name")
		}
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokVar, Text: string(l.src[ns:l.pos]), Pos: start}, nil
	case c == '"' || c == '\'':
		l.pos++
		var b []byte
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == c {
				// A doubled delimiter stands for one delimiter character.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == c {
					b = append(b, c)
					l.pos += 2
					continue
				}
				break
			}
			if ch == '&' {
				r, n, err := decodeRef(l.src[l.pos:])
				if err != nil {
					return Token{}, l.errf("%v", err)
				}
				b = append(b, r...)
				l.pos += n
				continue
			}
			b = append(b, ch)
			l.pos++
		}
		l.pos++
		return Token{Kind: TokString, Text: string(b), Pos: start}, nil
	case isDigit(c):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return Token{Kind: TokNumber, Text: string(l.src[start:l.pos]), Pos: start}, nil
	}
	two := ""
	if l.pos+1 < len(l.src) {
		two = string(l.src[l.pos : l.pos+2])
	}
	switch two {
	case "//":
		l.pos += 2
		return Token{Kind: TokDblSlash, Text: two, Pos: start}, nil
	case "!=":
		l.pos += 2
		return Token{Kind: TokNeq, Text: two, Pos: start}, nil
	case "<=":
		l.pos += 2
		return Token{Kind: TokLe, Text: two, Pos: start}, nil
	case ">=":
		l.pos += 2
		return Token{Kind: TokGe, Text: two, Pos: start}, nil
	case "<<":
		l.pos += 2
		return Token{Kind: TokBefore, Text: two, Pos: start}, nil
	case ">>":
		l.pos += 2
		return Token{Kind: TokAfter, Text: two, Pos: start}, nil
	case ":=":
		l.pos += 2
		return Token{Kind: TokAssign, Text: two, Pos: start}, nil
	}
	l.pos++
	single := map[byte]TokKind{
		'(': TokLParen, ')': TokRParen, '[': TokLBracket, ']': TokRBracket,
		'{': TokLBrace, '}': TokRBrace, ',': TokComma, ';': TokSemicolon,
		'/': TokSlash, '@': TokAt, '*': TokStar, '+': TokPlus, '-': TokMinus,
		'=': TokEq, '<': TokLt, '>': TokGt, '.': TokDot,
	}
	if k, ok := single[c]; ok {
		return Token{Kind: k, Text: string(c), Pos: start}, nil
	}
	return Token{}, l.errf("unexpected character %q", c)
}
