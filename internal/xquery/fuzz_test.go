package xquery_test

import (
	"strings"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
	"repro/internal/xquery"
)

// FuzzParse feeds arbitrary text to the parser: it must return, with
// either a query or an error, and never crash. The seeds are the 23
// benchmark query texts plus the literal escape shapes (references,
// doubled delimiters and braces); testdata/fuzz/FuzzParse holds inputs
// that once sent the parser into unbounded recursion (a production
// resumed after an error and re-entered itself on the same unconsumed
// token).
func FuzzParse(f *testing.F) {
	card := xmlgen.Scale(0.1)
	for _, q := range append(xmark.Queries(), xmark.HybridQueries()...) {
		f.Add(q.Text(card))
	}
	for _, src := range []string{
		`string-length("&lt;")`, `"&#65;&#x1F600;"`, `'it''s'`, `"a""b"`,
		`<a>x &amp; y</a>`, `<a>{{x}}</a>`, `<a b="{{1}}"/>`, `<a b='it''s'>&#32;</a>`,
		`"&foo;"`, `<a>}</a>`, `"&#xD800;"`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xquery.Parse(src)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of query and error", src, q, err)
		}
		if q != nil {
			xquery.Unparse(q)
		}
	})
}

// TestParseDepthLimit checks that pathologically deep nesting is a parse
// error instead of a stack overflow.
func TestParseDepthLimit(t *testing.T) {
	for name, src := range map[string]string{
		"parens": strings.Repeat("(", 200000) + "1" + strings.Repeat(")", 200000),
		"minus":  strings.Repeat("-", 200000) + "1",
		"flwor":  strings.Repeat("for $a in ", 200000) + "1",
		"ctor":   strings.Repeat("<a>", 200000),
	} {
		if _, err := xquery.Parse(src); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: err = %v, want a nesting error", name, err)
		}
	}
	ok := strings.Repeat("(", 500) + "1" + strings.Repeat(")", 500)
	if _, err := xquery.Parse(ok); err != nil {
		t.Errorf("500 levels: %v", err)
	}
}
