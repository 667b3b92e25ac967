package xquery

import (
	"reflect"
	"strings"
	"testing"
)

// TestLiteralEscapes checks reference decoding, doubled delimiters and
// doubled braces in string literals, constructor content and attribute
// values, and that Unparse re-escapes each value so it parses back equal.
func TestLiteralEscapes(t *testing.T) {
	str := func(q *Query) []string { return []string{q.Body.(*StringLit).Val} }
	content := func(q *Query) []string {
		var out []string
		for _, e := range q.Body.(*ElementCtor).Content {
			out = append(out, e.(*StringLit).Val)
		}
		return out
	}
	attr := func(q *Query) []string {
		var out []string
		for _, e := range q.Body.(*ElementCtor).Attrs[0].Parts {
			if lit, ok := e.(*StringLit); ok {
				out = append(out, lit.Val)
			}
		}
		return out
	}
	for _, tc := range []struct {
		src  string
		get  func(*Query) []string
		want []string
	}{
		{`"&lt;"`, str, []string{"<"}},
		{`"&lt;&gt;&amp;&quot;&apos;"`, str, []string{`<>&"'`}},
		{`"&#65;&#x42;&#x1F600;"`, str, []string{"AB\U0001F600"}},
		{`'it''s'`, str, []string{"it's"}},
		{`"say ""hi"""`, str, []string{`say "hi"`}},
		{`"&amp;amp;"`, str, []string{"&amp;"}},
		{`"<{}>"`, str, []string{"<{}>"}},
		{`<a>x &amp; y</a>`, content, []string{"x & y"}},
		{`<a>{{x}}</a>`, content, []string{"{x}"}},
		{`<a>&#32;</a>`, content, []string{" "}},
		{`<a> &#10; </a>`, content, []string{" \n "}},
		{`<a>  </a>`, content, nil},
		{`<a>&lt;b&gt;</a>`, content, []string{"<b>"}},
		{`<a b="{{1}}"/>`, attr, []string{"{1}"}},
		{`<a b="x&quot;y"/>`, attr, []string{`x"y`}},
		{`<a b='it''s'/>`, attr, []string{"it's"}},
		{`<a b="say ""hi"""/>`, attr, []string{`say "hi"`}},
		{`<a b="&lt;{1}&amp;"/>`, attr, []string{"<", "&"}},
	} {
		q, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%s): %v", tc.src, err)
			continue
		}
		if got := tc.get(q); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%s) = %q, want %q", tc.src, got, tc.want)
		}
		back := Unparse(q)
		q2, err := Parse(back)
		if err != nil {
			t.Errorf("Unparse(%s) = %s does not reparse: %v", tc.src, back, err)
			continue
		}
		if !reflect.DeepEqual(q, q2) {
			t.Errorf("Unparse(%s) = %s reparses to a different query", tc.src, back)
		}
	}
}

// TestLiteralEscapeErrors checks that unknown entities, malformed or
// illegal character references, a bare '&' and a lone '}' in a
// constructor are parse errors.
func TestLiteralEscapeErrors(t *testing.T) {
	for _, src := range []string{
		`"&foo;"`,
		`"a & b"`,
		`"&#0;"`,
		`"&#xD800;"`,
		`"&#xZZ;"`,
		`"&#;"`,
		`"&#-1;"`,
		`<a>&nbsp;</a>`,
		`<a>x & y</a>`,
		`<a b="&foo;"/>`,
		`<a>}</a>`,
		`<a b="}"/>`,
	} {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%s) succeeded, want an error", src)
			continue
		}
		if !strings.Contains(err.Error(), "reference") && !strings.Contains(err.Error(), "'}'") &&
			!strings.Contains(err.Error(), "'&'") {
			t.Errorf("Parse(%s): %v, want a reference or brace error", src, err)
		}
	}
}
