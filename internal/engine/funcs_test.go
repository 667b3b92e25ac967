package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
)

// fnEngine builds one engine over the shared sample document.
func fnEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("fn", doc, nodestore.DOMOptions{Summary: true, TagExtents: true})
	return New(store, Options{PathExtents: true, CountShortcut: true, HashJoins: true})
}

// q evaluates src and returns the serialized result.
func q(t *testing.T, e *Engine, src string) string {
	t.Helper()
	seq, err := e.Query(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return SerializeString(e.Store(), seq)
}

func TestFuncCount(t *testing.T) {
	e := fnEngine(t)
	cases := map[string]string{
		`count(())`:                         "0",
		`count((1, 2, 3))`:                  "3",
		`count(/site/people/person)`:        "4",
		`count(//bidder)`:                   "3",
		`count(/site/regions/europe/item)`:  "2",
		`count(/site/regions/no_such/item)`: "0",
	}
	for src, want := range cases {
		if got := q(t, e, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestFuncCountShortcutAgreesWithMaterialized(t *testing.T) {
	// The same counts with and without the catalog shortcut.
	doc, err := tree.Parse([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	store := nodestore.NewDOM("fn", doc, nodestore.DOMOptions{Summary: true, TagExtents: true})
	fast := New(store, Options{PathExtents: true, CountShortcut: true})
	slow := New(store, Options{})
	for _, src := range []string{
		`count(//item)`, `count(/site/people/person)`, `count(//keyword)`,
		`count(/site/regions//item)`, `for $r in /site/regions return count($r//item)`,
	} {
		if a, b := q(t, fast, src), q(t, slow, src); a != b {
			t.Errorf("%s: shortcut %q != materialized %q", src, a, b)
		}
	}
}

func TestFuncStringAndLength(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `string(/site/people/person[1]/name)`); got != "Ada" {
		t.Errorf("string() = %q", got)
	}
	if got := q(t, e, `string-length("hello")`); got != "5" {
		t.Errorf("string-length = %q", got)
	}
	if got := q(t, e, `string(())`); got != "" {
		t.Errorf("string(()) = %q", got)
	}
}

func TestFuncConcatAndJoin(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `concat("a", "b", 3)`); got != "ab3" {
		t.Errorf("concat = %q", got)
	}
	if got := q(t, e, `string-join(("x", "y", "z"), "-")`); got != "x-y-z" {
		t.Errorf("string-join = %q", got)
	}
	if got := q(t, e, `string-join((), "-")`); got != "" {
		t.Errorf("string-join empty = %q", got)
	}
}

func TestFuncContainsStartsWith(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `contains("auction", "ion")`); got != "true" {
		t.Errorf("contains = %q", got)
	}
	if got := q(t, e, `contains("auction", "xyz")`); got != "false" {
		t.Errorf("contains = %q", got)
	}
	if got := q(t, e, `starts-with("person0", "person")`); got != "true" {
		t.Errorf("starts-with = %q", got)
	}
}

func TestFuncNumberAndSum(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `sum(())`); got != "0" {
		t.Errorf("sum(()) = %q", got)
	}
	if got := q(t, e, `sum((1, 2, 3.5))`); got != "6.5" {
		t.Errorf("sum = %q", got)
	}
	if got := q(t, e, `number("3.25")`); got != "3.25" {
		t.Errorf("number = %q", got)
	}
	// Unparsable strings become NaN.
	seq, err := e.Query(`number("nope")`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := seq[0].(NumItem); !ok || !math.IsNaN(float64(n)) {
		t.Errorf("number(nope) = %v", seq[0])
	}
}

func TestFuncBooleanNotEmpty(t *testing.T) {
	e := fnEngine(t)
	cases := map[string]string{
		`not(1 = 1)`:        "false",
		`not(())`:           "true",
		`empty(())`:         "true",
		`empty((1))`:        "false",
		`boolean("")`:       "false",
		`boolean("x")`:      "true",
		`boolean(0)`:        "false",
		`boolean(//person)`: "true",
	}
	for src, want := range cases {
		if got := q(t, e, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestFuncDistinctValuesOrder(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `distinct-values(("b", "a", "b", "c", "a"))`); got != "b a c" {
		t.Errorf("distinct-values = %q (first-seen order expected)", got)
	}
}

func TestFuncNameOnVariousItems(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `name(/site/people)`); got != "people" {
		t.Errorf("name(element) = %q", got)
	}
	if got := q(t, e, `name(/site/people/person[1]/@id)`); got != "id" {
		t.Errorf("name(attr) = %q", got)
	}
	if got := q(t, e, `name(<wrapped/>)`); got != "wrapped" {
		t.Errorf("name(ctor) = %q", got)
	}
	if got := q(t, e, `name(())`); got != "" {
		t.Errorf("name(()) = %q", got)
	}
}

func TestFuncExactlyOne(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `exactly-one((7))`); got != "7" {
		t.Errorf("exactly-one = %q", got)
	}
	if _, err := e.Query(`exactly-one(())`); err == nil {
		t.Error("exactly-one(()) succeeded")
	}
	if _, err := e.Query(`exactly-one((1,2))`); err == nil {
		t.Error("exactly-one over two items succeeded")
	}
}

func TestFuncPositionLast(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `/site/people/person[position() = 2]/name/text()`); got != "Bob" {
		t.Errorf("position() = %q", got)
	}
	if got := q(t, e, `/site/people/person[last()]/name/text()`); got != "Dot" {
		t.Errorf("last() = %q", got)
	}
	if _, err := e.Query(`position()`); err == nil {
		t.Error("position() outside predicate succeeded")
	}
	if _, err := e.Query(`last()`); err == nil {
		t.Error("last() outside predicate succeeded")
	}
}

func TestFuncArityErrors(t *testing.T) {
	e := fnEngine(t)
	for _, src := range []string{
		`count()`, `count(1, 2)`, `empty()`, `contains("x")`,
		`zero-or-one()`, `sum(1, 2)`, `not()`,
	} {
		if _, err := e.Query(src); err == nil {
			t.Errorf("%s succeeded", src)
		}
	}
}

func TestUserFunctionRecursionGuard(t *testing.T) {
	e := fnEngine(t)
	_, err := e.Query(`declare function local:loop($x) { local:loop($x) }; local:loop(1)`)
	if err == nil {
		t.Fatal("unbounded recursion did not error")
	}
	if !strings.Contains(err.Error(), "deep") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUserFunctionScoping(t *testing.T) {
	e := fnEngine(t)
	// Function bodies must not see caller variables, only parameters.
	if _, err := e.Prepare(`declare function local:f($a) { $a + $outer }; for $outer in (1) return local:f(2)`); err == nil {
		t.Fatal("function body saw caller variable at compile time")
	}
	got := q(t, e, `declare function local:double($v) { 2 * $v };
		declare function local:quad($v) { local:double(local:double($v)) };
		local:quad(3)`)
	if got != "12" {
		t.Fatalf("nested user functions = %q", got)
	}
}

func TestQuantifierEvery(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `every $p in /site/people/person satisfies count($p/name) = 1`); got != "true" {
		t.Errorf("every = %q", got)
	}
	if got := q(t, e, `every $p in /site/people/person satisfies count($p/homepage) = 1`); got != "false" {
		t.Errorf("every = %q", got)
	}
	// Vacuous truth over the empty sequence.
	if got := q(t, e, `every $x in () satisfies 1 = 2`); got != "true" {
		t.Errorf("vacuous every = %q", got)
	}
	if got := q(t, e, `some $x in () satisfies 1 = 1`); got != "false" {
		t.Errorf("vacuous some = %q", got)
	}
}

func TestArithmeticCornerCases(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `1 div 0`); got != "+Inf" {
		t.Errorf("1 div 0 = %q", got)
	}
	if got := q(t, e, `-3 mod 2`); got != "-1" {
		t.Errorf("mod = %q", got)
	}
	if got := q(t, e, `() + 1`); got != "" {
		t.Errorf("()+1 = %q", got)
	}
	if _, err := e.Query(`(1, 2) + 1`); err == nil {
		t.Error("sequence arithmetic succeeded")
	}
}

func TestComparisonSemantics(t *testing.T) {
	e := fnEngine(t)
	cases := map[string]string{
		// Untyped vs number: numeric comparison.
		`"10" < 9`: "false",
		`10 > "9"`: "true",
		// Untyped vs untyped: string comparison.
		`"10" < "9"`: "true",
		// Existential general comparison.
		`(1, 2, 3) = 2`:  "true",
		`(1, 2, 3) = 9`:  "false",
		`() = ()`:        "false",
		`(1, 2) != (1)`:  "true",
		`"a" <= "b"`:     "true",
		`true() = 1 = 1`: "true", // chained through EBV? no: parsed ((true()=1)=1)
	}
	delete(cases, `true() = 1 = 1`) // not part of the dialect; keep the table honest
	for src, want := range cases {
		if got := q(t, e, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestDocumentOrderComparison(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `/site/people << /site/open_auctions`); got != "true" {
		t.Errorf("<< = %q", got)
	}
	if got := q(t, e, `/site/open_auctions >> /site/people`); got != "true" {
		t.Errorf(">> = %q", got)
	}
	if got := q(t, e, `() << /site/people`); got != "" {
		t.Errorf("empty << = %q", got)
	}
	if _, err := e.Query(`1 << 2`); err == nil {
		t.Error("<< over atomics succeeded")
	}
}

func TestFilterOnParenthesizedSequence(t *testing.T) {
	e := fnEngine(t)
	if got := q(t, e, `("a", "b", "c")[2]`); got != "b" {
		t.Errorf("positional filter = %q", got)
	}
	if got := q(t, e, `(/site/people/person)[3]/name/text()`); got != "Cid" {
		t.Errorf("node filter = %q", got)
	}
}

func TestConstructedNavigation(t *testing.T) {
	e := fnEngine(t)
	got := q(t, e, `for $x in <a><b>1</b><b>2</b><c>3</c></a> return count($x/b)`)
	if got != "2" {
		t.Errorf("constructed child count = %q", got)
	}
	got = q(t, e, `for $x in <a><b><c>deep</c></b></a> return $x//c/text()`)
	if got != "deep" {
		t.Errorf("constructed descendant = %q", got)
	}
	got = q(t, e, `for $x in <a k="v"/> return $x/@k`)
	if got != "v" {
		t.Errorf("constructed attribute = %q", got)
	}
	// Content is a copy: stored nodes placed in it are visible to steps
	// and to the string value.
	if got := q(t, e, `string(<a>{/site/people/person[1]/name}</a>)`); got != "Ada" {
		t.Errorf("string value over stored content = %q, want Ada", got)
	}
	if got := q(t, e, `count(<a>{/site/people/person[1]/name}</a>/name)`); got != "1" {
		t.Errorf("child step over stored content = %q, want 1", got)
	}
	if got := q(t, e, `<a>{/site/people/person[1]}</a>//emailaddress/text()`); got != "a@x" {
		t.Errorf("descendant step over stored content = %q, want a@x", got)
	}
	// The document node copies as its root element.
	if got, want := q(t, e, `<a>{/}</a>`), "<a>"+q(t, e, `/`)+"</a>"; got != want {
		t.Errorf("<a>{/}</a> = %.80q..., want %.80q...", got, want)
	}
	if got := q(t, e, `count(<a>{/}</a>/site/people/person)`); got != "4" {
		t.Errorf("steps into a copied document = %q, want 4", got)
	}
	// Adjacent text runs merge into one text node.
	if got := q(t, e, `count(<a>x{1}y<b/>{"z"}</a>/text())`); got != "2" {
		t.Errorf("text nodes = %q, want 2", got)
	}
	if got := q(t, e, `(<a>x{1}y<b/>z</a>/text())[1]`); got != "x1y" {
		t.Errorf("merged text = %q, want x1y", got)
	}
	// Escaped content decodes for navigation and re-escapes on output.
	if got := q(t, e, `<a k="&lt;{"&quot;"}&amp;">x &amp; {"<y>"}</a>`); got != `<a k="&lt;&quot;&amp;">x &amp; &lt;y&gt;</a>` {
		t.Errorf("escaped constructor = %q", got)
	}
	if got := q(t, e, `string(<a k="&lt;">x &amp; {"<y>"}</a>/@k) = "<"`); got != "true" {
		t.Errorf("decoded attribute = %q", got)
	}
	if got := q(t, e, `string-length(<a>x &amp; {"<y>"}</a>)`); got != "7" {
		t.Errorf("decoded string value length = %q, want 7", got)
	}
	// Empty content closes as <t/> by item count, not byte count.
	if got := q(t, e, `(<a>{""}</a>, <b>{()}</b>, <c/>)`); got != "<a></a><b/><c/>" {
		t.Errorf("empty constructors = %q", got)
	}
	if got := q(t, e, `name(<a>{/site/people/person[1]}</a>/*)`); got != "person" {
		t.Errorf("name of a copied child = %q, want person", got)
	}
}

// TestLiteralEscapesEvaluate checks that references in literals decode
// before evaluation and re-escape once on output.
func TestLiteralEscapesEvaluate(t *testing.T) {
	e := fnEngine(t)
	for src, want := range map[string]string{
		`string-length("&lt;")`:   "1",
		`<a>x &amp; y</a>`:        "<a>x &amp; y</a>",
		`<a>{{x}}</a>`:            "<a>{x}</a>",
		`<a b="{{1}}"/>`:          `<a b="{1}"/>`,
		`'it''s'`:                 "it's",
		`<a b="&#x41;&quot;"/>`:   `<a b="A&quot;"/>`,
		`concat("&#60;", "&gt;")`: "&lt;&gt;",
	} {
		if got := q(t, e, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestWildcardDescendant(t *testing.T) {
	e := fnEngine(t)
	// person0 has name, emailaddress, homepage, profile, interest,
	// business = 6 descendant elements.
	if got := q(t, e, `count(/site/people/person[1]//*)`); got != "6" {
		t.Errorf("count(person//*) = %q, want 6", got)
	}
}
