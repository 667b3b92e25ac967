package engine

import (
	"strings"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
)

// genElem is a random constructed element for FuzzConstructedMarkup.
type genElem struct {
	tag   string
	attrs []tree.Attr
	kids  []interface{} // string (non-empty text) or *genElem
}

// genReader draws decisions from fuzz input, yielding zeros once spent.
type genReader struct {
	data []byte
	pos  int
}

func (r *genReader) next(n int) int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1]) % n
}

func (r *genReader) text(minLen int) string {
	const alphabet = "ab &<>\"'{}\n"
	var b []byte
	for i, n := 0, minLen+r.next(5); i < n; i++ {
		b = append(b, alphabet[r.next(len(alphabet))])
	}
	return string(b)
}

func (r *genReader) elem(depth int) *genElem {
	el := &genElem{tag: []string{"a", "b-c", "d.e", "f_1"}[r.next(4)]}
	for i, n := 0, r.next(3); i < n; i++ {
		el.attrs = append(el.attrs, tree.Attr{Name: []string{"x", "y"}[i], Value: r.text(0)})
	}
	if depth < 3 {
		for i, n := 0, r.next(4); i < n; i++ {
			if r.next(2) == 0 {
				el.kids = append(el.kids, r.text(1))
			} else {
				el.kids = append(el.kids, r.elem(depth+1))
			}
		}
	}
	return el
}

var (
	ctorAttrLit    = strings.NewReplacer(`&`, `&amp;`, `<`, `&lt;`, `"`, `&quot;`, `{`, `{{`, `}`, `}}`)
	ctorContentLit = strings.NewReplacer(`&`, `&amp;`, `<`, `&lt;`, `{`, `{{`, `}`, `}}`)
	ctorStringLit  = strings.NewReplacer(`&`, `&amp;`, `"`, `""`)
)

// query writes el as a direct constructor. Text alternates between
// direct content and enclosed string literals; whitespace-only text is
// always enclosed, since as direct content it would be boundary
// whitespace.
func (el *genElem) query(b *strings.Builder) {
	b.WriteString("<" + el.tag)
	for _, a := range el.attrs {
		b.WriteString(" " + a.Name + `="` + ctorAttrLit.Replace(a.Value) + `"`)
	}
	b.WriteString(">")
	for i, k := range el.kids {
		switch k := k.(type) {
		case string:
			if i%2 == 0 && strings.Trim(k, " \n") != "" {
				b.WriteString(ctorContentLit.Replace(k))
			} else {
				b.WriteString(`{"` + ctorStringLit.Replace(k) + `"}`)
			}
		case *genElem:
			k.query(b)
		}
	}
	b.WriteString("</" + el.tag + ">")
}

// markup is the serialization of el, written independently of the engine.
func (el *genElem) markup(b *strings.Builder) {
	b.WriteString("<" + el.tag)
	for _, a := range el.attrs {
		b.WriteString(" " + a.Name + `="` + escapeAttr(a.Value) + `"`)
	}
	if len(el.kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	for _, k := range el.kids {
		switch k := k.(type) {
		case string:
			b.WriteString(escapeText(k))
		case *genElem:
			k.markup(b)
		}
	}
	b.WriteString("</" + el.tag + ">")
}

// reemit serializes a constructed element from its decoded view.
func reemit(b *strings.Builder, c *Constructed) {
	v := c.decoded()
	b.WriteString("<" + c.Tag())
	for _, a := range v.attrs {
		b.WriteString(" " + a.Name + `="` + escapeAttr(a.Value) + `"`)
	}
	if len(v.kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	for _, k := range v.kids {
		switch k := k.(type) {
		case StrItem:
			b.WriteString(escapeText(string(k)))
		case *Constructed:
			reemit(b, k)
		}
	}
	b.WriteString("</" + c.Tag() + ">")
}

// checkView compares c's decoded view with el, whose adjacent text kids
// the view merges into one run, and returns el's string value.
func checkView(t *testing.T, c *Constructed, el *genElem) string {
	t.Helper()
	v := c.decoded()
	if c.Tag() != el.tag {
		t.Fatalf("tag %q, want %q", c.Tag(), el.tag)
	}
	if len(v.attrs) != len(el.attrs) {
		t.Fatalf("<%s>: %d attributes, want %d", el.tag, len(v.attrs), len(el.attrs))
	}
	for i, a := range el.attrs {
		if v.attrs[i] != a {
			t.Fatalf("<%s>: attribute %+v, want %+v", el.tag, v.attrs[i], a)
		}
	}
	var all strings.Builder
	ki := 0
	for i := 0; i < len(el.kids); {
		if ki >= len(v.kids) {
			t.Fatalf("<%s>: %d decoded kids, want more", el.tag, len(v.kids))
		}
		if sub, ok := el.kids[i].(*genElem); ok {
			dc, ok := v.kids[ki].(*Constructed)
			if !ok {
				t.Fatalf("<%s>: kid %d is %T, want an element", el.tag, ki, v.kids[ki])
			}
			all.WriteString(checkView(t, dc, sub))
			i, ki = i+1, ki+1
			continue
		}
		var run strings.Builder
		for ; i < len(el.kids); i++ {
			s, ok := el.kids[i].(string)
			if !ok {
				break
			}
			run.WriteString(s)
		}
		if got, ok := v.kids[ki].(StrItem); !ok || string(got) != run.String() {
			t.Fatalf("<%s>: kid %d = %#v, want text %q", el.tag, ki, v.kids[ki], run.String())
		}
		all.WriteString(run.String())
		ki++
	}
	if ki != len(v.kids) {
		t.Fatalf("<%s>: %d decoded kids, want %d", el.tag, len(v.kids), ki)
	}
	if got := markupText(c.Markup); got != all.String() {
		t.Fatalf("<%s>: string value %q, want %q", el.tag, got, all.String())
	}
	return all.String()
}

// FuzzConstructedMarkup builds a random element with attributes and text
// holding the escapable characters, constructs it through a query, and
// checks the markup against an independent serialization; then decodes
// the markup and checks the view against the tree and that re-emitting
// the view gives the same bytes.
func FuzzConstructedMarkup(f *testing.F) {
	for _, seed := range []string{"", "\x01\x01\x02", "\x03\x02\x05\x07\x01\x03\x01\x01\x02\x03\x04", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4"} {
		f.Add([]byte(seed))
	}
	doc, err := tree.Parse([]byte(`<site/>`))
	if err != nil {
		f.Fatal(err)
	}
	e := New(nodestore.NewDOM("fuzz", doc, nodestore.DOMOptions{}), Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		el := (&genReader{data: data}).elem(0)
		var src, want strings.Builder
		el.query(&src)
		el.markup(&want)
		seq, err := e.Query(src.String())
		if err != nil {
			t.Fatalf("%s: %v", src.String(), err)
		}
		c := seq[0].(*Constructed)
		if c.Markup != want.String() {
			t.Fatalf("%s:\nmarkup %q\nwant   %q", src.String(), c.Markup, want.String())
		}
		checkView(t, c, el)
		var again strings.Builder
		reemit(&again, c)
		if again.String() != c.Markup {
			t.Fatalf("re-emitted %q\nfrom     %q", again.String(), c.Markup)
		}
	})
}

// TestParallelConstructedLetNavigation has partition workers at degree 8
// navigate one constructed value bound in an outer let: the count's
// Gather sits inside the let's return, so every worker sees the same
// value through the shared bindings and decodes its view on first use.
// Under -race this checks that the lazy view is published safely.
func TestParallelConstructedLetNavigation(t *testing.T) {
	const src = `let $c := <people>{/site/people/person}</people>
		return (count(for $p in /site/people/person where $c/person[@id = $p/@id]/profile/interest return $p),
		        count(for $p in /site/people/person where $c//person[name = $p/name]/emailaddress return $p))`
	const want = `2 4`
	gathered := 0
	for _, e := range parallelEngines(t) {
		prep, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(prep.Explain(), "Gather") {
			gathered++
		}
		for i := 0; i < 20; i++ {
			if got := serializeDegree(t, prep, 8); got != want {
				t.Fatalf("[%s] degree 8 = %q, want %q", e.Store().Name(), got, want)
			}
		}
	}
	// The stores with path extents (DOM+summary, path and inline
	// mappings) split the for clause's scan; the others run it in order.
	if gathered < 3 {
		t.Fatalf("%d plans gather, want 3", gathered)
	}
}

// findCtor returns the first constructor node under n.
func findCtor(n *plan.Node) *plan.Node {
	if n == nil || n.Op == plan.OpCtor {
		return n
	}
	for _, k := range append([]*plan.Node{n.Input, n.Seq, n.Ret}, n.Kids...) {
		if c := findCtor(k); c != nil {
			return c
		}
	}
	return nil
}

// TestConstructAllocs pins the steady-state allocation cost of a
// Q2-shaped constructor: the Constructed header and its exact-size
// markup, nothing for the content it copies.
func TestConstructAllocs(t *testing.T) {
	e := fnEngine(t)
	prep, err := e.Prepare(`for $b in /site/open_auctions/open_auction return <increase>{$b/bidder[1]/increase/text()}</increase>`)
	if err != nil {
		t.Fatal(err)
	}
	ctor := findCtor(prep.plan.Root)
	if ctor == nil {
		t.Fatalf("no constructor in plan:\n%s", prep.Explain())
	}
	auctions, err := e.Query(`/site/open_auctions/open_auction[bidder]`)
	if err != nil || len(auctions) == 0 {
		t.Fatalf("auctions: %v, %v", auctions, err)
	}
	ev := &evaluator{store: e.Store(), opts: e.opts, funcs: prep.plan.Funcs, sess: NewSession(),
		batchSize: resolveBatchSize(0, e.opts.BatchSize)}
	env := (&bindings{}).bind("b", auctions[:1])
	first := ev.construct(ctor, env)
	if !strings.HasPrefix(first.Markup, "<increase>") || !strings.HasSuffix(first.Markup, "</increase>") {
		t.Fatalf("markup = %q", first.Markup)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if c := ev.construct(ctor, env); c.Markup != first.Markup {
			t.Fatalf("markup %q, want %q", c.Markup, first.Markup)
		}
	}); avg > 2 {
		t.Errorf("construct allocates %.1f per item, want at most 2", avg)
	}
}
