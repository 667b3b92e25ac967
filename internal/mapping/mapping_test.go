package mapping

import (
	"sort"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// buildAll loads one generated document into every mapping plus the
// reference DOM store.
func buildAll(t *testing.T, factor float64) (ref *nodestore.DOM, stores []nodestore.Store) {
	t.Helper()
	doc, err := tree.Parse([]byte(xmlgen.New(xmlgen.Options{Factor: factor}).String()))
	if err != nil {
		t.Fatal(err)
	}
	ref = nodestore.NewDOM("ref", doc, nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true})
	return ref, []nodestore.Store{NewEdge(doc), NewPath(doc), NewInline(doc)}
}

func TestAttrLookupAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, probe := range []struct{ name, value string }{
		{"id", "person0"},
		{"id", "item3"},
		{"person", "person1"},
		{"category", "category0"},
		{"id", "no_such_value"},
		{"no_such_attr", "x"},
	} {
		want, ok := ref.AttrLookup(probe.name, probe.value)
		if !ok {
			t.Fatal("reference store lacks attribute index")
		}
		for _, s := range stores {
			got, ok := s.AttrLookup(probe.name, probe.value)
			if !ok {
				t.Fatalf("%s: AttrLookup unsupported", s.Name())
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: AttrLookup(%s=%s) = %v, want %v", s.Name(), probe.name, probe.value, got, want)
			}
		}
	}
}

// TestStoresAgreeWithDOM differentially tests every mapping against the
// reference DOM on all Store operations over every node of a generated
// document. This is the core correctness argument for the relational
// backends: same answers, different access paths.
func TestStoresAgreeWithDOM(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	checkStoresAgree(t, ref, stores)
}

// handBuiltDoc packs the shapes the generated document rarely isolates:
// an attribute on the root, an empty element, mixed content, the same tag
// at two depths (parlist/listitem nests), and an attribute present on only
// some owners of one fragment.
const handBuiltDoc = `<site region="eu"><empty/>` +
	`<parlist><listitem id="a">one<bold>b</bold>two<parlist>` +
	`<listitem>deep</listitem><listitem id="b"/><listitem><text/></listitem>` +
	`</parlist>three</listitem><listitem/><listitem id="c"><empty/></listitem></parlist>` +
	`<mixed>x<bold/>y<bold>z</bold><bold kind="k"/>w</mixed><empty/></site>`

func TestStoresAgreeWithDOMHandBuilt(t *testing.T) {
	doc, err := tree.Parse([]byte(handBuiltDoc))
	if err != nil {
		t.Fatal(err)
	}
	ref := nodestore.NewDOM("ref", doc, nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true})
	checkStoresAgree(t, ref, []nodestore.Store{NewEdge(doc), NewPath(doc), NewInline(doc)})
}

// checkStoresAgree compares every store with the reference on every node:
// kind, tag, text, parent, subtree end, children, text children, a child
// step by every child tag present (plus one absent tag) through the slice
// method and the cursor drained by Next and by batches of 1 and 3, and
// attributes by value and by dictionary code.
func checkStoresAgree(t *testing.T, ref *nodestore.DOM, stores []nodestore.Store) {
	t.Helper()
	doc := ref.Doc()
	for _, s := range stores {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			if s.Root() != ref.Root() {
				t.Fatal("root differs")
			}
			for n := tree.NodeID(0); int(n) < doc.Len(); n++ {
				if s.Kind(n) != ref.Kind(n) {
					t.Fatalf("node %d: kind %v != %v", n, s.Kind(n), ref.Kind(n))
				}
				if s.Tag(n) != ref.Tag(n) {
					t.Fatalf("node %d: tag %q != %q", n, s.Tag(n), ref.Tag(n))
				}
				if s.Text(n) != ref.Text(n) {
					t.Fatalf("node %d: text differs", n)
				}
				if s.Parent(n) != ref.Parent(n) {
					t.Fatalf("node %d: parent %d != %d", n, s.Parent(n), ref.Parent(n))
				}
				if s.SubtreeEnd(n) != ref.SubtreeEnd(n) {
					t.Fatalf("node %d: end %d != %d", n, s.SubtreeEnd(n), ref.SubtreeEnd(n))
				}
				kids := ref.Children(n, nil)
				if got := s.Children(n, nil); !equalIDs(got, kids) {
					t.Fatalf("node %d: children %v != %v", n, got, kids)
				}
				if ref.Kind(n) != tree.Element {
					continue
				}
				var texts []tree.NodeID
				tags := []string{"no_such_tag"}
				for _, c := range kids {
					if ref.Kind(c) == tree.Text {
						texts = append(texts, c)
					} else if !containsTag(tags, ref.Tag(c)) {
						tags = append(tags, ref.Tag(c))
					}
				}
				if got := s.(nodestore.TextChildLister).TextChildren(n, nil); !equalIDs(got, texts) {
					t.Fatalf("node %d: text children %v != %v", n, got, texts)
				}
				for _, tag := range tags {
					want := ref.ChildrenByTag(n, tag, nil)
					if got := s.ChildrenByTag(n, tag, nil); !equalIDs(got, want) {
						t.Fatalf("node %d: childrenByTag(%s) %v != %v", n, tag, got, want)
					}
					cs := s.(nodestore.CursorStore)
					if got := drainNext(cs.ChildrenByTagCursor(n, tag)); !equalIDs(got, want) {
						t.Fatalf("node %d: childrenByTag cursor(%s) by Next %v != %v", n, tag, got, want)
					}
					for _, size := range []int{1, 3} {
						if got := drainWidth(t, cs.ChildrenByTagCursor(n, tag), size); !equalIDs(got, want) {
							t.Fatalf("node %d: childrenByTag cursor(%s) by batches of %d %v != %v", n, tag, size, got, want)
						}
					}
				}
				coder := s.(nodestore.AttrCoder)
				for _, a := range ref.Attrs(n) {
					v, ok := s.Attr(n, a.Name)
					if !ok || v != a.Value {
						t.Fatalf("node %d: attr %s = %q,%v want %q", n, a.Name, v, ok, a.Value)
					}
					want, _ := coder.CodeOf(a.Value)
					if got, ok := coder.AttrCode(n, a.Name); !ok || got != want {
						t.Fatalf("node %d: attr code %s = %d,%v want %d", n, a.Name, got, ok, want)
					}
				}
				for _, name := range []string{"no_such_attr", "id"} {
					if _, want := ref.Attr(n, name); !want {
						if _, ok := s.Attr(n, name); ok {
							t.Fatalf("node %d: phantom attribute %s", n, name)
						}
						if _, ok := coder.AttrCode(n, name); ok {
							t.Fatalf("node %d: phantom attribute code %s", n, name)
						}
					}
				}
				if !equalAttrs(s.Attrs(n), ref.Attrs(n)) {
					t.Fatalf("node %d: Attrs differ: %v vs %v", n, s.Attrs(n), ref.Attrs(n))
				}
			}
		})
	}
}

func containsTag(tags []string, tag string) bool {
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// TestPathChildRunsContiguous checks the argument behind the path
// mapping's offset arrays (see pathTable): in every child fragment the
// parent's row never decreases, so one offset per parent row delimits each
// parent's run of children.
func TestPathChildRunsContiguous(t *testing.T) {
	ref, _ := buildAll(t, 0.002)
	hand, err := tree.Parse([]byte(handBuiltDoc))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []*tree.Doc{ref.Doc(), hand} {
		for _, s := range []*Path{NewPath(doc), NewInline(doc)} {
			for _, p := range s.entries {
				for _, c := range p.children {
					if len(c.first) != len(p.ids)+1 || int(c.first[len(p.ids)]) != len(c.ids) {
						t.Fatalf("%s: %d offsets ending at %d, want %d ending at %d",
							c.path, len(c.first), c.first[len(c.first)-1], len(p.ids)+1, len(c.ids))
					}
					prev := int32(0)
					for row, parent := range c.table.IntCol(pParent) {
						r := s.rowIn[parent]
						if s.pathOf[parent] != int32(p.idx) || r < prev {
							t.Fatalf("%s row %d: parent %d at row %d of %s after row %d",
								c.path, row, parent, r, s.entries[s.pathOf[parent]].path, prev)
						}
						if int32(row) < c.first[r] || int32(row) >= c.first[r+1] {
							t.Fatalf("%s row %d: outside its parent's run [%d,%d)", c.path, row, c.first[r], c.first[r+1])
						}
						prev = r
					}
				}
			}
		}
	}
}

func TestStringValueAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	doc := ref.Doc()
	// StringValue is expensive; sample a subset of nodes.
	for _, s := range stores {
		for n := tree.NodeID(0); int(n) < doc.Len(); n += 7 {
			if got, want := s.StringValue(n), ref.StringValue(n); got != want {
				t.Fatalf("%s: node %d StringValue %q != %q", s.Name(), n, got, want)
			}
		}
	}
}

func TestTagExtentAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, tag := range []string{"item", "person", "keyword", "bidder", "increase", "homepage", "no_such_tag"} {
		want, ok := ref.TagExtent(tag, nil)
		if !ok {
			t.Fatal("reference store lacks tag extents")
		}
		for _, s := range stores {
			got, ok := s.TagExtent(tag, nil)
			if !ok {
				t.Fatalf("%s: TagExtent unsupported", s.Name())
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s: extent of %q: %d nodes, want %d", s.Name(), tag, len(got), len(want))
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("%s: extent of %q not in document order", s.Name(), tag)
			}
		}
	}
}

func TestDescendantsAgreement(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	doc := ref.Doc()
	regions := doc.ChildElements(doc.Root(), doc.TagSymbol("regions"), nil)
	cases := []struct {
		n   tree.NodeID
		tag string
	}{
		{doc.Root(), "item"},
		{doc.Root(), "keyword"},
		{regions[0], "item"},
		{regions[0], "name"},
	}
	for _, c := range cases {
		want := ref.Descendants(c.n, c.tag, nil)
		for _, s := range stores {
			got := s.Descendants(c.n, c.tag, nil)
			if !equalIDs(got, want) {
				t.Fatalf("%s: descendants(%d, %s) = %d nodes, want %d", s.Name(), c.n, c.tag, len(got), len(want))
			}
		}
	}
}

func TestPathExtent(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	path := []string{"site", "people", "person"}
	want, _ := ref.PathExtent(path, nil)
	for _, s := range stores {
		got, ok := s.PathExtent(path, nil)
		if s.Name() == "edge" {
			if ok {
				t.Fatal("edge store claims path support")
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: PathExtent unsupported", s.Name())
		}
		if !equalIDs(got, want) {
			t.Fatalf("%s: path extent %d nodes, want %d", s.Name(), len(got), len(want))
		}
		// Non-existing path is provably empty from the catalog.
		empty, ok := s.PathExtent([]string{"site", "nope"}, nil)
		if !ok || len(empty) != 0 {
			t.Fatalf("%s: non-existing path extent = %v, %v", s.Name(), empty, ok)
		}
	}
}

func TestInlinedChildText(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	var inline, path nodestore.Store
	for _, s := range stores {
		switch s.Name() {
		case "inline":
			inline = s
		case "path":
			path = s
		}
	}
	doc := ref.Doc()
	persons, _ := ref.PathExtent([]string{"site", "people", "person"}, nil)
	checked := 0
	for _, p := range persons {
		// name is a mandatory PCDATA single child: must be inlined.
		v, ok, supported := inline.InlinedChildText(p, "name")
		if !supported {
			t.Fatal("inline store reports no inlining for person")
		}
		if !ok {
			t.Fatalf("person %d missing inlined name", p)
		}
		names := doc.ChildElements(p, doc.TagSymbol("name"), nil)
		if want := doc.StringValue(names[0]); v != want {
			t.Fatalf("inlined name %q != %q", v, want)
		}
		// homepage is optional: presence flag must match the document.
		hv, hok, _ := inline.InlinedChildText(p, "homepage")
		hps := doc.ChildElements(p, doc.TagSymbol("homepage"), nil)
		if hok != (len(hps) == 1) {
			t.Fatalf("person %d: inlined homepage presence %v, want %v", p, hok, len(hps) == 1)
		}
		if hok {
			if want := doc.StringValue(hps[0]); hv != want {
				t.Fatalf("inlined homepage %q != %q", hv, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no persons checked")
	}
	// The plain path store must report no inlining support.
	if _, _, supported := path.InlinedChildText(persons[0], "name"); supported {
		t.Fatal("path store claims inlining")
	}
}

func TestStats(t *testing.T) {
	ref, stores := buildAll(t, 0.002)
	for _, s := range append(stores, nodestore.Store(ref)) {
		st := s.Stats()
		if st.SizeBytes <= 0 {
			t.Errorf("%s: non-positive size", st.Name)
		}
		if st.Nodes != ref.Doc().Len() {
			t.Errorf("%s: nodes = %d, want %d", st.Name, st.Nodes, ref.Doc().Len())
		}
	}
	// The fragmenting mapping must have many tables; the edge mapping one.
	for _, s := range stores {
		st := s.Stats()
		switch st.Name {
		case "edge":
			if st.Tables != 1 {
				t.Errorf("edge tables = %d", st.Tables)
			}
		case "path", "inline":
			if st.Tables < 50 {
				t.Errorf("%s tables = %d, want many", st.Name, st.Tables)
			}
		}
	}
}

func TestFragmentationMetadataTax(t *testing.T) {
	// Paper Table 2: the fragmenting mapping consults far more metadata.
	_, stores := buildAll(t, 0.002)
	var p *Path
	for _, s := range stores {
		if s.Name() == "path" {
			p = s.(*Path)
		}
	}
	before := p.MetaOps()
	p.Children(p.Root(), nil)
	if p.MetaOps() == before {
		t.Fatal("no catalog consultations recorded")
	}
}

func equalAttrs(a, b []tree.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIDs(a, b []tree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
