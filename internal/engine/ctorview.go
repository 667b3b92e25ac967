package engine

import (
	"strings"

	"repro/internal/tree"
)

// ctorView is the structure of a constructed element, decoded from its
// markup on demand: the attributes with unescaped values, and the content
// as text runs (StrItem, unescaped) and child elements. The markup has
// already merged adjacent text, so each run between two child elements is
// one text node. Child elements are *Constructed over sub-slices of the
// parent's markup, so decoding copies no element bytes. Stored nodes
// placed in content appear here as such children: constructor content is
// a copy.
type ctorView struct {
	attrs []tree.Attr
	kids  []Item // StrItem and *Constructed
}

// decoded returns c's view, decoding and publishing it on first use.
// Concurrent first uses may both decode; CompareAndSwap keeps one of the
// results, so every caller navigates the same child values.
func (c *Constructed) decoded() *ctorView {
	if v := c.view.Load(); v != nil {
		return v
	}
	c.view.CompareAndSwap(nil, decodeMarkup(c.Markup))
	return c.view.Load()
}

// Tag returns the element name.
func (c *Constructed) Tag() string { return markupTag(c.Markup) }

// markupTag returns the first token of an element's markup: its name.
func markupTag(m string) string {
	i := 1
	for i < len(m) && m[i] != ' ' && m[i] != '/' && m[i] != '>' {
		i++
	}
	return m[1:i]
}

// decodeMarkup decodes one level of an element's markup. The markup is
// well formed by construction: every text and attribute byte that could
// be taken for markup is escaped, and attribute values are double-quoted.
func decodeMarkup(m string) *ctorView {
	v := &ctorView{}
	tagLen := len(markupTag(m))
	i := 1 + tagLen
	for m[i] == ' ' {
		eq := i + strings.IndexByte(m[i:], '=')
		end := eq + 2 + strings.IndexByte(m[eq+2:], '"')
		v.attrs = append(v.attrs, tree.Attr{Name: m[i+1 : eq], Value: unescapeMarkup(m[eq+2 : end])})
		i = end + 1
	}
	if m[i] == '/' {
		return v
	}
	content := m[i+1 : len(m)-tagLen-3]
	for j := 0; j < len(content); {
		if content[j] == '<' {
			k := j + elementLen(content[j:])
			v.kids = append(v.kids, &Constructed{Markup: content[j:k]})
			j = k
			continue
		}
		k := strings.IndexByte(content[j:], '<')
		if k < 0 {
			k = len(content) - j
		}
		v.kids = append(v.kids, StrItem(unescapeMarkup(content[j:j+k])))
		j += k
	}
	return v
}

// elementLen returns the length of the element whose markup begins s.
// Attribute values hold no raw '>', so each tag ends at the next '>';
// a tag ending in "/>" opens and closes at once.
func elementLen(s string) int {
	depth, i := 0, 0
	for {
		gt := i + strings.IndexByte(s[i:], '>')
		switch {
		case s[i+1] == '/':
			depth--
		case s[gt-1] != '/':
			depth++
		}
		i = gt + 1
		if depth == 0 {
			return i
		}
		i += strings.IndexByte(s[i:], '<')
	}
}

// markupText returns the string value of a constructed element: its
// descendant text in document order, unescaped. Attribute values are
// skipped with their tags.
func markupText(m string) string {
	var first string
	var raw []byte
	runs := 0
	for i := 0; i < len(m); {
		if m[i] == '<' {
			i += strings.IndexByte(m[i:], '>') + 1
			continue
		}
		k := strings.IndexByte(m[i:], '<')
		switch runs {
		case 0:
			first = m[i : i+k]
		case 1:
			raw = append(append(raw, first...), m[i:i+k]...)
		default:
			raw = append(raw, m[i:i+k]...)
		}
		runs++
		i += k
	}
	if runs > 1 {
		first = string(raw)
	}
	// Entities never straddle runs, so unescaping the concatenation
	// equals concatenating the unescaped runs.
	return unescapeMarkup(first)
}

// markupUnescaper inverts tree.AppendEscapedText and AppendEscapedAttr.
var markupUnescaper = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`)

func unescapeMarkup(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return markupUnescaper.Replace(s)
}
