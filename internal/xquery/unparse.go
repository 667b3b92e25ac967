package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// Unparse renders a parsed query back to source text. Together with Parse
// it forms a normalization pair: Parse(Unparse(q)) is structurally
// identical to q, which the tests verify over the whole benchmark query
// set. Harnesses use it to display rewritten or diagnosed queries.
func Unparse(q *Query) string {
	var b strings.Builder
	// Function declarations in name order for determinism.
	names := make([]string, 0, len(q.Functions))
	for name := range q.Functions {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		fd := q.Functions[name]
		b.WriteString("declare function ")
		b.WriteString(fd.Name)
		b.WriteByte('(')
		for i, p := range fd.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('$')
			b.WriteString(p)
		}
		b.WriteString(") { ")
		unparseExpr(&b, fd.Body)
		b.WriteString(" };\n")
	}
	unparseExpr(&b, q.Body)
	return b.String()
}

// UnparseExpr renders a single expression.
func UnparseExpr(e Expr) string {
	var b strings.Builder
	unparseExpr(&b, e)
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func unparseExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case *StringLit:
		b.WriteByte('"')
		b.WriteString(stringLitEscaper.Replace(v.Val))
		b.WriteByte('"')
	case *NumberLit:
		b.WriteString(strconv.FormatFloat(v.Val, 'g', -1, 64))
	case *VarRef:
		b.WriteByte('$')
		b.WriteString(v.Name)
	case *ContextItem:
		b.WriteByte('.')
	case *Root:
		b.WriteByte('/')
	case *Path:
		unparsePath(b, v)
	case *Filter:
		b.WriteByte('(')
		unparseExpr(b, v.Input)
		b.WriteByte(')')
		for _, p := range v.Preds {
			b.WriteByte('[')
			unparseExpr(b, p)
			b.WriteByte(']')
		}
	case *FLWOR:
		unparseFLWOR(b, v)
	case *Quantified:
		if v.Every {
			b.WriteString("every ")
		} else {
			b.WriteString("some ")
		}
		for i := range v.Vars {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('$')
			b.WriteString(v.Vars[i])
			b.WriteString(" in ")
			unparseExpr(b, v.Seqs[i])
		}
		b.WriteString(" satisfies ")
		unparseExpr(b, v.Satisfies)
	case *IfExpr:
		b.WriteString("if (")
		unparseExpr(b, v.Cond)
		b.WriteString(") then ")
		unparseExpr(b, v.Then)
		b.WriteString(" else ")
		unparseExpr(b, v.Else)
	case *Binary:
		b.WriteByte('(')
		unparseExpr(b, v.Left)
		b.WriteByte(' ')
		b.WriteString(v.Op.String())
		b.WriteByte(' ')
		unparseExpr(b, v.Right)
		b.WriteByte(')')
	case *Unary:
		b.WriteString("-(")
		unparseExpr(b, v.Operand)
		b.WriteByte(')')
	case *Call:
		b.WriteString(v.Name)
		b.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, a)
		}
		b.WriteByte(')')
	case *Sequence:
		b.WriteByte('(')
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, it)
		}
		b.WriteByte(')')
	case *ElementCtor:
		unparseCtor(b, v)
	default:
		// Unreachable for well-formed ASTs; make failures visible.
		fmt.Fprintf(b, "(:unknown %T:)", e)
	}
}

func unparsePath(b *strings.Builder, p *Path) {
	switch p.Input.(type) {
	case *Root:
		// The leading separator comes from the first step below.
	case *ContextItem:
		// A bare relative step; no prefix.
	default:
		unparseExpr(b, p.Input)
	}
	_, fromRoot := p.Input.(*Root)
	_, fromCtx := p.Input.(*ContextItem)
	for i, st := range p.Steps {
		sep := "/"
		if st.Axis == AxisDescendant {
			sep = "//"
		}
		if i == 0 && fromCtx && st.Axis == AxisChild {
			sep = ""
		}
		if i == 0 && fromCtx && st.Axis == AxisAttribute {
			sep = ""
		}
		_ = fromRoot
		b.WriteString(sep)
		switch st.Axis {
		case AxisAttribute:
			b.WriteByte('@')
			b.WriteString(st.Name)
		case AxisText:
			b.WriteString("text()")
		default:
			b.WriteString(st.Name)
		}
		for _, pred := range st.Preds {
			b.WriteByte('[')
			unparseExpr(b, pred)
			b.WriteByte(']')
		}
	}
}

func unparseFLWOR(b *strings.Builder, f *FLWOR) {
	for _, cl := range f.Clauses {
		if cl.For != nil {
			b.WriteString("for $")
			b.WriteString(cl.For.Var)
			b.WriteString(" in ")
			unparseExpr(b, cl.For.Seq)
			b.WriteByte(' ')
		} else {
			b.WriteString("let $")
			b.WriteString(cl.Let.Var)
			b.WriteString(" := ")
			unparseExpr(b, cl.Let.Seq)
			b.WriteByte(' ')
		}
	}
	if f.Where != nil {
		b.WriteString("where ")
		unparseExpr(b, f.Where)
		b.WriteByte(' ')
	}
	if len(f.Order) > 0 {
		b.WriteString("order by ")
		for i, o := range f.Order {
			if i > 0 {
				b.WriteString(", ")
			}
			unparseExpr(b, o.Key)
			if o.Descending {
				b.WriteString(" descending")
			} else {
				b.WriteString(" ascending")
			}
		}
		b.WriteByte(' ')
	}
	b.WriteString("return ")
	unparseExpr(b, f.Return)
}

func unparseCtor(b *strings.Builder, c *ElementCtor) {
	b.WriteByte('<')
	b.WriteString(c.Tag)
	for _, a := range c.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		for _, part := range a.Parts {
			if lit, ok := part.(*StringLit); ok {
				b.WriteString(attrTextEscaper.Replace(lit.Val))
				continue
			}
			b.WriteByte('{')
			unparseExpr(b, part)
			b.WriteByte('}')
		}
		b.WriteByte('"')
	}
	if len(c.Content) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, part := range c.Content {
		switch v := part.(type) {
		case *StringLit:
			unparseContentText(b, v.Val)
		case *ElementCtor:
			unparseCtor(b, v)
		default:
			b.WriteByte('{')
			unparseExpr(b, part)
			b.WriteByte('}')
		}
	}
	b.WriteString("</")
	b.WriteString(c.Tag)
	b.WriteByte('>')
}

// The escapers re-escape literal text so that it parses back to the same
// value: references for '&' and '<' (and the quote in attribute values),
// doubled braces in constructors, a doubled delimiter in string literals.
var (
	stringLitEscaper   = strings.NewReplacer(`&`, `&amp;`, `"`, `""`)
	contentTextEscaper = strings.NewReplacer(`&`, `&amp;`, `<`, `&lt;`, `{`, `{{`, `}`, `}}`)
	attrTextEscaper    = strings.NewReplacer(`&`, `&amp;`, `<`, `&lt;`, `"`, `&quot;`, `{`, `{{`, `}`, `}}`)
)

// unparseContentText writes constructor content text. Text made only of
// whitespace would read back as boundary whitespace and vanish, so it is
// written as character references.
func unparseContentText(b *strings.Builder, s string) {
	if strings.Trim(s, " \t\n\r") != "" {
		b.WriteString(contentTextEscaper.Replace(s))
		return
	}
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(b, "&#%d;", s[i])
	}
}
