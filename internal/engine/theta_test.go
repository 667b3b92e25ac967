package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

// thetaValues are the key texts the theta differential draws from: ties
// for the < / <= boundaries, signed zero, whitespace and exponent forms
// that parse as numbers, and strings that cast to NaN (including the
// empty text and NaN itself) or to the infinities.
var thetaValues = []string{
	"0", "1", "2", "3", "5", "5", "7", "10", "-3", "-0", " 4 ", "2.5",
	"1e1", "abc", "NaN", "INF", "-INF", "",
}

// thetaDoc generates a document with an inner extent /r/is/i and an outer
// extent /r/os/o (both above the vectorize gate), each element carrying
// zero to three key children drawn from thetaValues: empty, single and
// multi-valued keys on both sides.
func thetaDoc(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	keys := func(tag string) {
		for k := rng.Intn(4); k > 0; k-- {
			fmt.Fprintf(&b, "<%s>%s</%s>", tag, thetaValues[rng.Intn(len(thetaValues))], tag)
		}
	}
	b.WriteString("<r><is>")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&b, `<i n="i%d">`, j)
		keys("k")
		b.WriteString("</i>")
	}
	b.WriteString("</is><os>")
	for j := 0; j < 36; j++ {
		fmt.Fprintf(&b, `<o n="o%d">`, j)
		keys("v")
		if rng.Intn(2) == 0 {
			b.WriteString("<w/>")
		}
		b.WriteString("</o>")
	}
	b.WriteString("</os></r>")
	return []byte(b.String())
}

// thetaEngines returns the store families the theta operator must agree
// on, with hash joins off so = and != plan as theta joins too, and
// parallel gather enabled so degree 8 fans the outer scan out.
func thetaEngines(t *testing.T, doc []byte) map[string]*Engine {
	t.Helper()
	d, err := tree.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{PathExtents: true, MaxDegree: 8}
	return map[string]*Engine{
		"path": New(mapping.NewPath(d), opts),
		"dom": New(nodestore.NewDOM("dom", d, nodestore.DOMOptions{
			Summary: true, TagExtents: true, FilteredScans: true}), opts),
	}
}

// runAt serializes prep on a fresh session at the given width and degree.
func runAt(t *testing.T, prep *Prepared, width, degree int) (string, *Session) {
	t.Helper()
	sess := NewSession()
	sess.BatchSize, sess.Degree = width, degree
	var b strings.Builder
	if err := prep.SerializeSession(&b, sess); err != nil {
		t.Fatal(err)
	}
	return b.String(), sess
}

// TestBatchThetaDifferential checks the theta join operator — its typed
// sorted index, its generic fallback and the count-pushdown Count —
// against the for+where expansion that width 1 runs, on random key
// vectors: every comparison operator in both operand orders, numeric
// (typed) and untyped inner keys, untyped, numeric and boolean outer
// keys, emitting shapes and counts in the return and where clauses, at
// widths {3, 1024} × degrees {1, 8}.
func TestBatchThetaDifferential(t *testing.T) {
	inners := []string{`(for $x in $i/k return $x * 1)`, `$i/k`}
	outers := []string{`$o/v`, `(for $y in $o/v return $y * 1)`, `empty($o/w)`}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for seed := int64(1); seed <= 2; seed++ {
		for store, e := range thetaEngines(t, thetaDoc(seed)) {
			for ii, inner := range inners {
				for _, outer := range outers {
					for _, op := range ops {
						for _, cond := range []string{outer + " " + op + " " + inner, inner + " " + op + " " + outer} {
							emit := `for $o in /r/os/o for $i in /r/is/i where ` + cond + ` return ($o/@n, $i/@n)`
							count := `for $o in /r/os/o let $l := for $i in /r/is/i where ` + cond + ` return $i return ($o/@n, count($l))`
							srcs := []string{emit, count}
							if outer == outers[0] {
								srcs = append(srcs, `for $o in /r/os/o let $l := for $i in /r/is/i where `+cond+` return $i where count($l) >= 2 return $o/@n`)
							}
							for _, src := range srcs {
								prep, err := e.Prepare(src)
								if err != nil {
									t.Fatalf("%s: %v", src, err)
								}
								ex := prep.Explain()
								if !strings.Contains(ex, "BatchNestedLoopJoin") {
									t.Fatalf("%s: theta join not vectorized:\n%s", src, ex)
								}
								inequality := op != "=" && op != "!="
								if pushed := strings.Contains(ex, "count-pushdown"); pushed != (src != emit && inequality) {
									t.Fatalf("%s: count-pushdown fired=%v:\n%s", src, pushed, ex)
								}
								want, _ := runAt(t, prep, 1, 1)
								for _, w := range []int{3, 1024} {
									for _, d := range []int{1, 8} {
										got, sess := runAt(t, prep, w, d)
										if got != want {
											t.Fatalf("seed %d %s width %d degree %d: %s\n got %q\nwant %q",
												seed, store, w, d, src, got, want)
										}
										if d == 1 && ii == 0 && inequality {
											for _, idx := range sess.thetaCache {
												if idx.num == nil {
													t.Fatalf("%s: numeric inner keys built an untyped index", src)
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchCountPushdownNegativeShapes pins where count pushdown must not
// fire — the deferred let would be read twice, read per item, or read
// under a rebound variable, or the join has no sorted index to count
// from — and that each such query still answers exactly as at width 1.
func TestBatchCountPushdownNegativeShapes(t *testing.T) {
	join := `for $i in /r/is/i where $o/v > (for $x in $i/k return $x * 1) return $i`
	for name, src := range map[string]string{
		"used twice": `for $o in /r/os/o let $l := ` + join + `
			return ($o/@n, count($l), $l/@n)`,
		"count in nested FLWOR": `for $o in /r/os/o let $l := ` + join + `
			return for $z in (1, 2) return count($l)`,
		"count in predicate": `for $o in /r/os/o let $l := ` + join + `
			return /r/os/o[count($l) > 3]/@n`,
		"later for shadows a free variable": `for $o in /r/os/o let $l := ` + join + `
			for $o in /r/os/o[1] return count($l)`,
		"later let shadows the variable": `for $o in /r/os/o let $l := ` + join + `
			let $l := $o return count($l)`,
		"equality conjunct": `for $o in /r/os/o let $l := for $i in /r/is/i where $o/v = $i/k return $i
			return count($l)`,
		"not-equal conjunct": `for $o in /r/os/o let $l := for $i in /r/is/i where $o/v != $i/k return $i
			return count($l)`,
		"return is not the join variable": `for $o in /r/os/o let $l := for $i in /r/is/i
			where $o/v > (for $x in $i/k return $x * 1) return $i/@n
			return count($l)`,
	} {
		for store, e := range thetaEngines(t, thetaDoc(7)) {
			prep, err := e.Prepare(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ex := prep.Explain(); strings.Contains(ex, "count-pushdown") || strings.Contains(ex, "deferred") {
				t.Errorf("%s/%s: count pushdown fired:\n%s", name, store, ex)
			}
			want, _ := runAt(t, prep, 1, 1)
			for _, w := range []int{3, 1024} {
				for _, d := range []int{1, 8} {
					if got, _ := runAt(t, prep, w, d); got != want {
						t.Errorf("%s/%s width %d degree %d: got %q, want %q", name, store, w, d, got, want)
					}
				}
			}
		}
	}
}
