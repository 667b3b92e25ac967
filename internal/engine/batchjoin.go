package engine

import (
	"math"
	"sort"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
	"repro/internal/xquery"
)

// This file is the join half of batch-at-a-time execution: the physical
// operators behind the planner's vectorize-join and vectorize-bind marks.
// Like every batch operator, they are output-equivalent to the tuple
// operators they replace — the binding order, match sets and emission
// order are identical by construction — so execution at any batch size
// stays byte-identical to tuple-at-a-time execution.
//
// Four operators live here:
//
//   - batchForTupleIter: for-clause binding straight off NodeID vectors.
//     The tuple operator routes every vectorized sequence through the
//     fromBatch adapter and pays one interface dispatch per item; this one
//     holds the batch pipeline itself and binds from the vector.
//   - the batch hash-join build: the joinIndex fills from NodeID batches,
//     and when the join key is an attribute path over a dictionary-encoded
//     store, the index is keyed by int32 dictionary codes — the probe then
//     compares integers, never materializing a key string per build row.
//   - thetaJoinTupleIter: the planned nested-loop join for non-equality
//     conjuncts (Q11/Q12's income > 5000·initial). There is no hash bucket
//     for an inequality, but the clause sequence is variable-independent,
//     so its items and their atomized key values memoize per session
//     (Session.thetaCache) and each outer tuple evaluates its own side of
//     the comparison exactly once instead of once per inner item. When
//     every inner key is numeric the index is typed: one float64 per item,
//     reduced existentially (the min or max of its keys, by operator), plus
//     the keys sorted. The outer side casts to one number per tuple, so a
//     pair costs one float comparison instead of a string parse.
//   - the count-pushdown Count (plan.CountThetaJoin): count($l) over a
//     let-bound theta join whose binding nothing else reads. It answers
//     from the sorted keys with one binary search per tuple, and the
//     deferred let never materializes the matches. At batch width 1 the
//     join runs as for+where, the let binds, and the count drains it.

// ---- vectorized for-clause binding ----

// batchForTupleIter expands each incoming tuple by the NodeID vectors of
// the clause's batch pipeline: the vectorize-bind operator. Produces
// exactly forTupleIter's bindings in exactly its order — the pipeline
// yields the same ids the item iterator would — without the fromBatch
// adapter between the scan pipeline and the tuple stream.
type batchForTupleIter struct {
	ev   *evaluator
	in   tupleIter
	node *plan.Node

	tp    *bindings
	bi    batchIterator
	cur   []tree.NodeID
	items Iterator // item-pipeline fallback when the sequence cannot batch
}

func (f *batchForTupleIter) Next() (*bindings, bool) {
	for {
		if len(f.cur) > 0 {
			id := f.cur[0]
			f.cur = f.cur[1:]
			return f.tp.bind(f.node.Var, Seq{NodeItem{ID: id}}), true
		}
		if f.bi != nil {
			if f.cur = f.bi.nextBatch(); f.cur != nil {
				continue
			}
			f.bi = nil
		}
		if f.items != nil {
			if it, ok := f.items.Next(); ok {
				return f.tp.bind(f.node.Var, Seq{it}), true
			}
			f.items = nil
		}
		tp, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		f.tp = tp
		// The sequence may depend on the tuple's bindings (pushed-down
		// predicates close over the environment), so the pipeline rebuilds
		// per tuple; the operators recycle their vectors through the
		// session free list, so the rebuild allocates nothing steady-state.
		if f.bi = f.ev.batchOf(f.node.Seq, tp); f.bi == nil {
			f.items = f.ev.iter(f.node.Seq, tp)
		}
	}
}

// ---- batch hash-join build ----

// attrKeyPath recognizes the join-key shape the code-keyed index admits:
// a plain navigation from the clause variable through predicate-free child
// steps to an attribute — $t/buyer/@person, $t2/@id, or
// $t/profile/interest/@category. Any other shape (text() keys, predicates,
// wildcard steps, computed keys) takes the generic build.
func attrKeyPath(n *plan.Node, probe *plan.Node) (tags []string, attr string, ok bool) {
	v, tags, attr, ok := navAttrPath(probe)
	if !ok || v != n.Var {
		return nil, "", false
	}
	return tags, attr, true
}

// navAttrPath recognizes the same shape over any variable and reports
// which one: the probe-side key of an attribute join ($p/@id over the
// outer binding) is structurally identical to the build-side key, just
// rooted at a different variable.
func navAttrPath(e *plan.Node) (v string, tags []string, attr string, ok bool) {
	if e == nil || e.Op != plan.OpNavigate || len(e.Steps) == 0 {
		return "", nil, "", false
	}
	if e.Input == nil || e.Input.Op != plan.OpVar {
		return "", nil, "", false
	}
	last := len(e.Steps) - 1
	for i, sp := range e.Steps {
		if sp.Strategy != plan.StepNavigate || len(sp.Preds) > 0 || len(sp.Filters) > 0 {
			return "", nil, "", false
		}
		if i == last {
			if sp.Axis != xquery.AxisAttribute || sp.Name == "" || sp.Name == "*" {
				return "", nil, "", false
			}
			attr = sp.Name
			continue
		}
		if sp.Axis != xquery.AxisChild || sp.Name == "" || sp.Name == "*" {
			return "", nil, "", false
		}
		tags = append(tags, sp.Name)
	}
	return e.Input.Var, tags, attr, true
}

// newBatchJoinIndex builds the hash-join index from the build side's batch
// pipeline: NodeID vectors fill the item list directly, and when the key
// is an attribute path over a dictionary-encoded store the index keys by
// int32 code — code equality is string equality within one store, so the
// match sets are identical to the string-keyed build, in the same order.
func (ev *evaluator) newBatchJoinIndex(n *plan.Node) *joinIndex {
	env := &bindings{}
	var items Seq
	allNodes := true
	if bi := ev.batchOf(n.Seq, env); bi != nil {
		if n.BuildCard > 0 {
			items = make(Seq, 0, n.BuildCard)
		}
		for ids := bi.nextBatch(); ids != nil; ids = bi.nextBatch() {
			for _, id := range ids {
				items = append(items, NodeItem{ID: id})
			}
		}
	} else {
		items = ev.eval(n.Seq, env)
		for _, it := range items {
			if _, ok := it.(NodeItem); !ok {
				allNodes = false
				break
			}
		}
	}
	idx := &joinIndex{items: items, probe: n.Probe}
	// When the outer-side key is an attribute path over a single variable,
	// the probe can walk store primitives straight to a dictionary code (or
	// attribute string) instead of entering the evaluator: record its shape
	// once. Applies to both index formats.
	if v, ptags, pattr, ok := navAttrPath(n.Build); ok {
		idx.probeVar, idx.probeTags, idx.probeAttr = v, ptags, pattr
		idx.probeFast = true
	}
	if tags, attr, ok := attrKeyPath(n, n.Probe); ok && allNodes {
		if ac, isCoded := ev.store.(nodestore.AttrCoder); isCoded {
			ev.fillCodeIndex(idx, n, tags, attr, ac)
			return idx
		}
	}
	ev.fillKeyIndex(idx, n)
	return idx
}

// leafMatches returns the bucket of one key leaf: an AttrCode read and an
// int map probe on a code-keyed index, an Attr read and a string map probe
// otherwise. A missing attribute yields no key, hence no matches — exactly
// the generic path's empty atomized key sequence.
func (j *hashJoinTupleIter) leafMatches(leaf tree.NodeID) []int {
	if j.idx.byCode != nil {
		if c, has := j.idx.coder.AttrCode(leaf, j.idx.probeAttr); has {
			return j.idx.byCode[c]
		}
		return nil
	}
	if v, has := j.ev.store.Attr(leaf, j.idx.probeAttr); has {
		return j.idx.byKey[v]
	}
	return nil
}

// fastMatches is the vectorized probe: the tuple's key comes from store
// primitives (ChildrenByTag walks, AttrCode/Attr reads), never from the
// evaluator, and the bucket lookup compares integers on dictionary-encoded
// stores. Returns ok=false when the tuple's binding shape disqualifies the
// fast path (non-node or multi-item binding) — the caller then runs the
// generic evaluation, which remains the semantic definition.
func (j *hashJoinTupleIter) fastMatches(tp *bindings) ([]int, bool) {
	idx := j.idx
	s, bound := tp.peek(idx.probeVar)
	if !bound || len(s) != 1 {
		return nil, false
	}
	ni, ok := s[0].(NodeItem)
	if !ok {
		return nil, false
	}
	if len(idx.probeTags) == 0 {
		// $p/@id: one attribute read, one bucket lookup.
		return j.leafMatches(ni.ID), true
	}
	ev := j.ev
	frontier := ev.sess.getBatchBuf(rampStart)[:0]
	next := ev.sess.getBatchBuf(rampStart)[:0]
	frontier = append(frontier, ni.ID)
	for _, tag := range idx.probeTags {
		next = next[:0]
		for _, id := range frontier {
			next = ev.store.ChildrenByTag(id, tag, next)
		}
		frontier, next = next, frontier
	}
	var matches []int
	if len(frontier) == 1 {
		// The common single-leaf case short-circuits the dedup machinery.
		matches = j.leafMatches(frontier[0])
	} else {
		matches = j.multiLeafMatches(frontier)
	}
	ev.sess.putBatchBuf(frontier)
	ev.sess.putBatchBuf(next)
	return matches, true
}

// multiLeafMatches merges the buckets of several key leaves with the
// existential dedup and ascending-position order the generic multi-key
// probe guarantees.
func (j *hashJoinTupleIter) multiLeafMatches(leaves []tree.NodeID) []int {
	if j.seen == nil {
		j.seen = make(map[int]bool)
	}
	for k := range j.seen {
		delete(j.seen, k)
	}
	var matches []int
	for _, leaf := range leaves {
		for _, i := range j.leafMatches(leaf) {
			if !j.seen[i] {
				j.seen[i] = true
				matches = append(matches, i)
			}
		}
	}
	sort.Ints(matches)
	return matches
}

// fillCodeIndex keys the index by dictionary code, walking the key path
// with store primitives — no per-row evaluator environment, no key string
// materialization. Scratch vectors recycle through the session free list.
func (ev *evaluator) fillCodeIndex(idx *joinIndex, n *plan.Node, tags []string, attr string, ac nodestore.AttrCoder) {
	idx.coder = ac
	size := n.BuildCard
	if size == 0 {
		size = len(idx.items)
	}
	idx.byCode = make(map[int32][]int, size)
	frontier := ev.sess.getBatchBuf(rampStart)[:0]
	next := ev.sess.getBatchBuf(rampStart)[:0]
	var codes []int32 // per-item key codes, deduplicated existentially
	for i, it := range idx.items {
		frontier = append(frontier[:0], it.(NodeItem).ID)
		for _, tag := range tags {
			next = next[:0]
			for _, id := range frontier {
				next = ev.store.ChildrenByTag(id, tag, next)
			}
			frontier, next = next, frontier
		}
		codes = codes[:0]
		for _, leaf := range frontier {
			c, ok := ac.AttrCode(leaf, attr)
			if !ok {
				continue
			}
			// An item whose key path yields the same value twice (two
			// interests in one category) must index once: general
			// comparison is existential, not multiplicative. Key fan-out
			// per item is tiny, so a linear scan beats a map.
			dup := false
			for _, prev := range codes {
				if prev == c {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			codes = append(codes, c)
			idx.byCode[c] = append(idx.byCode[c], i)
		}
	}
	ev.sess.putBatchBuf(frontier)
	ev.sess.putBatchBuf(next)
}

// fillKeyIndex is the generic string-keyed build — the same per-item
// evaluation the tuple build runs, kept for key shapes the code index
// cannot prove (computed keys, text() keys, non-node build items).
func (ev *evaluator) fillKeyIndex(idx *joinIndex, n *plan.Node) {
	size := n.BuildCard
	if size == 0 {
		size = len(idx.items)
	}
	idx.byKey = make(map[string][]int, size)
	for i, it := range idx.items {
		envI := (&bindings{}).bind(n.Var, Seq{it})
		seen := map[string]bool{}
		for _, k := range ev.atomizeSeq(ev.eval(n.Probe, envI)) {
			ks := itemString(k)
			if seen[ks] {
				continue
			}
			seen[ks] = true
			idx.byKey[ks] = append(idx.byKey[ks], i)
		}
	}
}

// ---- theta join ----

// thetaIndex memoizes the variable-independent inner side of a planned
// non-equality join: the materialized items and, per item, the atomized
// values of the conjunct's inner-side expression. Keyed by plan-node
// identity in Session.thetaCache, exactly like the hash-join cache.
//
// When the operator is an inequality and every inner key is a NumItem,
// every pair compares numerically (compareAtomics casts the outer value),
// so the index is also typed: general comparison is existential, and
// "some outer value > some inner key" holds iff the largest outer value
// exceeds the smallest inner key (dually for < and <=). num holds each
// item's reduced key and sorted the non-NaN ones ascending; a tuple's
// matches are then one prefix or suffix of sorted, found by binary search.
type thetaIndex struct {
	items Seq
	keys  []Seq
	probe *plan.Node
	// op is the conjunct's comparison normalized to "outer op inner".
	op compareOp
	// num is nil when the index is untyped. Otherwise num[i] is the
	// minimum of item i's keys for > and >=, the maximum for < and <=,
	// ignoring NaN, and NaN when no key remains — NaN satisfies no
	// inequality, so such an item never matches.
	num    []float64
	sorted []float64
}

// thetaOp returns the join's comparison normalized to "outer op inner",
// or ok=false when the conjunct is not a value comparison between the
// join's two sides. Swapping operands and mirroring the operator is exact
// for numbers, strings and booleans alike.
func thetaOp(n *plan.Node) (compareOp, bool) {
	if n.Cond == nil || n.Probe == nil || n.Build == nil {
		return 0, false
	}
	b, ok := n.Cond.Expr.(*xquery.Binary)
	if !ok {
		return 0, false
	}
	op, ok := cmpOpOf[b.Op]
	if !ok {
		return 0, false
	}
	switch n.Probe {
	case n.Cond.Kids[1]:
		return op, true
	case n.Cond.Kids[0]:
		switch op {
		case cmpLt:
			return cmpGt, true
		case cmpLe:
			return cmpGe, true
		case cmpGt:
			return cmpLt, true
		case cmpGe:
			return cmpLe, true
		}
		return op, true
	}
	return 0, false
}

// outerMax reports whether the op's existential test reduces the outer
// values to their maximum (and the inner keys to their minimum).
func outerMax(op compareOp) bool { return op == cmpGt || op == cmpGe }

// extremeOf casts vals to numbers and returns the largest (max) or the
// smallest, ignoring NaN — it never wins a comparison, and a NaN result
// so far is always replaced; NaN when no other value exists.
func extremeOf(vals Seq, max bool) float64 {
	r := math.NaN()
	for _, v := range vals {
		if f := toNumber(v); math.IsNaN(r) || (max && f > r) || (!max && f < r) {
			r = f
		}
	}
	return r
}

// compareNums is compareAtomics' numeric branch for the inequalities.
func compareNums(op compareOp, x, y float64) bool {
	switch op {
	case cmpLt:
		return x < y
	case cmpLe:
		return x <= y
	case cmpGt:
		return x > y
	case cmpGe:
		return x >= y
	}
	return false
}

// matchValues applies the existential general comparison between a
// tuple's outer values and one item's inner keys.
func (idx *thetaIndex) matchValues(bvals, keys Seq) bool {
	for _, b := range bvals {
		for _, p := range keys {
			if compareAtomics(idx.op, b, p) {
				return true
			}
		}
	}
	return false
}

// count returns how many items match a tuple whose atomized outer-side
// values are bvals, without binding any of them: a binary search over
// the sorted keys when the index is typed, a scan of the per-item keys
// otherwise.
func (idx *thetaIndex) count(bvals Seq) int {
	if idx.num == nil {
		n := 0
		for _, keys := range idx.keys {
			if idx.matchValues(bvals, keys) {
				n++
			}
		}
		return n
	}
	b := extremeOf(bvals, outerMax(idx.op))
	if math.IsNaN(b) {
		return 0
	}
	s := idx.sorted
	above := func(i int) bool { return s[i] > b }
	switch idx.op {
	case cmpGt: // keys < b
		return sort.SearchFloat64s(s, b)
	case cmpGe: // keys <= b
		return sort.Search(len(s), above)
	case cmpLt: // keys > b
		return len(s) - sort.Search(len(s), above)
	default: // cmpLe: keys >= b
		return len(s) - sort.SearchFloat64s(s, b)
	}
}

// thetaJoinTupleIter executes a planned OpNLJoin whose conjunct is a value
// comparison: for each outer tuple it evaluates the outer side of the
// comparison once (and, over a typed index, casts it to one number once),
// then tests the memoized inner keys item by item. Output-equivalent to
// the for+where pair it replaces — items emit in sequence order, a
// tuple×item pair emits iff the general comparison holds — but the inner
// sequence evaluates once per session instead of once per outer tuple,
// and the outer key once per tuple instead of once per pair.
type thetaJoinTupleIter struct {
	ev   *evaluator
	in   tupleIter
	node *plan.Node

	idx   *thetaIndex
	tp    *bindings
	bvals Seq
	b     float64 // reduced outer key over a typed index
	i     int
}

func (t *thetaJoinTupleIter) Next() (*bindings, bool) {
	for {
		if t.tp != nil {
			idx := t.idx
			for t.i < len(idx.items) {
				k := t.i
				t.i++
				if idx.num != nil {
					if !compareNums(idx.op, t.b, idx.num[k]) {
						continue
					}
				} else if !idx.matchValues(t.bvals, idx.keys[k]) {
					continue
				}
				return t.tp.bind(t.node.Var, Seq{idx.items[k]}), true
			}
			t.tp = nil
		}
		tp, ok := t.in.Next()
		if !ok {
			return nil, false
		}
		// The index builds on the first tuple, not in the constructor: a
		// join whose outer side is empty never touches the inner sequence,
		// exactly like the for+where pair — which, over an empty inner
		// sequence, never evaluates the outer key either.
		if t.idx == nil {
			t.idx = t.ev.thetaIndexFor(t.node)
		}
		if len(t.idx.items) == 0 {
			continue
		}
		t.tp = tp
		t.i = 0
		t.bvals = t.ev.atomizeSeq(t.ev.eval(t.node.Build, tp))
		if t.idx.num != nil {
			if t.b = extremeOf(t.bvals, outerMax(t.idx.op)); math.IsNaN(t.b) {
				t.tp = nil
			}
		}
	}
}

// runsTheta reports whether this execution runs join through the theta
// operator: the plan marked it vectorized, the batch width is above 1 and
// the conjunct is a value comparison between the join's sides. Otherwise
// the join runs as the for+where pair — and a deferred let over it binds
// as usual, for its count-pushdown Count to drain.
func (ev *evaluator) runsTheta(join *plan.Node) bool {
	if !join.Vectorized || ev.batchSize <= 1 {
		return false
	}
	_, ok := thetaOp(join)
	return ok
}

// thetaCount answers a CountThetaJoin Count: the number of inner items
// the join would emit for the tuple env, which is the length of the let
// binding the planner deferred.
func (ev *evaluator) thetaCount(join *plan.Node, env *bindings) int {
	idx := ev.thetaIndexFor(join)
	if len(idx.items) == 0 {
		return 0
	}
	return idx.count(ev.atomizeSeq(ev.eval(join.Build, env)))
}

// thetaIndexFor returns the session's memoized theta index for the join,
// building it from the batch pipeline on first use.
func (ev *evaluator) thetaIndexFor(n *plan.Node) *thetaIndex {
	if ev.sess.thetaCache == nil {
		ev.sess.thetaCache = make(map[*plan.Node]*thetaIndex)
	}
	if idx := ev.sess.thetaCache[n]; idx != nil && idx.probe == n.Probe {
		return idx
	}
	env := &bindings{}
	var items Seq
	if bi := ev.batchOf(n.Seq, env); bi != nil {
		if n.BuildCard > 0 {
			items = make(Seq, 0, n.BuildCard)
		}
		for ids := bi.nextBatch(); ids != nil; ids = bi.nextBatch() {
			for _, id := range ids {
				items = append(items, NodeItem{ID: id})
			}
		}
	} else {
		items = ev.eval(n.Seq, env)
	}
	op, _ := thetaOp(n)
	idx := &thetaIndex{items: items, keys: make([]Seq, len(items)), probe: n.Probe, op: op}
	numeric := op != cmpEq && op != cmpNeq
	for i, it := range items {
		envI := (&bindings{}).bind(n.Var, Seq{it})
		idx.keys[i] = ev.atomizeSeq(ev.eval(n.Probe, envI))
		for _, k := range idx.keys[i] {
			if _, ok := k.(NumItem); !ok {
				numeric = false
			}
		}
	}
	if numeric {
		idx.num = make([]float64, len(items))
		for i, keys := range idx.keys {
			idx.num[i] = extremeOf(keys, !outerMax(op))
			if !math.IsNaN(idx.num[i]) {
				idx.sorted = append(idx.sorted, idx.num[i])
			}
		}
		sort.Float64s(idx.sorted)
	}
	ev.sess.thetaCache[n] = idx
	return idx
}
