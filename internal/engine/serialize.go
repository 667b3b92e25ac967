package engine

import (
	"io"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/tree"
)

// Serialize writes the query result sequence as XML-ish text to w: nodes
// are serialized as markup, adjacent atomic values are separated by a
// single space. Stored nodes are walked through the store interface, so
// result construction pays each architecture's own navigation costs —
// which is the point of Q10 ("the bulk of the work lies in the
// construction of the answer set").
func Serialize(w io.Writer, store nodestore.Store, s Seq) error {
	return SerializeIter(w, store, s.Iter())
}

// SerializeIter drains the result iterator into w, serializing each item
// as it is produced: the sink end of the streaming pipeline. Evaluation
// stops at the first write error.
func SerializeIter(w io.Writer, store nodestore.Store, in Iterator) error {
	iw := NewItemWriter(w, store)
	for {
		it, ok := in.Next()
		if !ok {
			return iw.Err()
		}
		if err := iw.WriteItem(it); err != nil {
			return err
		}
	}
}

// serializeResult is the sink of Prepared executions that serialize: it
// picks the serialization mode the planner chose for this run. Plans whose
// root the vectorize rule marked (and whose batch size admits batching)
// drain through the batch writer — append-only buffer, subtree-batch
// emission, session-recycled buffers; everything else keeps the
// item-at-a-time ItemWriter. Output is byte-identical either way. When the
// execution carries an EXPLAIN ANALYZE profile, the write time lands in
// the Serialize operator's own counter slot.
func (ev *evaluator) serializeResult(w io.Writer, root *plan.Node, it Iterator) error {
	var st *opStats
	if ev.prof != nil {
		st = ev.prof.statsFor(root)
	}
	if root.Vectorized && ev.batchSize > 1 {
		bw := newBatchItemWriter(w, ev.store, ev.sess)
		bw.st = st
		for {
			v, ok := it.Next()
			if !ok {
				return bw.Flush()
			}
			if err := bw.WriteItem(v); err != nil {
				bw.release()
				return err
			}
		}
	}
	iw := NewItemWriter(w, ev.store)
	iw.st = st
	for {
		v, ok := it.Next()
		if !ok {
			return iw.Err()
		}
		if err := iw.WriteItem(v); err != nil {
			return err
		}
	}
}

// ItemWriter serializes a result sequence one item at a time, keeping the
// adjacent-atomic separator state between calls so the concatenated output
// is byte-identical to SerializeIter over the same items. It is the sink
// for consumers that interleave their own logic — cancellation checks,
// flow control — with serialization, e.g. a service worker streaming a
// result while watching its request context.
type ItemWriter struct {
	sw         *errWriter
	store      nodestore.Store
	prevAtomic bool
	wrote      bool
	leadAtomic bool
	// st, when non-nil, accumulates the time spent serializing into the
	// Serialize operator's EXPLAIN ANALYZE counter slot.
	st *opStats
}

// NewItemWriter returns an ItemWriter over w for results of store.
func NewItemWriter(w io.Writer, store nodestore.Store) *ItemWriter {
	return &ItemWriter{sw: &errWriter{w: w}, store: store}
}

// WriteItem serializes one result item. After a write error every further
// call is a no-op returning the same error.
func (iw *ItemWriter) WriteItem(it Item) error {
	var start time.Time
	if iw.st != nil {
		start = time.Now()
	}
	sw, store := iw.sw, iw.store
	switch v := it.(type) {
	case StrItem, NumItem, BoolItem:
		if iw.prevAtomic {
			sw.str(" ")
		}
		sw.str(escapeText(itemString(it)))
		iw.prevAtomic = true
	case AttrItem:
		if iw.prevAtomic {
			sw.str(" ")
		}
		sw.str(escapeText(v.Value))
		iw.prevAtomic = true
	case NodeItem:
		if store.Kind(v.ID) == tree.Text {
			// Text nodes in a result sequence read like atomics:
			// separate adjacent values with a space.
			if iw.prevAtomic {
				sw.str(" ")
			}
			sw.str(escapeText(store.Text(v.ID)))
			iw.prevAtomic = true
			break
		}
		serializeStored(sw, store, v.ID)
		iw.prevAtomic = false
	case DocItem:
		serializeStored(sw, store, store.Root())
		iw.prevAtomic = false
	case *Constructed:
		sw.str(v.Markup)
		iw.prevAtomic = false
	}
	if !iw.wrote {
		iw.wrote, iw.leadAtomic = true, iw.prevAtomic
	}
	if iw.st != nil {
		iw.st.ns += int64(time.Since(start))
	}
	return sw.err
}

// Err returns the first write error, if any.
func (iw *ItemWriter) Err() error { return iw.sw.err }

// LeadAtomic reports whether the first item written was atomic (false
// while nothing has been written). Together with TailAtomic it lets a
// result merger concatenate independently serialized sub-sequences
// byte-identically to one serialization pass: the single-space separator
// between adjacent atomics must be re-inserted exactly when one piece
// ends atomic and the next begins atomic — the shard coordinator's
// document-order concat merge.
func (iw *ItemWriter) LeadAtomic() bool { return iw.leadAtomic }

// TailAtomic reports whether the last item written so far was atomic
// (false while nothing has been written).
func (iw *ItemWriter) TailAtomic() bool { return iw.prevAtomic }

// SerializeString renders the result sequence to a string.
func SerializeString(store nodestore.Store, s Seq) string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = Serialize(&b, store, s)
	return b.String()
}

// SerializeItems serializes a materialized result sequence through one of
// the two emission strategies: vectorized=false drains the tuple
// ItemWriter (recursive per-node navigation, per-call escape), while
// vectorized=true drains the batch writer (append-only buffer, interned
// name bytes, subtree-batch emission, session-recycled buffers). The two
// modes are byte-identical by contract; the function exists so benchmarks
// and tests can compare the serialization stage in isolation from query
// execution. sess supplies the batch writer's recycled buffers and may be
// shared across calls; the tuple mode ignores it.
func SerializeItems(w io.Writer, store nodestore.Store, sess *Session, items []Item, vectorized bool) error {
	if vectorized {
		bw := newBatchItemWriter(w, store, sess)
		for _, it := range items {
			if err := bw.WriteItem(it); err != nil {
				bw.release()
				return err
			}
		}
		return bw.Flush()
	}
	iw := NewItemWriter(w, store)
	for _, it := range items {
		if err := iw.WriteItem(it); err != nil {
			return err
		}
	}
	return iw.Err()
}

// batchFlushThreshold is the buffered byte count at which the batch writer
// flushes to the underlying writer: large enough that flushes amortize to
// nothing, small enough that a streaming consumer sees output in chunks.
const batchFlushThreshold = 32 << 10

// batchItemWriter is the vectorized serializer: an append-only []byte
// writer with the exact separator semantics of ItemWriter. Stored nodes
// emit whole subtrees through the store's subtree-batch capability
// (nodestore.SubtreeAppender — one pre-order range walk, interned
// tag/attribute bytes, escaping only on dirty spans) instead of the
// recursive per-node navigation of serializeStored; the buffer recycles
// through the Session so steady-state serialization allocates nothing.
// Output is byte-identical to ItemWriter over the same items.
type batchItemWriter struct {
	w          io.Writer
	store      nodestore.Store
	sess       *Session
	buf        []byte
	err        error
	prevAtomic bool
	wrote      bool
	leadAtomic bool
	st         *opStats
}

func newBatchItemWriter(w io.Writer, store nodestore.Store, sess *Session) *batchItemWriter {
	return &batchItemWriter{w: w, store: store, sess: sess, buf: sess.getSerBuf()}
}

// WriteItem appends one result item's serialization to the buffer,
// flushing when the threshold is reached.
func (bw *batchItemWriter) WriteItem(it Item) error {
	if bw.err != nil {
		return bw.err
	}
	var start time.Time
	if bw.st != nil {
		start = time.Now()
	}
	switch v := it.(type) {
	case StrItem, NumItem, BoolItem:
		if bw.prevAtomic {
			bw.buf = append(bw.buf, ' ')
		}
		bw.buf = tree.AppendEscapedText(bw.buf, itemString(it))
		bw.prevAtomic = true
	case AttrItem:
		if bw.prevAtomic {
			bw.buf = append(bw.buf, ' ')
		}
		bw.buf = tree.AppendEscapedText(bw.buf, v.Value)
		bw.prevAtomic = true
	case NodeItem:
		if bw.store.Kind(v.ID) == tree.Text {
			if bw.prevAtomic {
				bw.buf = append(bw.buf, ' ')
			}
			bw.buf = tree.AppendEscapedText(bw.buf, bw.store.Text(v.ID))
			bw.prevAtomic = true
			break
		}
		bw.buf = appendSubtree(bw.buf, bw.store, v.ID)
		bw.prevAtomic = false
	case DocItem:
		bw.buf = appendSubtree(bw.buf, bw.store, bw.store.Root())
		bw.prevAtomic = false
	case *Constructed:
		bw.buf = append(bw.buf, v.Markup...)
		bw.prevAtomic = false
	}
	if !bw.wrote {
		bw.wrote, bw.leadAtomic = true, bw.prevAtomic
	}
	if bw.st != nil {
		bw.st.ns += int64(time.Since(start))
	}
	if len(bw.buf) >= batchFlushThreshold {
		bw.flushBuf()
	}
	return bw.err
}

// appendSubtree emits a stored node's whole subtree through the store's
// subtree-batch capability (nodestore.SubtreeAppender), falling back to
// the generic pre-order range walk.
func appendSubtree(dst []byte, store nodestore.Store, n tree.NodeID) []byte {
	if sub, ok := store.(nodestore.SubtreeAppender); ok {
		return sub.AppendSubtree(dst, n)
	}
	return nodestore.AppendSubtreeRange(dst, store, n)
}

// flushBuf writes the buffered bytes and rewinds the buffer.
func (bw *batchItemWriter) flushBuf() {
	if bw.err != nil || len(bw.buf) == 0 {
		return
	}
	_, bw.err = bw.w.Write(bw.buf)
	bw.buf = bw.buf[:0]
}

// Flush writes any remaining buffered bytes and returns the buffer to the
// session's free list.
func (bw *batchItemWriter) Flush() error {
	bw.flushBuf()
	bw.release()
	return bw.err
}

// release hands the buffer back to the session without flushing: the error
// path's cleanup.
func (bw *batchItemWriter) release() {
	bw.sess.putSerBuf(bw.buf)
	bw.buf = nil
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func serializeStored(w *errWriter, store nodestore.Store, n tree.NodeID) {
	if store.Kind(n) == tree.Text {
		w.str(escapeText(store.Text(n)))
		return
	}
	tag := store.Tag(n)
	w.str("<")
	w.str(tag)
	for _, a := range store.Attrs(n) {
		w.str(" ")
		w.str(a.Name)
		w.str(`="`)
		w.str(escapeAttr(a.Value))
		w.str(`"`)
	}
	kids := store.Children(n, nil)
	if len(kids) == 0 {
		w.str("/>")
		return
	}
	w.str(">")
	for _, c := range kids {
		serializeStored(w, store, c)
	}
	w.str("</")
	w.str(tag)
	w.str(">")
}

// escapeText returns s with text-content escaping applied. Clean strings
// (no escapable byte) return as-is with zero allocations; dirty strings
// escape through the span escaper — no per-call Replacer construction.
func escapeText(s string) string {
	if !tree.HasTextSpecials(s) {
		return s
	}
	return string(tree.AppendEscapedText(nil, s))
}

func escapeAttr(s string) string {
	if !tree.HasAttrSpecials(s) {
		return s
	}
	return string(tree.AppendEscapedAttr(nil, s))
}
