package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/xmark"
	"repro/internal/xquery"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; set-up spans have Req -1.
type span struct {
	Name       string
	Req        int
	Parent     int
	Start, End int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) finish(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// setupInfo is what the traced set-up path measured.
type setupInfo struct {
	loadS      map[xmark.SystemID]float64
	storeBytes map[xmark.SystemID]int64
	prepareS   float64
	metaProbes int
}

// traceSetup loads each served system and prepares the twenty benchmark
// queries on it, as service.LoadDoc does, with a span around each call.
func traceSetup(tr *tracer, b *xmark.Benchmark) (setupInfo, error) {
	info := setupInfo{loadS: map[xmark.SystemID]float64{}, storeBytes: map[xmark.SystemID]int64{}}
	var prepare time.Duration
	for _, id := range servedSystems {
		sys, err := xmark.SystemByID(id)
		if err != nil {
			return info, err
		}
		sp := tr.begin("setup.load."+string(id), -1, -1)
		inst, err := sys.Load(b.DocText)
		tr.finish(sp)
		if err != nil {
			return info, fmt.Errorf("loading system %s: %w", id, err)
		}
		info.loadS[id] = tr.spans[sp].dur().Seconds()
		info.storeBytes[id] = inst.Stats.SizeBytes
		sp = tr.begin("setup.prepare."+string(id), -1, -1)
		for _, q := range xmark.Queries() {
			prep, err := inst.Engine.Prepare(b.QueryText(q.ID))
			if err != nil {
				tr.finish(sp)
				return info, fmt.Errorf("preparing Q%d on %s: %w", q.ID, id, err)
			}
			info.metaProbes += prep.MetaProbes
		}
		tr.finish(sp)
		prepare += tr.spans[sp].dur()
	}
	info.prepareS = prepare.Seconds()
	return info, nil
}

// reqProfile is one distinct request's in-process measurement: the means
// over its replays of each span, and its analyzed row count.
type reqProfile struct {
	reps                  int
	prepare, parse, plan  time.Duration
	exec, serialize       time.Duration
	bytes, items, rowsSum int64
}

// replayInProcess replays every request of the schedule on cat, in the
// order the server's executor calls the layers: the plan cache or a fresh
// compile (service.prepare), StreamSession into a slice (engine.exec) and
// the served ItemWriter over those items (engine.serialize). Ad-hoc
// requests also run xquery.Parse and plan.Compile+Optimize on their own,
// so the two halves of their compile show separately. Each request then
// runs once more under EXPLAIN ANALYZE for its operator row counts.
// Request i is replayed min(3, counts[i]) times; results are weighted by
// counts[i]. Every serialized result is checked against its reference.
func replayInProcess(tr *tracer, cat *service.Catalog, w *workload, counts []int, refs []reference, degree int) ([]reqProfile, error) {
	profs := make([]reqProfile, len(w.reqs))
	shared := engine.NewSession()
	var items []engine.Item
	var buf bytes.Buffer
	for i, n := range counts {
		if n == 0 {
			continue
		}
		r := &w.reqs[i]
		inst, err := cat.Instance(r.sys)
		if err != nil {
			return nil, err
		}
		store := inst.Engine.Store()
		p := &profs[i]
		p.reps = min(3, n)
		var prep *engine.Prepared
		for rep := 0; rep < p.reps; rep++ {
			root := tr.begin("request", i, -1)
			sp := tr.begin("service.prepare", i, root)
			if r.qid != 0 {
				prep, err = cat.Prepared(r.sys, r.qid)
			} else {
				prep, err = cat.PrepareText(r.sys, r.text)
			}
			tr.finish(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.label(), err)
			}
			p.prepare += tr.spans[sp].dur()
			sess := shared
			if r.qid == 0 {
				sess = engine.NewSession()
				sp = tr.begin("xquery.parse", i, root)
				q, err := xquery.Parse(r.text)
				tr.finish(sp)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", r.label(), err)
				}
				p.parse += tr.spans[sp].dur()
				opts := inst.Engine.Options()
				sp = tr.begin("plan.compile", i, root)
				plan.Compile(q, opts, store).Optimize(opts, store)
				tr.finish(sp)
				p.plan += tr.spans[sp].dur()
			}
			sess.Degree = degree

			items = items[:0]
			sp = tr.begin("engine.exec", i, root)
			err = prep.StreamSession(sess, func(it engine.Item) bool {
				items = append(items, it)
				return true
			})
			tr.finish(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.label(), err)
			}
			p.exec += tr.spans[sp].dur()

			buf.Reset()
			sp = tr.begin("engine.serialize", i, root)
			iw := engine.NewItemWriter(&buf, store)
			for _, it := range items {
				if iw.WriteItem(it) != nil {
					break
				}
			}
			tr.finish(sp)
			if err := iw.Err(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.label(), err)
			}
			p.serialize += tr.spans[sp].dur()
			tr.finish(root)
			sess.Reset()

			buf.WriteByte('\n')
			if referenceOf(buf.Bytes()) != refs[i] {
				return nil, fmt.Errorf("in-process replay of %s %s differs from its reference", r.label(), r.needle)
			}
		}
		p.bytes = int64(buf.Len())
		p.items = int64(len(items))
		asess := engine.NewSession()
		asess.Degree = degree
		a, err := prep.ExplainAnalyze(io.Discard, asess)
		if err != nil {
			return nil, fmt.Errorf("%s analyze: %w", r.label(), err)
		}
		for _, op := range a.Ops {
			p.rowsSum += op.Rows
		}
		reps := time.Duration(p.reps)
		p.prepare, p.parse, p.plan = p.prepare/reps, p.parse/reps, p.plan/reps
		p.exec, p.serialize = p.exec/reps, p.serialize/reps
	}
	return profs, nil
}

// layerMetrics derives the engine, parse and compile metrics from the
// profiles, each request weighted by how often the schedule sends it.
func layerMetrics(w *workload, counts []int, profs []reqProfile, m metrics) {
	var total, adhoc, joins, other, ser, bytesOut, rows, items, parse, compile float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		p, wt := &profs[i], float64(n)
		total += wt
		if w.reqs[i].qid == 0 {
			adhoc += wt
			parse += wt * float64(p.parse)
			compile += wt * float64(p.plan)
		}
		if w.reqs[i].isJoin() {
			joins += wt * float64(p.exec)
		} else {
			other += wt * float64(p.exec)
		}
		ser += wt * float64(p.serialize)
		bytesOut += wt * float64(p.bytes)
		rows += wt * float64(p.rowsSum)
		items += wt * float64(p.items)
	}
	m.set("engine.exec_ms.joins", ratio(joins, total)/1e6, "ms")
	m.set("engine.exec_ms.other", ratio(other, total)/1e6, "ms")
	m.set("engine.exec_share.joins", ratio(joins, joins+other), "ratio")
	m.set("engine.serialize_ms", ratio(ser, total)/1e6, "ms")
	m.set("engine.serialize_mb_s", ratio(bytesOut/1e6, ser/1e9), "MB/s")
	m.set("engine.rows_per_item", ratio(rows, items), "ratio")
	m.set("xquery.parse_us", ratio(parse, adhoc)/1e3, "us")
	m.set("plan.compile_us", ratio(compile, adhoc)/1e3, "us")
}

// spanReport renders the span self times: per span name, the time per
// scheduled request (set-up spans once), and per (system, query) cell the
// mean prepare, exec and serialize times.
func spanReport(out io.Writer, tr *tracer, w *workload, counts []int, profs []reqProfile) {
	total := 0
	for _, n := range counts {
		total += n
	}
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	type agg struct{ dur, self float64 }
	byName := map[string]*agg{}
	var names []string
	for i, s := range tr.spans {
		wt := 1.0
		if s.Req >= 0 {
			wt = float64(counts[s.Req]) / float64(profs[s.Req].reps) / float64(total)
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.dur += wt * float64(s.dur())
		a.self += wt * float64(s.dur()-child[i])
	}
	fmt.Fprintf(out, "span self time (request spans: ms per scheduled request, weighted by schedule; setup spans: ms once)\n")
	fmt.Fprintf(out, "  %-22s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(out, "  %-22s %12.4f %12.4f\n", n, byName[n].dur/1e6, byName[n].self/1e6)
	}

	type cell struct {
		n                          int
		prepare, exec, ser, outLen float64
	}
	cells := map[string]*cell{}
	var labels []string
	for i, n := range counts {
		if n == 0 {
			continue
		}
		l := w.reqs[i].label()
		c := cells[l]
		if c == nil {
			c = &cell{}
			cells[l] = c
			labels = append(labels, l)
		}
		p, wt := &profs[i], float64(n)
		c.n += n
		c.prepare += wt * float64(p.prepare)
		c.exec += wt * float64(p.exec)
		c.ser += wt * float64(p.serialize)
		c.outLen += wt * float64(p.bytes)
	}
	sort.Strings(labels)
	fmt.Fprintf(out, "per cell (mean per request)\n  %-8s %6s %12s %12s %14s %10s %s\n",
		"cell", "count", "prepare_ms", "exec_ms", "serialize_ms", "bytes", "")
	for _, l := range labels {
		c := cells[l]
		n := float64(c.n)
		note := ""
		if c.ser > c.exec {
			note = "serialize > exec"
		}
		fmt.Fprintf(out, "  %-8s %6d %12.4f %12.4f %14.4f %10.0f %s\n",
			l, c.n, c.prepare/n/1e6, c.exec/n/1e6, c.ser/n/1e6, c.outLen/n, note)
	}
}

// spansJSON renders the spans, one object per line.
func spansJSON(tr *tracer, w *workload) string {
	var b strings.Builder
	for _, s := range tr.spans {
		label := "setup"
		if s.Req >= 0 {
			label = w.reqs[s.Req].label()
		}
		fmt.Fprintf(&b, `{"name":%q,"req":%d,"cell":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Name, s.Req, label, s.Parent, s.Start, s.End)
	}
	return b.String()
}
