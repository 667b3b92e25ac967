package main

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/words"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// servedSystems are the architectures xqserve loads for the benchmark: B
// (relational path mapping) and D (main-memory DOM with a structural
// summary) cover both storage families without the quadratic Q11/Q12 of
// A, E and F.
var servedSystems = []xmark.SystemID{xmark.SystemB, xmark.SystemD}

// keywordTemplates are the queries keyword-adhoc sends as text: Q14 and
// the hybrid Q21-Q23, each with its "gold" needle replaced.
var keywordTemplates = []int{14, 21, 22, 23}

// request is one distinct HTTP request of a workload. Schedules refer to
// requests by their index in workload.reqs.
type request struct {
	sys xmark.SystemID
	// qid is the benchmark query sent by number (1-20), or 0 for text.
	qid int
	// tmpl is the query the request runs: qid, or the template of the text.
	tmpl   int
	needle string
	text   string
	path   string
}

func numbered(sys xmark.SystemID, qid int) request {
	return request{sys: sys, qid: qid, tmpl: qid,
		path: "/query?system=" + string(sys) + "&q=" + strconv.Itoa(qid)}
}

// adhoc sends template tmpl as query text, with needle in place of its
// "gold" literal ("" keeps the literal).
func adhoc(sys xmark.SystemID, tmpl int, needle string, card xmlgen.Cardinalities) request {
	text := xmark.Query(tmpl).Text(card)
	if needle != "" {
		text = strings.ReplaceAll(text, `"gold"`, `"`+needle+`"`)
	}
	return request{sys: sys, tmpl: tmpl, needle: needle, text: text,
		path: "/query?system=" + string(sys) + "&q=" + url.QueryEscape(text)}
}

// label names the request's (system, query) cell, e.g. "B.Q10".
func (r *request) label() string { return fmt.Sprintf("%s.Q%d", r.sys, r.tmpl) }

// isJoin reports whether the request is one of the join-family queries.
func (r *request) isJoin() bool { return r.qid >= 8 && r.qid <= 12 }

// workload is one traffic mix: its distinct requests, a warm-up that is
// the same for every seed, and either a closed loop of clients dealing
// from shuffled decks or an open-loop arrival schedule.
type workload struct {
	name string
	reqs []request
	// warmup is sent once, untimed, to every fresh server before timing.
	warmup []int
	// clients > 0 makes a closed loop: each client deals from its own
	// stream of shuffled decks holding every index in deck once.
	clients int
	deck    []int
	seed    uint64
	// sched is the open loop's request per arrival, sent at 1/rate
	// intervals over nproc connections.
	sched []int
	rate  float64
}

var workloadNames = []string{"xmark-mix", "output-heavy", "keyword-adhoc"}

// newWorkload builds the named workload's requests and schedule from seed.
// Closed loops draw from shuffled decks rather than independent draws, so
// every seed sends the same mix in a different order and the expensive
// join queries keep their share in every run.
func newWorkload(name string, seed uint64, seconds int, rate float64, card xmlgen.Cardinalities, nproc int) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "xmark-mix", "output-heavy":
		qids := []int{2, 10, 13, 19}
		w.clients = 1
		if name == "xmark-mix" {
			qids = nil
			for q := 1; q <= 20; q++ {
				qids = append(qids, q)
			}
			w.clients = nproc
		}
		for _, sys := range servedSystems {
			for _, q := range qids {
				w.deck = append(w.deck, len(w.reqs))
				w.reqs = append(w.reqs, numbered(sys, q))
			}
		}
		w.warmup = w.deck
	case "keyword-adhoc":
		if rate <= 0 {
			return nil, fmt.Errorf("keyword-adhoc needs a positive -keyword-rate")
		}
		w.rate = rate
		index := map[string]int{}
		add := func(r request) int {
			if i, ok := index[r.path]; ok {
				return i
			}
			index[r.path] = len(w.reqs)
			w.reqs = append(w.reqs, r)
			return len(w.reqs) - 1
		}
		for _, sys := range servedSystems {
			for _, t := range keywordTemplates {
				w.warmup = append(w.warmup, add(adhoc(sys, t, "", card)))
			}
		}
		// (system, template) cells come from shuffled decks like the
		// closed loops' requests; needles are independent Zipf draws.
		s := rng.New(seed).Derive(name)
		zipf := rng.NewZipf(words.VocabularySize, 0.9)
		cells := make([]int, len(servedSystems)*len(keywordTemplates))
		n := int(rate * float64(seconds))
		for i := 0; i < n; i++ {
			if i%len(cells) == 0 {
				cells = s.Perm(len(cells))
			}
			c := cells[i%len(cells)]
			sys, t := servedSystems[c/len(keywordTemplates)], keywordTemplates[c%len(keywordTemplates)]
			w.sched = append(w.sched, add(adhoc(sys, t, words.WordAt(zipf.Sample(s)), card)))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// dealer yields one closed-loop client's request sequence.
type dealer struct {
	s    *rng.Stream
	deck []int
	pos  int
}

// dealer returns client c's sequence; equal seeds give equal sequences.
func (w *workload) dealer(c int) *dealer {
	d := &dealer{s: rng.New(w.seed).DeriveN(w.name, uint64(c)), deck: append([]int(nil), w.deck...)}
	d.pos = len(d.deck)
	return d
}

func (d *dealer) next() int {
	if d.pos == len(d.deck) {
		d.s.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.pos = 0
	}
	d.pos++
	return d.deck[d.pos-1]
}
