package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/xmark"
)

// reference is the expected response body of one request.
type reference struct {
	n   int
	sum [sha256.Size]byte
}

func referenceOf(body []byte) reference { return reference{len(body), sha256.Sum256(body)} }

// computeReferences serializes every request in-process on nproc
// goroutines. Numbered requests run on their own system through the batch
// serializer (the server streams through ItemWriter). Ad-hoc keyword
// requests run on scanRef, the scan-only system, so the served index
// pushdown is checked against a scan. Bodies end in a newline, as the
// server writes them.
func computeReferences(cat *service.Catalog, reqs []request, scanRef xmark.SystemID, nproc int) ([]reference, error) {
	refs := make([]reference, len(reqs))
	errs := make([]error, nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				var prep *engine.Prepared
				var err error
				if r.qid != 0 {
					prep, err = cat.Prepared(r.sys, r.qid)
				} else {
					prep, err = cat.PrepareText(scanRef, r.text)
				}
				if err == nil {
					buf.Reset()
					err = prep.SerializeSession(&buf, engine.NewSession())
				}
				if err != nil {
					errs[g] = fmt.Errorf("reference for %s %s: %w", r.label(), r.needle, err)
					return
				}
				buf.WriteByte('\n')
				refs[i] = referenceOf(buf.Bytes())
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// sample is one request as the client saw it. Times are offsets from the
// start of the run.
type sample struct {
	req int
	// due is when the request was scheduled to be sent (the send time in
	// a closed loop), sent when it was sent, end when its last body byte
	// arrived.
	due, sent, end time.Duration
	bytes          int
	ok             bool
	// wait and exec are the server's X-Query-Wait and X-Query-Exec,
	// recorded only by a traced replay.
	wait, exec time.Duration
}

func (s *sample) latency() time.Duration { return s.end - s.due }

// loadClient sends requests over at most conns keep-alive connections and
// verifies every body against its reference.
type loadClient struct {
	hc     *http.Client
	base   string
	reqs   []request
	refs   []reference
	traced bool
}

func newLoadClient(base string, reqs []request, refs []reference, conns int, traced bool) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base: base, reqs: reqs, refs: refs, traced: traced}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends request i and fills s.sent, s.end, s.bytes and s.ok. A
// transport error, a status other than 200 or a body that differs from
// the reference leaves s.ok false.
func (c *loadClient) do(i int, t0 time.Time, buf *bytes.Buffer, s *sample) {
	s.req = i
	s.sent = time.Since(t0)
	resp, err := c.hc.Get(c.base + c.reqs[i].path)
	if err != nil {
		s.end = time.Since(t0)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.end = time.Since(t0)
	s.bytes = buf.Len()
	s.ok = err == nil && resp.StatusCode == http.StatusOK && referenceOf(buf.Bytes()) == c.refs[i]
	if c.traced {
		// Only 200s carry the headers; a failed request fails the replay.
		s.wait, _ = time.ParseDuration(resp.Header.Get("X-Query-Wait"))
		s.exec, _ = time.ParseDuration(resp.Header.Get("X-Query-Exec"))
	}
}

// sequential sends the requests one after another, e.g. the warm-up.
func (c *loadClient) sequential(idx []int) []sample {
	var buf bytes.Buffer
	out := make([]sample, len(idx))
	t0 := time.Now()
	for k, i := range idx {
		c.do(i, t0, &buf, &out[k])
		out[k].due = out[k].sent
	}
	return out
}

// closedLoop runs w.clients clients, each sending its next request as
// soon as the previous one completed. With limit nil every client stops
// starting requests after d; otherwise client c sends exactly limit[c]
// requests (a replay of an earlier run). It returns every sample, each
// client's request count, and the wall time until the last response.
func (c *loadClient) closedLoop(w *workload, d time.Duration, limit []int) ([]sample, []int, time.Duration) {
	per := make([][]sample, w.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < w.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var buf bytes.Buffer
			deal := w.dealer(cl)
			for k := 0; ; k++ {
				if limit == nil && time.Since(t0) >= d || limit != nil && k >= limit[cl] {
					return
				}
				var s sample
				c.do(deal.next(), t0, &buf, &s)
				s.due = s.sent
				per[cl] = append(per[cl], s)
			}
		}(cl)
	}
	wg.Wait()
	var all []sample
	counts := make([]int, w.clients)
	var wall time.Duration
	for cl, ss := range per {
		counts[cl] = len(ss)
		all = append(all, ss...)
		for _, s := range ss {
			wall = max(wall, s.end)
		}
	}
	return all, counts, wall
}

// openLoop sends w.sched at w.rate requests per second over conns
// senders. A request whose turn comes while every sender is busy waits in
// the client; its latency still counts from its scheduled time.
func (c *loadClient) openLoop(w *workload, conns int) ([]sample, time.Duration) {
	out := make([]sample, len(w.sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1)) - 1
				if k >= len(w.sched) {
					return
				}
				due := time.Duration(float64(k) / w.rate * float64(time.Second))
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				c.do(w.sched[k], t0, &buf, &out[k])
				out[k].due = due
			}
		}()
	}
	wg.Wait()
	var wall time.Duration
	for _, s := range out {
		wall = max(wall, s.end)
	}
	return out, wall
}
