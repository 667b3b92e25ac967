package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/xmark"
)

// typoQuery misspells a step of an absolute path, which the summarized
// System D store diagnoses at compile time (paper §7): the query runs,
// returns empty, and carries a warning naming the typo.
const typoQuery = "count(/site/peeple/person)"

// newTestServer loads a tiny single-system catalog synchronously and
// returns a ready server, bypassing main()'s background load.
func newTestServer(t *testing.T) *server {
	t.Helper()
	sysD, err := xmark.SystemByID("D")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := service.Load(0.001, []xmark.System{sysD})
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		factor:  0.001,
		start:   time.Now(),
		timeout: 10 * time.Second,
		slow:    obs.NewSlowLog(8),
	}
	s.cat = cat
	s.ex = service.NewExecutor(cat, service.Config{Workers: 2})
	t.Cleanup(s.ex.Close)
	return s
}

func get(t *testing.T, mux *http.ServeMux, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestQueryWarningsAndRequestID pins the HTTP surfacing of compile-time
// diagnostics and request identity: a typo'd path answers 200 with an
// X-Query-Warnings header naming the bad step, a fresh X-Request-ID is
// minted when the caller sends none, and a caller-supplied ID is echoed.
func TestQueryWarningsAndRequestID(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	path := "/query?" + url.Values{"system": {"D"}, "q": {typoQuery}}.Encode()

	rec := get(t, mux, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if w := rec.Header().Get("X-Query-Warnings"); !strings.Contains(w, "peeple") {
		t.Errorf("X-Query-Warnings = %q, want the typo named", w)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Error("no X-Request-ID minted")
	}

	rec = get(t, mux, path, map[string]string{"X-Request-ID": "caller-7"})
	if id := rec.Header().Get("X-Request-ID"); id != "caller-7" {
		t.Errorf("X-Request-ID = %q, want the caller's echoed", id)
	}

	// A clean benchmark query must carry no warnings header.
	rec = get(t, mux, "/query?system=D&q=8", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("Q8 status %d: %s", rec.Code, rec.Body.String())
	}
	if w := rec.Header().Get("X-Query-Warnings"); w != "" {
		t.Errorf("clean query grew warnings: %q", w)
	}
}

// TestExplainWarningsJSON pins the /explain JSON shape: plan text plus
// the warnings field.
func TestExplainWarningsJSON(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	rec := get(t, mux, "/explain?"+url.Values{"system": {"D"}, "q": {typoQuery}}.Encode(), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		System   string   `json:"system"`
		Plan     string   `json:"plan"`
		Warnings []string `json:"warnings"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if out.System != "D" || out.Plan == "" {
		t.Fatalf("explain = %+v", out)
	}
	if len(out.Warnings) == 0 || !strings.Contains(out.Warnings[0], "peeple") {
		t.Fatalf("warnings = %v, want the typo named", out.Warnings)
	}
}

// TestAnalyzeEndpoint pins /analyze: the annotated plan with runtime
// counters and the execution footer.
func TestAnalyzeEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	rec := get(t, mux, "/analyze?system=D&q=8", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "time=") || !strings.Contains(body, "analyze: exec") {
		t.Fatalf("analyze report lacks counters:\n%s", body)
	}
}

// TestMetricsAndSlowlog drives a query through /query and checks it
// lands in the Prometheus scrape, the slow-query log (with its span
// tree), and the access log.
func TestMetricsAndSlowlog(t *testing.T) {
	s := newTestServer(t)
	var logBuf bytes.Buffer
	s.accessLog = log.New(&logBuf, "", 0)
	mux := s.routes(false)

	rec := get(t, mux, "/query?system=D&q=1", map[string]string{"X-Request-ID": "trace-me"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	rec = get(t, mux, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	scrape := rec.Body.String()
	for _, w := range []string{
		`xq_requests_total{outcome="completed"} 1`,
		`xq_query_exec_seconds_count{system="D",query="Q1"} 1`,
		"xq_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(scrape, w) {
			t.Errorf("scrape is missing %q", w)
		}
	}

	rec = get(t, mux, "/debug/slowlog", nil)
	var slow struct {
		Slowest []obs.SlowLogEntry `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("bad slowlog JSON: %v", err)
	}
	if len(slow.Slowest) != 1 {
		t.Fatalf("slowlog has %d entries, want 1", len(slow.Slowest))
	}
	e := slow.Slowest[0]
	if e.RequestID != "trace-me" || e.System != "D" || e.Query != "Q1" || e.Status != http.StatusOK {
		t.Fatalf("slowlog entry = %+v", e)
	}
	if e.Trace.Name != "request" || len(e.Trace.Children) == 0 {
		t.Fatalf("slowlog entry has no span tree: %+v", e.Trace)
	}

	line := logBuf.String()
	for _, w := range []string{"req=trace-me", "system=D", `q="Q1"`, "status=200", "exec="} {
		if !strings.Contains(line, w) {
			t.Errorf("access log line missing %q: %q", w, line)
		}
	}
}

// TestPanicAnswers500 pins the HTTP side of panic containment: the
// executor's *PanicError maps to 500 without leaking the stack to the
// client, and the stack rides the request's slow-query log entry.
func TestPanicAnswers500(t *testing.T) {
	s := newTestServer(t)
	pe := &service.PanicError{Value: "boom", Stack: "goroutine 7 [running]:\nengine.bug()"}
	req := httptest.NewRequest("GET", "/query?system=D&q=1", nil)
	rec := httptest.NewRecorder()
	if !s.writeQueryError(rec, req, req.Context(), pe, time.Now()) {
		t.Fatal("a PanicError did not finish the request")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("stack leaked to the client: %q", rec.Body.String())
	}

	root := obs.StartSpan("request")
	root.End()
	s.observeSlow("panicky", service.Request{System: "D", QueryID: 1}, rec.Code, 0, time.Millisecond, root, pe.Stack)
	rec = get(t, s.routes(false), "/debug/slowlog", nil)
	var slow struct {
		Slowest []obs.SlowLogEntry `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("bad slowlog JSON: %v", err)
	}
	if len(slow.Slowest) != 1 || slow.Slowest[0].Stack != pe.Stack || slow.Slowest[0].Status != 500 {
		t.Fatalf("slowlog = %+v, want the 500 entry with its stack", slow.Slowest)
	}
}

// TestMalformedQueryAnswers400 pins the parser's stop-at-first-error
// contract at the HTTP surface: short malformed texts that once recursed
// the parser into a fatal stack overflow answer 400, and the server keeps
// serving.
func TestMalformedQueryAnswers400(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	for _, q := range []string{"for $", "let $", "some$", "<a>{for$}</a>", `string-length("&nbsp;")`, "<a>}</a>"} {
		rec := get(t, mux, "/query?"+url.Values{"system": {"D"}, "q": {q}}.Encode(), nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("q=%q: status %d, want 400: %s", q, rec.Code, rec.Body.String())
		}
		rec = get(t, mux, "/query?system=D&q=1", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("after q=%q: Q1 status %d: %s", q, rec.Code, rec.Body.String())
		}
	}
}
