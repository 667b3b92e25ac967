// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real xqserve binary on loopback, fresh for every run, drives it with one
// of three seeded request schedules, verifies every response byte for byte
// against references computed in-process, and prints what a client sees.
// With -trace 1 it instead reports per-layer metrics: it replays the
// schedule over HTTP collecting the server's timing headers and /stats
// counters, then replays every request in-process with spans around the
// calls into each layer.
//
// Build and run it through run.sh from the root of the repository:
//
//	bash e2ebench/run.sh --keyword-rate 100 --workload xmark-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, every metric and how to read the reports.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/xmark"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold on it.
const heldOutSeed = 900001

// setupStarts is how many fresh servers a run starts to take the median
// set-up time; the last one serves the timed run.
const setupStarts = 3

type config struct {
	workload    string
	seed        uint64
	seconds     int
	trace       int
	factor      float64
	keywordRate float64
	xqserve     string
	out         string
	corruptRef  bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	set := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	set.SetOutput(stderr)
	set.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	set.Uint64Var(&c.seed, "seed", 1, "schedule seed")
	set.IntVar(&c.seconds, "seconds", 10, "length of the timed run in seconds")
	set.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced replays")
	set.Float64Var(&c.factor, "factor", 0.1, "XMark scaling factor of the served document")
	set.Float64Var(&c.keywordRate, "keyword-rate", 0, "keyword-adhoc arrival rate in requests per second")
	set.StringVar(&c.xqserve, "xqserve", ".bench_build/xqserve", "xqserve binary")
	set.StringVar(&c.out, "out", ".bench_build/e2ebench", "directory for the run report and spans")
	set.BoolVar(&c.corruptRef, "corrupt-ref", false, "self-test: corrupt every reference, so the run must fail")
	if err := set.Parse(args); err != nil {
		return c, err
	}
	switch {
	case c.seconds < 1:
		return c, errors.New("-seconds must be at least 1")
	case c.trace != 0 && c.trace != 1:
		return c, errors.New("-trace must be 0 or 1")
	case c.factor <= 0:
		return c, errors.New("-factor must be positive")
	}
	if _, err := os.Stat(c.xqserve); err != nil {
		return c, fmt.Errorf("xqserve binary: %w", err)
	}
	return c, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 when every
// response was verified, 1 on any failure, 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runner holds one benchmark run's inputs.
type runner struct {
	cfg   config
	nproc int
	// flags are the xqserve flags after -addr.
	flags []string
	doc   *xmark.Benchmark
	w     *workload
	refs  []reference
	// conns is the client's connection count; degree is the intra-query
	// parallelism the server grants each request under this load.
	conns, degree int
	tr            *tracer
	out           io.Writer
}

// timedRun is what one timed loop measured.
type timedRun struct {
	samples []sample
	// clientCounts is each closed-loop client's request count.
	clientCounts []int
	wall         time.Duration
	clientCPU    time.Duration
}

// bench runs the workload and returns its result. The report goes to
// stdout and to a file under cfg.out, with the spans of a traced run.
func bench(cfg config, stdout io.Writer) (*result, error) {
	r := &runner{cfg: cfg, nproc: runtime.NumCPU(), tr: newTracer(),
		flags: []string{"-factor", fmt.Sprint(cfg.factor), "-systems", "BD"}}
	sp := r.tr.begin("setup.generate", -1, -1)
	r.doc = xmark.NewBenchmark(cfg.factor)
	r.tr.finish(sp)
	var err error
	if r.w, err = newWorkload(cfg.workload, cfg.seed, cfg.seconds, cfg.keywordRate, r.doc.Card, r.nproc); err != nil {
		return nil, err
	}
	// Open-loop arrivals mostly find the server idle, so each gets the
	// whole parallelism pool; closed-loop clients split it.
	r.conns, r.degree = r.w.clients, max(1, r.nproc/max(r.w.clients, 1))
	if r.w.rate > 0 {
		r.conns, r.degree = r.nproc, r.nproc
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var report strings.Builder
	r.out = io.MultiWriter(stdout, &report)
	envLine, err := json.Marshal(environment(cfg, r.nproc, r.flags))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.out, "# env %s\n", envLine)

	// References first, on a catalog that is dropped before any server
	// starts, so the client holds no document while it measures.
	systems := servedSystems
	if r.w.rate > 0 {
		systems = []xmark.SystemID{xmark.SystemB, xmark.SystemD, xmark.SystemF}
	}
	cat, err := loadCatalog(r.doc, systems)
	if err != nil {
		return nil, err
	}
	if r.refs, err = computeReferences(cat, r.w.reqs, xmark.SystemF, r.nproc); err != nil {
		return nil, err
	}
	if cfg.corruptRef {
		for i := range r.refs {
			r.refs[i].n++
		}
	}
	runtime.GC()
	debug.FreeOSMemory()

	// Set-up time is the median of several fresh starts; the last server
	// started serves the timed run, so every run starts from a new process.
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for k := 0; k < setupStarts; k++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startServer(cfg.xqserve, r.flags); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	t, warmFailed := r.timed(srv, nil)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	samples := t.samples
	res := &result{Attempted: len(samples), Failed: countFailed(samples)}
	res.Correct = res.Failed == 0 && warmFailed == 0
	lat := latenciesMs(samples)
	e2e := metrics{}
	e2e.set("throughput_qps", float64(len(samples)-res.Failed)/t.wall.Seconds(), "req/s")
	e2e.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	e2e.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	e2e.set("setup_s", median(setups), "s")
	e2e.set("server_rss_mb", rss, "MB")

	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = float64(s.sent-s.due) / 1e6
	}
	sort.Float64s(lags)
	layers := metrics{}
	layers.set("error_rate", float64(res.Failed)/float64(len(samples)), "ratio")
	layers.set("client.cpu_s", t.clientCPU.Seconds(), "s")
	layers.set("client.lag_ms.p99", quantile(lags, 0.99), "ms")
	counts := make([]int, len(r.w.reqs))
	probes := 0
	for _, s := range samples {
		if counts[s.req] == 0 && r.w.reqs[s.req].qid == 0 {
			probes++
		}
		counts[s.req]++
	}
	layers.set("fulltext.distinct_probes", float64(probes), "count")

	fmt.Fprintf(r.out, "workload %s seed %d: %d requests in %.3f s, %d failed, %d warm-up failed\n",
		r.w.name, cfg.seed, len(samples), t.wall.Seconds(), res.Failed, warmFailed)
	printMetrics(r.out, e2e)
	printMetrics(r.out, layers)
	if beyond := float64(len(lat)) * 0.01; beyond < 10 {
		fmt.Fprintf(r.out, "note: latency_p99_ms has only %.1f samples beyond it (want 10)\n", beyond)
	}
	if share := t.clientCPU.Seconds() / (t.wall.Seconds() * float64(r.nproc)); share >= 0.25 {
		fmt.Fprintf(r.out, "note: client_saturated: the load generator used %.0f%% of all CPU time\n", share*100)
	}
	perCellP50(r.out, r.w, samples)

	res.Metrics = e2e
	if cfg.trace == 1 {
		res.Metrics = layers
		if err := r.traced(t, counts, e2e, layers); err != nil {
			return nil, err
		}
		printMetrics(r.out, layers)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.txt", r.w.name, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), []byte(report.String()), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// timed sends the warm-up to srv, then runs the workload's loop for
// cfg.seconds, or, given prev, replays prev's requests with the timing
// headers recorded. It returns the run and the failed warm-up count.
func (r *runner) timed(srv *server, prev *timedRun) (*timedRun, int) {
	cl := newLoadClient(srv.base, r.w.reqs, r.refs, r.conns, prev != nil)
	defer cl.close()
	warmFailed := countFailed(cl.sequential(r.w.warmup))
	t := &timedRun{}
	cpu0 := cpuTime()
	switch {
	case r.w.rate > 0:
		t.samples, t.wall = cl.openLoop(r.w, r.conns)
	case prev != nil:
		t.samples, t.clientCounts, t.wall = cl.closedLoop(r.w, 0, prev.clientCounts)
	default:
		t.samples, t.clientCounts, t.wall = cl.closedLoop(r.w, time.Duration(r.cfg.seconds)*time.Second, nil)
	}
	t.clientCPU = cpuTime() - cpu0
	return t, warmFailed
}

// loadCatalog loads the given systems from the generated document.
func loadCatalog(doc *xmark.Benchmark, ids []xmark.SystemID) (*service.Catalog, error) {
	var systems []xmark.System
	for _, id := range ids {
		sys, err := xmark.SystemByID(id)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	return service.LoadDoc(doc.DocText, doc.Card, doc.Factor, systems)
}

// traced adds the per-layer metrics to m. It replays the timed run's
// schedule over HTTP on a fresh server, reading the timing headers and the
// /stats counters, then traces the set-up path and replays every request
// in-process with spans, which it writes to cfg.out.
func (r *runner) traced(prev *timedRun, counts []int, e2e, m metrics) error {
	srv, err := startServer(r.cfg.xqserve, r.flags)
	if err != nil {
		return err
	}
	defer srv.stop()
	before, err := srv.snapshot()
	if err != nil {
		return err
	}
	t, warmFailed := r.timed(srv, prev)
	after, err := srv.snapshot()
	if err != nil {
		return err
	}
	srv.stop()
	if n := countFailed(t.samples) + warmFailed; n > 0 {
		return fmt.Errorf("traced replay: %d requests failed", n)
	}
	var overhead, exec, wait []float64
	var respBytes float64
	for _, s := range t.samples {
		respBytes += float64(s.bytes)
		exec = append(exec, float64(s.exec)/1e6)
		wait = append(wait, float64(s.wait)/1e6)
		if r.w.rate > 0 || r.w.reqs[s.req].qid != 0 {
			overhead = append(overhead, float64(s.end-s.sent-s.wait-s.exec)/1e6)
		}
	}
	for _, v := range [][]float64{overhead, exec, wait} {
		sort.Float64s(v)
	}
	// The /stats deltas include the warm-up, which is the same every run.
	hits := float64(after.BufPoolHits - before.BufPoolHits)
	misses := float64(after.BufPoolMisses - before.BufPoolMisses)
	m.set("xqserve.overhead_ms.p50", quantile(overhead, 0.5), "ms")
	m.set("xqserve.resp_bytes", respBytes/float64(len(t.samples)), "bytes")
	m.set("service.exec_ms.p50", quantile(exec, 0.5), "ms")
	m.set("service.exec_ms.p99", quantile(exec, 0.99), "ms")
	m.set("service.queue_wait_ms.p99", quantile(wait, 0.99), "ms")
	m.set("service.buf_pool_hit_rate", ratio(hits, hits+misses), "ratio")
	m.set("service.failed", float64(after.Failed-before.Failed), "count")
	m.set("service.rejected", float64(after.Rejected-before.Rejected), "count")
	m.set("service.canceled", float64(after.Canceled-before.Canceled), "count")
	m.set("trace.overhead_ms.p50", quantile(latenciesMs(t.samples), 0.5)-e2e["latency_p50_ms"].Value, "ms")

	info, err := traceSetup(r.tr, r.doc)
	if err != nil {
		return err
	}
	m.set("setup.generate_s", r.tr.spans[0].dur().Seconds(), "s")
	m.set("setup.load_s.B", info.loadS[xmark.SystemB], "s")
	m.set("setup.load_s.D", info.loadS[xmark.SystemD], "s")
	m.set("setup.prepare_s", info.prepareS, "s")
	m.set("store.bytes.B", float64(info.storeBytes[xmark.SystemB]), "bytes")
	m.set("store.bytes.D", float64(info.storeBytes[xmark.SystemD]), "bytes")
	m.set("plan.meta_probes", float64(info.metaProbes), "count")

	cat, err := loadCatalog(r.doc, servedSystems)
	if err != nil {
		return err
	}
	var ixBytes, ixMs float64
	for _, ix := range cat.TextIndexes() {
		ixBytes += float64(ix.Bytes)
		ixMs += ix.BuildMs
	}
	m.set("fulltext.index_bytes", ixBytes, "bytes")
	m.set("fulltext.build_ms", ixMs, "ms")
	profs, err := replayInProcess(r.tr, cat, r.w, counts, r.refs, r.degree)
	if err != nil {
		return err
	}
	layerMetrics(r.w, counts, profs, m)
	spanReport(r.out, r.tr, r.w, counts, profs)
	name := fmt.Sprintf("%s-seed%d.spans.jsonl", r.w.name, r.cfg.seed)
	return os.WriteFile(filepath.Join(r.cfg.out, name), []byte(spansJSON(r.tr, r.w)), 0o644)
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// latenciesMs returns the samples' latencies in milliseconds, sorted.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latency()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// ratio is a/b, or 0 when b is 0, so no metric is NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func printMetrics(out io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// perCellP50 prints the timed run's p50 latency per (system, query) cell.
// These lines are diagnostics, never gated.
func perCellP50(out io.Writer, w *workload, ss []sample) {
	by := map[string][]float64{}
	for _, s := range ss {
		l := w.reqs[s.req].label()
		by[l] = append(by[l], float64(s.latency())/1e6)
	}
	labels := make([]string, 0, len(by))
	for l := range by {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		v := by[l]
		sort.Float64s(v)
		fmt.Fprintf(out, "  %s.%s.p50_ms %.4f (n=%d)\n", w.name, l, quantile(v, 0.5), len(v))
	}
}

// env is the environment header printed before every result.
type env struct {
	Commit       string   `json:"commit"`
	Dirty        string   `json:"dirty"`
	SourceSHA256 string   `json:"source_sha256"`
	GoVersion    string   `json:"go_version"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NProc        int      `json:"nproc"`
	CPUModel     string   `json:"cpu_model"`
	Factor       float64  `json:"factor"`
	XqserveFlags []string `json:"xqserve_flags"`
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	HeldOutSeed  uint64   `json:"held_out_seed"`
	Seconds      int      `json:"seconds"`
	KeywordRate  float64  `json:"keyword_rate,omitempty"`
	Trace        int      `json:"trace"`
}

func environment(cfg config, nproc int, flags []string) env {
	e := env{Commit: "unknown", Dirty: "unknown", SourceSHA256: sourceDigest(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc,
		CPUModel: "unknown", Factor: cfg.factor, XqserveFlags: flags, Workload: cfg.workload,
		Seed: cfg.seed, HeldOutSeed: heldOutSeed, Seconds: cfg.seconds, Trace: cfg.trace}
	if cfg.workload == "keyword-adhoc" {
		e.KeywordRate = cfg.keywordRate
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a repository rooted here names the code under test; a plain
	// checkout is identified by source_sha256 alone.
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if err == nil && strings.TrimSpace(string(top)) == wd {
		if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(head))
		}
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			e.Dirty = fmt.Sprint(len(st) > 0)
		}
	}
	return e
}

// sourceDigest hashes go.mod and every Go file under cmd and internal,
// which identifies the program even in a checkout without git metadata.
func sourceDigest() string {
	h := sha256.New()
	paths := []string{"go.mod"}
	for _, dir := range []string{"cmd", "internal"} {
		// A file the walk cannot reach is missing from the digest; the
		// ReadFile below reports any listed file it cannot read.
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
