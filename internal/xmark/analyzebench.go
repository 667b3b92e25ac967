package xmark

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
)

// AnalyzePoint is one query × system cell of the instrumentation-cost
// experiment: the same prepared query run tuple-at-a-time without
// instrumentation (the pre-vectorization baseline), at the default batch
// width without instrumentation (the production serving path), and under
// EXPLAIN ANALYZE (every operator wrapped), all three byte-verified
// identical before anything is timed. The analyze run's per-operator
// breakdown is kept hottest-first so perf work can target operators by
// name.
type AnalyzePoint struct {
	System  SystemID `json:"system"`
	QueryID int      `json:"query"`
	// TupleNs is analyze-off at batch width 1; OffNs is analyze-off at
	// the default width; OnNs is the EXPLAIN ANALYZE run. All best-of.
	TupleNs int64 `json:"tuple_ns_op"`
	OffNs   int64 `json:"off_ns_op"`
	// OverheadPct is OnNs vs OffNs: what turning the counters on costs.
	OnNs        int64   `json:"on_ns_op"`
	OverheadPct float64 `json:"overhead_pct"`
	OutBytes    int     `json:"out_bytes"`
	// Reps is the number of interleaved repetitions each best-of took.
	Reps int `json:"reps"`
	// Ops is the analyze run's operator-time breakdown, hottest first.
	Ops []engine.OpBreakdown `json:"ops"`
}

// AnalyzeReport is the BENCH_analyze.json artifact. The totals compare
// the three modes over the whole mix: OffVsTuplePct is the analyze-off
// batch path against the tuple baseline (negative = faster),
// OnVsOffPct is what EXPLAIN ANALYZE itself costs, and
// OffRegressionPct is the regression-only variant the CI gate rides on.
type AnalyzeReport struct {
	Factor        float64        `json:"factor"`
	GoMaxProcs    int            `json:"gomaxprocs"`
	QueryIDs      []int          `json:"queries"`
	Systems       []SystemID     `json:"systems"`
	Points        []AnalyzePoint `json:"points"`
	TotalTupleNs  int64          `json:"total_tuple_ns"`
	TotalOffNs    int64          `json:"total_off_ns"`
	TotalOnNs     int64          `json:"total_on_ns"`
	OffVsTuplePct float64        `json:"off_vs_tuple_pct"`
	OnVsOffPct    float64        `json:"on_vs_off_pct"`
	// OffRegressionPct is the regression-only comparison the CI gate uses:
	// per-cell slowdowns of the analyze-off batch path vs the tuple
	// baseline, summed WITHOUT letting speedups offset them, as a percent
	// of the tuple total. The mix-total OffVsTuplePct went deeply negative
	// once the join family vectorized (Q8-Q12 batch runs ~20x faster), so
	// a plain total would let instrumentation leaks on every other query
	// hide behind the join win; this statistic cannot be masked.
	OffRegressionPct float64 `json:"off_regression_pct"`
}

// RunAnalyzeBench measures the cost of the observability layer over the
// benchmark queries: per cell it byte-verifies that the EXPLAIN ANALYZE
// output matches the uninstrumented output, then times the three modes
// interleaved per repetition (like RunBatchBench, so GC cycles and
// scheduler noise land on all modes alike), keeping each mode's best run.
// Executions are sequential (degree 1): the comparison isolates wrapper
// cost from morsel scheduling.
func (b *Benchmark) RunAnalyzeBench(systems []System, queryIDs []int, reps int) (*AnalyzeReport, error) {
	if len(queryIDs) == 0 {
		queryIDs = make([]int, 20)
		for i := range queryIDs {
			queryIDs[i] = i + 1
		}
	}
	if reps < 1 {
		reps = 1
	}
	report := &AnalyzeReport{
		Factor:     b.Factor,
		GoMaxProcs: maxProcs(),
		QueryIDs:   queryIDs,
	}
	for _, s := range systems {
		report.Systems = append(report.Systems, s.ID)
	}
	instances, err := b.LoadAll(systems)
	if err != nil {
		return nil, err
	}
	var offRegressionNs int64
	for _, inst := range instances {
		for _, qid := range queryIDs {
			prep, err := inst.Engine.Prepare(b.QueryText(qid))
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d: %w", inst.System.ID, qid, err)
			}
			ref, err := serializeBatchString(prep, 1)
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d tuple: %w", inst.System.ID, qid, err)
			}
			off, err := serializeBatchString(prep, 0)
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d batch: %w", inst.System.ID, qid, err)
			}
			var onBuf strings.Builder
			a, err := prep.ExplainAnalyze(&onBuf, engine.NewSession())
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d analyze: %w", inst.System.ID, qid, err)
			}
			if off != ref || onBuf.String() != ref {
				return nil, fmt.Errorf("system %s Q%d: instrumentation changed the output (tuple %d, batch %d, analyze %d bytes)",
					inst.System.ID, qid, len(ref), len(off), len(onBuf.String()))
			}
			pt := AnalyzePoint{System: inst.System.ID, QueryID: qid,
				OutBytes: len(ref), Ops: a.Ops}
			if err := timeAnalyzeCell(prep, reps, &pt); err != nil {
				return nil, err
			}
			if pt.OffNs > 0 {
				pt.OverheadPct = 100 * (float64(pt.OnNs)/float64(pt.OffNs) - 1)
			}
			report.TotalTupleNs += pt.TupleNs
			report.TotalOffNs += pt.OffNs
			report.TotalOnNs += pt.OnNs
			if pt.OffNs > pt.TupleNs {
				offRegressionNs += pt.OffNs - pt.TupleNs
			}
			report.Points = append(report.Points, pt)
		}
	}
	if report.TotalTupleNs > 0 {
		report.OffVsTuplePct = 100 * (float64(report.TotalOffNs)/float64(report.TotalTupleNs) - 1)
		report.OffRegressionPct = 100 * float64(offRegressionNs) / float64(report.TotalTupleNs)
	}
	if report.TotalOffNs > 0 {
		report.OnVsOffPct = 100 * (float64(report.TotalOnNs)/float64(report.TotalOffNs) - 1)
	}
	return report, nil
}

// timeAnalyzeCell times one cell's three modes, interleaved per
// repetition, best-of. Every cell runs at least minReps repetitions, and
// repeats until each mode has accumulated minWindow, so neither a
// sub-millisecond cell nor a 30-55 ms one rests on a handful of samples
// that one scheduler hiccup can skew (the gate sums per-cell regressions,
// so a single noisy slow cell used to decide it).
func timeAnalyzeCell(prep *engine.Prepared, reps int, pt *AnalyzePoint) error {
	const (
		minReps   = 7
		minWindow = 250 * time.Millisecond
		maxReps   = 2000
	)
	reps = max(reps, minReps)
	runtime.GC()
	var totTuple, totOff, totOn time.Duration
	for r := 0; r < reps || (min(totTuple, totOff, totOn) < minWindow && r < maxReps); r++ {
		dTuple, _, err := timeOnce(prep, 1)
		if err != nil {
			return err
		}
		dOff, _, err := timeOnce(prep, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := prep.ExplainAnalyze(io.Discard, engine.NewSession()); err != nil {
			return err
		}
		dOn := time.Since(start)
		totTuple += dTuple
		totOff += dOff
		totOn += dOn
		pt.Reps = r + 1
		if r == 0 || dTuple.Nanoseconds() < pt.TupleNs {
			pt.TupleNs = dTuple.Nanoseconds()
		}
		if r == 0 || dOff.Nanoseconds() < pt.OffNs {
			pt.OffNs = dOff.Nanoseconds()
		}
		if r == 0 || dOn.Nanoseconds() < pt.OnNs {
			pt.OnNs = dOn.Nanoseconds()
		}
	}
	return nil
}

// Render prints the instrumentation-cost table and the mix totals.
func (r *AnalyzeReport) Render(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN ANALYZE cost (factor %g)\n", r.Factor)
	fmt.Fprintf(w, "%-8s %6s %12s %12s %12s %9s  %s\n",
		"system", "query", "tuple ns/op", "off ns/op", "on ns/op", "overhead", "hottest operator")
	for _, p := range r.Points {
		hot := "-"
		if len(p.Ops) > 0 {
			hot = fmt.Sprintf("%s (%.3fms)", p.Ops[0].Op, float64(p.Ops[0].Ns)/1e6)
		}
		fmt.Fprintf(w, "%-8s %6s %12d %12d %12d %8.1f%%  %s\n",
			p.System, fmt.Sprintf("Q%d", p.QueryID), p.TupleNs, p.OffNs, p.OnNs, p.OverheadPct, hot)
	}
	fmt.Fprintf(w, "\nmix totals: tuple %.1fms, analyze-off %.1fms (%+.1f%% vs tuple), analyze-on %.1fms (%+.1f%% vs off)\n",
		float64(r.TotalTupleNs)/1e6, float64(r.TotalOffNs)/1e6, r.OffVsTuplePct,
		float64(r.TotalOnNs)/1e6, r.OnVsOffPct)
	fmt.Fprintf(w, "cell regressions (gate statistic, speedups cannot offset): %.1f%% of tuple total\n",
		r.OffRegressionPct)
}
