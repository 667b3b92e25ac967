package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmlgen"
)

// xqserveBin is built once for every test from the repository's source.
var xqserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test")
	if err != nil {
		panic(err)
	}
	xqserveBin = filepath.Join(dir, "xqserve")
	build := exec.Command("go", "build", "-o", xqserveBin, "./cmd/xqserve")
	build.Dir = ".."
	build.Stderr = os.Stderr
	code := 1
	if build.Run() == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSmall runs one tiny-factor, one-second benchmark run.
func runSmall(t *testing.T, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"-seed", "7", "-seconds", "1", "-factor", "0.005", "-keyword-rate", "40",
		"-xqserve", xqserveBin, "-out", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code != 2 {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

// contractNames returns the metric names ../BENCHMARK.json lists under key.
func contractNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload in both modes and checks that each run
// verifies every response and reports exactly the metrics BENCHMARK.json
// lists for its mode, with their units.
func TestSmoke(t *testing.T) {
	for trace, key := range []string{"end_to_end", "per_layer"} {
		want := contractNames(t, key)
		for _, wl := range workloadNames {
			code, res, log := runSmall(t, "-workload", wl, "-trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: exit %d, result %+v\n%s", wl, trace, code, res, log)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %d metrics\n got %v\nwant %v", wl, trace, got, want)
			}
		}
	}
}

// TestCorruptReferenceFails proves the verification gate can fail: with
// every reference corrupted, each response counts as failed and the run
// exits non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	for _, wl := range workloadNames {
		code, res, log := runSmall(t, "-workload", wl, "-corrupt-ref")
		if code == 0 || res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
			t.Errorf("%s with corrupted references: exit %d, result %+v\n%s", wl, code, res, log)
		}
	}
}

// TestScheduleIsAFunctionOfTheSeed checks that equal seeds give equal
// request sequences and different seeds different ones.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	seq := func(wl string, seed uint64) string {
		w, err := newWorkload(wl, seed, 2, 50, testCard, 2)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if w.rate > 0 {
			for _, i := range w.sched {
				b.WriteString(w.reqs[i].path + "\n")
			}
			return b.String()
		}
		for c := 0; c < w.clients; c++ {
			d := w.dealer(c)
			for k := 0; k < 3*len(w.deck); k++ {
				b.WriteString(w.reqs[d.next()].path + "\n")
			}
		}
		return b.String()
	}
	for _, wl := range workloadNames {
		if seq(wl, 3) != seq(wl, 3) {
			t.Errorf("%s: seed 3 gave two different schedules", wl)
		}
		if seq(wl, 3) == seq(wl, 4) {
			t.Errorf("%s: seeds 3 and 4 gave the same schedule", wl)
		}
	}
}

var testCard = xmlgen.New(xmlgen.Options{Factor: 0.005}).Cardinalities()
