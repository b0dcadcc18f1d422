package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose: helpers must not depend on or disturb order
	if got := median(xs); !near(got, 5) {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); !near(got, 8.2) {
		t.Errorf("p90 = %v, want 8.2", got)
	}
	if got := quantile(xs, 1); !near(got, 9) {
		t.Errorf("p100 = %v, want 9", got)
	}
	if xs[0] != 9 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{2, 4}); !near(got, 3) {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, since that is what the driver
// computes the spread from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20}, 10, 20, 30},
		{[]float64{4, 8}, 3, 6, 9},
		{[]float64{1.5, 2.5, 2.0, 9.0, 3.0, 2.2, 2.4}, 2.0, 2.4, 3.0},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s, ok := spreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || !near(s, 1) {
		t.Errorf("spread = %v %v, want 1 true", s, ok)
	}
	if _, ok := spreadOf([]float64{1}); ok {
		t.Error("spread of one value reported as known")
	}
}

func TestParseAccessLog(t *testing.T) {
	log := `{"ts":"2026-01-01T00:00:00Z","trace_id":"ab","method":"POST","path":"/v1/search","status":200,"dur_ms":10,"stages_ms":{"decode":1,"resolve":2,"cache":0.5,"prefilter":0.5,"compare":5,"query:0.resolve":4}}

{"ts":"2026-01-01T00:00:01Z","trace_id":"cd","method":"GET","path":"/v1/fleet/function","status":200,"dur_ms":1}
{"ts":"2026-01-01T00:00:02Z","trace_id":"ef","method":"POST","path":"/v1/search","status":200,"dur_ms":4,"cached":true,"stages_ms":{"decode":1,"resolve":1,"cache":1}}
`
	lines, err := parseAccessLog([]byte(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("parsed %d lines, want 3", len(lines))
	}
	if l := lines[0]; l.Path != "/v1/search" || l.Status != 200 || l.DurMS != 10 || l.Stages["compare"] != 5 {
		t.Errorf("first line parsed as %+v", l)
	}
	// Nested stages are inside their parent and must not count twice.
	if got := lines[0].coverage(); !near(got, 0.9) {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	if got := lines[1].coverage(); got != 0 {
		t.Errorf("coverage of a line without stages = %v, want 0", got)
	}
	if !lines[2].Cached || !near(lines[2].coverage(), 0.75) {
		t.Errorf("third line parsed as %+v", lines[2])
	}
	n := &node{log: &syncBuf{}}
	if _, err := n.log.Write([]byte(strings.ReplaceAll(log, "\n\n", "\n"))); err != nil {
		t.Fatal(err)
	}
	if got := logLen(n); got != 3 {
		t.Errorf("logLen = %d, want 3", got)
	}
	searches, err := searchLines(n, 1)
	if err != nil || len(searches) != 1 || !searches[0].Cached {
		t.Errorf("searchLines after 1 = %+v, %v; want the one cached search", searches, err)
	}
	if _, err := parseAccessLog([]byte("{not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

// TestSpecMeetsContract checks BENCHMARK.json against the limits the
// benchmark driver refuses a file for.
func TestSpecMeetsContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range sp.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range sp.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v outside the contract", d)
		}
	}
}

// exercised names, per workload, per-layer metrics that must come out
// non-zero: the layers that workload exists to stress.
var exercised = map[string][]string{
	"exhaustive-2k": {"index.search_ms_p50", "core.compare_us_per_pair_p50", "core.pairs_compared", "align.score_ns_per_cell", "index.fanout_efficiency", "index.sibling_recall_at_10"},
	"serve-lsh-4k":  {"server.took_ms_p50", "server.stage.compare_ms_p50", "server.span_coverage", "index.candgen_lsh_ms_p50", "index.candidates_per_query", "server.handler_ms_p50", "x86.decode_ns_per_inst"},
	"serve-hot-4k":  {"server.cache_hit_rate", "server.cache_hit_ms_p50", "server.stage.cache_ms_p50", "server.response_bytes_p50", "prep.lift_us_per_func"},
	"fleet-lsh-4k":  {"fleet.stage.scatter_ms_p50", "fleet.vs_single_p50_x", "fleet.overhead_ms_p50", "core.pairs_compared"},
	"ingest-4k":     {"idxfile.save_mb_per_s", "idxfile.open_ms", "idxfile.bytes_per_func", "idxfile.first_query_ms", "core.decompose_us_per_func", "minhash.signature_us_per_func"},
}

// smokeSizes is a 256-function campaign and the least repetition.
var smokeSizes = sizes{exhaustiveFuncs: 256, servingFuncs: 256, ingestFuncs: 256, setupReps: 1, hotPasses: 1, hotTraced: 2, tracedQueries: 16}

// TestSmoke runs both passes of all five workloads on a 256-function
// campaign and checks every metric BENCHMARK.json names comes out, with
// its unit, and that every answer verified.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			r, err := runPass(sp, w.Name, &env{seed: 1, dir: dir, sz: smokeSizes}, 0.05, traced)
			t.Logf("%s traced=%v: %.2fs", w.Name, traced, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			decl := sp.EndToEnd
			if traced {
				decl = sp.PerLayer
			}
			if len(r.Metrics) != len(decl) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(r.Metrics), len(decl))
			}
			for _, d := range decl {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				for _, n := range exercised[w.Name] {
					if r.Metrics[n].Value == 0 {
						t.Errorf("%s: per-layer metric %s reads 0 on the workload that exercises it", w.Name, n)
					}
				}
			}
		}
	}
}
