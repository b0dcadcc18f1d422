package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/telemetry"
)

// telOpts carries the shared observability flags every tracy command
// but serve registers (a server serves its telemetry live on -addr):
//
//	-stats            print a human-readable telemetry summary
//	-stats-json DEST  write the full telemetry snapshot as JSON
//	-trace-json DEST  write the query span trace as JSON
//	-pprof ADDR       serve /statsz and /debug/pprof while running
//
// DEST is a file path or "-" for the command's output stream.
type telOpts struct {
	stats     *bool
	statsJSON *string
	traceJSON *string
	pprofAddr *string

	tel   *telemetry.Collector
	trace *telemetry.Span
}

// telFlags registers the observability flags on a command's flag set.
func telFlags(fs *flag.FlagSet) *telOpts {
	t := &telOpts{}
	t.stats = fs.Bool("stats", false, "print a telemetry summary after the command")
	t.statsJSON = fs.String("stats-json", "", `write the telemetry snapshot as JSON to this file ("-" for stdout)`)
	t.traceJSON = fs.String("trace-json", "", `write the query span trace as JSON to this file ("-" for stdout)`)
	t.pprofAddr = fs.String("pprof", "", `serve /statsz and /debug/pprof on this address (e.g. "localhost:6060") while the command runs`)
	return t
}

// activate builds the collector/root span demanded by the parsed flags
// (leaving them nil — telemetry off — when no flag is set) and starts the
// HTTP endpoint if requested. traceName names the root span.
func (t *telOpts) activate(w io.Writer, traceName string) error {
	if *t.stats || *t.statsJSON != "" || *t.pprofAddr != "" {
		t.tel = telemetry.New()
	}
	if *t.traceJSON != "" {
		t.trace = telemetry.StartSpan(traceName)
	}
	if *t.pprofAddr != "" {
		addr, err := telemetry.Serve(*t.pprofAddr, t.tel)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(w, "telemetry: serving /statsz and /debug/pprof on http://%s\n", addr)
	}
	return nil
}

// collector returns the command's collector, making one when no flag
// asked for telemetry: the commands that build an index report their
// build rate from it either way.
func (t *telOpts) collector() *telemetry.Collector {
	if t.tel == nil {
		t.tel = telemetry.New()
	}
	return t.tel
}

// writeBuildRate prints what the write path reported into tel: functions
// lifted, the time lifting and saving took, and the rate over both.
func writeBuildRate(w io.Writer, tel *telemetry.Collector) {
	s := tel.Snapshot()
	funcs := s.Counters["functions_lifted"]
	lift := time.Duration(s.Histograms["lift_latency"].SumNS)
	save := time.Duration(s.Histograms["index_save_latency"].SumNS)
	if funcs == 0 || lift+save <= 0 {
		return
	}
	fmt.Fprintf(w, "build: %d functions (%d instructions decoded) lifted in %.3fs, %d index bytes saved in %.3fs: %.0f functions/s\n",
		funcs, s.Counters["instructions_decoded"], lift.Seconds(), s.Counters["index_bytes_written"], save.Seconds(),
		float64(funcs)/(lift+save).Seconds())
}

// finish emits the reports requested by the flags. Call it once, at the
// end of a successful command.
func (t *telOpts) finish(w io.Writer) error {
	t.trace.End()
	if t.tel != nil && *t.stats {
		writeStatsSummary(w, t.tel.Snapshot())
	}
	if t.tel != nil && *t.statsJSON != "" {
		if err := writeReport(*t.statsJSON, w, t.tel.WriteJSON); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
	}
	if t.trace != nil && *t.traceJSON != "" {
		if err := writeReport(*t.traceJSON, w, t.trace.WriteJSON); err != nil {
			return fmt.Errorf("trace-json: %w", err)
		}
	}
	return nil
}

// writeReport writes via emit to dest: "-" means the command's own output
// stream, anything else a file path.
func writeReport(dest string, w io.Writer, emit func(io.Writer) error) error {
	if dest == "-" {
		return emit(w)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeStatsSummary prints the handful of lines an operator scans first;
// the full detail lives in the JSON snapshot.
func writeStatsSummary(w io.Writer, s telemetry.Snapshot) {
	ct := s.Counters
	fmt.Fprintln(w, "-- telemetry --")
	fmt.Fprintf(w, "queries: %d  compares: %d  matches: %d  pairs compared: %d\n",
		ct["queries"], ct["compares"], ct["matches"], ct["pairs_compared"])
	hits, misses := ct["block_cache_hits"], ct["block_cache_misses"]
	if hits+misses > 0 {
		fmt.Fprintf(w, "block cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*s.Derived["block_cache_hit_rate"])
	}
	if ct["pairs_pruned_bound"] > 0 {
		fmt.Fprintf(w, "pruned: %d pairs by score bound (%.1f%% of compared: %d size, %d profile, %d rewrite bound)\n",
			ct["pairs_pruned_bound"], 100*s.Derived["pairs_pruned_rate"], ct["pairs_pruned_size"],
			ct["pairs_pruned_profile"], ct["pairs_pruned_rewrite_bound"])
	}
	if ct["candidates_below_floor"] > 0 {
		fmt.Fprintf(w, "floor: %d of %d compared candidates cut below the top-k floor before their rewrites\n",
			ct["candidates_below_floor"], ct["compares"])
	}
	if ct["prefilter_candidates"] > 0 {
		fmt.Fprintf(w, "prefilter: %d candidates passed to exact comparison\n",
			ct["prefilter_candidates"])
	}
	if ct["rewrites_attempted"]+ct["rewrites_skipped"] > 0 {
		fmt.Fprintf(w, "rewrites: %d attempted / %d skipped / %d succeeded\n",
			ct["rewrites_attempted"], ct["rewrites_skipped"], ct["rewrites_succeeded"])
	}
	if ct["csp_solves"] > 0 {
		fmt.Fprintf(w, "csp: %d solves, %d backtracks, %d budget-exhausted\n",
			ct["csp_solves"], ct["csp_backtracks"], ct["csp_budget_exhausted"])
	}
	if ct["functions_decomposed"] > 0 {
		fmt.Fprintf(w, "decomposed: %d functions\n", ct["functions_decomposed"])
	}
	if ct["diff_programs"] > 0 {
		fmt.Fprintf(w, "diff: %d diff_programs, %d diff_builds, %d diff_executions, %d diff_divergences\n",
			ct["diff_programs"], ct["diff_builds"], ct["diff_executions"], ct["diff_divergences"])
	}
	if ct["invariant_checks"] > 0 {
		fmt.Fprintf(w, "invariants: %d invariant_checks, %d invariant_violations\n",
			ct["invariant_checks"], ct["invariant_violations"])
	}
	for _, name := range []string{
		"query_latency", "compare_latency", "pair_latency",
		"rewrite_latency", "solve_latency", "decompose_latency",
		"diff_program_latency",
	} {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-17s n=%-8d mean=%-10v p50=%-10v p90=%-10v p99=%-10v max=%v\n",
			name, h.Count, fmtNS(h.MeanNS), fmtNS(h.P50NS), fmtNS(h.P90NS),
			fmtNS(h.P99NS), fmtNS(float64(h.MaxNS)))
	}
}

// fmtNS renders a nanosecond quantity at µs-or-better resolution.
func fmtNS(ns float64) time.Duration {
	d := time.Duration(ns)
	if d >= time.Millisecond {
		return d.Round(time.Microsecond)
	}
	return d.Round(10 * time.Nanosecond)
}
