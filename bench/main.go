// Command bench is the repository's performance yardstick: five workloads
// over campaign-built corpora, each reporting the end-to-end metrics a
// user of the search system sees and, in a separate traced pass, what
// every layer under them did. BENCHMARK.json at the repo root declares the
// workloads and metrics; README.md in this directory explains them.
//
// The benchmark driver runs one pass of one workload per invocation:
//
//	bash bench/run.sh --workload serve-lsh-4k --seed 1 --seconds 15 --trace 0
//
// and reads the JSON object on the last line of standard output. For
// people there is also
//
//	--workload all         every workload, untraced pass then traced pass
//	--out FILE             write the results with a provenance header
//	--repeat N             N runs on consecutive seeds, median and quartiles
//	--compare A.json B.json  two result files against the declared bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// run is one pass of one workload.
type run struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Samples   int             `json:"samples,omitempty"` // timed operations behind the latency percentiles
	Metrics   metrics         `json:"metrics"`
	Spans     *telemetry.Span `json:"spans,omitempty"` // harness spans of a traced pass
}

// provenance is the header of a result file.
type provenance struct {
	Seed       int64             `json:"seed"`
	Campaign   map[string]any    `json:"campaign"`
	IndexFiles map[string]string `json:"index_sha256"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	CPUModel   string            `json:"cpu_model"`
	GitCommit  string            `json:"git_commit"`
}

type resultFile struct {
	Provenance provenance `json:"provenance"`
	Runs       []run      `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name from BENCHMARK.json, or all")
		seed         = flag.Int64("seed", 1, "campaign and query-choice seed")
		seconds      = flag.Float64("seconds", 15, "length of the timed phase")
		trace        = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out          = flag.String("out", "", "write results and provenance to this file")
		repeat       = flag.Int("repeat", 1, "run the workload on this many consecutive seeds and print median and quartiles")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	// One machine setting for every number: min(NumCPU, 4), recorded in
	// the provenance header.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := realMain(*workloadName, *seed, *seconds, *trace == 1, *out, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, traced bool, out string, repeat int, compare bool, args []string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("--compare needs two result files")
		}
		return compareFiles(sp, args[0], args[1])
	}
	names := []string{name}
	if name == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	dir, err := os.MkdirTemp(scratchRoot(sp), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	file := resultFile{Provenance: newProvenance(seed)}
	var last run
	for _, n := range names {
		for i := 0; i < repeat; i++ {
			// "all" makes both passes of each workload; otherwise --trace picks one.
			for _, tr := range passes(name == "all", traced) {
				e := &env{seed: seed + int64(i), dir: dir, sz: fullSizes}
				r, err := runPass(sp, n, e, seconds, tr)
				if err != nil {
					return fmt.Errorf("%s: %w", n, err)
				}
				printRun(r)
				file.Runs = append(file.Runs, *r)
				last = *r
				if out != "" {
					for _, f := range e.files {
						if sum, err := sha256File(f); err == nil {
							file.Provenance.IndexFiles[fmt.Sprintf("seed%d/%s", e.seed, filepath.Base(f))] = sum
						}
					}
				}
			}
		}
		if repeat > 1 {
			printRepeat(sp, n, file.Runs)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The driver's contract: the last line of standard output is one JSON
	// object describing the (last) pass.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed verification", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func passes(both, traced bool) []bool {
	if both {
		return []bool{false, true}
	}
	return []bool{traced}
}

// scratchRoot is where index files go: .bench_build under the repo root,
// which the driver reserves for build outputs and .gitignore excludes.
func scratchRoot(sp *spec) string {
	root := filepath.Join(sp.dir, ".bench_build")
	_ = os.MkdirAll(root, 0o755) // MkdirTemp reports the failure if this one matters
	return root
}

// runPass makes one pass of one workload.
func runPass(sp *spec, name string, e *env, seconds float64, traced bool) (*run, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	r := &run{Workload: name, Seed: e.seed, Trace: traced}
	if traced {
		m := newMetrics(sp.PerLayer)
		e.span = telemetry.StartSpan(name)
		err := w.trace(m)
		e.span.End()
		if err != nil {
			return nil, err
		}
		// A traced pass that returns has verified every answer it used.
		r.Correct, r.Attempted, r.Metrics, r.Spans = true, e.sz.tracedQueries, m, e.span
		return r, nil
	}

	var setups []float64
	for i := 0; i < e.sz.setupReps; i++ {
		if i > 0 {
			w.teardown()
			runtime.GC() // the last set-up's corpus is garbage; collect it outside the timing
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	// Every block holds the same mix of work, so block statistics are
	// comparable, and each metric is the median over blocks: a stall that
	// hits a few blocks (a GC cycle, a burst of stolen CPU) moves no
	// metric, where it would move a mean or a p90 over all samples.
	var means, p90s, rates []float64
	var res result
	t0 := time.Now()
	for b := 0; b < w.blocks() && (b == 0 || time.Since(t0).Seconds() < seconds); b++ {
		var blk result
		t1 := time.Now()
		w.block(b, &blk)
		wall := time.Since(t1).Seconds()
		means = append(means, mean(blk.lat))
		p90s = append(p90s, quantile(blk.lat, 0.9))
		if blk.rate == 0 {
			blk.rate = float64(len(blk.lat)) / wall
		}
		rates = append(rates, blk.rate)
		res.merge(&blk)
	}
	w.finish(&res)
	for _, msg := range res.errs {
		fmt.Fprintln(os.Stderr, "bench: verification:", msg)
	}

	m := newMetrics(sp.EndToEnd)
	m.set("setup_s", median(setups))
	m.set("query_mean_ms", median(means))
	m.set("query_p90_ms", median(p90s))
	m.set("throughput_per_s", median(rates))
	r.Correct, r.Attempted, r.Failed, r.Samples, r.Metrics = res.failed == 0, res.attempted, res.failed, len(res.lat), m
	return r, nil
}

// printRun prints every metric of a pass as "workload metric value unit".
func printRun(r *run) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if !r.Trace {
		fmt.Printf("%s error_rate %.6g ratio (%d failed of %d; %d timed samples)\n",
			r.Workload, ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted, r.Samples)
	}
}

func newProvenance(seed int64) provenance {
	p := provenance{
		Seed: seed,
		Campaign: map[string]any{
			"funcs_per_exe": funcsPerExe, "stmts": stmtsPerFn, "opt_levels": "default (O0,O1,O2)", "k": traceletK,
			"funcs": map[string]int{"exhaustive-2k": fullSizes.exhaustiveFuncs, "serve-lsh-4k": fullSizes.servingFuncs,
				"fleet-lsh-4k": fullSizes.servingFuncs, "serve-hot-4k": fullSizes.servingFuncs, "ingest-4k": fullSizes.ingestFuncs},
		},
		IndexFiles: make(map[string]string),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(ln, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// go build stamps the commit when it builds inside a git checkout;
	// the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				p.GitCommit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		p.GitCommit += dirty
	}
	return p
}
