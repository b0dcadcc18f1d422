// Package cli implements the tracy command-line front end:
//
//	tracy index  -db code.db [-lsh] exe1 exe2 ...    index executables
//	tracy search -db code.db -exe q.bin [-fn sub_X] [-limit N] [-min-score X]
//	tracy serve  -db code.db -addr :8077       run the HTTP query service
//	tracy query  -server URL -exe q.bin        search a running service
//	tracy convert [-lsh] in.idx out.idx        rewrite a v4 index (-lsh adds lsh sections)
//	tracy idxinfo [-verify] code.db            inspect an index file's layout
//	tracy mkcorpus -dir corpus                 generate a demo corpus on disk
//	tracy obscheck -server URL                 validate a server's observability surfaces
//	tracy compare [-explain] a.bin b.bin       compare largest functions
//	tracy disasm [-dot] exe                    dump lifted CFGs
//	tracy tracelets [-k N] exe                 dump a function's tracelets
//	tracy emulate -args 1,2 exe                run a function in the emulator
//	tracy fuzz   -programs 50 -seed 1          differential-test the pipeline
//	tracy stats  -db code.db                   database statistics
//	tracy experiments [name]                   regenerate paper tables
//
// Flags -k, -beta, -alpha, -norm, -norewrite configure matching.
//
// Every command but serve also accepts the observability flags -stats
// (summary), -stats-json DEST (machine-readable telemetry report),
// -trace-json DEST (per-query span trace, where the command runs queries)
// and -pprof ADDR (serve /statsz and /debug/pprof while the command runs);
// DEST is a file path or "-" for standard output. A server serves the
// same reports live on its own address. See README.md, "Observability".
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"strconv"
	"strings"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tracelet"
)

// Run executes one tracy command with the given arguments (excluding the
// program name), writing output to w.
func Run(w io.Writer, args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	cmd := &env{w: w}
	switch args[0] {
	case "index":
		return cmd.index(args[1:])
	case "search":
		return cmd.search(args[1:])
	case "serve":
		return cmd.serve(args[1:])
	case "query":
		return cmd.query(args[1:])
	case "convert":
		return cmd.convert(args[1:])
	case "shard":
		return cmd.shard(args[1:])
	case "idxinfo":
		return cmd.idxinfo(args[1:])
	case "mkcorpus":
		return cmd.mkcorpus(args[1:])
	case "obscheck":
		return cmd.obscheck(args[1:])
	case "compare":
		return cmd.compare(args[1:])
	case "disasm":
		return cmd.disasm(args[1:])
	case "tracelets":
		return cmd.tracelets(args[1:])
	case "emulate":
		return cmd.emulate(args[1:])
	case "fuzz":
		return cmd.fuzz(args[1:])
	case "stats":
		return cmd.stats(args[1:])
	case "experiments":
		return cmd.experiments(args[1:])
	default:
		return usageError()
	}
}

// env carries the output sink through subcommands.
type env struct {
	w io.Writer
}

func usageError() error {
	return fmt.Errorf(`usage: tracy <command> [flags]
commands: index, search, serve, query, convert, shard, idxinfo, mkcorpus, obscheck, compare, disasm, tracelets, emulate, fuzz, stats, experiments`)
}

// matchFlags registers the shared matching options.
func matchFlags(fs *flag.FlagSet) func() core.Options {
	k := fs.Int("k", 3, "tracelet size in basic blocks")
	beta := fs.Float64("beta", 0.8, "tracelet match threshold (0..1)")
	alpha := fs.Float64("alpha", 0.5, "function coverage threshold (0..1)")
	norm := fs.String("norm", "ratio", "normalization: ratio or containment")
	noRW := fs.Bool("norewrite", false, "disable the rewrite engine")
	noPrune := fs.Bool("noprune", false, "disable the lossless score-bound pruner (exhaustive DP)")
	return func() core.Options {
		opts := core.DefaultOptions()
		opts.K = *k
		opts.Beta = *beta
		opts.Alpha = *alpha
		if *norm == "containment" {
			opts.Norm = align.Containment
		}
		opts.UseRewrite = !*noRW
		opts.Prune = !*noPrune
		return opts
	}
}

func (c *env) index(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dbPath := fs.String("db", "tracy.db", "database file to create or extend")
	lsh := fs.Bool("lsh", false, "also persist MinHash signatures and their sorted band table for -prefilter-mode lsh")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.activate(c.w, "index"); err != nil {
		return err
	}
	db := index.New()
	if _, err := os.Stat(*dbPath); err == nil {
		loaded, err2 := index.OpenFile(*dbPath)
		if err2 != nil {
			return fmt.Errorf("loading %s: %w", *dbPath, err2)
		}
		db = loaded
	}
	db.Tel = tf.collector()
	for _, path := range fs.Args() {
		img, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := db.AddImage(path, img, nil); err != nil {
			return err
		}
		fmt.Fprintf(c.w, "indexed %s (%d functions total)\n", path, db.Len())
	}
	// Extending a file in place rewrites the mapping the loaded entries
	// decode from; replaceIndex renames over it only once it is released.
	if err := replaceIndex(db, *dbPath, index.SaveOptions{LSH: lshParams(*lsh)}, false, db); err != nil {
		return err
	}
	writeBuildRate(c.w, db.Tel)
	return tf.finish(c.w)
}

// liftQuery loads an executable and selects a query function by name, or
// the largest one.
func liftQuery(path, fnName string) (*prep.Function, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fns, err := prep.LiftImage(img)
	if err != nil {
		return nil, err
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("%s: no functions", path)
	}
	if fnName != "" {
		for _, fn := range fns {
			if fn.Name == fnName {
				return fn, nil
			}
		}
		return nil, fmt.Errorf("%s: no function %q", path, fnName)
	}
	best := fns[0]
	for _, fn := range fns[1:] {
		if fn.NumInsts() > best.NumInsts() {
			best = fn
		}
	}
	return best, nil
}

func (c *env) search(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dbPath := fs.String("db", "tracy.db", "database file")
	exe := fs.String("exe", "", "executable containing the query function")
	fnName := fs.String("fn", "", "query function name (default: largest)")
	top := fs.Int("top", 10, "results to print (alias of -limit)")
	limit := fs.Int("limit", 0, "keep only the top N hits (0: use -top)")
	minScore := fs.Float64("min-score", 0, "drop hits scoring below this (0..1)")
	prefilter := fs.Bool("prefilter", false, "rank candidates by shared features before exact comparison (lossy)")
	candidates := fs.Int("candidates", 0, "prefilter candidate cap (implies -prefilter; default 50)")
	pfMode := fs.String("prefilter-mode", "", "candidate generator: scan (default) or lsh (implies -prefilter)")
	timeout := fs.Duration("timeout", 0, "abort the search after this long (e.g. 500ms, 10s; 0: no limit)")
	opts := matchFlags(fs)
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exe == "" {
		return fmt.Errorf("search: -exe is required")
	}
	if err := tf.activate(c.w, "search"); err != nil {
		return err
	}
	db, err := index.OpenFile(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Tel = tf.tel
	query, err := liftQuery(*exe, *fnName)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.w, "query: %s (%d blocks, %d instructions) vs %d functions\n",
		query.Name, query.NumBlocks(), query.NumInsts(), db.Len())
	sOpts := opts()
	sOpts.Tel = tf.tel
	sOpts.Trace = tf.trace
	n := *limit
	if n <= 0 {
		n = *top
	}
	mode, ok := index.ParsePrefilterMode(*pfMode)
	if !ok {
		return fmt.Errorf("search: unknown -prefilter-mode %q (want scan or lsh)", *pfMode)
	}
	pf := index.PrefilterOptions{Enabled: *prefilter, Candidates: *candidates, Mode: mode}
	if mode == index.ModeLSH {
		pf.Enabled = true
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ans, err := db.View().Search(ctx, index.Query{Func: query, Opts: sOpts, Prefilter: pf, Limit: n, MinScore: *minScore})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("search: timed out after %v", *timeout)
		}
		return fmt.Errorf("search: %w", err)
	}
	for _, h := range ans.Hits {
		mark := " "
		if h.Result.IsMatch {
			mark = "*"
		}
		fmt.Fprintf(c.w, "%s %5.1f%%  %-20s %-16s matched %d/%d tracelets (%d via rewrite)\n",
			mark, h.Result.SimilarityScore*100, h.Entry.Exe, h.Entry.Name,
			h.Result.Matched(), h.Result.RefTracelets, h.Result.MatchedRewrite)
	}
	return tf.finish(c.w)
}

func (c *env) compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fnA := fs.String("fna", "", "function in first executable (default largest)")
	fnB := fs.String("fnb", "", "function in second executable (default largest)")
	explain := fs.Bool("explain", false, "print per-tracelet match evidence")
	opts := matchFlags(fs)
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: need exactly two executables")
	}
	if err := tf.activate(c.w, "compare"); err != nil {
		return err
	}
	a, err := liftQuery(fs.Arg(0), *fnA)
	if err != nil {
		return err
	}
	b, err := liftQuery(fs.Arg(1), *fnB)
	if err != nil {
		return err
	}
	cOpts := opts()
	cOpts.Tel = tf.tel
	cOpts.Trace = tf.trace
	m := core.NewMatcher(cOpts)
	ref := core.DecomposeT(a, m.Opts.K, tf.tel)
	tgt := core.DecomposeT(b, m.Opts.K, tf.tel)
	res := m.Compare(ref, tgt)
	fmt.Fprintf(c.w, "%s (%d tracelets) vs %s (%d tracelets)\n",
		a.Name, len(ref.Tracelets), b.Name, len(tgt.Tracelets))
	fmt.Fprintf(c.w, "similarity %.1f%%  match=%v  direct=%d rewrite=%d\n",
		res.SimilarityScore*100, res.IsMatch, res.MatchedDirect, res.MatchedRewrite)
	if *explain {
		// The explained pair gets its own collector so the accountability
		// line reflects exactly this Explain call, whether or not the
		// command-level flags enabled telemetry.
		em := *m
		em.Opts.Tel = telemetry.New()
		em.Opts.Trace = nil
		for _, tm := range em.Explain(ref, tgt) {
			how := "aligned"
			if tm.ViaRewrite {
				how = "rewritten"
			}
			fmt.Fprintf(c.w, "  tracelet %v ~ %v  %.1f%% (%s, +%d -%d insts)\n",
				tm.RefBlocks, tm.TgtBlocks, tm.Score*100, how,
				len(tm.Inserted), len(tm.Deleted))
		}
		es := em.Opts.Tel.Snapshot()
		hits, misses := es.Counters["block_cache_hits"], es.Counters["block_cache_misses"]
		fmt.Fprintf(c.w, "telemetry: block cache %d/%d hits (%.1f%% hit rate); rewrites %d attempted, %d skipped, %d succeeded\n",
			hits, hits+misses, 100*es.Derived["block_cache_hit_rate"],
			es.Counters["rewrites_attempted"], es.Counters["rewrites_skipped"],
			es.Counters["rewrites_succeeded"])
	}
	return tf.finish(c.w)
}

func (c *env) disasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fnName := fs.String("fn", "", "only this function")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of a listing")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.activate(c.w, "disasm"); err != nil {
		return err
	}
	for _, path := range fs.Args() {
		img, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fns, err := prep.LiftImage(img)
		if err != nil {
			return err
		}
		for _, fn := range fns {
			if *fnName != "" && fn.Name != *fnName {
				continue
			}
			if *dot {
				fmt.Fprint(c.w, fn.Graph.Dot())
				continue
			}
			fmt.Fprintf(c.w, "; %s @ %#x  (%d blocks, %d instructions)\n",
				fn.Name, fn.Addr, fn.NumBlocks(), fn.NumInsts())
			fmt.Fprintln(c.w, fn.Graph)
		}
	}
	return tf.finish(c.w)
}

// tracelets dumps the k-tracelet decomposition of a function, the unit of
// evidence every reported match is built from.
func (c *env) tracelets(args []string) error {
	fs := flag.NewFlagSet("tracelets", flag.ExitOnError)
	fnName := fs.String("fn", "", "function name (default: largest)")
	k := fs.Int("k", 3, "tracelet size in basic blocks")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("tracelets: need exactly one executable")
	}
	if err := tf.activate(c.w, "tracelets"); err != nil {
		return err
	}
	fn, err := liftQuery(fs.Arg(0), *fnName)
	if err != nil {
		return err
	}
	ts := tracelet.Extract(fn.Graph, *k)
	fmt.Fprintf(c.w, "%s: %d blocks, %d %d-tracelets\n", fn.Name, fn.NumBlocks(), len(ts), *k)
	for i, tr := range ts {
		fmt.Fprintf(c.w, "-- tracelet %d: blocks %v (%d instructions)\n", i, tr.BlockIdx, tr.NumInsts())
		fmt.Fprintln(c.w, tr)
	}
	return tf.finish(c.w)
}

// emulate runs a function from an executable in the x86 emulator and
// reports its return value and external-call trace.
func (c *env) emulate(args []string) error {
	fs := flag.NewFlagSet("emulate", flag.ExitOnError)
	fnName := fs.String("fn", "", "function name (default: largest)")
	argList := fs.String("args", "", "comma-separated integer arguments")
	steps := fs.Int("maxsteps", 2_000_000, "instruction budget")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("emulate: need exactly one executable")
	}
	if err := tf.activate(c.w, "emulate"); err != nil {
		return err
	}
	img, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fn, err := liftQuery(fs.Arg(0), *fnName)
	if err != nil {
		return err
	}
	m, err := emu.New(img)
	if err != nil {
		return err
	}
	m.MaxSteps = *steps
	var callArgs []uint32
	if *argList != "" {
		for _, part := range strings.Split(*argList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
			if err != nil {
				return fmt.Errorf("emulate: bad argument %q", part)
			}
			callArgs = append(callArgs, uint32(v))
		}
	}
	res, err := m.CallFunction(fn.Addr, callArgs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.w, "%s(%v) = %d (%#x) in %d steps\n",
		fn.Name, callArgs, int32(res.Ret), res.Ret, res.Steps)
	for _, call := range res.Calls {
		fmt.Fprintf(c.w, "  call %s -> %d\n", call.Key, call.Ret)
	}
	return tf.finish(c.w)
}

func (c *env) stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dbPath := fs.String("db", "tracy.db", "database file")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.activate(c.w, "stats"); err != nil {
		return err
	}
	db, err := index.OpenFile(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Tel = tf.tel
	blocks, insts := 0, 0
	for _, e := range db.Entries {
		fn, err := e.Decode()
		if err != nil {
			return err
		}
		blocks += fn.NumBlocks()
		insts += fn.NumInsts()
	}
	fmt.Fprintf(c.w, "functions: %d\nbasic blocks: %d\ninstructions: %d\n",
		db.Len(), blocks, insts)
	for k := 1; k <= 4; k++ {
		total := 0
		ds, err := db.Decomposed(k)
		if err != nil {
			return err
		}
		for _, d := range ds {
			total += len(d.Tracelets)
		}
		fmt.Fprintf(c.w, "%d-tracelets: %d\n", k, total)
	}
	return tf.finish(c.w)
}

func (c *env) experiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scale := fs.String("scale", "medium", "corpus scale: small, medium, large")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tf.activate(c.w, "experiments"); err != nil {
		return err
	}
	if err := experiments.RunT(c.w, *scale, fs.Args(), tf.tel); err != nil {
		return err
	}
	return tf.finish(c.w)
}
