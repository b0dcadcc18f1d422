package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// serve runs the query service until SIGINT/SIGTERM (graceful drain) —
// SIGHUP hot-reloads the index from disk, or on a coordinator every
// worker's. Telemetry is served live at /statsz, /metrics and
// /debug/pprof on -addr, so serve takes none of the -stats/-pprof flags.
func (c *env) serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dbPath := fs.String("db", "tracy.db", "index file to serve (and hot-reload)")
	addr := fs.String("addr", ":8077", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent searches before shedding 429s (0: 4*GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", -1, "requests queued for an in-flight slot before shedding (-1: auto — 0 standalone, 64 coordinator)")
	fleet := fs.String("fleet", "", "comma-separated worker base URLs, one entry per corpus shard; an entry may pipe-join replicas of that shard (\"a1|a2,b1|b2\"): serve as a scatter-gather coordinator with per-shard failover (ignores -db)")
	shardHedge := fs.Duration("shard-hedge", 0, "coordinator: race a hedged scatter leg against a sibling replica after this delay (0: off)")
	probeInterval := fs.Duration("probe-interval", 0, "coordinator: replica health-probe interval (0: 1s)")
	cacheN := fs.Int("cache", 256, "LRU result-cache entries (negative: disable)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := fs.Int64("max-body", 8<<20, "request body size limit in bytes")
	degraded := fs.Bool("degraded", false, "answer saturated searches with cached or prefilter-only results instead of 429")
	accessLog := fs.String("access-log", "", "structured JSON access-log destination, one line per request: a file path or \"-\" for stdout (default: off)")
	slowQuery := fs.Duration("slow-query", time.Second, "slow-query threshold: such requests always log and bump server_slow_queries")
	faultSpec := fs.String("faults", os.Getenv(faultinject.EnvVar),
		"fault-injection spec, e.g. search=latency:200ms,decode=error:x2 (chaos testing; default $"+faultinject.EnvVar+")")
	opts := matchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var faults *faultinject.Injector
	if *faultSpec != "" {
		var err error
		if faults, err = faultinject.Parse(*faultSpec); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintf(c.w, "tracy: WARNING: fault injection armed (%s) — chaos testing only\n", *faultSpec)
	}
	cfg := server.Config{
		DBPath:             *dbPath,
		Opts:               opts(),
		MaxInFlight:        *maxInFlight,
		MaxBodyBytes:       *maxBody,
		RequestTimeout:     *timeout,
		CacheEntries:       *cacheN,
		DegradedMode:       *degraded,
		Faults:             faults,
		SlowQueryThreshold: *slowQuery,
		ShardHedge:         *shardHedge,
		ProbeInterval:      *probeInterval,
	}
	if *fleet != "" {
		for _, entry := range strings.Split(*fleet, ",") {
			if entry = strings.TrimSpace(entry); entry == "" {
				continue
			}
			// Validate each replica group here so a typo fails at startup,
			// not as a permanently-down replica.
			n := 0
			for _, a := range strings.Split(entry, "|") {
				if strings.TrimSpace(a) != "" {
					n++
				}
			}
			if n == 0 {
				return fmt.Errorf("serve: -fleet entry %q lists no replica URLs", entry)
			}
			cfg.Fleet = append(cfg.Fleet, entry)
		}
		if len(cfg.Fleet) == 0 {
			return fmt.Errorf("serve: -fleet lists no worker URLs")
		}
		cfg.DBPath = "" // a coordinator serves the fleet, not a local index
	} else if *shardHedge > 0 || *probeInterval > 0 {
		return fmt.Errorf("serve: -shard-hedge/-probe-interval only apply with -fleet")
	}
	// A coordinator defaults to queueing a burst of requests (work
	// conservation beats bouncing clients into 1s retry backoffs); a
	// standalone server keeps the legacy shed-immediately behavior.
	switch {
	case *queueDepth >= 0:
		cfg.QueueDepth = *queueDepth
	case len(cfg.Fleet) > 0:
		cfg.QueueDepth = 64
	}
	if *accessLog != "" {
		if *accessLog == "-" {
			cfg.AccessLog = c.w
		} else {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("serve: access log: %w", err)
			}
			defer f.Close()
			cfg.AccessLog = f
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	what := *dbPath
	if len(cfg.Fleet) > 0 {
		what = fmt.Sprintf("coordinator over %d shards (%s)", len(cfg.Fleet), strings.Join(cfg.Fleet, ", "))
	}
	fmt.Fprintf(c.w, "tracy: serving %s on http://%s (POST /v1/search, /statsz, /metrics, /debug/requests, /debug/pprof)\n",
		what, bound)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			res, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(c.w, "tracy: reload failed: %v\n", err)
				continue
			}
			if len(cfg.Fleet) > 0 {
				fmt.Fprintf(c.w, "tracy: reloaded %s: %d functions, fleet generation %d (%.0fms)\n",
					what, res.Functions, res.Generation, res.TookMS)
				continue
			}
			fmt.Fprintf(c.w, "tracy: reloaded %s: %d functions, TRACYIDX v%d (mapped=%v, generation %d, %.0fms)\n",
				what, res.Functions, res.Format, res.Mapped, res.Generation, res.TookMS)
			continue
		}
		fmt.Fprintf(c.w, "tracy: %v: draining in-flight queries\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		fmt.Fprintln(c.w, "tracy: shutdown complete")
		break
	}
	return nil
}

// query sends one search to a running tracy server and prints the ranked
// hits in the same shape as tracy search.
func (c *env) query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8077", "tracy server base URL; a comma-separated list fails over between coordinators on connection errors and 5xx")
	exe := fs.String("exe", "", "executable containing the query function")
	fnName := fs.String("fn", "", "query function name (default: largest)")
	k := fs.Int("k", 0, "tracelet size (0: server default)")
	limit := fs.Int("limit", 10, "max hits to request")
	minScore := fs.Float64("min-score", 0, "drop hits scoring below this (0..1)")
	prefilter := fs.Bool("prefilter", false, "rank candidates by shared features before exact comparison (lossy)")
	candidates := fs.Int("candidates", 0, "prefilter candidate cap (implies -prefilter; default 50)")
	pfMode := fs.String("prefilter-mode", "", "candidate generator: scan (default) or lsh (implies -prefilter)")
	timeout := fs.Duration("timeout", 60*time.Second, "request timeout (also sent to the server as its compute budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exe == "" {
		return fmt.Errorf("query: -exe is required")
	}
	if _, ok := index.ParsePrefilterMode(*pfMode); !ok {
		return fmt.Errorf("query: unknown -prefilter-mode %q (want scan or lsh)", *pfMode)
	}
	img, err := os.ReadFile(*exe)
	if err != nil {
		return err
	}
	// The server gets the -timeout as its compute budget (timeout_ms) and
	// the HTTP call a little grace on top, so a deadline expiry comes back
	// as the server's 504 rather than a client-side disconnect.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout+2*time.Second)
	defer cancel()
	cl := client.New(*serverURL)
	resp, err := cl.SearchImage(ctx, img, *fnName, &server.SearchRequest{
		K: *k, Limit: *limit, MinScore: *minScore,
		Prefilter: *prefilter, Candidates: *candidates, PrefilterMode: *pfMode,
		TimeoutMS: int(timeout.Milliseconds()),
	})
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	cached := ""
	if resp.Cached {
		cached = ", cached"
	}
	if resp.Prefiltered {
		cached += ", prefiltered"
	}
	if resp.Degraded {
		cached += ", DEGRADED (" + resp.DegradedReason + ")"
	}
	fmt.Fprintf(c.w, "query: %s (%d blocks, %d instructions) vs %d functions (k=%d, %.0fms%s)\n",
		resp.Query, resp.QueryBlocks, resp.QueryInsts, resp.Candidates, resp.K, resp.TookMS, cached)
	for _, h := range resp.Hits {
		mark := " "
		if h.IsMatch {
			mark = "*"
		}
		fmt.Fprintf(c.w, "%s %5.1f%%  %-20s %-16s matched %d/%d tracelets (%d via rewrite)\n",
			mark, h.Score*100, h.Exe, h.Name, h.Matched, h.RefTracelets, h.MatchedRewrite)
	}
	return nil
}

// mkcorpus generates the synthetic evaluation corpus as stripped
// executables on disk, ready for tracy index / tracy serve — the
// self-contained way to stand a demo service up (CI's server smoke test
// uses it). With -scale N it switches to campaign mode: N functions
// across cycled optimization levels, compiled in parallel and streamed
// — optionally straight into a TRACYIDX v4 index — with bounded memory.
func (c *env) mkcorpus(args []string) error {
	fs := flag.NewFlagSet("mkcorpus", flag.ExitOnError)
	dir := fs.String("dir", "corpus", "output directory")
	seed := fs.Int64("seed", 1, "corpus seed")
	contexts := fs.Int("contexts", 4, "context-group executables")
	versions := fs.Int("versions", 3, "code-change-group executables")
	noise := fs.Int("noise", 4, "noise executables")
	funcs := fs.Int("funcs", 6, "filler functions per executable")
	scale := fs.Int("scale", 0, "campaign mode: total function target (0: classic demo corpus)")
	funcsPer := fs.Int("funcs-per-exe", 32, "campaign: functions per executable")
	stmts := fs.Int("stmts", 12, "campaign: statement budget per generated function")
	optLevels := fs.String("opt-levels", "0,1,2", "campaign: comma-separated optimization levels, cycled per source group")
	workers := fs.Int("workers", 0, "campaign: parallel compile workers (0: GOMAXPROCS)")
	indexOut := fs.String("index", "", "also emit a TRACYIDX v4 index (the only format tracy writes) at this path, built while streaming")
	lsh := fs.Bool("lsh", false, "persist MinHash signatures and their sorted band table in the emitted index (needs -index)")
	bins := fs.Bool("bins", false, "campaign: write per-executable .bin files even when -index is set")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *lsh && *indexOut == "" {
		return fmt.Errorf("mkcorpus: -lsh needs -index")
	}
	if err := tf.activate(c.w, "mkcorpus"); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if *scale > 0 {
		opts, err := parseOptLevels(*optLevels)
		if err != nil {
			return fmt.Errorf("mkcorpus: %w", err)
		}
		ccfg := corpus.CampaignConfig{
			Seed:        *seed,
			Funcs:       *scale,
			FuncsPerExe: *funcsPer,
			Stmts:       *stmts,
			OptLevels:   opts,
			Workers:     *workers,
		}
		if err := c.mkcorpusCampaign(*dir, ccfg, *indexOut, *bins, *lsh, tf.collector()); err != nil {
			return err
		}
		return tf.finish(c.w)
	}
	cfg := corpus.DefaultBuildConfig()
	cfg.Seed = *seed
	cfg.ContextCopies = *contexts
	cfg.Versions = *versions
	cfg.NoiseExes = *noise
	cfg.FuncsPerExe = *funcs
	cp, err := corpus.Build(cfg)
	if err != nil {
		return err
	}
	funcsTotal := 0
	for _, e := range cp.Exes {
		path := filepath.Join(*dir, e.Name+".bin")
		if err := os.WriteFile(path, e.Image, 0o644); err != nil {
			return err
		}
		funcsTotal += len(e.Truth)
	}
	m := cp.Manifest()
	if *indexOut != "" {
		em := newIdxEmitter(*lsh, tf.collector())
		for _, e := range cp.Exes {
			if err := em.add(*e); err != nil {
				return fmt.Errorf("mkcorpus: %w", err)
			}
		}
		if err := em.write(c.w, *indexOut, m); err != nil {
			return fmt.Errorf("mkcorpus: %w", err)
		}
	}
	// The manifest records the generating configuration — above all the
	// seed — so the corpus can be regenerated byte-for-byte.
	if err := writeManifest(*dir, m); err != nil {
		return err
	}
	fmt.Fprintf(c.w, "wrote %d executables (%d functions) to %s (seed %d, manifest.json)\n",
		len(cp.Exes), funcsTotal, *dir, *seed)
	return tf.finish(c.w)
}

// mkcorpusCampaign runs the scale campaign: executables stream from the
// parallel compile pipeline into .bin files and/or an index stream and
// are then dropped, so peak memory stays far below corpus size.
func (c *env) mkcorpusCampaign(dir string, ccfg corpus.CampaignConfig, indexOut string, bins, lsh bool, tel *telemetry.Collector) error {
	if indexOut == "" && !bins {
		bins = true // with no index requested the .bin files are the output
	}
	var em *idxEmitter
	if indexOut != "" {
		em = newIdxEmitter(lsh, tel)
	}
	m := &corpus.Manifest{Campaign: &ccfg}
	nExes := ccfg.NumExes()
	start := time.Now()
	emitted, funcs := 0, 0
	total, err := corpus.RunCampaign(ccfg, func(e corpus.Executable, opt tinyc.OptLevel) error {
		if bins {
			if err := os.WriteFile(filepath.Join(dir, e.Name+".bin"), e.Image, 0o644); err != nil {
				return err
			}
		}
		if em != nil {
			if err := em.add(e); err != nil {
				return err
			}
		}
		m.Exes = append(m.Exes, corpus.ManifestExe{
			Name: e.Name, Bytes: len(e.Image), Functions: len(e.Truth), Opt: int(opt),
		})
		emitted, funcs = emitted+1, funcs+len(e.Truth)
		if emitted%500 == 0 || emitted == nExes {
			idx := ""
			if em != nil {
				idx = fmt.Sprintf(", index %d MB", em.s.Bytes()>>20)
			}
			fmt.Fprintf(c.w, "  campaign: %d/%d exes, %d functions%s (%.0fs)\n",
				emitted, nExes, funcs, idx, time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mkcorpus: campaign: %w", err)
	}
	if em != nil {
		if err := em.write(c.w, indexOut, m); err != nil {
			return fmt.Errorf("mkcorpus: %w", err)
		}
	}
	if err := writeManifest(dir, m); err != nil {
		return err
	}
	fmt.Fprintf(c.w, "campaign done: %d executables, %d functions in %.1fs (seed %d, manifest.json)\n",
		len(m.Exes), total, time.Since(start).Seconds(), ccfg.Seed)
	return nil
}

// parseOptLevels parses "0,1,2" into tinyc optimization levels.
func parseOptLevels(s string) ([]tinyc.OptLevel, error) {
	var out []tinyc.OptLevel
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "O"))
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 2 {
			return nil, fmt.Errorf("bad opt level %q (want 0, 1 or 2)", part)
		}
		out = append(out, tinyc.OptLevel(n))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -opt-levels")
	}
	return out, nil
}

// idxEmitter lifts executables into an index.Stream, the pipeline
// AddImage feeds, with the entries AddImage would make of them, and keeps
// none: so a streamed index is interchangeable with one built by tracy
// index, and the heap holds no corpus.
type idxEmitter struct {
	s        *index.Stream
	lsh      *minhash.Params      // the lsh sections' parameters, or nil for none
	funcs    int                  // functions lifted so far
	tel      *telemetry.Collector // lift and save telemetry, as index.DB reports it
	building time.Duration        // spent handing functions to the stream so far
}

// newIdxEmitter returns an emitter reporting into tel; with lsh set the
// index carries the lsh sections.
func newIdxEmitter(lsh bool, tel *telemetry.Collector) *idxEmitter {
	return &idxEmitter{s: index.NewStream(), lsh: lshParams(lsh), tel: tel}
}

func (w *idxEmitter) add(e corpus.Executable) error {
	fns, err := prep.LiftImageTel(w.tel, e.Image)
	if err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	w.funcs += len(fns)
	t0 := time.Now()
	w.s.Add(e.Name, fns, e.Truth)
	w.building += time.Since(t0)
	return nil
}

// write writes the index to path, records it in m, and reports it and the
// build rate on out.
func (w *idxEmitter) write(out io.Writer, path string, m *corpus.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n, err := w.s.WriteLSH(f, w.lsh)
	if err2 := f.Close(); err == nil {
		err = err2
	}
	// One save: what the stream took while the executables went through
	// it, and the write.
	w.tel.Observe(telemetry.IndexSaveLatency, w.building+time.Since(t0))
	w.tel.Add(telemetry.IndexBytesWritten, uint64(n))
	if err != nil {
		os.Remove(path)
		return err
	}
	m.Index = &corpus.ManifestIndex{Path: path, Format: idxfile.Version, Functions: w.funcs, Bytes: n}
	fmt.Fprintf(out, "wrote index %s (TRACYIDX v%d, %d functions, %d bytes)\n", path, idxfile.Version, w.funcs, n)
	writeBuildRate(out, w.tel)
	return nil
}

// writeManifest serializes the reproducibility record as manifest.json.
func writeManifest(dir string, m *corpus.Manifest) error {
	mf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(mf, '\n'), 0o644)
}
