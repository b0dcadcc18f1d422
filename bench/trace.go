package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/bin"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
	"repro/internal/x86"
)

// The traced pass measures layers from outside: it times calls into their
// exported functions and reads what the program already exports (access
// log stages_ms, SearchResponse.TookMS, telemetry counters). Nothing
// under internal/ is changed for it.

const (
	replayQueries = 4   // traced queries replayed compare by compare
	probeExes     = 8   // executables the lifting probes read
	probeFuncs    = 512 // functions the per-function probes visit
)

// logLine is the part of an access-log line the harness reads.
type logLine struct {
	Path   string             `json:"path"`
	Status int                `json:"status"`
	DurMS  float64            `json:"dur_ms"`
	Cached bool               `json:"cached"`
	Stages map[string]float64 `json:"stages_ms"`
}

// parseAccessLog decodes the JSON lines of a server access log.
func parseAccessLog(data []byte) ([]logLine, error) {
	var out []logLine
	for _, ln := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		var l logLine
		if err := json.Unmarshal(ln, &l); err != nil {
			return nil, fmt.Errorf("access log line %q: %w", ln, err)
		}
		out = append(out, l)
	}
	return out, nil
}

// coverage is the share of a request's duration its top-level stages
// account for. Nested stages ("query:0.resolve") are already inside
// their parent.
func (l logLine) coverage() float64 {
	if l.DurMS <= 0 {
		return 0
	}
	sum := 0.0
	for name, ms := range l.Stages {
		if !strings.Contains(name, ".") {
			sum += ms
		}
	}
	return sum / l.DurMS
}

// searchLines returns the /v1/search lines n logged after the first skip
// lines of any path.
func searchLines(n *node, skip int) ([]logLine, error) {
	all, err := parseAccessLog(n.log.bytes())
	if err != nil {
		return nil, err
	}
	var out []logLine
	for _, l := range all[min(skip, len(all)):] {
		if l.Path == "/v1/search" {
			out = append(out, l)
		}
	}
	return out, nil
}

func logLen(n *node) int { return bytes.Count(n.log.bytes(), []byte("\n")) }

// totals is a sum of telemetry counters and histogram time over one or
// more collectors, keyed by their exported names.
type totals struct {
	count map[string]float64
	sumNS map[string]float64
}

func newTotals() totals {
	return totals{count: make(map[string]float64), sumNS: make(map[string]float64)}
}

func totalsOf(tels ...*telemetry.Collector) totals {
	t := newTotals()
	for _, tel := range tels {
		s := tel.Snapshot()
		for k, v := range s.Counters {
			t.count[k] += float64(v)
		}
		for k, h := range s.Histograms {
			t.sumNS[k] += float64(h.SumNS)
		}
	}
	return t
}

func (t totals) minus(o totals) totals {
	d := newTotals()
	for k, v := range t.count {
		d.count[k] = v - o.count[k]
	}
	for k, v := range t.sumNS {
		d.sumNS[k] = v - o.sumNS[k]
	}
	return d
}

func (t totals) n(c telemetry.Counter) float64 { return t.count[c.String()] }
func (t totals) ns(h telemetry.Hist) float64   { return t.sumNS[h.String()] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// coreCounters reports the compare core's exact work counts per query and
// where its time went, from the collector the searches ran under.
func coreCounters(m metrics, d totals, queries int) {
	per := func(c telemetry.Counter) float64 { return d.n(c) / float64(queries) }
	m.set("core.pairs_compared", per(telemetry.PairsCompared))
	m.set("core.pairs_pruned_bound", per(telemetry.PairsPrunedBound))
	m.set("core.prune_rate", ratio(d.n(telemetry.PairsPrunedBound), d.n(telemetry.PairsCompared)))
	m.set("core.block_cache_hit_rate", ratio(d.n(telemetry.BlockCacheHits), d.n(telemetry.BlockCacheHits)+d.n(telemetry.BlockCacheMisses)))
	m.set("core.rewrites_attempted", per(telemetry.RewritesAttempted))
	m.set("core.rewrites_skipped", per(telemetry.RewritesSkipped))
	m.set("core.rewrites_succeeded", per(telemetry.RewritesSucceeded))
	m.set("csp.solves", per(telemetry.CSPSolves))
	m.set("csp.backtracks", per(telemetry.CSPBacktracks))
	m.set("csp.budget_exhausted", per(telemetry.CSPBudgetExhausted))
	// Every compare, rewrite and solve is timed in full, so these shares
	// are exact; what is left of a compare is the bound check and the DP,
	// which the matcher's exports cannot separate (it times tracelet pairs
	// on a sample that always includes a compare's first pair).
	cmp := d.ns(telemetry.CompareLatency)
	m.set("core.rewrite_time_share", ratio(d.ns(telemetry.RewriteLatency), cmp))
	m.set("csp.time_share", ratio(d.ns(telemetry.SolveLatency), cmp))
}

// liftProbes times the lifting layers over the first executables.
func liftProbes(m metrics, exes []corpus.Executable) {
	var readNS, decNS, cfgNS, liftNS time.Duration
	var nExe, insts, funcs, lifted int
	for _, e := range exes[:min(probeExes, len(exes))] {
		t0 := time.Now()
		f, err := bin.Read(e.Image)
		readNS += time.Since(t0)
		if err != nil {
			continue
		}
		nExe++
		ims, _ := f.Functions() // an image the campaign wrote; an error only shrinks the sample
		for _, im := range ims {
			t1 := time.Now()
			dec, err := x86.DecodeAll(im.Code, im.Addr)
			decNS += time.Since(t1)
			if err != nil {
				continue
			}
			insts += len(dec)
			t2 := time.Now()
			_, err = cfg.Build(im.Name, dec)
			cfgNS += time.Since(t2)
			if err == nil {
				funcs++
			}
		}
		t3 := time.Now()
		fns, _ := prep.LiftImage(e.Image)
		liftNS += time.Since(t3)
		lifted += len(fns)
	}
	m.set("bin.read_us_per_exe", ratio(float64(readNS.Nanoseconds())/1e3, float64(nExe)))
	m.set("x86.decode_ns_per_inst", ratio(float64(decNS.Nanoseconds()), float64(insts)))
	m.set("cfg.build_us_per_func", ratio(float64(cfgNS.Nanoseconds())/1e3, float64(funcs)))
	m.set("prep.lift_us_per_func", ratio(float64(liftNS.Nanoseconds())/1e3, float64(lifted)))
}

// featureProbes times decomposition and candidate-feature extraction over
// the first indexed functions.
func featureProbes(m metrics, entries []*index.Entry) {
	entries = entries[:min(probeFuncs, len(entries))]
	var decNS, featNS, sigNS time.Duration
	tracelets := 0
	for _, e := range entries {
		fn := e.Function()
		t0 := time.Now()
		d := core.Decompose(fn, traceletK)
		decNS += time.Since(t0)
		tracelets += len(d.Tracelets)
		t1 := time.Now()
		feats := index.FuncFeatures(fn)
		featNS += time.Since(t1)
		t2 := time.Now()
		minhash.Signature(nil, feats, minhash.Default)
		sigNS += time.Since(t2)
	}
	n := float64(len(entries))
	m.set("core.decompose_us_per_func", ratio(float64(decNS.Nanoseconds())/1e3, n))
	m.set("core.tracelets_per_func", ratio(float64(tracelets), n))
	m.set("index.features_us_per_func", ratio(float64(featNS.Nanoseconds())/1e3, n))
	m.set("minhash.signature_us_per_func", ratio(float64(sigNS.Nanoseconds())/1e3, n))
}

// candgenProbes times candidate generation alone, both generators on the
// same references, against a snapshot built with tel attached.
func candgenProbes(m metrics, snap *index.Snapshot, tel *telemetry.Collector, qs []*query, limit int) error {
	ctx := context.Background()
	before := totalsOf(tel)
	var lsh, scan []float64
	cands := 0
	for _, q := range qs {
		t0 := time.Now()
		ranked, err := snap.PrefilterRankWith(ctx, q.ref, limit, index.ModeLSH)
		lsh = append(lsh, msSince(t0))
		if err != nil {
			return err
		}
		cands += len(ranked)
	}
	d := totalsOf(tel).minus(before)
	for _, q := range qs {
		t0 := time.Now()
		if _, err := snap.PrefilterRankWith(ctx, q.ref, limit, index.ModeScan); err != nil {
			return err
		}
		scan = append(scan, msSince(t0))
	}
	m.set("index.candgen_lsh_ms_p50", median(lsh))
	m.set("index.candgen_lsh_ms_p90", quantile(lsh, 0.9))
	m.set("index.candgen_scan_ms_p50", median(scan))
	m.set("index.candidates_per_query", ratio(float64(cands), float64(len(qs))))
	m.set("index.lsh_band_collisions_per_query", ratio(d.n(telemetry.LSHBandCollisions), float64(len(qs))))
	m.set("index.lsh_fallbacks", d.n(telemetry.LSHFallbacks))
	return nil
}

// answered is one traced search: the query, its hits in rank order, and
// the wall time the search took.
type answered struct {
	q      *query
	hits   []index.Hit
	wallMS float64
}

// searchAll runs qs through the snapshot engine and returns each answer.
func searchAll(snap *index.Snapshot, qs []*query, opts core.Options, pf index.PrefilterOptions) ([]answered, error) {
	out := make([]answered, 0, len(qs))
	for _, q := range qs {
		t0 := time.Now()
		hits, err := snap.SearchDecomposedCtx(context.Background(), q.ref, opts, pf)
		ms := msSince(t0)
		if err != nil {
			return nil, err
		}
		out = append(out, answered{q, hits, ms})
	}
	return out, nil
}

func walls(as []answered) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.wallMS
	}
	return out
}

// engineProbes reports the search engine's latency and its rank step.
func engineProbes(m metrics, as []answered) {
	m.set("index.search_ms_p50", median(walls(as)))
	m.set("index.search_ms_p90", quantile(walls(as), 0.9))
	var rank []float64
	for _, a := range as {
		hits := append([]index.Hit(nil), a.hits...)
		t0 := time.Now()
		index.SortHits(hits)
		index.TopK(hits, 10, 0)
		rank = append(rank, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.set("index.rank_us_p50", median(rank))
}

// spread picks n items evenly across as, which is in stream order and so
// covers the size classes.
func spread(as []answered, n int) []answered {
	if len(as) <= n {
		return as
	}
	out := make([]answered, n)
	for i := range out {
		out[i] = as[i*len(as)/n]
	}
	return out
}

// compareProbes replays a few searches one function pair at a time on one
// goroutine: the per-pair cost of Matcher.CompareCtx, and how much of the
// machine the engine's fan-out kept busy (single-thread compare time over
// GOMAXPROCS x search wall time).
func compareProbes(m metrics, as []answered) error {
	decs := make(map[*index.Entry]*core.Decomposed)
	var perPair []float64
	var busyMS, wallMS float64
	for _, a := range spread(as, replayQueries) {
		for _, h := range a.hits {
			if decs[h.Entry] == nil {
				decs[h.Entry] = core.Decompose(h.Entry.Function(), traceletK)
			}
		}
		matcher := core.NewMatcher(core.DefaultOptions())
		for _, h := range a.hits {
			t0 := time.Now()
			_, err := matcher.CompareCtx(context.Background(), a.q.ref, decs[h.Entry])
			us := float64(time.Since(t0).Nanoseconds()) / 1e3
			if err != nil {
				return err
			}
			perPair = append(perPair, us)
			busyMS += us / 1e3
		}
		wallMS += a.wallMS
	}
	m.set("core.compare_us_per_pair_p50", median(perPair))
	m.set("core.compare_us_per_pair_p90", quantile(perPair, 0.9))
	m.set("index.fanout_efficiency", ratio(busyMS, float64(runtime.GOMAXPROCS(0))*wallMS))
	return nil
}

// kernelProbes times the alignment DP per cell and the rewrite per call
// on sampled tracelet pairs: each replayed query's tracelets against
// those of its ten best hits (near matches, where rewrites happen) and of
// ten hits spread over the rest of its ranking.
func kernelProbes(m metrics, seed int64, as []answered) {
	const perFunc = 6 // tracelets sampled per function
	rng := rand.New(rand.NewSource(seed))
	sample := func(d *core.Decomposed) []int {
		if len(d.Tracelets) <= perFunc {
			return rng.Perm(len(d.Tracelets))
		}
		return rng.Perm(len(d.Tracelets))[:perFunc]
	}
	opts := core.DefaultOptions()
	var scoreNS, alignNS time.Duration
	var cells, insts, pairs, conflicts int
	var rewriteUS []float64
	for _, a := range spread(as, replayQueries) {
		targets := append([]index.Hit(nil), a.hits[:min(10, len(a.hits))]...)
		for i := 1; i <= 10 && len(a.hits) > 20; i++ {
			targets = append(targets, a.hits[10+i*(len(a.hits)-11)/10])
		}
		for _, h := range targets {
			tgt := core.Decompose(h.Entry.Function(), traceletK)
			for _, ri := range sample(a.q.ref) {
				r := a.q.ref.Tracelets[ri]
				rInsts := r.Insts()
				for _, ti := range sample(tgt) {
					t := tgt.Tracelets[ti]
					tInsts := t.Insts()
					if len(rInsts) == 0 || len(tInsts) == 0 {
						continue
					}
					t0 := time.Now()
					score := align.Score(rInsts, tInsts)
					scoreNS += time.Since(t0)
					t1 := time.Now()
					align.Align(rInsts, tInsts)
					alignNS += time.Since(t1)
					cells += len(rInsts) * len(tInsts)
					insts += len(rInsts) + len(tInsts)
					pairs++
					norm := align.Norm(score, align.IdentityScore(rInsts), align.IdentityScore(tInsts), opts.Norm)
					if norm < opts.RewriteSkipBelow || norm > opts.Beta {
						continue // the matcher would not attempt a rewrite here
					}
					al := align.AlignBlocks(r.Blocks, t.Blocks)
					t2 := time.Now()
					rw := rewrite.Rewrite(r.Blocks, t.Blocks, al)
					rewriteUS = append(rewriteUS, float64(time.Since(t2).Nanoseconds())/1e3)
					conflicts += rw.Conflicts
				}
			}
		}
	}
	m.set("align.score_ns_per_cell", ratio(float64(scoreNS.Nanoseconds()), float64(cells)))
	m.set("align.align_ns_per_cell", ratio(float64(alignNS.Nanoseconds()), float64(cells)))
	m.set("align.mean_tracelet_insts", ratio(float64(insts), float64(2*pairs)))
	m.set("rewrite.rewrite_us_p50", median(rewriteUS))
	m.set("rewrite.conflicts_per_rewrite", ratio(float64(conflicts), float64(len(rewriteUS))))
}

// overheadPct is how much slower the traced median is than the untraced
// one, in percent of the untraced.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * ratio(median(traced)-median(untraced), median(untraced))
}

// rssMB reads the process's resident set after a collection.
func rssMB() float64 {
	runtime.GC()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0 // no procfs: the metric reads 0, as any unexercised layer does
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func firstQueries(stream [][]query, n int) []*query {
	var out []*query
	for b := range stream {
		for i := range stream[b] {
			if len(out) == n {
				return out
			}
			out = append(out, &stream[b][i])
		}
	}
	return out
}

// ---- exhaustive-2k ---------------------------------------------------

func (w *exhaustive) trace(m metrics) error {
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	m.set("corpus.compile_s", w.fx.compileS)
	qs := firstQueries(w.stream, w.sz.tracedQueries)

	// Each query runs once without and once with a collector attached,
	// in alternating order, so warm-up and drift hit both sides alike.
	tel := telemetry.New()
	opts := core.DefaultOptions()
	opts.Tel = tel
	var plain, traced []answered
	sp := w.span.Child("search")
	for i, q := range qs {
		sides := []core.Options{core.DefaultOptions(), opts}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, o := range sides {
			as, err := searchAll(w.snap, []*query{q}, o, index.PrefilterOptions{})
			if err != nil {
				return err
			}
			if o.Tel == nil {
				plain = append(plain, as...)
			} else {
				traced = append(traced, as...)
			}
		}
	}
	sp.End()
	m.set("telemetry.trace_overhead_pct", overheadPct(walls(plain), walls(traced)))
	coreCounters(m, totalsOf(tel), len(qs))
	engineProbes(m, traced)
	var rs recallSum
	for _, a := range traced {
		rs.add(a.q, libHits(a.hits))
	}
	m.set("index.sibling_recall_at_10", rs.value())

	sp = w.span.Child("probe.compare")
	err := compareProbes(m, plain)
	sp.End()
	if err != nil {
		return err
	}
	sp = w.span.Child("probe.kernels")
	kernelProbes(m, w.seed, plain)
	sp.End()
	return nil
}

// ---- serving ---------------------------------------------------------

// exchange is one traced request as the client saw it.
type exchange struct {
	q      *query
	hits   []hit
	ms     float64
	tookMS float64
}

func recallOf(xs []exchange) float64 {
	var rs recallSum
	for _, x := range xs {
		rs.add(x.q, x.hits)
	}
	return rs.value()
}

// askAll issues qs in order through the front end.
func (s *serving) askAll(qs []*query, wantCached bool) ([]exchange, error) {
	out := make([]exchange, 0, len(qs))
	for _, q := range qs {
		resp, ms, err := ask(s.front, q, s.candidates, wantCached)
		if err != nil {
			return nil, err
		}
		out = append(out, exchange{q, srvHits(resp.Hits), ms, resp.TookMS})
	}
	return out, nil
}

// twin returns a second, untraced topology over the same saved corpus.
// The traced pass asks both the same requests in alternating order, so
// warm-up and machine drift hit both alike; one topology cannot serve
// both sides because its result cache would answer the second.
func (s *serving) twin(warm bool) (*serving, error) {
	t := *s
	t.front, t.workers = nil, nil
	if err := t.launch(false, warm); err != nil {
		t.halt()
		return nil, err
	}
	return &t, nil
}

// askBoth issues each query to the untraced and the traced topology.
func askBoth(plain, traced *serving, qs []*query, wantCached bool) (p, t []exchange, err error) {
	for i, q := range qs {
		sides := []*serving{plain, traced}
		if i%2 == 1 {
			sides[0], sides[1] = traced, plain
		}
		for _, s := range sides {
			xs, err := s.askAll([]*query{q}, wantCached)
			if err != nil {
				return nil, nil, err
			}
			if s == plain {
				p = append(p, xs...)
			} else {
				t = append(t, xs...)
			}
		}
	}
	return p, t, nil
}

func latencies(xs []exchange) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// computeTels returns the collectors of the nodes that run compares: the workers
// of a fleet, else the single server.
func (s *serving) computeTels() []*telemetry.Collector {
	if len(s.workers) == 0 {
		return []*telemetry.Collector{s.front.srv.Tel()}
	}
	var out []*telemetry.Collector
	for _, w := range s.workers {
		out = append(out, w.srv.Tel())
	}
	return out
}

// serverMetrics reports what the front-end server exported about the
// traced requests: took_ms, the access log's stage times, its counters.
func serverMetrics(m metrics, xs []exchange, lines []logLine, front totals) error {
	if len(lines) != len(xs) {
		return fmt.Errorf("access log has %d search lines for %d traced requests", len(lines), len(xs))
	}
	var took, overhead, cover []float64
	for _, x := range xs {
		took = append(took, x.tookMS)
		overhead = append(overhead, x.ms-x.tookMS)
	}
	m.set("server.took_ms_p50", median(took))
	m.set("server.http_overhead_ms_p50", median(overhead))
	for _, stage := range []string{"decode", "resolve", "cache", "prefilter", "compare"} {
		var ms []float64
		for _, l := range lines {
			ms = append(ms, l.Stages[stage])
		}
		m.set("server.stage."+stage+"_ms_p50", median(ms))
	}
	for _, l := range lines {
		cover = append(cover, l.coverage())
	}
	m.set("server.span_coverage", median(cover))
	hits := front.n(telemetry.ServerCacheHits)
	m.set("server.cache_hit_rate", ratio(hits, hits+front.n(telemetry.ServerCacheMisses)))
	m.set("server.queued", front.n(telemetry.ServerQueued))
	m.set("server.rejected", front.n(telemetry.ServerRejected))
	return nil
}

// handlerProbe runs requests through the server's handler with no TCP in
// between, which splits client latency into handler time and the rest.
func handlerProbe(m metrics, n *node, qs []*query, candidates int, clientP50 float64) error {
	h := n.srv.Handler()
	var ms, reqBytes, respBytes []float64
	for _, q := range qs {
		body, err := json.Marshal(q.request(candidates))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		ms = append(ms, msSince(t0))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d: %s", rec.Code, rec.Body.String())
		}
		reqBytes = append(reqBytes, float64(len(body)))
		respBytes = append(respBytes, float64(rec.Body.Len()))
	}
	m.set("server.handler_ms_p50", median(ms))
	m.set("server.request_bytes_p50", median(reqBytes))
	m.set("server.response_bytes_p50", median(respBytes))
	m.set("client.overhead_ms_p50", clientP50-median(ms))
	m.set("client.retries", float64(n.cl.Stats().Retries))
	return nil
}

func (w *lshWorkload) trace(m metrics) error {
	sp := w.span.Child("setup")
	err := w.prepare()
	sp.End()
	if err != nil {
		return err
	}
	defer w.teardown()
	m.set("corpus.compile_s", w.fx.compileS)
	if len(w.stream) < 4 {
		return fmt.Errorf("%s: traced pass needs 4 query blocks, corpus yields %d", w.name, len(w.stream))
	}
	qs := firstQueries(w.stream[:3], w.sz.tracedQueries)
	fresh := firstQueries(w.stream[3:], strata) // never issued before the handler probe, so uncached there too

	sp = w.span.Child("requests")
	if err = w.launch(true, true); err != nil {
		return err
	}
	twin, err := w.twin(true)
	if err != nil {
		return err
	}
	defer twin.halt()
	skip := logLen(w.front)
	skips := make([]int, len(w.workers))
	for i, wk := range w.workers {
		skips[i] = logLen(wk)
	}
	frontBefore, computeBefore := totalsOf(w.front.srv.Tel()), totalsOf(w.computeTels()...)
	plain, traced, err := askBoth(twin, &w.serving, qs, false)
	twin.halt() // before anything else is measured: its servers hold memory and goroutines
	sp.End()
	if err != nil {
		return err
	}
	if w.shards > 0 {
		if err = w.vsSingle(m, qs, median(latencies(plain))); err != nil {
			return err
		}
	}
	m.set("telemetry.trace_overhead_pct", overheadPct(latencies(plain), latencies(traced)))
	m.set("index.sibling_recall_at_10", recallOf(traced))
	front := totalsOf(w.front.srv.Tel()).minus(frontBefore)
	coreCounters(m, totalsOf(w.computeTels()...).minus(computeBefore), len(qs))
	lines, err := searchLines(w.front, skip)
	if err != nil {
		return err
	}
	if err = serverMetrics(m, traced, lines, front); err != nil {
		return err
	}
	if w.shards > 0 {
		if err = w.fleetMetrics(m, lines, skips, front); err != nil {
			return err
		}
	}
	sp = w.span.Child("probe.handler")
	err = handlerProbe(m, w.front, fresh, w.candidates, median(latencies(traced)))
	sp.End()
	if err != nil {
		return err
	}
	m.set("server.rss_mb", rssMB())
	w.halt()

	sp = w.span.Child("probe.lift")
	liftProbes(m, w.fx.exes)
	sp.End()
	if w.shards > 0 {
		return nil
	}
	return w.engine(m, qs)
}

// engine opens the served file a second time, under the harness's own
// collector, and measures the layers below the server on the requests'
// references: candidate generation, the snapshot search, the compares.
func (w *lshWorkload) engine(m metrics, qs []*query) error {
	defer w.span.Child("probe.engine").End()
	db, err := index.OpenFile(w.paths[0])
	if err != nil {
		return err
	}
	defer db.Close()
	tel := telemetry.New()
	db.Tel = tel
	snap := index.BuildSnapshot(db, []int{traceletK}, 0)
	if _, err := searchAll(snap, qs[:1], core.DefaultOptions(), index.PrefilterOptions{}); err != nil {
		return err // the exhaustive warm-up the server gets, too
	}
	if err := candgenProbes(m, snap, tel, qs, w.candidates); err != nil {
		return err
	}
	as, err := searchAll(snap, qs, core.DefaultOptions(), index.PrefilterOptions{Enabled: true, Candidates: w.candidates, Mode: index.ModeLSH})
	if err != nil {
		return err
	}
	engineProbes(m, as)
	if err := compareProbes(m, as); err != nil {
		return err
	}
	kernelProbes(m, w.seed, as)
	return nil
}

// vsSingle serves the fleet's corpus from one process and asks it the same
// requests with the candidate caps summed, so the ratio of the two medians
// is what scatter, gob and merge cost.
func (w *lshWorkload) vsSingle(m metrics, qs []*query, fleetP50 float64) error {
	defer w.span.Child("requests.single-process").End()
	path := w.paths[0] + ".whole"
	if err := save(w.fx.db, path, 0, 0); err != nil {
		return err
	}
	w.files = append(w.files, path)
	single := serving{env: w.env, name: w.name, candidates: w.candidates * w.shards, stream: w.stream, paths: []string{path}}
	if err := single.launch(false, true); err != nil {
		return err
	}
	defer single.halt()
	xs, err := single.askAll(qs, false)
	if err != nil {
		return err
	}
	m.set("fleet.vs_single_p50_x", ratio(fleetP50, median(latencies(xs))))
	return nil
}

// fleetMetrics reports the coordinator's stages and what it adds on top
// of its slowest worker. The coordinator mints a fresh trace ID for each
// scatter leg, so coordinator and worker lines cannot be joined by ID;
// with one closed-loop client the k-th search line of each log belongs
// to the k-th request.
func (w *lshWorkload) fleetMetrics(m metrics, coord []logLine, skips []int, front totals) error {
	for _, stage := range []string{"resolve", "scatter", "merge"} {
		var ms []float64
		for _, l := range coord {
			ms = append(ms, l.Stages[stage])
		}
		m.set("fleet.stage."+stage+"_ms_p50", median(ms))
	}
	var legs [][]logLine
	for i, wk := range w.workers {
		lines, err := searchLines(wk, skips[i])
		if err != nil {
			return err
		}
		if len(lines) != len(coord) {
			return fmt.Errorf("worker %d logged %d searches for %d coordinator requests", i, len(lines), len(coord))
		}
		legs = append(legs, lines)
	}
	var overhead, skew []float64
	for k, c := range coord {
		slow, fast := legs[0][k].DurMS, legs[0][k].DurMS
		for _, leg := range legs[1:] {
			slow, fast = max(slow, leg[k].DurMS), min(fast, leg[k].DurMS)
		}
		overhead = append(overhead, c.DurMS-slow)
		skew = append(skew, slow-fast)
	}
	m.set("fleet.overhead_ms_p50", median(overhead))
	m.set("fleet.shard_skew_ms_p50", median(skew))
	m.set("fleet.failovers", front.n(telemetry.FleetFailovers))
	m.set("fleet.shard_errors", front.n(telemetry.FleetShardErrors))
	m.set("fleet.partials", front.n(telemetry.FleetPartials))
	return nil
}

// ---- serve-hot-4k ----------------------------------------------------

func (w *hotWorkload) trace(m metrics) error {
	sp := w.span.Child("setup")
	err := w.prepare()
	sp.End()
	if err != nil {
		return err
	}
	defer w.teardown()
	m.set("corpus.compile_s", w.fx.compileS)

	sp = w.span.Child("requests")
	if err = w.launch(true, false); err != nil {
		return err
	}
	twin, err := w.twin(false)
	if err != nil {
		return err
	}
	defer twin.halt()
	if err = w.fill(twin.front); err != nil {
		return err
	}
	if err = w.fill(w.front); err != nil {
		return err
	}
	before := totalsOf(w.front.srv.Tel())
	rng := rand.New(rand.NewSource(w.seed))
	var plain, traced []exchange
	for p := 0; p < w.sz.hotTraced; p++ {
		var qs []*query
		for _, i := range rng.Perm(len(w.work)) {
			qs = append(qs, &w.work[i])
		}
		ps, ts, err := askBoth(twin, &w.serving, qs, true)
		if err != nil {
			return err
		}
		plain, traced = append(plain, ps...), append(traced, ts...)
	}
	twin.halt()
	sp.End()
	front := totalsOf(w.front.srv.Tel()).minus(before)
	lines, err := searchLines(w.front, len(w.work)) // the cache fill logged one line per working-set request
	if err != nil {
		return err
	}
	if err = serverMetrics(m, traced, lines, front); err != nil {
		return err
	}
	lat := latencies(traced)
	m.set("server.cache_hit_ms_p50", median(lat))
	m.set("server.cache_hit_ms_p99", quantile(lat, 0.99))
	m.set("telemetry.trace_overhead_pct", overheadPct(latencies(plain), lat))
	m.set("index.sibling_recall_at_10", recallOf(traced[:len(w.work)])) // one pass covers the working set
	qs := firstQueries(w.stream, len(w.work))
	sp = w.span.Child("probe.handler")
	err = handlerProbe(m, w.front, qs, w.candidates, median(lat))
	sp.End()
	if err != nil {
		return err
	}
	m.set("server.rss_mb", rssMB())
	sp = w.span.Child("probe.lift")
	liftProbes(m, w.fx.exes)
	sp.End()
	return nil
}

// ---- ingest-4k -------------------------------------------------------

func (w *ingest) trace(m metrics) error {
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	m.set("corpus.compile_s", w.fx.compileS)

	// A discarded warm-up build (the first one grows the heap), then four
	// timed ones, untraced-traced-traced-untraced, so that drift cancels
	// in the comparison; the last traced one is reported.
	var db *index.DB
	var plainS, tracedS, saveT float64
	sp := w.span.Child("builds")
	for i, tel := range []*telemetry.Collector{nil, nil, telemetry.New(), telemetry.New(), nil} {
		t0 := time.Now()
		d, err := w.fx.ingest(tel)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := save(d, w.path, 0, 0); err != nil {
			return err
		}
		switch {
		case i == 0:
		case tel == nil:
			plainS += time.Since(t0).Seconds()
		default:
			tracedS += time.Since(t0).Seconds()
			db, saveT = d, time.Since(t1).Seconds()
		}
	}
	sp.End()
	m.set("telemetry.trace_overhead_pct", 100*ratio(tracedS-plainS, plainS))
	st, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	m.set("idxfile.save_mb_per_s", ratio(float64(st.Size())/1e6, saveT))
	m.set("idxfile.bytes_per_func", ratio(float64(st.Size()), float64(db.Len())))

	// Cold path, stage by stage, on a fresh mapping.
	w.fx.db = db
	stream := newStream(w.fx, w.seed, 1, 0)
	if len(stream) == 0 {
		return fmt.Errorf("ingest: corpus of %d functions yields no query block", db.Len())
	}
	var check result
	var rs recallSum
	w.checkBlock(stream[0], &check, &rs)
	if check.failed > 0 {
		return fmt.Errorf("ingest: written index fails verification: %s", check.errs[0])
	}
	m.set("index.sibling_recall_at_10", rs.value())
	sortBySize(stream[0])
	q := &stream[0][len(stream[0])/2]
	sp = w.span.Child("probe.cold-start")
	t2 := time.Now()
	cold, err := index.OpenFile(w.path)
	if err != nil {
		return err
	}
	m.set("idxfile.open_ms", msSince(t2))
	t3 := time.Now()
	snap := index.BuildSnapshot(cold, []int{traceletK}, 0)
	m.set("index.snapshot_build_ms", msSince(t3))
	t4 := time.Now()
	_, err = snap.SearchDecomposedCtx(context.Background(), q.ref, core.DefaultOptions(),
		index.PrefilterOptions{Enabled: true, Candidates: ingestCap, Mode: index.ModeLSH})
	m.set("idxfile.first_query_ms", msSince(t4))
	cold.Close()
	sp.End()
	if err != nil {
		return err
	}

	// First-touch decode on another fresh mapping, so the query above has
	// decoded nothing yet.
	sp = w.span.Child("probe.decode")
	cold, err = index.OpenFile(w.path)
	if err != nil {
		return err
	}
	entries := cold.Entries[:min(probeFuncs, len(cold.Entries))]
	t5 := time.Now()
	for _, e := range entries {
		e.Function()
	}
	m.set("idxfile.decode_us_per_func", ratio(float64(time.Since(t5).Nanoseconds())/1e3, float64(len(entries))))
	cold.Close()
	sp.End()

	sp = w.span.Child("probe.lift")
	liftProbes(m, w.fx.exes)
	sp.End()
	sp = w.span.Child("probe.features")
	featureProbes(m, db.Entries)
	sp.End()
	return nil
}
