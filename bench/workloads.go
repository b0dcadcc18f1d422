package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/server"
)

// sizes is how much work a run does. The full sizes are smaller than the
// issue sketched (4k exhaustive, 20k serving, 1000 candidates): the
// driver allows ~30 s per run including three set-ups, and query cost in
// this corpus is bimodal with a coefficient of variation near 0.6, so a
// run needs ~150 timed queries before its metrics stop depending on
// which functions the seed drew. README.md has the arithmetic.
type sizes struct {
	exhaustiveFuncs int // corpus of exhaustive-2k
	servingFuncs    int // corpus of the three serving workloads
	ingestFuncs     int // corpus of ingest-4k
	setupReps       int // set-ups per run; setup_s is their median
	hotPasses       int // shuffled working-set passes per client per block, so clients meet at a barrier about once a second
	hotTraced       int // working-set passes in serve-hot's traced pass
	tracedQueries   int // queries a traced pass issues
}

var fullSizes = sizes{exhaustiveFuncs: 2016, servingFuncs: 4032, ingestFuncs: 4032, setupReps: 3, hotPasses: 10, hotTraced: 25, tracedQueries: 40}

// lshCandidates is the candidate cap of an uncached request; a fleet asks
// each of its 2 shards for half.
const lshCandidates = 500

// result accumulates the timed operations of one block, or the checks of
// an untimed phase.
type result struct {
	lat               []float64 // ms per timed operation
	rate              float64   // ingest: functions/s of the block's build; 0 means throughput is ops / wall
	attempted, failed int
	errs              []string // first few failures, for stderr
}

func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *result) merge(o *result) {
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// workload is one of the five benchmark workloads.
type workload interface {
	// setup does everything that precedes the first timed operation. It
	// may be called again after teardown.
	setup() error
	teardown()
	// blocks is how many distinct blocks the workload can run; the timed
	// phase stops there or at the time budget, whichever comes first.
	blocks() int
	// block runs and verifies the b-th block of timed operations.
	block(b int, r *result)
	// finish runs the untimed closing verification.
	finish(r *result)
	// trace is the traced pass: its own set-up, a short instrumented run,
	// and the per-layer probes.
	trace(m metrics) error
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "exhaustive-2k":
		return &exhaustive{env: e}, nil
	case "serve-lsh-4k":
		return &lshWorkload{serving{env: e, name: name, funcs: e.sz.servingFuncs, candidates: lshCandidates, imageEvery: 4, streamBlocks: 48}}, nil
	case "fleet-lsh-4k":
		return &lshWorkload{serving{env: e, name: name, funcs: e.sz.servingFuncs, candidates: lshCandidates / 2, imageEvery: 4, streamBlocks: 48, shards: 2}}, nil
	case "serve-hot-4k":
		return &hotWorkload{serving: serving{env: e, name: name, funcs: e.sz.servingFuncs, candidates: 100, imageEvery: 5, streamBlocks: hotBlocks}}, nil
	case "ingest-4k":
		return &ingest{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- exhaustive-2k ---------------------------------------------------

// exhaustive is the paper's contract: every query is compared against
// every indexed function through the snapshot engine, in memory.
type exhaustive struct {
	*env
	fx     *corpusFx
	snap   *index.Snapshot
	stream [][]query
	warm   map[*index.Entry][]hit // answers seen before the timed phase
}

func (w *exhaustive) setup() error {
	fx, err := compile(w.seed, w.sz.exhaustiveFuncs)
	if err != nil {
		return err
	}
	if fx.db, err = fx.ingest(nil); err != nil {
		return err
	}
	w.fx = fx
	w.snap = index.BuildSnapshot(fx.db, []int{traceletK}, 0)
	w.stream = newStream(fx, w.seed, 24, 0)
	if len(w.stream) == 0 {
		return fmt.Errorf("exhaustive: corpus of %d functions yields no query block", fx.db.Len())
	}
	// Two untimed searches warm the DP buffer pools; their answers must
	// come back identical in the timed phase.
	w.warm = make(map[*index.Entry][]hit)
	for i := range w.stream[0][:2] {
		q := &w.stream[0][i]
		hits, err := w.search(q, core.DefaultOptions())
		if err != nil {
			return err
		}
		w.warm[q.e] = libHits(hits)
	}
	return nil
}

func (w *exhaustive) search(q *query, opts core.Options) ([]index.Hit, error) {
	return w.snap.SearchDecomposedCtx(context.Background(), q.ref, opts, index.PrefilterOptions{})
}

func (w *exhaustive) teardown()   { w.fx, w.snap, w.stream, w.warm = nil, nil, nil, nil }
func (w *exhaustive) blocks() int { return math.MaxInt }

func (w *exhaustive) block(b int, r *result) {
	for i := range w.stream[b%len(w.stream)] {
		q := &w.stream[b%len(w.stream)][i]
		t0 := time.Now()
		hits, err := w.search(q, core.DefaultOptions())
		r.lat = append(r.lat, msSince(t0))
		if err == nil {
			hs := libHits(hits)
			err = checkAnswer(q, hs, false)
			if want, ok := w.warm[q.e]; ok && err == nil && !slices.Equal(hs, want) {
				err = fmt.Errorf("%s/%s: answer differs from the warm-up pass", q.e.Exe, q.e.Name)
			}
		}
		r.check(err)
	}
}

func (w *exhaustive) finish(*result) {}

// ---- serving topologies ----------------------------------------------

// serving is a corpus saved to disk and served over loopback HTTP, by one
// process or by a 2-shard fleet behind a coordinator.
type serving struct {
	*env
	name         string
	funcs        int
	candidates   int // lsh candidate cap per request (per shard in a fleet)
	imageEvery   int
	streamBlocks int
	shards       int // 0: one process; n: n workers + a coordinator

	fx      *corpusFx
	stream  [][]query
	paths   []string // index file(s) the front end serves from
	front   *node    // the server clients talk to
	workers []*node
}

// prepare compiles, indexes and saves the corpus.
func (s *serving) prepare() error {
	fx, err := compile(s.seed, s.funcs)
	if err != nil {
		return err
	}
	if fx.db, err = fx.ingest(nil); err != nil {
		return err
	}
	s.fx = fx
	s.stream = newStream(fx, s.seed, s.streamBlocks, s.imageEvery)
	if len(s.stream) == 0 {
		return fmt.Errorf("%s: corpus of %d functions yields no query block", s.name, fx.db.Len())
	}
	s.paths = nil
	n := max(s.shards, 1)
	for i := 0; i < n; i++ {
		path := filepath.Join(s.dir, fmt.Sprintf("%s-%d.idx", s.name, i))
		if err := save(fx.db, path, i, s.shards); err != nil {
			return err
		}
		s.paths = append(s.paths, path)
		s.files = append(s.files, path)
	}
	return nil
}

// launch starts the topology over the saved files and, unless the
// workload never compares (warm == false), warms every lazy
// decomposition with one exhaustive query.
func (s *serving) launch(traced, warm bool) error {
	var err error
	if s.shards == 0 {
		s.front, err = startNode(server.Config{DBPath: s.paths[0]}, traced)
	} else {
		var urls []string
		for _, p := range s.paths {
			w, werr := startNode(server.Config{DBPath: p}, traced)
			if werr != nil {
				return werr
			}
			s.workers = append(s.workers, w)
			urls = append(urls, w.url)
		}
		s.front, err = startNode(server.Config{Fleet: urls}, traced)
	}
	if err != nil || !warm {
		return err
	}
	q := &s.stream[0][0]
	resp, err := s.front.cl.Search(context.Background(), q.request(0))
	if err != nil {
		return fmt.Errorf("%s: warm-up query: %w", s.name, err)
	}
	return checkAnswer(q, srvHits(resp.Hits), true)
}

func (s *serving) halt() {
	s.front.stop()
	for _, w := range s.workers {
		w.stop()
	}
	s.front, s.workers = nil, nil
}

func (s *serving) teardown() {
	s.halt()
	s.fx, s.stream = nil, nil
}

// ask issues q through n's client and verifies the answer's shape.
func ask(n *node, q *query, candidates int, wantCached bool) (*server.SearchResponse, float64, error) {
	req := q.request(candidates)
	t0 := time.Now()
	resp, err := n.cl.Search(context.Background(), req)
	ms := msSince(t0)
	if err != nil {
		return nil, ms, err
	}
	switch {
	case resp.Cached != wantCached:
		err = fmt.Errorf("%s/%s: cached=%v, want %v", q.e.Exe, q.e.Name, resp.Cached, wantCached)
	case resp.Degraded:
		err = fmt.Errorf("%s/%s: degraded answer: %s", q.e.Exe, q.e.Name, resp.DegradedReason)
	case candidates > 0 && resp.PrefilterMode != string(index.ModeLSH):
		err = fmt.Errorf("%s/%s: prefilter_mode %q, want lsh", q.e.Exe, q.e.Name, resp.PrefilterMode)
	default:
		err = checkAnswer(q, srvHits(resp.Hits), true)
	}
	return resp, ms, err
}

// ---- serve-lsh-4k and fleet-lsh-4k -----------------------------------

// lshWorkload issues requests that never repeat, so every one misses the
// result cache and runs candidate generation plus the exact compares.
type lshWorkload struct{ serving }

func (w *lshWorkload) setup() error {
	if err := w.prepare(); err != nil {
		return err
	}
	return w.launch(false, true)
}

func (w *lshWorkload) blocks() int { return len(w.stream) }

func (w *lshWorkload) block(b int, r *result) {
	for i := range w.stream[b] {
		q := &w.stream[b][i]
		_, ms, err := ask(w.front, q, w.candidates, false)
		r.lat = append(r.lat, ms)
		r.check(err)
	}
}

// finish checks the repo's parity contract on a fleet: exhaustive answers
// through the coordinator equal the single-process answers hit for hit.
func (w *lshWorkload) finish(r *result) {
	if w.shards == 0 {
		return
	}
	single := index.BuildSnapshot(w.fx.db, []int{traceletK}, 0)
	last := w.stream[len(w.stream)-1]
	for i := range last[:min(4, len(last))] {
		q := &last[i]
		req := q.request(0)
		req.Limit = 100
		resp, err := w.front.cl.Search(context.Background(), req)
		if err == nil && resp.Degraded {
			err = fmt.Errorf("parity %s/%s: degraded: %s", q.e.Exe, q.e.Name, resp.DegradedReason)
		}
		if err == nil {
			all, serr := single.SearchDecomposedCtx(context.Background(), q.ref, core.DefaultOptions(), index.PrefilterOptions{})
			if serr != nil {
				err = serr
			} else if !slices.Equal(srvHits(resp.Hits), libHits(index.TopK(all, 100, 0))) {
				err = fmt.Errorf("parity %s/%s: fleet answer differs from the single-process answer", q.e.Exe, q.e.Name)
			}
		}
		r.check(err)
	}
}

// ---- serve-hot-4k ----------------------------------------------------

// hotBlocks x strata requests form the hot working set: 80, well inside
// the 256-entry result cache.
const hotBlocks = 5

// hotWorkload re-issues a small working set: every timed request is a
// result-cache hit, so compare does none of the work.
type hotWorkload struct {
	serving
	work []query
	want [][]hit
}

func (w *hotWorkload) setup() error {
	if err := w.prepare(); err != nil {
		return err
	}
	if err := w.launch(false, false); err != nil {
		return err
	}
	return w.fill(w.front)
}

// fill issues the working set once, uncached, and keeps the answers.
func (w *hotWorkload) fill(n *node) error {
	w.work, w.want = nil, nil
	for _, blk := range w.stream {
		w.work = append(w.work, blk...)
	}
	for i := range w.work {
		resp, _, err := ask(n, &w.work[i], w.candidates, false)
		if err != nil {
			return fmt.Errorf("%s: filling the cache: %w", w.name, err)
		}
		w.want = append(w.want, srvHits(resp.Hits))
	}
	return nil
}

func (w *hotWorkload) teardown() {
	w.serving.teardown()
	w.work, w.want = nil, nil
}

func (w *hotWorkload) blocks() int { return math.MaxInt }

// pass issues the working set once in the order rng gives and checks each
// answer is a cache hit equal to the warm-up answer.
func (w *hotWorkload) pass(n *node, rng *rand.Rand, r *result) {
	for _, i := range rng.Perm(len(w.work)) {
		q := &w.work[i]
		resp, ms, err := ask(n, q, w.candidates, true)
		r.lat = append(r.lat, ms)
		if err == nil {
			hs := srvHits(resp.Hits)
			if !slices.Equal(hs, w.want[i]) {
				err = fmt.Errorf("%s/%s: cached answer differs from the warm-up answer", q.e.Exe, q.e.Name)
			}
		}
		r.check(err)
	}
}

func (w *hotWorkload) block(b int, r *result) {
	clients := min(2, runtime.GOMAXPROCS(0))
	parts := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed*1009 + int64(b)*31 + int64(c)))
			for p := 0; p < w.sz.hotPasses; p++ {
				w.pass(w.front, rng, &parts[c])
			}
		}(c)
	}
	wg.Wait()
	for c := range parts {
		r.merge(&parts[c])
	}
}

func (w *hotWorkload) finish(*result) {}

// ---- ingest-4k -------------------------------------------------------

// ingestCap is the lsh candidate cap of the first query after an open.
const ingestCap = 800

// ingest builds and saves an index from compiled images, then opens the
// file cold and answers a first query from it.
type ingest struct {
	*env
	fx   *corpusFx
	path string
	// probes are the cold-start queries: the same functions every cycle,
	// one from every other size class, so cycles differ only by noise and
	// seeds only by which function stands for a class.
	probes []query
	stream [][]query // for the closing check
}

func (w *ingest) setup() error {
	fx, err := compile(w.seed, w.sz.ingestFuncs)
	if err != nil {
		return err
	}
	w.fx = fx
	w.path = filepath.Join(w.dir, "ingest.idx")
	w.files = append(w.files, w.path)
	w.probes, w.stream = nil, nil
	return nil
}

func (w *ingest) teardown()   { w.fx, w.probes, w.stream = nil, nil, nil }
func (w *ingest) blocks() int { return math.MaxInt }

// build is the write side: index.New, AddImage per executable, SaveV3LSH.
// It returns the database and the seconds the two steps took.
func (w *ingest) build() (*index.DB, float64, float64, error) {
	t0 := time.Now()
	db, err := w.fx.ingest(nil)
	if err != nil {
		return nil, 0, 0, err
	}
	addS := time.Since(t0).Seconds()
	t1 := time.Now()
	err = save(db, w.path, 0, 0)
	return db, addS, time.Since(t1).Seconds(), err
}

// coldStart opens the written file, builds a snapshot and answers q by
// reference with one lsh query, returning the hits and the
// open-to-answer time.
func (w *ingest) coldStart(q *query) ([]hit, float64, error) {
	t0 := time.Now()
	db, err := index.OpenFile(w.path)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close() // hits are copied out of the mapping before it closes
	snap := index.BuildSnapshot(db, []int{traceletK}, 0)
	e := snap.Lookup(q.e.Exe, q.e.Name)
	if e == nil {
		return nil, 0, fmt.Errorf("ingest: %s/%s missing from the written index", q.e.Exe, q.e.Name)
	}
	hits, err := snap.SearchDecomposedCtx(context.Background(), core.Decompose(e.Function(), traceletK), core.DefaultOptions(),
		index.PrefilterOptions{Enabled: true, Candidates: ingestCap, Mode: index.ModeLSH})
	return libHits(hits), msSince(t0), err
}

func (w *ingest) block(b int, r *result) {
	db, addS, saveS, err := w.build()
	r.check(err)
	if err != nil {
		return
	}
	r.rate = float64(db.Len()) / (addS + saveS)
	if w.probes == nil {
		w.fx.db = db
		w.stream = newStream(w.fx, w.seed, 1, 0)
		if len(w.stream) == 0 {
			r.check(fmt.Errorf("ingest: corpus of %d functions yields no query block", db.Len()))
			return
		}
		bySize := append([]query(nil), w.stream[0]...)
		sortBySize(bySize)
		for i := 1; i < len(bySize); i += 2 {
			w.probes = append(w.probes, bySize[i])
		}
	}
	for i := range w.probes {
		q := &w.probes[i]
		hits, ms, err := w.coldStart(q)
		r.lat = append(r.lat, ms)
		if err == nil {
			err = checkAnswer(q, hits, false)
		}
		r.check(err)
	}
}

// finish checks the last written index answers a whole query block
// correctly.
func (w *ingest) finish(r *result) {
	if len(w.stream) > 0 {
		w.checkBlock(w.stream[0], r, nil)
	}
}

// checkBlock opens the written index and verifies its lsh answers to
// block, adding them to rs when given.
func (w *ingest) checkBlock(block []query, r *result, rs *recallSum) {
	db, err := index.OpenFile(w.path)
	if err != nil {
		r.check(err)
		return
	}
	defer db.Close()
	snap := index.BuildSnapshot(db, []int{traceletK}, 0)
	for i := range block {
		q := &block[i]
		hits, err := snap.SearchDecomposedCtx(context.Background(), q.ref, core.DefaultOptions(),
			index.PrefilterOptions{Enabled: true, Candidates: ingestCap, Mode: index.ModeLSH})
		if err == nil {
			hs := libHits(hits)
			err = checkAnswer(q, hs, false)
			if rs != nil {
				rs.add(q, hs)
			}
		}
		r.check(err)
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
