package index

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// Snapshot is the search engine: an immutable view of a DB's entries
// that generates candidates, compares and ranks, over an index file that
// holds every entry (see BuildSnapshot). Every search path runs
// through its one Search method — served requests, tracy search, the
// library's Database.Search over DB.View — and the degraded prefilter-only
// ranking shares its candidate function, so there is one compare loop, one
// decomposition store and one candidate function. Any number of queries
// run concurrently against the same snapshot without locking, each
// fanning its comparisons across the configured number of workers.
// Swapping in a new corpus is an atomic pointer swap in the caller (see
// internal/server); an old snapshot stays valid for in-flight queries
// until they finish.
type Snapshot struct {
	entries []*Entry
	ks      []int              // tracelet sizes served; nil (the DB's own view) accepts any k
	workers int                // compare fan-out of one query when opts.Workers is 0
	byName  map[entryKey]int32 // position in entries
	info    Info

	store *idxfile.File // every entry, in order; nil when sealing failed
	err   error         // why sealing failed

	// slots is the decomposition store: k -> []atomic.Pointer[core.Decomposed]
	// aligned with entries. A slot is filled on first touch, so cold start
	// and resident memory scale with the pages queries actually visit.
	slots sync.Map

	// Candidate generation (see candidates). Both indexes are built on
	// first use.
	fidxOnce sync.Once
	fidx     *featureIndex
	lshOnce  sync.Once
	lsh      *lshIndex

	// Tel is the default collector for Search when opts.Tel is nil.
	Tel *telemetry.Collector
}

// newSnapshot returns a cold snapshot of db's current entries, sealed:
// nothing is decomposed, no candidate index is built. The caller holds
// db.mu.
func (db *DB) newSnapshot(ks []int, workers int) *Snapshot {
	n := len(db.Entries)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	s := &Snapshot{entries: db.Entries, ks: ks, workers: workers, info: db.Info(), Tel: db.Tel}
	s.store, s.err = db.seal()
	return s
}

// BuildSnapshot prepares db for serving queries with the tracelet sizes
// in ks (deduplicated; defaults to [core.DefaultK] when empty), each query
// fanning out over nShards workers (<= 0 means runtime.GOMAXPROCS(0)).
// The snapshot serves an index file holding every entry: a store-backed
// DB's own, else the one the DB seals its entries into, once per state of
// the entries (a snapshot of a DB that cannot be sealed answers every
// search with why). Nothing is decomposed here — each entry's packed record
// is viewed on first touch — and neither candidate index is built: the lsh
// table is adopted by the first lsh query, the inverted feature index by
// the first scan-mode, fallback or degraded ranking. The snapshot holds
// its own decompositions and shares the (immutable) entries.
func BuildSnapshot(db *DB, ks []int, nShards int) *Snapshot {
	uniq := make(map[int]bool)
	var kept []int
	for _, k := range ks {
		if k > 0 && !uniq[k] {
			uniq[k] = true
			kept = append(kept, k)
		}
	}
	if len(kept) == 0 {
		kept = []int{core.DefaultK}
	}
	sort.Ints(kept)

	db.mu.Lock()
	s := db.newSnapshot(kept, nShards)
	db.mu.Unlock()
	s.byName = make(map[entryKey]int32, len(s.entries))
	for i, e := range s.entries {
		s.byName[entryKey{e.Exe, e.Name}] = int32(i)
	}
	return s
}

// slotsFor returns the decomposition slots for tracelet size k.
func (s *Snapshot) slotsFor(k int) []atomic.Pointer[core.Decomposed] {
	v, ok := s.slots.Load(k)
	if !ok {
		v, _ = s.slots.LoadOrStore(k, make([]atomic.Pointer[core.Decomposed], len(s.entries)))
	}
	return v.([]atomic.Pointer[core.Decomposed])
}

// dec returns the k-decomposition of entry i, computing and memoizing
// it on first touch. Concurrent first calls may both compute but agree
// on one winner via CAS. Nothing is decoded: the decomposition is a view
// of the entry's packed blocks where they lie in the store
// (core.DecomposeBlocks), with the entry as its Source, counted and timed.
// The store validates a function's record at this first read, so this is
// where a corrupt function surfaces, as the store's typed error.
func (s *Snapshot) dec(slots []atomic.Pointer[core.Decomposed], k, i int) (*core.Decomposed, error) {
	if d := slots[i].Load(); d != nil {
		return d, nil
	}
	if s.err != nil {
		return nil, s.err
	}
	e := s.entries[i]
	t := s.Tel.StartTimer(telemetry.DecomposeLatency)
	pf, err := s.store.PackedFunc(i)
	if err != nil {
		return nil, fmt.Errorf("index: %s/%s: %w", e.Exe, e.Name, err)
	}
	d := core.DecomposeBlocks(pf.Name, pf.Blocks, pf.NumInsts, k, e)
	t.Stop()
	s.Tel.Inc(telemetry.FunctionsDecomposed)
	if slots[i].CompareAndSwap(nil, d) {
		return d, nil
	}
	return slots[i].Load(), nil
}

// Info returns the provenance of the index this snapshot serves.
func (s *Snapshot) Info() Info { return s.info }

// entryKey names an entry: a map key of the two strings, so building the
// name index and looking an entry up allocate no key.
type entryKey struct{ exe, name string }

// Len returns the number of indexed functions.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries returns the snapshot's entries. The slice and its entries are
// shared and must be treated as read-only.
func (s *Snapshot) Entries() []*Entry { return s.entries }

// Ks returns the tracelet sizes the snapshot serves.
func (s *Snapshot) Ks() []int { return s.ks }

// NumShards returns the compare fan-out of one query: how many workers
// share its comparisons unless the query's opts.Workers says otherwise.
func (s *Snapshot) NumShards() int { return s.workers }

// SupportsK reports whether queries with tracelet size k can be served.
func (s *Snapshot) SupportsK(k int) bool {
	if s.ks == nil {
		return true
	}
	for _, have := range s.ks {
		if have == k {
			return true
		}
	}
	return false
}

// Lookup returns the indexed entry for (exe, name), or nil.
func (s *Snapshot) Lookup(exe, name string) *Entry {
	if i, ok := s.byName[entryKey{exe, name}]; ok {
		return s.entries[i]
	}
	return nil
}

// LookupDecomposed returns the snapshot's own memoized k-decomposition
// of the indexed entry (exe, name) — what a search compares candidates
// against, so a by-reference query need not decompose again — or nil when
// there is no such entry, or an error when the entry is there and its
// stored records are corrupt. k must be a served tracelet size.
func (s *Snapshot) LookupDecomposed(exe, name string, k int) (*core.Decomposed, error) {
	i, ok := s.byName[entryKey{exe, name}]
	if !ok {
		return nil, nil
	}
	return s.dec(s.slotsFor(k), k, int(i))
}

// noteCtxErr counts a context-aborted search into tel: one tick of
// SearchesDeadline for an expired deadline, SearchesCancelled for an
// explicit cancel. Non-context errors are not counted.
func noteCtxErr(tel *telemetry.Collector, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		tel.Inc(telemetry.SearchesDeadline)
	case errors.Is(err, context.Canceled):
		tel.Inc(telemetry.SearchesCancelled)
	}
}

// Query is one search. It names the query function exactly once: Func
// is decomposed at Opts.K (core.DefaultK when 0), Ref is compared as it
// is — by-reference, fleet and bench queries arrive decomposed.
type Query struct {
	Func *prep.Function
	Ref  *core.Decomposed

	Opts      core.Options
	Prefilter PrefilterOptions // the zero value compares every entry
	Limit     int              // keep the best Limit hits; 0 keeps all
	MinScore  float64          // drop hits scoring below it
}

// Answer is what a search found.
type Answer struct {
	Hits       []Hit // best first, in SortHits order
	Candidates int   // entries compared: the corpus, or the prefilter's cut
}

// SearchDecomposedCtx is Search of ref with no limit and no minimum score.
// It is kept only because the benchmark module (bench/) calls it; new code
// calls Search.
func (s *Snapshot) SearchDecomposedCtx(ctx context.Context, ref *core.Decomposed, opts core.Options, pf PrefilterOptions) ([]Hit, error) {
	a, err := s.Search(ctx, Query{Ref: ref, Opts: opts, Prefilter: pf})
	return a.Hits, err
}

// Search is the search engine; every search path runs through it. A Func
// query is first decomposed (the "decompose" stage). The query is then
// compared against the corpus — every entry when q.Prefilter is the zero
// value, the top-C candidates of the lossy prefilter stage when it enables
// it — and the answer is what TopK(all hits, q.Limit, q.MinScore) returns,
// hit for hit, every Result field included, with the number of candidates
// compared. It errors unless exactly one of q.Func and q.Ref is set, and
// if the query's tracelet size is not a served one. The compare workers
// check ctx cooperatively inside the pair loop and the search returns
// ctx.Err() — with nil hits — as soon as every worker has noticed the
// abort; cancelled and deadline-expired searches are counted separately in
// telemetry. A Background (or nil) context adds no overhead. Safe for any
// number of concurrent callers.
//
// A limit (or a minimum score above 0) bounds the work as well as the
// answer: the search keeps a core.Floor — the larger of MinScore and the
// Limit-th best score compared so far — and a candidate whose score bound
// after the cheap stages is strictly below it skips its remaining rewrites
// and is left out (candidates_below_floor). Limit 0 and MinScore 0 keep
// every hit and compare every candidate in full.
//
// Telemetry: the query is counted and timed end-to-end into q.Opts.Tel
// (falling back to s.Tel), and the span carried by ctx — or q.Opts.Trace
// when set — gains "decompose" (Func queries), "prefilter", "compare",
// "prune" and "rank" children. When q.Opts.Trace is set, "compare" also
// gets one "compare:<name>" child per candidate carrying the match
// decision.
func (s *Snapshot) Search(ctx context.Context, q Query) (Answer, error) {
	if (q.Func == nil) == (q.Ref == nil) {
		return Answer{}, errors.New("index: a query sets exactly one of Func and Ref")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts, pf, limit, minScore := q.Opts, q.Prefilter, q.Limit, q.MinScore
	if opts.Trace != nil {
		ctx = telemetry.ContextWithSpan(ctx, opts.Trace)
	}
	if opts.Tel == nil {
		opts.Tel = s.Tel
	}
	ref := q.Ref
	if q.Func != nil {
		k := opts.K
		if k <= 0 {
			k = core.DefaultK
		}
		dsp := telemetry.SpanFromContext(ctx).Child("decompose")
		ref = core.DecomposeT(q.Func, k, opts.Tel)
		dsp.Set("query_tracelets", int64(len(ref.Tracelets)))
		dsp.End()
	}
	if opts.Workers == 0 {
		opts.Workers = s.workers
	}
	if !s.SupportsK(ref.K) {
		return Answer{}, fmt.Errorf("index: snapshot has no k=%d decomposition (supported: %v)", ref.K, s.ks)
	}
	tel := opts.Tel
	tel.Inc(telemetry.Queries)
	qt := tel.StartTimer(telemetry.QueryLatency)
	defer qt.Stop()
	sp := telemetry.SpanFromContext(ctx)
	var floor *core.Floor
	if limit > 0 || minScore > 0 {
		floor = core.NewFloor(limit, minScore)
	}

	// ids lists the entries to compare, ascending; nil means all of them,
	// so an exhaustive scan is the candidate scan over the identity list.
	var ids []int32
	n := len(s.entries)
	if c := pf.cap(); c > 0 {
		ranked, err := s.candidates(ctx, ref, c, pf.Mode, tel)
		if err != nil {
			return Answer{}, err
		}
		tel.Add(telemetry.PrefilterCandidates, uint64(len(ranked)))
		ids = sortedIDs(ranked)
		n = len(ids)
	}
	entry := func(i int) int {
		if ids != nil {
			return int(ids[i])
		}
		return i
	}

	cmpSpan := sp.Child("compare")
	cmpSpan.Set("pairs", int64(n))
	if opts.Trace != nil {
		opts.Trace = cmpSpan
	}
	slots := s.slotsFor(ref.K)
	results, cut, err := core.NewMatcher(opts).CompareEachCtx(ctx, ref, n, func(i int) (*core.Decomposed, error) {
		return s.dec(slots, ref.K, entry(i))
	}, floor)
	cmpSpan.End()
	if err != nil {
		noteCtxErr(tel, err)
		return Answer{}, err
	}

	// Pruning happens inside the DP comparisons rather than as a separable
	// timed phase, so "prune" is an instant span carrying the pair count
	// the score-bound pruner skipped across all candidates and the
	// candidates the floor cut. What is kept is what scores at least the
	// final floor: nothing below it can be among the best limit.
	at := minScore
	if floor != nil {
		at = floor.Load()
	}
	keep := func(i int) bool {
		return (cut == nil || !cut[i]) && results[i].SimilarityScore >= at
	}
	var pruned, below, kept int64
	for i := range results {
		pruned += int64(results[i].PairsPruned)
		switch {
		case cut != nil && cut[i]:
			below++
		case keep(i):
			kept++
		}
	}
	psp := sp.Child("prune")
	psp.Set("pairs_pruned", pruned)
	psp.Set("candidates_below_floor", below)
	psp.End()
	rsp := sp.Child("rank")
	hits := make([]Hit, 0, kept)
	for i := range results {
		if keep(i) {
			hits = append(hits, Hit{Entry: s.entries[entry(i)], Result: results[i]})
		}
	}
	SortHits(hits)
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit:limit]
	}
	rsp.End()
	return Answer{Hits: hits, Candidates: n}, nil
}

// PrefilterRankWith is the lossy stage alone: it ranks the corpus with
// the given candidate generator and returns the top limit entries,
// running no exact comparison at all. This is the degraded-mode answer
// path — orders of magnitude cheaper than a real search and still
// honoring ctx. limit <= 0 means DefaultPrefilterCandidates.
func (s *Snapshot) PrefilterRankWith(ctx context.Context, ref *core.Decomposed, limit int, mode PrefilterMode) ([]Ranked, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if limit <= 0 {
		limit = DefaultPrefilterCandidates
	}
	return s.candidates(ctx, ref, limit, mode, s.Tel)
}
