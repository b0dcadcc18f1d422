// Package telemetry is the dependency-free instrumentation substrate of
// the search stack: atomic counters, low-overhead latency histograms with
// fixed log-scale buckets, value-type timers, and a hierarchical Span for
// tracing one query through decompose → tracelet cross-product →
// block-cache lookup → align → rewrite → verdict.
//
// Every operation is safe on a nil *Collector (and a nil *Span) and costs
// a single branch, so instrumented code needs no "is telemetry on?"
// plumbing: threading a nil collector disables measurement at effectively
// zero cost — the no-op path performs no allocation and no clock read
// (verified by TestNilCollectorAllocFree and BenchmarkNoopCollector).
//
// The write path reports into the same collector as the read path. Lifting
// an executable image (index.DB.AddImage, a by-image query on a server or
// coordinator, tracy index / mkcorpus) observes lift_latency once per
// image and adds to functions_lifted and instructions_decoded — discovery
// keeps what it decodes, so on a stripped image the second equals the
// instructions of the functions lifted; a surplus is bytes decoded again.
// Saving an index (index.DB.Save, mkcorpus -index) observes
// index_save_latency once per file and adds its size to
// index_bytes_written. functions_lifted over the sum of the two
// histograms is the build rate tracy index and mkcorpus print.
//
// A search for the best k hits (index.Snapshot.Search with a limit, behind
// every served request and tracy search) counts in candidates_below_floor the
// candidates whose compare stopped before its remaining rewrites: their
// score bound fell strictly below the search's floor, the larger of
// min_score and the k-th best score so far, so they are in no answer. A cut
// candidate was compared up to its rewrites and counted in compares, which
// candidates_below_floor therefore never exceeds; its compare span says how
// close it came (bound_bp, floor_bp, cut_by_floor).
//
// A Collector is safe for concurrent use; Snapshot may be taken while
// writers are active and observes each metric atomically (the snapshot as
// a whole is not a consistent cut, which is fine for monitoring).
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonically increasing event count.
type Counter int

// The counter set covers every stage of the search pipeline. Adding a
// counter means adding an enum value and its name below — the snapshot,
// JSON export and /statsz endpoint pick it up automatically.
const (
	Queries              Counter = iota // end-to-end index searches
	Compares                            // function-to-function comparisons
	Matches                             // comparisons with a positive verdict
	PairsCompared                       // tracelet cross-product pairs aligned
	BlockCacheHits                      // per-block alignments reused from cache
	BlockCacheMisses                    // per-block alignments computed
	RewritesAttempted                   // pairs that reached the rewrite stage (bound above β, score in [RewriteSkipBelow, β])
	RewritesSkipped                     // pairs denied a rewrite: cut by a score bound, or scoring below RewriteSkipBelow
	RewritesSucceeded                   // rewrites that produced a match
	PairsPrunedBound                    // pairs cut by the lossless bound cascade: the sum of the next three
	PairsPrunedSize                     // ... by the size bound, before any profile is merged
	PairsPrunedProfile                  // ... by the kind-profile bound, before the score DP
	PairsPrunedRewrite                  // ... by the order-aware rewrite bound, before the rewrite
	CandidatesBelowFloor                // compares of a top-k search stopped before their rewrites: bounded below the k-th best score
	PrefilterCandidates                 // corpus functions passed through the feature prefilter
	LSHQueries                          // searches answered through the lsh candidate path
	LSHCandidates                       // candidates produced by lsh band-bucket collisions
	LSHBandCollisions                   // raw band-bucket entry collisions before dedupe/rank
	LSHFallbacks                        // lsh-mode searches that fell back to the scan prefilter
	FunctionsDecomposed                 // functions decomposed into k-tracelets
	FunctionsLifted                     // functions lifted from executable images (index build, by-image queries)
	InstructionsDecoded                 // x86 instructions decoded while lifting: discovery's sweeps plus any function decoded again
	IndexBytesWritten                   // bytes of index files written
	CSPSolves                           // constraint-solver invocations
	CSPBacktracks                       // backtracking steps consumed across solves
	CSPBudgetExhausted                  // solves that hit the backtrack budget
	SearchesCancelled                   // searches aborted because the caller's context was cancelled
	SearchesDeadline                    // searches aborted because the caller's deadline expired
	ServerRequests                      // query-service API requests accepted for processing
	ServerRejected                      // API requests rejected with 429 (in-flight limit)
	ServerCacheHits                     // search responses served from the result cache
	ServerCacheMisses                   // search responses computed (cacheable but absent)
	ServerReloads                       // successful hot index reloads (snapshot swaps)
	ServerPanics                        // handler panics recovered into 500 responses
	ServerDegraded                      // saturated searches answered in degraded mode
	ServerStatus2xx                     // API responses with a 2xx status
	ServerStatus4xx                     // API responses with a 4xx status (incl. 499)
	ServerStatus5xx                     // API responses with a 5xx status
	ServerSlowQueries                   // requests over the slow-query threshold
	ServerQueued                        // requests that waited in the admission queue before a slot
	FleetSearches                       // coordinator scatter-gather searches executed
	FleetShardErrors                    // per-shard RPCs that failed after the client's retries
	FleetPartials                       // fleet answers merged from fewer than all shards (degraded)
	FleetFailovers                      // scatter legs answered by a sibling replica after the preferred one failed
	FleetHedges                         // hedged second scatter legs launched against a sibling replica
	FleetHedgesWon                      // hedged legs that answered before the primary
	FleetReplicaDown                    // replica transitions into the down membership state
	FleetReadmits                       // down replicas readmitted after a healthz + generation probe
	FaultsInjected                      // fault-injection points fired (testing only)
	DiffPrograms                        // random programs generated by the differential engine
	DiffBuilds                          // program variants compiled (opt level × context knobs)
	DiffExecutions                      // emulator runs across variants and input vectors
	DiffDivergences                     // observed oracle divergences (any kind)
	InvariantChecks                     // metamorphic invariant evaluations
	InvariantViolations                 // metamorphic invariant failures
	numCounters
)

var counterNames = [numCounters]string{
	Queries:              "queries",
	Compares:             "compares",
	Matches:              "matches",
	PairsCompared:        "pairs_compared",
	BlockCacheHits:       "block_cache_hits",
	BlockCacheMisses:     "block_cache_misses",
	RewritesAttempted:    "rewrites_attempted",
	RewritesSkipped:      "rewrites_skipped",
	RewritesSucceeded:    "rewrites_succeeded",
	PairsPrunedBound:     "pairs_pruned_bound",
	PairsPrunedSize:      "pairs_pruned_size",
	PairsPrunedProfile:   "pairs_pruned_profile",
	PairsPrunedRewrite:   "pairs_pruned_rewrite_bound",
	CandidatesBelowFloor: "candidates_below_floor",
	PrefilterCandidates:  "prefilter_candidates",
	LSHQueries:           "lsh_queries",
	LSHCandidates:        "lsh_candidates",
	LSHBandCollisions:    "lsh_band_collisions",
	LSHFallbacks:         "lsh_fallbacks",
	FunctionsDecomposed:  "functions_decomposed",
	FunctionsLifted:      "functions_lifted",
	InstructionsDecoded:  "instructions_decoded",
	IndexBytesWritten:    "index_bytes_written",
	CSPSolves:            "csp_solves",
	CSPBacktracks:        "csp_backtracks",
	CSPBudgetExhausted:   "csp_budget_exhausted",
	SearchesCancelled:    "searches_cancelled",
	SearchesDeadline:     "searches_deadline",
	ServerRequests:       "server_requests",
	ServerRejected:       "server_rejected",
	ServerCacheHits:      "server_cache_hits",
	ServerCacheMisses:    "server_cache_misses",
	ServerReloads:        "server_reloads",
	ServerPanics:         "server_panics",
	ServerDegraded:       "server_degraded",
	ServerStatus2xx:      "server_status_2xx",
	ServerStatus4xx:      "server_status_4xx",
	ServerStatus5xx:      "server_status_5xx",
	ServerSlowQueries:    "server_slow_queries",
	ServerQueued:         "server_queued",
	FleetSearches:        "fleet_searches",
	FleetShardErrors:     "fleet_shard_errors",
	FleetPartials:        "fleet_partials",
	FleetFailovers:       "fleet_failovers",
	FleetHedges:          "fleet_hedges",
	FleetHedgesWon:       "fleet_hedges_won",
	FleetReplicaDown:     "fleet_replica_down",
	FleetReadmits:        "fleet_readmits",
	FaultsInjected:       "faults_injected",
	DiffPrograms:         "diff_programs",
	DiffBuilds:           "diff_builds",
	DiffExecutions:       "diff_executions",
	DiffDivergences:      "diff_divergences",
	InvariantChecks:      "invariant_checks",
	InvariantViolations:  "invariant_violations",
}

// String returns the snake_case metric name used in JSON exports.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Hist identifies one latency histogram (one per pipeline stage).
type Hist int

const (
	QueryLatency         Hist = iota // index.Snapshot.Search end to end, decomposing the query excluded
	CompareLatency                   // one Matcher.Compare call
	PairLatency                      // one tracelet-pair align + score
	RewriteLatency                   // one rewrite attempt incl. re-scoring
	SolveLatency                     // one CSP solve
	DecomposeLatency                 // one function decomposition
	LiftLatency                      // lifting one executable image: parse, discover, decode, CFG, symbolise
	IndexSaveLatency                 // writing one index file
	ServerLatency                    // one query-service request end to end
	DiffProgramLatency               // one differential-engine program end to end
	RequestDecodeLatency             // server: request-body decode + query resolution
	CacheLookupLatency               // server: one result-cache lookup
	PrefilterLatency                 // one feature-prefilter candidate ranking
	LSHBucketOccupancy               // VALUE histogram: entries in each band bucket an lsh query probed (0: empty)
	QueueWaitLatency                 // server: admission-queue wait before a slot was granted
	FleetShardLatency                // coordinator: one shard RPC end to end (incl. client retries)
	FleetMergeLatency                // coordinator: gather + top-K merge of per-shard hits
	numHists
)

var histNames = [numHists]string{
	QueryLatency:         "query_latency",
	CompareLatency:       "compare_latency",
	PairLatency:          "pair_latency",
	RewriteLatency:       "rewrite_latency",
	SolveLatency:         "solve_latency",
	DecomposeLatency:     "decompose_latency",
	LiftLatency:          "lift_latency",
	IndexSaveLatency:     "index_save_latency",
	ServerLatency:        "server_latency",
	DiffProgramLatency:   "diff_program_latency",
	RequestDecodeLatency: "request_decode_latency",
	CacheLookupLatency:   "cache_lookup_latency",
	PrefilterLatency:     "prefilter_latency",
	LSHBucketOccupancy:   "lsh_bucket_occupancy",
	QueueWaitLatency:     "queue_wait_latency",
	FleetShardLatency:    "fleet_shard_latency",
	FleetMergeLatency:    "fleet_merge_latency",
}

// String returns the snake_case histogram name used in JSON exports.
func (h Hist) String() string {
	if h < 0 || h >= numHists {
		return "unknown"
	}
	return histNames[h]
}

// numBuckets log-scale buckets: bucket i counts durations in
// [2^(i+6), 2^(i+7)) ns, with bucket 0 absorbing everything below 128ns
// and the last bucket absorbing everything above ~2^41ns (~37min). A
// power-of-two bucket boundary makes Observe one bits.Len64 — no float
// math, no search — which is what keeps the hot path cheap.
const (
	numBuckets  = 36
	bucketShift = 7 // bucket i upper bound = 1 << (i + bucketShift) ns
)

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) - bucketShift
	if b < 0 {
		return 0
	}
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// BucketUpperNS returns the exclusive upper bound of bucket i in
// nanoseconds, or math.MaxInt64 for the last (catch-all) bucket.
func BucketUpperNS(i int) int64 {
	if i >= numBuckets-1 {
		return math.MaxInt64
	}
	return 1 << (i + bucketShift)
}

// histogram is a fixed-bucket latency histogram. All fields are atomics;
// Observe is wait-free.
type histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

func (h *histogram) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Collector accumulates pipeline telemetry. The zero value is NOT ready;
// use New. A nil *Collector is the canonical "telemetry off" value: every
// method no-ops.
type Collector struct {
	start    time.Time
	counters [numCounters]atomic.Uint64
	hists    [numHists]histogram

	infoMu sync.Mutex
	infos  map[infoSeries]map[string]string // info gauges: series -> label set
}

// New returns an empty collector stamped with the current time.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// SetInfo registers (or wholesale replaces) one series of a labeled
// info gauge family: exposed as tracy_<name>{labels...} 1 on every
// Prometheus scrape, under one HELP/TYPE header per family. Info gauges
// carry identity — index format version, build provenance, a fleet
// shard's status — not measurements; the interesting data lives in the
// labels and the value is always 1, the prometheus "_info" convention.
// key names the series within its family (a family of one series uses
// ""). No-op on a nil collector.
func (c *Collector) SetInfo(name, key string, labels map[string]string) {
	if c == nil {
		return
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	c.infoMu.Lock()
	if c.infos == nil {
		c.infos = make(map[infoSeries]map[string]string)
	}
	c.infos[infoSeries{name, key}] = cp
	c.infoMu.Unlock()
}

// InfoLabels returns a copy of one registered info series' label set,
// or nil when unset (always nil on a nil collector).
func (c *Collector) InfoLabels(name, key string) map[string]string {
	if c == nil {
		return nil
	}
	c.infoMu.Lock()
	defer c.infoMu.Unlock()
	src, ok := c.infos[infoSeries{name, key}]
	if !ok {
		return nil
	}
	cp := make(map[string]string, len(src))
	for k, v := range src {
		cp[k] = v
	}
	return cp
}

// infoSeries names one series of an info gauge family.
type infoSeries struct{ name, key string }

// infoFamily is one info gauge family as a scrape sees it: the label
// sets of its series, ordered by series key. SetInfo replaces a label
// set and never mutates one, so they are shared, not copied.
type infoFamily struct {
	name   string
	series []map[string]string
}

// infoFamilies returns the registered info families sorted by name.
func (c *Collector) infoFamilies() []infoFamily {
	if c == nil {
		return nil
	}
	c.infoMu.Lock()
	defer c.infoMu.Unlock()
	ids := make([]infoSeries, 0, len(c.infos))
	for id := range c.infos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].name != ids[j].name {
			return ids[i].name < ids[j].name
		}
		return ids[i].key < ids[j].key
	})
	var out []infoFamily
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1].name != id.name {
			out = append(out, infoFamily{name: id.name})
		}
		f := &out[len(out)-1]
		f.series = append(f.series, c.infos[id])
	}
	return out
}

// Inc adds 1 to the counter. No-op on a nil collector.
func (c *Collector) Inc(ct Counter) {
	if c == nil {
		return
	}
	c.counters[ct].Add(1)
}

// Add adds n to the counter. No-op on a nil collector.
func (c *Collector) Add(ct Counter, n uint64) {
	if c == nil {
		return
	}
	c.counters[ct].Add(n)
}

// Get returns the current counter value (0 on a nil collector).
func (c *Collector) Get(ct Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.counters[ct].Load()
}

// Observe records one duration into the histogram. No-op on a nil
// collector.
func (c *Collector) Observe(h Hist, d time.Duration) {
	if c == nil {
		return
	}
	c.hists[h].observe(d.Nanoseconds())
}

// ObserveValue records a raw (non-duration) value into h's log-scale
// buckets — used for size/occupancy distributions such as
// LSHBucketOccupancy. Count, sum and max are exact; the shared
// power-of-two bucket bounds collapse values below 128 into the first
// bucket, which is fine for distributions whose interesting tail starts
// in the hundreds. No-op on a nil collector.
func (c *Collector) ObserveValue(h Hist, v int64) {
	if c == nil {
		return
	}
	c.hists[h].observe(v)
}

// Timer is a value-type stage timer: obtained from StartTimer, finished
// with Stop. The zero Timer (and any timer from a nil collector) no-ops,
// so call sites need no nil checks and the disabled path never reads the
// clock.
type Timer struct {
	c  *Collector
	h  Hist
	t0 time.Time
}

// StartTimer starts a timer for the given histogram. On a nil collector
// it returns the no-op zero Timer without reading the clock.
func (c *Collector) StartTimer(h Hist) Timer {
	if c == nil {
		return Timer{}
	}
	return Timer{c: c, h: h, t0: time.Now()}
}

// Stop records the elapsed time since StartTimer. No-op on a zero Timer.
func (t Timer) Stop() {
	if t.c == nil {
		return
	}
	t.c.Observe(t.h, time.Since(t.t0))
}

// Reset zeroes every counter and histogram and restarts the uptime clock.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.start = time.Now()
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	for i := range c.hists {
		h := &c.hists[i]
		h.count.Store(0)
		h.sumNS.Store(0)
		h.maxNS.Store(0)
		for j := range h.buckets {
			h.buckets[j].Store(0)
		}
	}
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	UpperNS int64  `json:"le_ns"` // exclusive upper bound (MaxInt64 = +inf)
	Count   uint64 `json:"count"`
}

// HistSnapshot is the exported state of one latency histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MeanNS  float64  `json:"mean_ns"`
	MaxNS   int64    `json:"max_ns"`
	P50NS   float64  `json:"p50_ns"`
	P90NS   float64  `json:"p90_ns"`
	P99NS   float64  `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"` // non-empty buckets only
}

// Quantile estimates the q-quantile (0..1) by linear interpolation inside
// the containing log-scale bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if rank <= next {
			lo := float64(0)
			hi := float64(b.UpperNS)
			if b.UpperNS == math.MaxInt64 {
				// Catch-all bucket: fall back to the observed maximum.
				hi = float64(s.MaxNS)
			}
			if hi > float64(s.MaxNS) {
				hi = float64(s.MaxNS)
			}
			if b.UpperNS > 1<<bucketShift { // not the first bucket
				lo = float64(b.UpperNS) / 2
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - cum) / float64(b.Count)
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.MaxNS)
}

// Snapshot is a point-in-time, JSON-serializable export of a collector.
type Snapshot struct {
	TakenAt    time.Time               `json:"taken_at"`
	UptimeMS   int64                   `json:"uptime_ms"`
	Counters   map[string]uint64       `json:"counters"`
	Derived    map[string]float64      `json:"derived,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot exports the current state. Safe while writers are active. On a
// nil collector it returns an empty (but well-formed) snapshot.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]uint64, int(numCounters)),
		Histograms: make(map[string]HistSnapshot, int(numHists)),
	}
	if c == nil {
		return s
	}
	s.UptimeMS = time.Since(c.start).Milliseconds()
	for i := Counter(0); i < numCounters; i++ {
		s.Counters[i.String()] = c.counters[i].Load()
	}
	for i := Hist(0); i < numHists; i++ {
		h := &c.hists[i]
		hs := HistSnapshot{
			Count: h.count.Load(),
			SumNS: h.sumNS.Load(),
			MaxNS: h.maxNS.Load(),
		}
		if hs.Count > 0 {
			hs.MeanNS = float64(hs.SumNS) / float64(hs.Count)
		}
		for b := 0; b < numBuckets; b++ {
			if n := h.buckets[b].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{UpperNS: BucketUpperNS(b), Count: n})
			}
		}
		hs.P50NS = hs.Quantile(0.50)
		hs.P90NS = hs.Quantile(0.90)
		hs.P99NS = hs.Quantile(0.99)
		s.Histograms[i.String()] = hs
	}
	s.Derived = derive(s.Counters)
	return s
}

// derive computes the ratios operators actually look at; a ratio is
// omitted when its denominator is zero.
func derive(ct map[string]uint64) map[string]float64 {
	d := make(map[string]float64)
	ratio := func(name string, num, den uint64) {
		if den > 0 {
			d[name] = float64(num) / float64(den)
		}
	}
	hits, misses := ct[BlockCacheHits.String()], ct[BlockCacheMisses.String()]
	ratio("block_cache_hit_rate", hits, hits+misses)
	att, skip := ct[RewritesAttempted.String()], ct[RewritesSkipped.String()]
	ratio("rewrite_success_rate", ct[RewritesSucceeded.String()], att)
	ratio("rewrite_skip_rate", skip, att+skip)
	ratio("match_rate", ct[Matches.String()], ct[Compares.String()])
	ratio("pairs_pruned_rate", ct[PairsPrunedBound.String()], ct[PairsCompared.String()])
	ratio("pairs_per_compare", ct[PairsCompared.String()], ct[Compares.String()])
	ratio("csp_backtracks_per_solve", ct[CSPBacktracks.String()], ct[CSPSolves.String()])
	sch, scm := ct[ServerCacheHits.String()], ct[ServerCacheMisses.String()]
	ratio("server_cache_hit_rate", sch, sch+scm)
	ratio("server_reject_rate", ct[ServerRejected.String()],
		ct[ServerRequests.String()]+ct[ServerRejected.String()])
	if len(d) == 0 {
		return nil
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
