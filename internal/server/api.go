package server

import (
	"encoding/base64"
	"time"
)

// The wire schema of the query service. All endpoints speak JSON:
//
//	POST /v1/search        SearchRequest  -> SearchResponse
//	POST /v1/search/batch  BatchRequest   -> BatchResponse
//	GET  /v1/functions     (query params) -> FunctionsResponse
//	GET  /v1/healthz                      -> HealthResponse
//	POST /v1/reload                       -> ReloadResponse
//
// Errors are ErrorResponse bodies with a matching HTTP status.

// SearchRequest asks for the corpus functions most similar to one query
// function. The query is given either by uploading an executable image
// (Image, base64; Function selects a function in it, default the
// largest) or by referencing a function already in the index (Exe +
// Name). Exactly one of the two forms must be used.
//
// An upload that names its Function has only that function lifted: a
// malformed ELF answers 400 and an unknown Function 404, but bytes that
// fail to decode in some other function of the image do not fail the
// request. With Function empty every function is lifted to find the
// largest, and any that fails to decode answers 400 for the upload.
type SearchRequest struct {
	Image    string `json:"image,omitempty"`    // base64 ELF image to lift
	Function string `json:"function,omitempty"` // function within Image (default: largest)

	Exe  string `json:"exe,omitempty"`  // indexed executable ...
	Name string `json:"name,omitempty"` // ... and function to query by reference

	K int `json:"k,omitempty"` // tracelet size (default: server's -k)
	// Limit is the most hits returned (default 10, cap 1000). It bounds
	// the work as well as the output, with no change in meaning: a
	// candidate that provably scores below the limit-th best hit, or below
	// MinScore, skips its rewrites and is left out — the hits are the ones
	// a full comparison of every candidate would rank first.
	Limit    int     `json:"limit,omitempty"`
	MinScore float64 `json:"min_score,omitempty"` // drop hits scoring below this (0..1)

	// Prefilter enables the lossy feature prefilter: only the top
	// Candidates corpus functions by shared features are compared exactly.
	// Candidates > 0 implies Prefilter; Prefilter alone uses the server's
	// default cap.
	Prefilter  bool `json:"prefilter,omitempty"`
	Candidates int  `json:"candidates,omitempty"` // candidate cap (cap 1000)

	// PrefilterMode picks the candidate generator: "scan" (default) ranks
	// by shared features through the inverted index, "lsh" takes MinHash
	// band-bucket collisions ranked by estimated Jaccard. "lsh" implies
	// Prefilter. When the loaded index carries no LSH signatures the
	// server falls back to scan (counted as tracy_lsh_fallbacks).
	PrefilterMode string `json:"prefilter_mode,omitempty"`

	// TimeoutMS bounds this search's compute time in milliseconds. It can
	// only tighten the server's own request budget, never extend it; an
	// exceeded deadline answers 504.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// QueryGob is the fleet-internal third query form: a base64 gob of
	// the already-resolved, lifted query function. The coordinator
	// resolves a query once (lifting an uploaded image itself, or
	// fetching a by-reference function from the shard that owns it) and
	// scatters it to every shard in this form, so shards never re-lift
	// and never need each other's corpora. Mutually exclusive with Image
	// and Exe/Name; decoded functions are structurally validated before
	// any search runs.
	QueryGob string `json:"query_gob,omitempty"`
}

// SetImage stores img as the request's base64 query image.
func (r *SearchRequest) SetImage(img []byte) {
	r.Image = base64.StdEncoding.EncodeToString(img)
}

// DecodeImage returns the decoded query image.
func (r *SearchRequest) DecodeImage() ([]byte, error) {
	return base64.StdEncoding.DecodeString(r.Image)
}

// Hit is one ranked search result.
type Hit struct {
	Exe            string  `json:"exe"`
	Name           string  `json:"name"`
	Addr           uint32  `json:"addr"`
	Score          float64 `json:"score"`    // similarity (coverage rate, 0..1)
	IsMatch        bool    `json:"is_match"` // score above the α threshold
	Matched        int     `json:"matched"`  // matched reference tracelets
	RefTracelets   int     `json:"ref_tracelets"`
	MatchedRewrite int     `json:"matched_rewrite"` // matched only via the rewrite engine
}

// SearchResponse is the ranked answer to one SearchRequest.
type SearchResponse struct {
	Query       string `json:"query"` // resolved query function name
	QueryBlocks int    `json:"query_blocks"`
	QueryInsts  int    `json:"query_insts"`
	K           int    `json:"k"`
	Candidates  int    `json:"candidates"`            // corpus functions scanned
	Prefiltered bool   `json:"prefiltered,omitempty"` // candidate set was feature-prefiltered

	// PrefilterMode is the candidate generator that actually ran ("scan"
	// or "lsh", empty when the prefilter was off) — on an LSH fallback it
	// reads "scan" even though "lsh" was requested.
	PrefilterMode string  `json:"prefilter_mode,omitempty"`
	Hits          []Hit   `json:"hits"`
	Cached        bool    `json:"cached"` // served from the result cache
	TookMS        float64 `json:"took_ms"`

	// TraceID is the request's trace ID (from the caller's traceparent
	// header, or minted by the server): the join key across the response,
	// the access log, /debug/requests and client-side attempt records.
	TraceID string `json:"trace_id,omitempty"`

	// Degraded marks a reduced-quality answer produced under saturation
	// (prefilter-only ranking, no exact comparison): hit scores are
	// shared-feature ratios, not similarity scores, and IsMatch is never
	// set. Only possible when the server opts into DegradedMode.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// BatchRequest runs several searches in one round trip.
type BatchRequest struct {
	Queries []SearchRequest `json:"queries"`
}

// BatchItem is one per-query outcome: either Result or Error is set.
type BatchItem struct {
	Result *SearchResponse `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse carries one item per request query, in order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	TraceID string      `json:"trace_id,omitempty"` // shared by every query in the batch
}

// FunctionInfo describes one indexed function.
type FunctionInfo struct {
	Exe    string `json:"exe"`
	Name   string `json:"name"`
	Addr   uint32 `json:"addr"`
	Blocks int    `json:"blocks"`
	Insts  int    `json:"insts"`
}

// FunctionsResponse lists the indexed corpus. A coordinator merges the
// shards' listings; when some shards are unreachable it serves the
// survivors' union and sets Degraded.
type FunctionsResponse struct {
	Total     int            `json:"total"` // before exe filter and limit
	Functions []FunctionInfo `json:"functions"`
	Degraded  bool           `json:"degraded,omitempty"`
}

// HealthResponse reports liveness and the loaded snapshot's shape. A
// coordinator reports the aggregated fleet: Status degrades to
// "degraded" when some shards are unreachable and "down" when all are,
// Functions sums the live shards, Generation is the combined fleet
// generation, and Fleet carries one entry per shard.
type HealthResponse struct {
	Status      string    `json:"status"` // "ok", "empty", "degraded" or "down"
	Functions   int       `json:"functions"`
	Ks          []int     `json:"ks"` // precomputed tracelet sizes
	Shards      int       `json:"shards"`
	Generation  uint64    `json:"generation"` // bumped on every snapshot swap
	LoadedAt    time.Time `json:"loaded_at"`
	IndexFormat int       `json:"index_format"` // TRACYIDX on-disk version (4)
	IndexMapped bool      `json:"index_mapped"` // true when served from mmap
	LoadMS      float64   `json:"load_ms"`      // load + snapshot-build time

	// Mode is "coordinator" when this server scatter-gathers a worker
	// fleet instead of serving a local snapshot (empty otherwise).
	Mode string `json:"mode,omitempty"`
	// Replicas is the total worker count across all replica groups
	// (coordinator mode only; equals Shards for single-replica fleets).
	Replicas int `json:"replicas,omitempty"`
	// Fleet reports per-replica health, coordinator mode only: one entry
	// per worker, grouped by Shard.
	Fleet []ShardHealth `json:"fleet,omitempty"`
}

// ShardHealth is one worker replica's state as seen from the
// coordinator's membership prober.
type ShardHealth struct {
	Shard       int    `json:"shard"`   // 0-based shard number (fleet list order)
	Replica     int    `json:"replica"` // 0-based replica index within the shard's group
	Addr        string `json:"addr"`    // worker base URL
	Status      string `json:"status"`
	Functions   int    `json:"functions"`
	Generation  uint64 `json:"generation"`
	IndexFormat int    `json:"index_format"`
	IndexMapped bool   `json:"index_mapped"`
	Error       string `json:"error,omitempty"` // probe failure, when Status is "unreachable"
	// Skewed marks a live replica serving a different index generation
	// than its group's majority: it is deprioritized for scatter legs
	// until it catches up (reload or readmission probe).
	Skewed bool `json:"skewed,omitempty"`
	// NextProbeMS is how long until the prober re-checks an unreachable
	// replica (readmission backoff), milliseconds.
	NextProbeMS float64 `json:"next_probe_ms,omitempty"`
}

// ReplicaError is one replica's last failure, attached to a
// zero-shards-answered 502 so the caller sees exactly which workers
// failed and why instead of an opaque bad-gateway.
type ReplicaError struct {
	Shard       int     `json:"shard"`
	Replica     int     `json:"replica"`
	Addr        string  `json:"addr"`
	Error       string  `json:"error"`
	NextProbeMS float64 `json:"next_probe_ms,omitempty"` // time until the next readmission probe
}

// FleetFunctionResponse answers the fleet-internal
// GET /v1/fleet/function?exe=&name= lookup: the gob-encoded lifted
// function behind one indexed (exe, name), base64 over the wire. The
// coordinator broadcasts the lookup to resolve a by-reference query —
// only the shard owning the entry answers 200.
type FleetFunctionResponse struct {
	Exe         string `json:"exe"`
	Name        string `json:"name"`
	FunctionGob string `json:"function_gob"`
}

// ReloadResponse reports a completed hot reload. A coordinator sums
// Functions over the shard groups and reports the combined fleet
// generation, as HealthResponse does, which is not an index generation;
// Format and Mapped are what every replica reported, and zero where the
// replicas differ.
type ReloadResponse struct {
	Functions  int     `json:"functions"`
	Generation uint64  `json:"generation"`
	TookMS     float64 `json:"took_ms"`
	Format     int     `json:"format"` // TRACYIDX on-disk version
	Mapped     bool    `json:"mapped"` // true when served from mmap
}

// ErrorResponse is the body of every non-2xx reply. TraceID lets a
// caller quote the exact failed request when filing a report — 499/504
// cancellation errors and 500s all carry it.
type ErrorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
	// Fleet carries per-replica failure detail when a coordinator could
	// not get any shard to answer (502); the response also sets a
	// Retry-After header derived from the prober's next-probe schedule.
	Fleet []ReplicaError `json:"fleet,omitempty"`
}
