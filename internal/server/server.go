// Package server turns the tracelet search engine into a long-running
// HTTP/JSON query service (paper Section 5.2 frames TRACY as a search
// engine over a large code base; this is its serving layer).
//
// The server maps the index once and prepares an immutable
// index.Snapshot over it: entries decompose per tracelet size on first
// touch, one query fans out across workers, and any number of queries run
// concurrently with no locks on the read path. A hot reload
// (POST /v1/reload, or SIGHUP via tracy serve) builds a fresh snapshot
// and swaps it in atomically; in-flight queries finish on the old one.
//
// Robustness is part of the design: a bounded in-flight semaphore sheds
// load with 429 instead of queueing unboundedly, every request runs
// under a deadline and a body-size limit, shutdown drains in-flight
// queries, and an LRU cache of responses, each reachable by the request
// as it was sent and by the content of its resolved query (both beside
// the options and the snapshot generation), short-circuits repeated
// searches before anything is lifted or fetched (search.go). Everything
// reports into a telemetry.Collector served at /statsz alongside the
// pprof endpoints.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// Config shapes a Server. The zero value of every field selects a
// sensible production default.
type Config struct {
	// DBPath is the TRACYIDX v4 index to map and hot-reload. Optional when the
	// server is seeded with NewFromDB (reload then requires a path).
	DBPath string

	// Opts are the default matching options (zero value:
	// core.DefaultOptions). The snapshot precomputes Opts.K only; a
	// request naming another k is refused with 400.
	Opts core.Options

	// MaxInFlight bounds concurrently processed search requests; excess
	// requests are rejected with 429 (default 4*GOMAXPROCS).
	MaxInFlight int

	// QueueDepth bounds requests waiting for an in-flight slot when all
	// MaxInFlight slots are taken. 0 (the default) keeps the legacy
	// behavior: shed immediately with 429. With a positive depth the
	// server queues up to that many requests — interactive searches
	// ahead of batch scans — and sheds only when the queue is also full,
	// keeping the fleet work-conserving under bursts instead of bouncing
	// clients into second-long retry backoffs.
	QueueDepth int

	// Fleet lists worker base URLs, one entry per corpus shard as
	// written by tracy shard. An entry may name several replicas of the
	// same shard separated by "|" (e.g. "http://a1|http://a2"); the
	// coordinator scatters each query to one healthy replica per shard
	// and fails over to siblings. Non-empty turns this server into a
	// scatter-gather coordinator: it loads no index itself and answers
	// every query by fanning out to the fleet and merging the partial
	// top-K lists. See fleet.go.
	Fleet []string

	// ShardHedge, when positive, arms hedged scatter legs: if a shard's
	// chosen replica has not answered within this delay and a sibling
	// replica is available, the coordinator races a second request
	// against it and takes the first answer. 0 disables hedging.
	ShardHedge time.Duration

	// ProbeInterval is how often the coordinator's background prober
	// refreshes each live replica's health (default 1s). Down replicas
	// are re-probed on an exponential backoff starting at 250ms.
	ProbeInterval time.Duration

	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64

	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration

	// CacheEntries sizes the LRU result cache (default 256; negative
	// disables caching).
	CacheEntries int

	// DegradedMode opts into graceful degradation: when every in-flight
	// slot is taken, instead of shedding with 429 the server answers from
	// the result cache when it can, and otherwise falls back to a
	// prefilter-only ranking marked degraded:true — a reduced-quality
	// answer that is orders of magnitude cheaper than an exact search.
	// New refuses it with Fleet.
	DegradedMode bool

	// Faults, when non-nil, arms fault injection at the server's named
	// fault points (decode, cache, search, reload) — chaos testing only.
	// tracy serve arms it from the TRACY_FAULTS environment variable.
	Faults *faultinject.Injector

	// Tel receives server telemetry and is served at /statsz (default: a
	// fresh collector).
	Tel *telemetry.Collector

	// AccessLog, when non-nil, receives one structured JSON line per
	// logged request. Lines are sampled 1-in-AccessLogSample (default 1:
	// every request), but errors and slow queries always log.
	AccessLog       io.Writer
	AccessLogSample int

	// SlowQueryThreshold marks requests at least this slow: they bump
	// server_slow_queries, always reach the access log, and compete for
	// flight-recorder retention (default telemetry.DefaultSlowQuery).
	SlowQueryThreshold time.Duration
}

// Named fault points the server fires (see internal/faultinject).
const (
	FaultDecode = "decode" // request-body decode
	FaultCache  = "cache"  // result-cache lookup/store (fault = cache miss)
	FaultSearch = "search" // snapshot search, after the cache miss
	FaultReload = "reload" // index reload
	FaultLSH    = "lsh"    // lsh candidate generation (fault = scan fallback)
	FaultShard  = "shard"  // coordinator scatter leg; "shard<i>" targets one shard
)

// snapState is what one atomic snapshot swap publishes.
type snapState struct {
	snap     *index.Snapshot
	gen      uint64
	loadedAt time.Time
	info     index.Info // provenance of the loaded index (format, mmap)
	loadMS   float64    // load + snapshot-build time
}

// Server is the query service. Create with New or NewFromDB.
type Server struct {
	cfg     Config
	opts    core.Options
	tel     *telemetry.Collector
	snap    atomic.Pointer[snapState]
	gen     atomic.Uint64
	adm     *admission
	backend SearchBackend
	cache   *resultCache
	faults  *faultinject.Injector // nil when chaos is off

	flight     *telemetry.FlightRecorder
	accessLog  *telemetry.AccessLogger // nil when no AccessLog writer
	slowThresh time.Duration

	httpSrv *http.Server

	// holdForTest, when non-nil, blocks every search request after it
	// acquires its in-flight slot — the hook saturation and drain tests
	// use to hold requests in flight deterministically.
	holdForTest chan struct{}
}

// New builds a server and, when cfg.DBPath is set, loads the index. It
// refuses a coordinator (Fleet) with DegradedMode: a coordinator
// degrades by merging the surviving shards.
func New(cfg Config) (*Server, error) {
	if len(cfg.Fleet) > 0 && cfg.DegradedMode {
		return nil, errors.New("serve: -degraded cannot combine with -fleet (a coordinator degrades by merging the surviving shards)")
	}
	s := newServer(cfg)
	if cfg.DBPath != "" {
		if _, err := s.reload(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NewFromDB builds a server over an in-memory database (no DBPath
// needed); the snapshot is built immediately.
func NewFromDB(db *index.DB, cfg Config) *Server {
	s := newServer(cfg)
	s.install(db, time.Now())
	return s
}

func newServer(cfg Config) *Server {
	opts := cfg.Opts
	if opts == (core.Options{}) {
		opts = core.DefaultOptions()
	}
	if opts.K <= 0 {
		opts.K = core.DefaultK
	}
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.New()
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	cacheN := cfg.CacheEntries
	switch {
	case cacheN == 0:
		cacheN = 256
	case cacheN < 0:
		cacheN = 0 // disabled
	}
	if cfg.Faults != nil && cfg.Faults.Tel == nil {
		cfg.Faults.Tel = tel
	}
	slowT := cfg.SlowQueryThreshold
	if slowT <= 0 {
		slowT = telemetry.DefaultSlowQuery
	}
	s := &Server{
		cfg:        cfg,
		opts:       opts,
		tel:        tel,
		adm:        newAdmission(maxInFlight, cfg.QueueDepth, tel),
		cache:      newResultCache(cacheN),
		faults:     cfg.Faults,
		flight:     telemetry.NewFlightRecorder(telemetry.DefaultFlightSlow, telemetry.DefaultFlightErrors),
		accessLog:  telemetry.NewAccessLogger(cfg.AccessLog, cfg.AccessLogSample, slowT),
		slowThresh: slowT,
	}
	if len(cfg.Fleet) > 0 {
		s.backend = newFleetBackend(s)
	} else {
		s.backend = localBackend{s}
	}
	return s
}

// Tel returns the server's telemetry collector.
func (s *Server) Tel() *telemetry.Collector { return s.tel }

// Flight returns the server's flight recorder (served at
// /debug/requests).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// install builds a snapshot of db and swaps it in; t0 is when the load
// began (file open counts toward loadMS). The swapped-in index's
// provenance is published as the tracy_index_info metric so dashboards
// can tell which on-disk format is live and whether it is an mmap.
func (s *Server) install(db *index.DB, t0 time.Time) *snapState {
	db.Tel = s.tel
	st := &snapState{
		snap:     index.BuildSnapshot(db, []int{s.opts.K}, 0),
		gen:      s.gen.Add(1),
		loadedAt: time.Now(),
		info:     db.Info(),
		loadMS:   msSince(t0),
	}
	s.snap.Store(st)
	s.cache.purge()
	s.tel.SetInfo("index_info", "", map[string]string{
		"format":     strconv.Itoa(st.info.Version),
		"mapped":     strconv.FormatBool(st.info.Mapped),
		"path":       st.info.Path,
		"functions":  strconv.Itoa(st.info.Funcs),
		"generation": strconv.FormatUint(st.gen, 10),
	})
	return st
}

// Reload swaps in a fresh index, as POST /v1/reload does: a standalone
// server re-reads cfg.DBPath and atomically swaps in the new snapshot,
// a coordinator has every worker reload. In-flight queries keep using
// the old snapshot until they return.
func (s *Server) Reload() (*ReloadResponse, error) {
	return s.backend.Reload(context.Background())
}

func (s *Server) reload() (*ReloadResponse, error) {
	if s.cfg.DBPath == "" {
		return nil, errors.New("server: no index path configured for reload")
	}
	if err := s.faults.Fire(context.Background(), FaultReload); err != nil {
		return nil, err
	}
	t0 := time.Now()
	// OpenFile maps the v4 file (lazy, page-granular) and refuses any
	// other, naming tracy convert. The previous snapshot's mapping is NOT
	// closed here —
	// in-flight queries may still be decoding from it; once they drain
	// and the old state is collected, its finalizer unmaps.
	db, err := index.OpenFile(s.cfg.DBPath)
	if err != nil {
		return nil, err
	}
	st := s.install(db, t0)
	return &ReloadResponse{
		Functions:  st.snap.Len(),
		Generation: st.gen,
		TookMS:     msSince(t0),
		Format:     st.info.Version,
		Mapped:     st.info.Mapped,
	}, nil
}

// recoverPanics is the outermost per-request middleware: a panicking
// handler answers 500 with a JSON error and bumps server_panics instead
// of tearing down the connection (net/http would survive the panic but
// the client would see an aborted response and the failure would go
// uncounted). http.ErrAbortHandler keeps its meaning and is re-raised.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.tel.Inc(telemetry.ServerPanics)
			msg := fmt.Sprintf("internal error: %v", p)
			obsFromContext(r.Context()).setErr(msg)
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Error:   msg,
				TraceID: telemetry.SpanFromContext(r.Context()).TraceID(),
			})
		}()
		h.ServeHTTP(w, r)
	})
}

// Handler returns the service mux: the /v1 API plus /statsz, /metrics
// and /debug/pprof from the telemetry collector and the flight
// recorder's /debug/requests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	timeoutBody, _ := json.Marshal(ErrorResponse{Error: "request deadline exceeded"})
	api := func(h http.HandlerFunc) http.Handler {
		// TimeoutHandler both bounds the wall-clock response time and — by
		// wrapping the request context in a deadline — turns RequestTimeout
		// into a real compute budget now that the search path is
		// cancellable. Panics inside it propagate out, so the recovery
		// middleware wraps it; the observe middleware goes outermost so the
		// trace spans the request's full life including a timeout's 503.
		return s.observe(s.recoverPanics(http.TimeoutHandler(h, s.cfg.RequestTimeout, string(timeoutBody))))
	}
	mux.Handle("POST /v1/search", api(s.admitted(classInteractive, s.handleSearch)))
	mux.Handle("POST /v1/search/batch", api(s.admitted(classBatch, s.handleBatch)))
	mux.Handle("GET /v1/functions", api(s.handleFunctions))
	mux.Handle("GET /v1/fleet/function", api(s.handleFleetFunction))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz) // no deadline: must answer under load
	mux.Handle("POST /v1/reload", api(s.handleReload))
	th := telemetry.Handler(s.tel)
	mux.Handle("/statsz", th)
	mux.Handle("/metrics", th)
	mux.Handle("/debug/pprof/", th)
	mux.Handle("GET /debug/requests", s.flight)
	return mux
}

// Start listens on addr and serves in a background goroutine; use
// Shutdown to stop. It returns the bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown stops accepting new connections, drains in-flight requests
// (up to ctx's deadline), and stops backend background work (the
// coordinator's membership prober).
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if c, ok := s.backend.(io.Closer); ok {
		_ = c.Close()
	}
	return err
}

// httpError carries a status code through the request pipeline, plus
// optional fleet failure detail (coordinator 502s: per-replica errors
// and a Retry-After derived from the membership prober's schedule).
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration // >0: emit a Retry-After header
	fleet      []ReplicaError
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// encodeResponse writes a 200 answer under an "encode" stage span, so the
// server time of a request that does little else — a cache hit — is
// named. A SearchResponse is written by its own codec; a response that
// cannot be encoded (a NaN score) leaves the body empty, as json.Encoder
// did.
func encodeResponse(w http.ResponseWriter, sp *telemetry.Span, v any) {
	esp := sp.Child("encode")
	if resp, ok := v.(*SearchResponse); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if b, err := resp.MarshalJSON(); err == nil {
			_, _ = w.Write(append(b, '\n'))
		}
	} else {
		writeJSON(w, http.StatusOK, v)
	}
	esp.End()
}

// writeErr answers r with err's status and message, stamping the
// request's trace ID into the body and recording the message for the
// access log / flight recorder.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	he := &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	errors.As(err, &he)
	obsFromContext(r.Context()).setErr(he.msg)
	if he.retryAfter > 0 {
		secs := int64((he.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, he.status, ErrorResponse{
		Error:   he.msg,
		TraceID: telemetry.SpanFromContext(r.Context()).TraceID(),
		Fleet:   he.fleet,
	})
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// shedRetryAfter is the backoff hint attached to every 429: the server
// is saturated with searches that take O(100ms..s), so "come back in a
// second" is an honest floor for when a slot may free up.
const shedRetryAfter = "1"

// admitted wraps a search handler in the admission step both share: it
// takes an in-flight slot in class, waiting in the queue when QueueDepth
// allows, counts the request and times it. A request abandoned while
// queued is answered with its error, a saturated one is shed with 429
// plus a Retry-After hint — or, on a DegradedMode server, handled
// degraded, holding no slot.
func (s *Server) admitted(class admClass, h func(w http.ResponseWriter, r *http.Request, degraded bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.acquire(r.Context(), class)
		if err != nil {
			// Gave up (or deadlined) while queued for a slot.
			writeErr(w, r, queueErr(err))
			return
		}
		// With every in-flight slot taken a DegradedMode server still
		// answers: from the result cache if it can, else with a
		// prefilter-only ranking marked degraded — both cheap enough to run
		// outside the semaphore.
		degraded := release == nil
		if degraded && !s.cfg.DegradedMode {
			s.tel.Inc(telemetry.ServerRejected)
			w.Header().Set("Retry-After", shedRetryAfter)
			writeErr(w, r, errf(http.StatusTooManyRequests, "server saturated: %d searches in flight", s.adm.capacity))
			return
		}
		if !degraded {
			defer release()
		}
		s.tel.Inc(telemetry.ServerRequests)
		lt := s.tel.StartTimer(telemetry.ServerLatency)
		defer lt.Stop()
		if !degraded && s.holdForTest != nil {
			<-s.holdForTest
		}
		h(w, r, degraded)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, degraded bool) {
	sp := telemetry.SpanFromContext(r.Context())
	var req SearchRequest
	if err := s.decodeRequest(w, r, sp, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	resp, err := s.search(r.Context(), &req, degraded)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	resp.TraceID = sp.TraceID()
	encodeResponse(w, sp, resp)
}

// maxBatch bounds the queries in one batch request.
const maxBatch = 64

// handleBatch answers a batch's queries back to back under the one
// in-flight slot it holds; each still fans out across all snapshot
// shards. Batches queue in the lower-priority class so a standing scan
// workload cannot starve interactive point queries of freed slots.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, degraded bool) {
	sp := telemetry.SpanFromContext(r.Context())
	var req BatchRequest
	if err := s.decodeRequest(w, r, sp, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, r, errf(http.StatusBadRequest, "batch: no queries"))
		return
	}
	if len(req.Queries) > maxBatch {
		writeErr(w, r, errf(http.StatusBadRequest, "batch: %d queries exceeds the limit of %d", len(req.Queries), maxBatch))
		return
	}
	out := BatchResponse{Results: make([]BatchItem, len(req.Queries)), TraceID: sp.TraceID()}
	for i := range req.Queries {
		// Each batch item gets its own child span so the span tree shows
		// per-query stage timings: query:N -> resolve/cache/prefilter/...
		qsp := sp.Child(fmt.Sprintf("query:%d", i))
		qctx := telemetry.ContextWithSpan(r.Context(), qsp)
		resp, err := s.search(qctx, &req.Queries[i], degraded)
		qsp.End()
		if err != nil {
			out.Results[i].Error = err.Error()
			continue
		}
		resp.TraceID = sp.TraceID()
		out.Results[i].Result = resp
	}
	encodeResponse(w, sp, out)
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	exe := r.URL.Query().Get("exe")
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit < 0 {
			writeErr(w, r, errf(http.StatusBadRequest, "functions: bad limit %q", v))
			return
		}
	}
	resp, err := s.backend.Functions(r.Context(), exe, limit)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.Health(r.Context()))
}

// handleFleetFunction serves the fleet-internal by-reference query
// lookup: the gob of one indexed function, so a coordinator can resolve
// an exe/name query against whichever shard owns it.
func (s *Server) handleFleetFunction(w http.ResponseWriter, r *http.Request) {
	st := s.snap.Load()
	if st == nil {
		writeErr(w, r, errf(http.StatusServiceUnavailable, "no index loaded"))
		return
	}
	exe := r.URL.Query().Get("exe")
	name := r.URL.Query().Get("name")
	if exe == "" || name == "" {
		writeErr(w, r, errf(http.StatusBadRequest, "fleet function lookup needs exe and name"))
		return
	}
	e := st.snap.Lookup(exe, name)
	if e == nil {
		writeErr(w, r, errf(http.StatusNotFound, "no indexed function %s/%s", exe, name))
		return
	}
	fn, err := e.Decode()
	if err != nil {
		writeErr(w, r, errf(http.StatusInternalServerError, "%v", err))
		return
	}
	qgob, _, err := encodeQueryGob(fn)
	if err != nil {
		writeErr(w, r, errf(http.StatusInternalServerError, "encoding function: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, FleetFunctionResponse{Exe: exe, Name: name, FunctionGob: qgob})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	resp, err := s.backend.Reload(r.Context())
	if err != nil {
		var he *httpError
		if !errors.As(err, &he) {
			err = errf(http.StatusConflict, "reload: %v", err)
		}
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeRequest is decodeBody under a "decode" stage span and the
// request-decode latency histogram.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, sp *telemetry.Span, v any) error {
	dsp := sp.Child("decode")
	dt := s.tel.StartTimer(telemetry.RequestDecodeLatency)
	err := s.decodeBody(w, r, v)
	dt.Stop()
	dsp.End()
	return err
}

// decodeBody JSON-decodes a size-limited request body: a SearchRequest
// by its own codec, anything else by a json.Decoder with unknown fields
// disallowed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := s.faults.Fire(r.Context(), FaultDecode); err != nil {
		return errf(http.StatusInternalServerError, "decode: %v", err)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var err error
	if req, ok := v.(*SearchRequest); ok {
		err = readSearchRequest(body, r.ContentLength, req)
	} else {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
		}
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// reqCtx derives the search's compute context: the request context
// (already deadline-bounded by the TimeoutHandler) tightened further by
// the request's own timeout_ms when given.
func reqCtx(ctx context.Context, req *SearchRequest) (context.Context, context.CancelFunc) {
	if req.TimeoutMS > 0 {
		return context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	return ctx, func() {}
}

// ctxHTTPErr maps a context abort to its HTTP status: 504 for an
// expired deadline, 499 (the de-facto "client closed request" code) for
// an explicit cancel. Nil for any other error.
func ctxHTTPErr(err error) *httpError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errf(http.StatusGatewayTimeout, "search deadline exceeded")
	case errors.Is(err, context.Canceled):
		return errf(499, "search cancelled by client")
	}
	return nil
}

// queueErr maps a request abandoned while queued for an in-flight slot
// to its HTTP error.
func queueErr(err error) *httpError {
	if he := ctxHTTPErr(err); he != nil {
		return he
	}
	return errf(http.StatusServiceUnavailable, "queued request aborted: %v", err)
}
