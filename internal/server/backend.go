package server

import (
	"context"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// SearchBackend is where answers come from once a request has cleared
// the front door (decode, admission, deadlines in the handlers; option
// validation, the result cache and query resolution in Server.search).
// Two implementations exist: localBackend answers from this process's
// own index snapshot (the classic single-process mode), and fleetBackend
// scatter-gathers a sharded worker fleet (coordinator mode,
// Config.Fleet). Handlers and front end are written against this
// interface only, so the two modes share every byte of HTTP,
// observability, admission and caching machinery.
type SearchBackend interface {
	// begin pins the corpus p is answered from — its cache generation and
	// whatever the backend needs to search exactly that corpus — or
	// refuses a request it can never serve.
	begin(ctx context.Context, p *searchPlan) error
	// lookup resolves a by-reference query into p.
	lookup(ctx context.Context, p *searchPlan, exe, name string) error
	// adopt resolves p to fn, a function that came with the request.
	adopt(p *searchPlan, fn *prep.Function) error
	// search answers the resolved p, exactly or (p.degraded) in
	// reduced-quality mode; the front end stamps the query header and the
	// timing. cacheable is false for an answer that must not be repeated.
	search(ctx context.Context, p *searchPlan, req *SearchRequest) (resp *SearchResponse, cacheable bool, err error)
	// Functions lists the indexed corpus (exe filters, limit > 0 caps).
	Functions(ctx context.Context, exe string, limit int) (*FunctionsResponse, error)
	// Health reports liveness and the served corpus's shape. It never
	// fails: trouble is reported inside the response.
	Health(ctx context.Context) *HealthResponse
	// Reload swaps in a fresh index (local: re-read DBPath; fleet:
	// broadcast to every worker).
	Reload(ctx context.Context) (*ReloadResponse, error)
}

// localBackend serves from the server's own atomic snapshot.
type localBackend struct {
	s *Server
}

func (b localBackend) begin(_ context.Context, p *searchPlan) error {
	if p.st = b.s.snap.Load(); p.st == nil {
		return errf(http.StatusServiceUnavailable, "no index loaded")
	}
	if !p.st.snap.SupportsK(p.k) {
		return errf(http.StatusBadRequest, "k=%d not precomputed (supported: %v)", p.k, p.st.snap.Ks())
	}
	p.gen = p.st.gen
	return nil
}

// lookup takes the snapshot's own memoized decomposition: nothing is
// decomposed per request.
func (b localBackend) lookup(_ context.Context, p *searchPlan, exe, name string) error {
	ref, err := p.st.snap.LookupDecomposed(exe, name, p.k)
	if err != nil {
		return errf(http.StatusInternalServerError, "%v", err)
	}
	if ref == nil {
		return errf(http.StatusNotFound, "no indexed function %s/%s", exe, name)
	}
	p.setRef(ref)
	return nil
}

func (b localBackend) adopt(p *searchPlan, fn *prep.Function) error {
	p.setRef(core.DecomposeT(fn, p.k, b.s.tel))
	return nil
}

func (p *searchPlan) setRef(ref *core.Decomposed) {
	p.ref, p.fp = ref, ref.Fingerprint()
	p.hdr = queryHeader{name: ref.Name, blocks: ref.NumBlocks, insts: ref.NumInsts}
}

// search fans the query out over the pinned snapshot under ctx for the
// request's top-K: the engine compares in full only the candidates that
// can still enter it (index.Snapshot.Search).
func (b localBackend) search(ctx context.Context, p *searchPlan, _ *SearchRequest) (*SearchResponse, bool, error) {
	if p.degraded {
		return b.rankDegraded(ctx, p)
	}
	s, sp := b.s, telemetry.SpanFromContext(ctx)
	opts := s.opts
	opts.K = p.k
	opts.Tel = s.tel
	// An injected lsh fault models the candidate generator being
	// unavailable (not the search failing): degrade to the scan prefilter
	// and mark the answer, mirroring the organic no-signatures fallback.
	pf := p.pf
	lshFellBack := pf.Mode == index.ModeLSH && s.faults.Fire(ctx, FaultLSH) != nil
	if lshFellBack {
		s.tel.Inc(telemetry.LSHFallbacks)
		pf.Mode = index.ModeScan
	}
	ans, serr := p.st.snap.Search(ctx, index.Query{Ref: p.ref, Opts: opts, Prefilter: pf, Limit: p.limit, MinScore: p.minScore})
	if serr != nil {
		if he := ctxHTTPErr(serr); he != nil {
			return nil, false, he
		}
		if idxfile.IsCorrupt(serr) {
			// A candidate's stored records failed their first-touch checks:
			// the index is at fault, not the request, and no answer that
			// leaves the candidate out may pass for the full one.
			return nil, false, errf(http.StatusInternalServerError, "%v", serr)
		}
		return nil, false, errf(http.StatusBadRequest, "%v", serr)
	}
	resp := &SearchResponse{
		K:           p.k,
		Candidates:  ans.Candidates,
		Prefiltered: pf.Enabled,
		Hits:        make([]Hit, len(ans.Hits)),
	}
	if pf.Enabled {
		resp.PrefilterMode = string(pf.Mode)
	}
	if lshFellBack {
		s.tel.Inc(telemetry.ServerDegraded)
		sp.Set("degraded", 1)
		resp.Degraded = true
		resp.DegradedReason = "lsh prefilter unavailable: fell back to scan candidates"
	}
	for i, h := range ans.Hits {
		if h.Result.Truncated {
			sp.Set("truncated", 1)
		}
		resp.Hits[i] = wireHit(h)
	}
	// A fell-back answer is degraded and must not shadow the real lsh
	// result once the fault clears: never cache it.
	return resp, !lshFellBack, nil
}

// rankDegraded answers without an in-flight slot: the snapshot's
// prefilter ranks the corpus by shared features and the top entries are
// returned with degraded:true — feature-share ratios in place of
// similarity scores, IsMatch never set.
func (b localBackend) rankDegraded(ctx context.Context, p *searchPlan) (*SearchResponse, bool, error) {
	ranked, rerr := p.st.snap.PrefilterRankWith(ctx, p.ref, p.limit, index.ModeScan)
	if rerr != nil {
		if he := ctxHTTPErr(rerr); he != nil {
			return nil, false, he
		}
		return nil, false, errf(http.StatusInternalServerError, "%v", rerr)
	}
	qf := len(index.QueryFeatures(p.ref))
	entries := p.st.snap.Entries()
	resp := &SearchResponse{
		K:              p.k,
		Candidates:     len(ranked),
		Degraded:       true,
		DegradedReason: "server saturated: prefilter-only ranking, no exact comparison",
		Hits:           make([]Hit, len(ranked)),
	}
	for i, r := range ranked {
		e := entries[r.ID]
		score := 0.0
		if qf > 0 {
			score = min(float64(r.Shared)/float64(qf), 1)
		}
		resp.Hits[i] = Hit{Exe: e.Exe, Name: e.Name, Addr: e.Addr, Score: score}
	}
	return resp, true, nil
}

// wireHit renders one ranked hit for the response.
func wireHit(h index.Hit) Hit {
	return Hit{
		Exe:            h.Entry.Exe,
		Name:           h.Entry.Name,
		Addr:           h.Entry.Addr,
		Score:          h.Result.SimilarityScore,
		IsMatch:        h.Result.IsMatch,
		Matched:        h.Result.Matched(),
		RefTracelets:   h.Result.RefTracelets,
		MatchedRewrite: h.Result.MatchedRewrite,
	}
}

func (b localBackend) Functions(_ context.Context, exe string, limit int) (*FunctionsResponse, error) {
	st := b.s.snap.Load()
	if st == nil {
		return nil, errf(http.StatusServiceUnavailable, "no index loaded")
	}
	resp := &FunctionsResponse{Total: st.snap.Len()}
	for _, e := range st.snap.Entries() {
		if exe != "" && e.Exe != exe {
			continue
		}
		fn, err := e.Decode() // a listing must not pin what it walks
		if err != nil {
			return nil, errf(http.StatusInternalServerError, "%v", err)
		}
		resp.Functions = append(resp.Functions, FunctionInfo{
			Exe: e.Exe, Name: e.Name, Addr: e.Addr,
			Blocks: fn.NumBlocks(), Insts: fn.NumInsts(),
		})
		if limit > 0 && len(resp.Functions) == limit {
			break
		}
	}
	return resp, nil
}

func (b localBackend) Health(context.Context) *HealthResponse {
	st := b.s.snap.Load()
	if st == nil {
		return &HealthResponse{Status: "empty"}
	}
	ks := append([]int(nil), st.snap.Ks()...)
	sort.Ints(ks)
	return &HealthResponse{
		Status:      "ok",
		Functions:   st.snap.Len(),
		Ks:          ks,
		Shards:      st.snap.NumShards(),
		Generation:  st.gen,
		LoadedAt:    st.loadedAt,
		IndexFormat: st.info.Version,
		IndexMapped: st.info.Mapped,
		LoadMS:      st.loadMS,
	}
}

func (b localBackend) Reload(context.Context) (*ReloadResponse, error) {
	resp, err := b.s.reload()
	if err != nil {
		return nil, err
	}
	b.s.tel.Inc(telemetry.ServerReloads)
	return resp, nil
}
