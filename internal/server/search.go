package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// The front end of a search request, shared by both backends and by the
// single, batch and degraded entry points: validate and normalise the
// options, probe the result cache under the request alias, and only on a
// miss resolve the query, probe under its content key, search and store
// the answer once, reachable by both keys. A request pays for what it
// asks: a repeat costs a hash of its designator and a map probe however
// large the upload, and a coordinator fetches nothing for it.

// searchPlan is one request on its way through the front end.
type searchPlan struct {
	// The normalised options (planSearch).
	k, limit int
	minScore float64
	pf       index.PrefilterOptions
	effCand  int  // effective candidate cap; 0 = exhaustive
	degraded bool // saturated DegradedMode request: no in-flight slot held

	// The corpus the backend pinned (begin).
	gen uint64
	st  *snapState // local only

	// The resolved query (lookup or adopt): its header, its content
	// fingerprint and the form the backend searches with.
	hdr queryHeader
	fp  uint64
	ref *core.Decomposed // local
	gob string           // fleet: the function in wire form
}

// planSearch validates req's options and query form and normalises the
// options — the only copy of either.
func (s *Server) planSearch(req *SearchRequest, degraded bool) (*searchPlan, error) {
	p := &searchPlan{k: req.K, limit: req.Limit, minScore: req.MinScore, degraded: degraded}
	if p.k <= 0 {
		p.k = s.opts.K
	}
	switch {
	case p.limit <= 0:
		p.limit = 10
	case p.limit > 1000:
		p.limit = 1000
	}
	if req.MinScore < 0 || req.MinScore > 1 {
		return nil, errf(http.StatusBadRequest, "min_score %v outside [0,1]", req.MinScore)
	}
	if req.Candidates < 0 {
		return nil, errf(http.StatusBadRequest, "candidates %d must be positive", req.Candidates)
	}
	if req.TimeoutMS < 0 {
		return nil, errf(http.StatusBadRequest, "timeout_ms %d must be positive", req.TimeoutMS)
	}
	mode, ok := index.ParsePrefilterMode(req.PrefilterMode)
	if !ok {
		return nil, errf(http.StatusBadRequest, "prefilter_mode %q unknown (want scan or lsh)", req.PrefilterMode)
	}
	// Asking for lsh candidates, or for a cap, is asking for the prefilter.
	p.pf = index.PrefilterOptions{Candidates: min(req.Candidates, 1000), Mode: mode,
		Enabled: req.Prefilter || req.Candidates > 0 || mode == index.ModeLSH}
	if p.pf.Enabled {
		if p.effCand = p.pf.Candidates; p.effCand <= 0 {
			p.effCand = index.DefaultPrefilterCandidates
		}
	}
	byGob, byImage, byRef := req.QueryGob != "", req.Image != "", req.Exe != "" || req.Name != ""
	switch {
	case byGob && (byImage || byRef), byImage && byRef:
		return nil, errf(http.StatusBadRequest, "give either image or exe/name, not both")
	case byRef && (req.Exe == "" || req.Name == ""):
		return nil, errf(http.StatusBadRequest, "reference queries need both exe and name")
	case !byGob && !byImage && !byRef:
		return nil, errf(http.StatusBadRequest, "empty query: set image or exe/name")
	}
	return p, nil
}

// requestAlias fingerprints the query designator as received — the
// base64 image text and function name, or exe and name — so a repeated
// request is recognised before anything is decoded, lifted or fetched.
// SHA-256 because the designator is client-chosen and a collision would
// serve another query's answer. Identical text is what aliases: the same
// image re-encoded differently falls through to the content key.
func requestAlias(req *SearchRequest) (sum [sha256.Size]byte) {
	first, rest, form := req.Exe, req.Name, byte('r')
	if req.Image != "" {
		first, rest, form = req.Function, req.Image, 'i'
	}
	h := sha256.New()
	var pre [9]byte // form and len(first): no two designators hash the same bytes
	pre[0] = form
	binary.LittleEndian.PutUint64(pre[1:], uint64(len(first)))
	_, _ = h.Write(pre[:]) // a hash.Hash never fails to write
	_, _ = io.WriteString(h, first)
	_, _ = io.WriteString(h, rest)
	h.Sum(sum[:0])
	return sum
}

// search answers one request; degraded selects the saturated path, which
// serves a cached exact answer when there is one and otherwise a
// prefilter-only ranking, cached in its own keyspace and never aliased so
// that it cannot shadow an exact result.
func (s *Server) search(ctx context.Context, req *SearchRequest, degraded bool) (*SearchResponse, error) {
	t0 := time.Now()
	sp := telemetry.SpanFromContext(ctx)
	p, err := s.planSearch(req, degraded)
	if err == nil {
		err = s.backend.begin(ctx, p)
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := reqCtx(ctx, req)
	defer cancel()

	// A cache fault means the cache is unavailable, not that the search
	// fails: neither key is read or written.
	cacheOK := s.faults.Fire(ctx, FaultCache) == nil
	// probe is one lookup under the "cache" stage. An alias probe pays for
	// hashing the designator and answers under the header filed with the
	// alias; a content probe answers under the request's own resolution.
	// However many probes a request makes, they are one hit or one miss
	// and one CacheLookupLatency sample.
	var cacheTime time.Duration
	probe := func(key *cacheKey, byAlias bool) *SearchResponse {
		if !cacheOK {
			return nil
		}
		c0, csp := time.Now(), sp.Child("cache")
		if byAlias {
			key.alias = requestAlias(req)
		}
		cached, hdr, ok := s.cache.get(*key)
		csp.End()
		cacheTime += time.Since(c0)
		if !ok {
			return nil
		}
		s.tel.Inc(telemetry.ServerCacheHits)
		s.tel.Observe(telemetry.CacheLookupLatency, cacheTime)
		sp.Set("cached", 1)
		resp := *cached // shallow copy; shared Hits are read-only
		if !byAlias {
			hdr = p.hdr
		}
		hdr.stamp(&resp)
		resp.Cached = true
		resp.TookMS = msSince(t0)
		return &resp
	}
	key := cacheKey{gen: p.gen, k: p.k, limit: p.limit, minScore: p.minScore, candidates: p.effCand, mode: p.pf.Mode}
	// A worker's QueryGob request is the coordinator's miss: no alias.
	alias, aliased := key, cacheOK && req.QueryGob == ""
	if aliased {
		if resp := probe(&alias, true); resp != nil {
			return resp, nil
		}
	}

	rsp := sp.Child("resolve")
	err = s.resolve(ctx, p, req)
	rsp.End()
	if err != nil {
		return nil, err
	}
	key.fp = p.fp
	resp := probe(&key, false)
	if resp != nil && aliased {
		s.cache.link(key, alias, p.hdr)
	}
	if resp == nil && degraded {
		s.tel.Inc(telemetry.ServerDegraded)
		sp.Set("degraded", 1)
		key, aliased = cacheKey{fp: p.fp, gen: p.gen, k: p.k, limit: p.limit, degraded: true}, false
		resp = probe(&key, false)
	}
	if resp != nil {
		return resp, nil
	}
	if cacheOK {
		s.tel.Inc(telemetry.ServerCacheMisses)
		s.tel.Observe(telemetry.CacheLookupLatency, cacheTime)
	}

	if err := s.faults.Fire(ctx, FaultSearch); err != nil {
		return nil, errf(http.StatusInternalServerError, "search: %v", err)
	}
	resp, cacheable, err := s.backend.search(ctx, p, req)
	if err != nil {
		return nil, err
	}
	p.hdr.stamp(resp)
	resp.TookMS = msSince(t0)
	if cacheOK && cacheable {
		s.cache.put(key, resp)
		if aliased {
			s.cache.link(key, alias, p.hdr)
		}
	}
	return resp, nil
}

func (h *queryHeader) stamp(resp *SearchResponse) {
	resp.Query, resp.QueryBlocks, resp.QueryInsts = h.name, h.blocks, h.insts
}

// resolve produces the query from any form of SearchRequest, doing what
// the request asks and no more: a fleet-internal QueryGob is decoded, an
// upload has the one function it names lifted, and a by-reference query
// is the backend's to look up in the corpus it serves.
func (s *Server) resolve(ctx context.Context, p *searchPlan, req *SearchRequest) error {
	var fn *prep.Function
	var err error
	switch {
	case req.QueryGob != "":
		if fn, err = decodeQueryGob(req.QueryGob); err != nil {
			return errf(http.StatusBadRequest, "%v", err)
		}
	case req.Image != "":
		if fn, err = liftQueryImage(s.tel, req); err != nil {
			return err
		}
	default:
		return s.backend.lookup(ctx, p, req.Exe, req.Name)
	}
	return s.backend.adopt(p, fn)
}

// liftQueryImage decodes an uploaded query image and lifts the requested
// function, or every function to pick the largest when none is named,
// reporting the lift (lift_latency, functions_lifted,
// instructions_decoded) into tel.
func liftQueryImage(tel *telemetry.Collector, req *SearchRequest) (*prep.Function, error) {
	img, err := req.DecodeImage()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "bad base64 image: %v", err)
	}
	if req.Function != "" {
		fn, err := prep.LiftNamedTel(tel, img, req.Function)
		if errors.Is(err, prep.ErrNoFunction) {
			return nil, errf(http.StatusNotFound, "image has no function %q", req.Function)
		}
		if err != nil {
			return nil, errf(http.StatusBadRequest, "lifting image: %v", err)
		}
		return fn, nil
	}
	fns, err := prep.LiftImageTel(tel, img)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "lifting image: %v", err)
	}
	if len(fns) == 0 {
		return nil, errf(http.StatusBadRequest, "image has no functions")
	}
	best := fns[0]
	for _, fn := range fns[1:] {
		if fn.NumInsts() > best.NumInsts() {
			best = fn
		}
	}
	return best, nil
}
