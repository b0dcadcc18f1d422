package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// The package shares two corpora across tests: a small one for handler
// round-trips and a >= 100-function one for the concurrency suite. Both
// are built once.
var (
	smallOnce sync.Once
	smallDBv  *index.DB
	smallCv   *corpus.Corpus
	smallErr  error

	bigOnce sync.Once
	bigDBv  *index.DB
	bigErr  error
)

func buildDB(cfg corpus.BuildConfig) (*index.DB, *corpus.Corpus, error) {
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	db := index.New()
	for _, e := range c.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			return nil, nil, err
		}
	}
	return db, c, nil
}

func smallDB(t testing.TB) (*index.DB, *corpus.Corpus) {
	t.Helper()
	smallOnce.Do(func() {
		smallDBv, smallCv, smallErr = buildDB(corpus.BuildConfig{
			Seed: 3, ContextCopies: 3, Versions: 2, NoiseExes: 2,
			FuncsPerExe: 3, TargetStmts: 40, FillerStmts: 15, Opt: tinyc.O2,
		})
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallDBv, smallCv
}

// bigDB returns a corpus of well over 100 functions (the acceptance
// floor for the concurrency suite).
func bigDB(t testing.TB) *index.DB {
	t.Helper()
	bigOnce.Do(func() {
		bigDBv, _, bigErr = buildDB(corpus.BuildConfig{
			Seed: 11, ContextCopies: 4, Versions: 3, NoiseExes: 6,
			FuncsPerExe: 8, TargetStmts: 40, FillerStmts: 12, Opt: tinyc.O2,
		})
	})
	if bigErr != nil {
		t.Fatal(bigErr)
	}
	if bigDBv.Len() < 100 {
		t.Fatalf("big corpus has %d functions, need >= 100", bigDBv.Len())
	}
	return bigDBv
}

// entryWithTruth finds an indexed entry by ground-truth name.
func entryWithTruth(t testing.TB, db *index.DB, truth string) *index.Entry {
	t.Helper()
	for _, e := range db.Entries {
		if e.Truth == truth {
			return e
		}
	}
	t.Fatalf("no entry with truth %q", truth)
	return nil
}

// mustDecode returns e's lifted function, failing the test when it cannot
// be decoded.
func mustDecode(t testing.TB, e *index.Entry) *prep.Function {
	t.Helper()
	fn, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// exeImage returns the stripped image of one corpus executable.
func exeImage(t testing.TB, c *corpus.Corpus, name string) []byte {
	t.Helper()
	for _, e := range c.Exes {
		if e.Name == name {
			return e.Image
		}
	}
	t.Fatalf("no executable %q", name)
	return nil
}

// postSearch round-trips one SearchRequest through a handler.
func postSearch(t testing.TB, h http.Handler, req SearchRequest) (*httptest.ResponseRecorder, *SearchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func TestSearchRoundTripByImage(t *testing.T) {
	db, c := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()

	req := SearchRequest{Limit: 5}
	req.SetImage(exeImage(t, c, "ctx0"))
	// The largest function of a context executable is the planted library
	// function, so the defaults find it.
	rec, resp := postSearch(t, h, req)
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > 5 {
		t.Fatalf("got %d hits, want 1..5", len(resp.Hits))
	}
	if resp.Candidates != db.Len() {
		t.Errorf("candidates = %d, want %d", resp.Candidates, db.Len())
	}
	top := resp.Hits[0]
	if !top.IsMatch || top.Score <= 0.5 {
		t.Errorf("top hit not a confident match: %+v", top)
	}
	want := entryWithTruth(t, db, corpus.LibFuncName)
	if top.Name != want.Name && !strings.HasPrefix(top.Name, "sub_") {
		t.Errorf("unexpected top hit name %q", top.Name)
	}
	if s.Tel().Get(telemetry.ServerRequests) != 1 {
		t.Errorf("server_requests = %d, want 1", s.Tel().Get(telemetry.ServerRequests))
	}
}

func TestSearchByReferenceMatchesOffline(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	e := entryWithTruth(t, db, corpus.LibFuncName)

	_, resp := postSearch(t, s.Handler(), SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000})
	if resp == nil {
		t.Fatal("reference search failed")
	}
	offline := index.TopK(index.SerialSearch(db.Entries, mustDecode(t, e), core.DefaultOptions()), 1000, 0)
	if len(resp.Hits) != len(offline) {
		t.Fatalf("server returned %d hits, offline %d", len(resp.Hits), len(offline))
	}
	for i, h := range resp.Hits {
		if h.Exe != offline[i].Entry.Exe || h.Name != offline[i].Entry.Name {
			t.Errorf("hit %d: %s/%s, offline %s/%s", i, h.Exe, h.Name,
				offline[i].Entry.Exe, offline[i].Entry.Name)
		}
		if h.Score != offline[i].Result.SimilarityScore {
			t.Errorf("hit %d: score %v, offline %v", i, h.Score, offline[i].Result.SimilarityScore)
		}
	}
}

func TestSearchPrefiltered(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)

	_, resp := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, Candidates: 3, Limit: 1000})
	if resp == nil {
		t.Fatal("prefiltered search failed")
	}
	if !resp.Prefiltered {
		t.Error("response not marked prefiltered")
	}
	if resp.Candidates == 0 || resp.Candidates > 3 {
		t.Errorf("candidates = %d, want 1..3", resp.Candidates)
	}
	if len(resp.Hits) == 0 || !resp.Hits[0].IsMatch {
		t.Errorf("prefiltered search lost the planted match: %+v", resp.Hits)
	}
	// Every prefiltered hit must score exactly like the exhaustive scan.
	offline := index.TopK(index.SerialSearch(db.Entries, mustDecode(t, e), core.DefaultOptions()), 1000, 0)
	scores := make(map[string]float64, len(offline))
	for _, oh := range offline {
		scores[oh.Entry.Exe+"/"+oh.Entry.Name] = oh.Result.SimilarityScore
	}
	for _, hh := range resp.Hits {
		if want, ok := scores[hh.Exe+"/"+hh.Name]; !ok || hh.Score != want {
			t.Errorf("hit %s/%s score %v drifted from exhaustive %v", hh.Exe, hh.Name, hh.Score, want)
		}
	}

	// The prefilter shape is part of the cache key: same query without the
	// prefilter must not be served from the prefiltered entry.
	_, full := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000})
	if full == nil || full.Cached {
		t.Fatal("exhaustive search was served from the prefiltered cache entry")
	}
	if full.Candidates != db.Len() {
		t.Errorf("exhaustive candidates = %d, want %d", full.Candidates, db.Len())
	}

	// Negative candidate caps are a client error.
	if rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, Candidates: -1}); rec.Code != http.StatusBadRequest {
		t.Errorf("candidates=-1 got %d, want 400", rec.Code)
	}
}

func TestSearchRequestValidation(t *testing.T) {
	db, c := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	img := exeImage(t, c, "ctx0")

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		return rec
	}
	if rec := post("{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", rec.Code)
	}
	if rec := post("{}"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty query: status %d, want 400", rec.Code)
	}

	both := SearchRequest{Exe: "ctx0", Name: "x"}
	both.SetImage(img)
	if rec, _ := postSearch(t, h, both); rec.Code != http.StatusBadRequest {
		t.Errorf("image+ref: status %d, want 400", rec.Code)
	}
	if rec, _ := postSearch(t, h, SearchRequest{Exe: "ctx0", Name: "no_such_fn"}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ref: status %d, want 404", rec.Code)
	}
	bad := SearchRequest{K: 7}
	bad.SetImage(img)
	if rec, _ := postSearch(t, h, bad); rec.Code != http.StatusBadRequest {
		t.Errorf("unsupported k: status %d, want 400", rec.Code)
	}
	neg := SearchRequest{MinScore: -0.5}
	neg.SetImage(img)
	if rec, _ := postSearch(t, h, neg); rec.Code != http.StatusBadRequest {
		t.Errorf("bad min_score: status %d, want 400", rec.Code)
	}
}

func TestBodySizeLimit(t *testing.T) {
	db, c := smallDB(t)
	s := NewFromDB(db, Config{MaxBodyBytes: 512})
	req := SearchRequest{}
	req.SetImage(exeImage(t, c, "ctx0")) // far larger than 512 bytes
	rec, _ := postSearch(t, s.Handler(), req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", rec.Code)
	}
}

func TestBatch(t *testing.T) {
	db, c := smallDB(t)
	s := NewFromDB(db, Config{})
	e := entryWithTruth(t, db, corpus.AppFuncName)

	good := SearchRequest{Limit: 3}
	good.SetImage(exeImage(t, c, "appv0"))
	batch := BatchRequest{Queries: []SearchRequest{
		good,
		{Exe: e.Exe, Name: e.Name, Limit: 3},
		{Exe: "missing", Name: "missing"},
	}}
	body, _ := json.Marshal(batch)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for i := 0; i < 2; i++ {
		if resp.Results[i].Result == nil || len(resp.Results[i].Result.Hits) == 0 {
			t.Errorf("batch item %d: no hits (%+v)", i, resp.Results[i])
		}
	}
	if resp.Results[2].Error == "" || resp.Results[2].Result != nil {
		t.Errorf("batch item 2 should carry an error: %+v", resp.Results[2])
	}
}

func TestFunctionsAndHealthz(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/functions?exe=ctx0&limit=2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("functions: status %d", rec.Code)
	}
	var fns FunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fns); err != nil {
		t.Fatal(err)
	}
	if fns.Total != db.Len() || len(fns.Functions) != 2 {
		t.Errorf("functions: total=%d len=%d, want total=%d len=2", fns.Total, len(fns.Functions), db.Len())
	}
	for _, f := range fns.Functions {
		if f.Exe != "ctx0" || f.Insts == 0 {
			t.Errorf("bad function info: %+v", f)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Functions != db.Len() ||
		!slices.Equal(health.Ks, []int{core.DefaultK}) || health.Generation != 1 || health.Shards < 1 {
		t.Errorf("bad health: %+v", health)
	}

	// /statsz rides on the same mux.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "server_requests") {
		t.Errorf("/statsz: status %d body %.80s", rec.Code, rec.Body.String())
	}
}

func TestCacheHitsAndCounters(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	e := entryWithTruth(t, db, corpus.LibFuncName)
	h := s.Handler()

	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 5}
	_, first := postSearch(t, h, req)
	if first == nil || first.Cached {
		t.Fatalf("first response should be an uncached hit list: %+v", first)
	}
	_, second := postSearch(t, h, req)
	if second == nil || !second.Cached {
		t.Fatalf("second identical search should be cached: %+v", second)
	}
	if len(second.Hits) != len(first.Hits) || second.Hits[0] != first.Hits[0] {
		t.Error("cached response diverged from the computed one")
	}
	// Different options must not share a cache slot.
	req.Limit = 3
	_, third := postSearch(t, h, req)
	if third == nil || third.Cached {
		t.Fatalf("changed limit should miss the cache: %+v", third)
	}
	if len(third.Hits) != 3 {
		t.Errorf("limit 3 returned %d hits", len(third.Hits))
	}
	tel := s.Tel()
	if hits, misses := tel.Get(telemetry.ServerCacheHits), tel.Get(telemetry.ServerCacheMisses); hits != 1 || misses != 2 {
		t.Errorf("cache counters: %d hits / %d misses, want 1/2", hits, misses)
	}
	if rate := tel.Snapshot().Derived["server_cache_hit_rate"]; rate < 0.3 || rate > 0.4 {
		t.Errorf("server_cache_hit_rate = %v, want 1/3", rate)
	}
}

func TestSaturationSheds429(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{MaxInFlight: 1, RequestTimeout: time.Minute})
	hold := make(chan struct{})
	s.holdForTest = hold
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}

	firstDone := make(chan int, 1)
	go func() {
		rec, _ := postSearch(t, h, req)
		firstDone <- rec.Code
	}()
	// Wait for the first request to occupy the only slot.
	for i := 0; s.adm.inFlight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.adm.inFlight() != 1 {
		t.Fatal("first request never acquired its in-flight slot")
	}

	rec, _ := postSearch(t, h, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated search: status %d, want 429", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "saturated") {
		t.Errorf("429 body should explain saturation: %s", rec.Body.String())
	}
	close(hold)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}
	if got := s.Tel().Get(telemetry.ServerRejected); got != 1 {
		t.Errorf("server_rejected = %d, want 1", got)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{RequestTimeout: time.Minute})
	hold := make(chan struct{})
	s.holdForTest = hold
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	body, _ := json.Marshal(SearchRequest{Exe: e.Exe, Name: e.Name})

	type outcome struct {
		code int
		err  error
	}
	reqDone := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			reqDone <- outcome{err: err}
			return
		}
		resp.Body.Close()
		reqDone <- outcome{code: resp.StatusCode}
	}()
	for i := 0; s.adm.inFlight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.adm.inFlight() != 1 {
		t.Fatal("request never became in-flight")
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the held request, not abort it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(hold)
	if out := <-reqDone; out.err != nil || out.code != http.StatusOK {
		t.Errorf("drained request: %+v, want 200", out)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	// The listener is gone: new requests must fail to connect.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// replaceFile puts data at path the way a served index must be replaced:
// written beside it and renamed over it, so a mapping of the file it
// replaces stays valid until the server lets go of it.
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
}

// replaceIndex saves d as an index file at path (see replaceFile).
func replaceIndex(t *testing.T, path string, d *index.DB) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf, index.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	replaceFile(t, path, buf.Bytes())
}

func TestHotReloadSwapsSnapshot(t *testing.T) {
	db, c := smallDB(t)
	path := filepath.Join(t.TempDir(), "t.idx")
	saveTo := func(d *index.DB) { replaceIndex(t, path, d) }
	saveTo(db)
	s, err := New(Config{DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 3}
	if _, resp := postSearch(t, h, req); resp == nil || resp.Candidates != db.Len() {
		t.Fatalf("pre-reload search broken: %+v", resp)
	}
	if _, resp := postSearch(t, h, req); resp == nil || !resp.Cached {
		t.Fatal("second search should hit the cache")
	}

	// Grow the index on disk, reload over HTTP, and observe the swap.
	bigger := index.New()
	bigger.Entries = append(bigger.Entries, db.Entries...)
	if err := bigger.AddImage("extra", exeImage(t, c, "ctx0"), nil); err != nil {
		t.Fatal(err)
	}
	saveTo(bigger)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var rl ReloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Functions != bigger.Len() || rl.Generation != 2 {
		t.Errorf("reload response %+v, want %d functions at generation 2", rl, bigger.Len())
	}
	// The cache was keyed on the old generation: same query recomputes
	// against the new corpus.
	_, resp := postSearch(t, h, req)
	if resp == nil || resp.Cached || resp.Candidates != bigger.Len() {
		t.Errorf("post-reload search: %+v, want uncached scan of %d functions", resp, bigger.Len())
	}
	if got := s.Tel().Get(telemetry.ServerReloads); got != 1 {
		t.Errorf("server_reloads = %d, want 1", got)
	}
}

// TestReloadRejectsBadFile: a reload onto a file that is not an index, or
// onto a gob index from an older tracy, fails and names the way out — and
// the old snapshot keeps serving.
func TestReloadRejectsBadFile(t *testing.T) {
	db, _ := smallDB(t)
	path := filepath.Join(t.TempDir(), "t.idx")
	replaceIndex(t, path, db)
	s, err := New(Config{DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// A gob index from an older tracy starts with the TRACYIDX prelude at
	// version 2; the reload refuses it on those nine bytes.
	legacy := []byte("TRACYIDX\x02\x1f\x7f\x03\x01\x01\x05gobDB")
	for _, data := range [][]byte{legacy, []byte("not an index")} {
		replaceFile(t, path, data)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
		if rec.Code == http.StatusOK {
			t.Fatal("reload of a file that is not a v4 index should fail")
		}
		if body := rec.Body.String(); !strings.Contains(body, "tracy convert") || strings.Contains(body, "gob:") {
			t.Errorf("reload refused with %s, want an error naming tracy convert", body)
		}
	}
	// The old snapshot must keep serving.
	e := entryWithTruth(t, db, corpus.LibFuncName)
	if rec, resp := postSearch(t, s.Handler(), SearchRequest{Exe: e.Exe, Name: e.Name}); resp == nil {
		t.Errorf("search after failed reload: status %d", rec.Code)
	}
}

// TestConcurrentSearchCorrectness is the acceptance scenario: >= 8
// concurrent searches against a >= 100-function corpus, each answer
// identical to the serial reference's top-K, with the race detector
// covering the whole stack when run under -race.
func TestConcurrentSearchCorrectness(t *testing.T) {
	db := bigDB(t)
	// MaxInFlight must admit the full worker fleet even on one core
	// (the default is 4*GOMAXPROCS), and the per-request deadline must
	// cover 8 uncached scans time-sliced onto that core under -race —
	// the test is about correctness under concurrency, not latency.
	s := NewFromDB(db, Config{MaxInFlight: 16, RequestTimeout: 5 * time.Minute})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Offline ground truth for the query set.
	queries := []*index.Entry{
		entryWithTruth(t, db, corpus.LibFuncName),
		entryWithTruth(t, db, corpus.AppFuncName),
	}
	type expectation struct {
		entry *index.Entry
		top   []index.Hit
	}
	var expect []expectation
	for _, e := range queries {
		expect = append(expect, expectation{
			entry: e,
			top:   index.TopK(index.SerialSearch(db.Entries, mustDecode(t, e), core.DefaultOptions()), 10, 0),
		})
	}

	const workers = 8
	base := "http://" + addr.String()
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				exp := expect[(w+r)%len(expect)]
				body, _ := json.Marshal(SearchRequest{Exe: exp.entry.Exe, Name: exp.entry.Name, Limit: 10})
				resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				if len(sr.Hits) != len(exp.top) {
					errs <- fmt.Errorf("worker %d: %d hits, want %d", w, len(sr.Hits), len(exp.top))
					return
				}
				for i, h := range sr.Hits {
					o := exp.top[i]
					if h.Exe != o.Entry.Exe || h.Name != o.Entry.Name || h.Score != o.Result.SimilarityScore {
						errs <- fmt.Errorf("worker %d hit %d: %s/%s@%v, offline %s/%s@%v",
							w, i, h.Exe, h.Name, h.Score, o.Entry.Exe, o.Entry.Name, o.Result.SimilarityScore)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tel := s.Tel()
	if got := tel.Get(telemetry.ServerRequests); got != workers*2 {
		t.Errorf("server_requests = %d, want %d", got, workers*2)
	}

	// The concurrent fleet may overlap entirely (every request in flight
	// before the first put lands), so assert the cache deterministically:
	// with the fleet drained, one more identical request must hit.
	body, _ := json.Marshal(SearchRequest{Exe: expect[0].entry.Exe, Name: expect[0].entry.Name, Limit: 10})
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sr.Cached {
		t.Error("post-fleet repeat of an identical query was not served from cache")
	}
	if tel.Get(telemetry.ServerCacheHits) == 0 {
		t.Error("repeated identical queries produced no cache hits")
	}
}

func TestServeV3IndexInfo(t *testing.T) {
	db, _ := smallDB(t)
	path := filepath.Join(t.TempDir(), "t.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f, index.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantMapped := func() bool {
		d, err := index.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		return d.Info().Mapped
	}()
	s, err := New(Config{DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.IndexFormat != 4 || hr.IndexMapped != wantMapped || hr.LoadMS < 0 {
		t.Errorf("healthz index info = format %d mapped %v load %.1fms, want format 4 mapped %v",
			hr.IndexFormat, hr.IndexMapped, hr.LoadMS, wantMapped)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metrics := rec.Body.String()
	if !strings.Contains(metrics, "tracy_index_info{") || !strings.Contains(metrics, `format="4"`) {
		t.Errorf("/metrics lacks tracy_index_info with the format label:\n%.600s", metrics)
	}
	if err := telemetry.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Errorf("/metrics with info gauge invalid: %v", err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var rl ReloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Format != 4 || rl.Mapped != wantMapped || rl.Generation != 2 {
		t.Errorf("reload response %+v, want format 4 mapped %v generation 2", rl, wantMapped)
	}
	if got := s.Tel().InfoLabels("index_info", ""); got["generation"] != "2" || got["format"] != "4" {
		t.Errorf("index_info labels after reload = %v", got)
	}

	// Queries still answer from the mmapped snapshot.
	e := entryWithTruth(t, db, corpus.LibFuncName)
	if _, resp := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 3}); resp == nil {
		t.Fatal("search over the served index failed")
	}
}

// TestCorruptAtTouch: an index whose one function has a broken record
// is served — a function's records are checked when a query first reads
// them, not at open — and the search that touches the function is answered
// 500 with the store's error, counted as a 5xx, never with the function
// silently left out; a query that does not touch it is answered as ever.
func TestCorruptAtTouch(t *testing.T) {
	db, _ := smallDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf, index.SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The section directory (internal/idxfile/format.go): 48-byte header,
	// 32-byte entries of fourcc, pad, offset, length.
	section := func(name string) int {
		for i := 0; i < int(binary.LittleEndian.Uint32(data[12:])); i++ {
			if e := data[48+i*32:]; string(e[:4]) == name {
				return int(binary.LittleEndian.Uint64(e[8:]))
			}
		}
		t.Fatalf("no %s section", name)
		return 0
	}
	// Break the successor range of the first block of function 1: both
	// ways of reading a function follow it.
	const victim = 1
	blockOff := binary.LittleEndian.Uint32(data[section("FUNC")+victim*40+20:])
	binary.LittleEndian.PutUint32(data[section("BLCK")+int(blockOff)*12+4:], 1<<30)
	path := filepath.Join(t.TempDir(), "broken.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DBPath: path})
	if err != nil {
		t.Fatalf("a broken function must not keep the index from being served: %v", err)
	}
	h := s.Handler()
	intact, broken := db.Entries[0], db.Entries[victim]

	rec, resp := postSearch(t, h, SearchRequest{Exe: intact.Exe, Name: intact.Name, Limit: 3})
	if resp != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "corrupt index") {
		t.Errorf("exhaustive search over the broken function: status %d: %s", rec.Code, rec.Body.String())
	}
	rec, resp = postSearch(t, h, SearchRequest{Exe: broken.Exe, Name: broken.Name, Limit: 3, Candidates: 1, PrefilterMode: "lsh"})
	if resp != nil || rec.Code != http.StatusInternalServerError {
		t.Errorf("by-reference search naming the broken function: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.Tel().Get(telemetry.ServerStatus5xx); got != 2 {
		t.Errorf("server_status_5xx = %d, want 2", got)
	}
	// One lsh candidate, the query itself: the broken function is not read.
	rec, resp = postSearch(t, h, SearchRequest{Exe: intact.Exe, Name: intact.Name, Limit: 3, Candidates: 1, PrefilterMode: "lsh"})
	if resp == nil || len(resp.Hits) != 1 || resp.Hits[0].Name != intact.Name {
		t.Errorf("a search that does not touch the broken function: status %d: %s", rec.Code, rec.Body.String())
	}
}
