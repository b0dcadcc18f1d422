package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// saturate fills the server's only in-flight slot with a held request
// and returns a func that releases it and waits for its completion code.
func saturate(t *testing.T, s *Server, h http.Handler, req SearchRequest) func() int {
	t.Helper()
	hold := make(chan struct{})
	s.holdForTest = hold
	done := make(chan int, 1)
	go func() {
		rec, _ := postSearch(t, h, req)
		done <- rec.Code
	}()
	for i := 0; s.adm.inFlight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.adm.inFlight() != 1 {
		t.Fatal("holder request never acquired its in-flight slot")
	}
	return func() int {
		close(hold)
		return <-done
	}
}

// TestShedCarriesRetryAfter: both 429 shed sites (single and batch)
// attach a Retry-After header the client can back off on.
func TestShedCarriesRetryAfter(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{MaxInFlight: 1, RequestTimeout: time.Minute})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}
	release := saturate(t, s, h, req)

	rec, _ := postSearch(t, h, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated search: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != shedRetryAfter {
		t.Errorf("search 429 Retry-After = %q, want %q", got, shedRetryAfter)
	}

	body, _ := json.Marshal(BatchRequest{Queries: []SearchRequest{req}})
	brec := httptest.NewRecorder()
	h.ServeHTTP(brec, httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(body)))
	if brec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", brec.Code)
	}
	if got := brec.Header().Get("Retry-After"); got != shedRetryAfter {
		t.Errorf("batch 429 Retry-After = %q, want %q", got, shedRetryAfter)
	}

	if code := release(); code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}
}

// TestDegradedModeAnswersUnderSaturation: with DegradedMode on, a
// saturated search gets a prefilter-only ranking marked degraded
// instead of a 429, and the degraded answer lives in its own cache
// keyspace (a later exact search is not shadowed by it).
func TestDegradedModeAnswersUnderSaturation(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{MaxInFlight: 1, RequestTimeout: time.Minute, DegradedMode: true})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}
	release := saturate(t, s, h, req)

	rec, resp := postSearch(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded search: status %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	if !resp.Degraded || resp.DegradedReason == "" {
		t.Fatalf("saturated answer not marked degraded: %+v", resp)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("degraded search returned no hits for an in-corpus query")
	}
	// The query is in the corpus: it shares all features with itself, so
	// the top degraded hit must be the query entry at score 1.
	if top := resp.Hits[0]; top.Exe != e.Exe || top.Name != e.Name || top.Score != 1.0 {
		t.Errorf("top degraded hit = %s/%s score %v, want %s/%s score 1", top.Exe, top.Name, top.Score, e.Exe, e.Name)
	}
	for _, hit := range resp.Hits {
		if hit.IsMatch {
			t.Errorf("degraded hit %s/%s claims IsMatch — degraded answers must not", hit.Exe, hit.Name)
		}
	}
	if got := s.Tel().Get(telemetry.ServerDegraded); got == 0 {
		t.Error("server_degraded not counted")
	}
	if got := s.Tel().Get(telemetry.ServerRejected); got != 0 {
		t.Errorf("server_rejected = %d, want 0 in degraded mode", got)
	}

	// Same query again while still saturated: served from the degraded
	// cache keyspace.
	rec2, resp2 := postSearch(t, h, req)
	if rec2.Code != http.StatusOK || !resp2.Degraded || !resp2.Cached {
		t.Errorf("repeat degraded search: code %d degraded %v cached %v, want 200/true/true",
			rec2.Code, resp2.Degraded, resp2.Cached)
	}

	if code := release(); code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}

	// Capacity is back: the same query now runs exactly, un-shadowed by
	// the cached degraded answer.
	rec3, resp3 := postSearch(t, h, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("post-release search: status %d", rec3.Code)
	}
	if resp3.Degraded {
		t.Error("exact search shadowed by cached degraded answer")
	}
	if len(resp3.Hits) == 0 || !resp3.Hits[0].IsMatch {
		t.Errorf("exact search lost match quality: %+v", resp3.Hits)
	}
}

// TestDegradedModeServesCachedExact: a saturated search whose exact
// answer is already cached serves it at full quality (not degraded).
func TestDegradedModeServesCachedExact(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{MaxInFlight: 1, RequestTimeout: time.Minute, DegradedMode: true})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}

	// Warm the exact cache while unsaturated.
	if rec, resp := postSearch(t, h, req); rec.Code != http.StatusOK || resp.Degraded {
		t.Fatalf("warmup: code %d degraded %v", rec.Code, resp != nil && resp.Degraded)
	}
	release := saturate(t, s, h, req)
	defer release()

	rec, resp := postSearch(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("saturated cached search: status %d", rec.Code)
	}
	if resp.Degraded || !resp.Cached {
		t.Errorf("saturated cached search: degraded %v cached %v, want full-quality cache hit", resp.Degraded, resp.Cached)
	}
}

// TestPanicRecoveryMiddleware: a handler panic (injected at the decode
// fault point) answers 500 with a JSON error and bumps server_panics;
// the server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultDecode, Mode: faultinject.Panic, Count: 1})
	s := NewFromDB(db, Config{Faults: faults})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}

	rec, _ := postSearch(t, h, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("panic response is not a JSON error: %s", rec.Body.String())
	}
	if got := s.Tel().Get(telemetry.ServerPanics); got != 1 {
		t.Errorf("server_panics = %d, want 1", got)
	}
	// The fault was one-shot: the next request succeeds.
	if rec, _ := postSearch(t, h, req); rec.Code != http.StatusOK {
		t.Errorf("request after recovered panic: status %d, want 200", rec.Code)
	}
}

// TestRequestTimeoutMS: a per-request timeout_ms tighter than the
// server budget turns a slow search (latency fault at the search point)
// into a 504 within the deadline's order of magnitude, and counts
// searches_deadline.
func TestRequestTimeoutMS(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultSearch, Mode: faultinject.Latency, Latency: 10 * time.Second})
	s := NewFromDB(db, Config{Faults: faults, RequestTimeout: time.Minute})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, TimeoutMS: 50}

	start := time.Now()
	rec, _ := postSearch(t, h, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out search: status %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if elapsed > 5*time.Second {
		t.Errorf("50ms-deadline search took %v", elapsed)
	}
	if got := s.Tel().Get(telemetry.SearchesDeadline); got == 0 {
		t.Error("searches_deadline not counted")
	}
}

// TestCacheFaultDegradesToMiss: an error fault at the cache point makes
// lookups miss (the search still answers correctly) instead of failing
// the request.
func TestCacheFaultDegradesToMiss(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultCache, Mode: faultinject.Error})
	s := NewFromDB(db, Config{Faults: faults})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}

	for i := 0; i < 2; i++ {
		rec, resp := postSearch(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d with cache fault: status %d", i, rec.Code)
		}
		if resp.Cached {
			t.Errorf("request %d: cache served despite cache fault", i)
		}
	}
	if s.cache.len() != 0 || s.cache.keys() != 0 {
		t.Errorf("cache stored %d entries under %d keys despite cache fault", s.cache.len(), s.cache.keys())
	}
	// Neither key was read either: an unavailable cache is not a miss.
	if hits, misses := s.Tel().Get(telemetry.ServerCacheHits), s.Tel().Get(telemetry.ServerCacheMisses); hits != 0 || misses != 0 {
		t.Errorf("cache counters ticked %d hits / %d misses despite cache fault", hits, misses)
	}

	// The same holds for an answer both keys already reach.
	faults.Clear()
	if rec, resp := postSearch(t, h, req); rec.Code != http.StatusOK || resp.Cached {
		t.Fatalf("filling the cache: status %d", rec.Code)
	}
	faults.Arm(&faultinject.Fault{Point: FaultCache, Mode: faultinject.Error})
	if rec, resp := postSearch(t, h, req); rec.Code != http.StatusOK || resp.Cached {
		t.Errorf("cache fault with a filled cache: status %d, cached answer served", rec.Code)
	}
	if hits := s.Tel().Get(telemetry.ServerCacheHits); hits != 0 || s.cache.keys() != 2 {
		t.Errorf("cache fault with a filled cache: %d hits, %d keys; want 0 and 2", hits, s.cache.keys())
	}
}

// TestSearchFaultReturns500: an error fault at the search point surfaces
// as a JSON 500, not a crash or a hang.
func TestSearchFaultReturns500(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultSearch, Mode: faultinject.Error, Count: 1})
	s := NewFromDB(db, Config{Faults: faults})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}

	rec, _ := postSearch(t, h, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted search: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected") {
		t.Errorf("faulted search body: %s", rec.Body.String())
	}
	if rec, _ := postSearch(t, h, req); rec.Code != http.StatusOK {
		t.Errorf("search after fault cleared: status %d, want 200", rec.Code)
	}
}

// TestTimeoutMSValidation: a negative timeout_ms is a 400.
func TestTimeoutMSValidation(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, TimeoutMS: -5})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("timeout_ms=-5: status %d, want 400", rec.Code)
	}
}
