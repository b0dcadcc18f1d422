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

// spanDump mirrors the span wire shape for test-side decoding
// (telemetry.Span only marshals).
type spanDump struct {
	Name     string           `json:"name"`
	TraceID  string           `json:"trace_id"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs"`
	Children []spanDump       `json:"children"`
}

func (s *spanDump) child(name string) *spanDump {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

type flightDump struct {
	Recorded uint64 `json:"recorded"`
	Slowest  []struct {
		TraceID string   `json:"trace_id"`
		Path    string   `json:"path"`
		Status  int      `json:"status"`
		Error   string   `json:"error"`
		Attempt int      `json:"attempt"`
		Hedge   bool     `json:"hedge"`
		Span    spanDump `json:"span"`
	} `json:"slowest"`
	Errored []struct {
		TraceID string `json:"trace_id"`
		Status  int    `json:"status"`
		Error   string `json:"error"`
	} `json:"errored"`
}

func getFlight(t *testing.T, h http.Handler) flightDump {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests: HTTP %d", rec.Code)
	}
	var out flightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/debug/requests: %v\n%s", err, rec.Body.String())
	}
	return out
}

func TestTracePropagatesEndToEnd(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)

	body, _ := json.Marshal(SearchRequest{Exe: e.Exe, Name: e.Name})
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	tid := telemetry.NewTraceID()
	req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(tid, telemetry.NewSpanID()))
	req.Header.Set(AttemptHeader, "2")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(TraceIDHeader); got != tid {
		t.Fatalf("X-Trace-Id %q, want adopted %q", got, tid)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != tid {
		t.Fatalf("response trace_id %q, want %q", resp.TraceID, tid)
	}

	// The same trace must be in the flight recorder with per-stage spans.
	flight := getFlight(t, h)
	if flight.Recorded == 0 || len(flight.Slowest) == 0 {
		t.Fatalf("flight recorder empty: %+v", flight)
	}
	var found bool
	for _, fr := range flight.Slowest {
		if fr.TraceID != tid {
			continue
		}
		found = true
		if fr.Attempt != 2 {
			t.Errorf("recorded attempt %d, want 2", fr.Attempt)
		}
		if fr.Span.TraceID != tid {
			t.Errorf("root span trace_id %q, want %q", fr.Span.TraceID, tid)
		}
		for _, stage := range []string{"decode", "resolve", "cache", "compare", "prune", "encode"} {
			c := fr.Span.child(stage)
			if c == nil {
				t.Errorf("span tree missing %q stage (have %v)", stage, stageNames(fr.Span))
				continue
			}
			if c.DurNS <= 0 {
				t.Errorf("stage %q unfinished (dur_ns %d)", stage, c.DurNS)
			}
		}
		if c := fr.Span.child("compare"); c != nil && c.Attrs["pairs"] == 0 {
			t.Errorf("compare stage lost its pairs attr: %v", c.Attrs)
		}
	}
	if !found {
		t.Fatalf("trace %s not in flight recorder", tid)
	}
}

func stageNames(sp spanDump) []string {
	var out []string
	for _, c := range sp.Children {
		out = append(out, c.Name)
	}
	return out
}

func TestMalformedTraceparentMintsFresh(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	body, _ := json.Marshal(SearchRequest{Exe: e.Exe, Name: e.Name})
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set(telemetry.TraceparentHeader, "total-garbage")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	if got := rec.Header().Get(TraceIDHeader); !telemetry.IsTraceID(got) {
		t.Fatalf("minted trace ID %q invalid", got)
	}
}

func TestErrorBodiesCarryTraceID(t *testing.T) {
	db, _ := smallDB(t)
	faults, err := faultinject.Parse("search=error:x1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewFromDB(db, Config{Faults: faults})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)

	check := func(code int, body []byte) string {
		t.Helper()
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("HTTP %d body not ErrorResponse: %v\n%s", code, err, body)
		}
		if !telemetry.IsTraceID(er.TraceID) {
			t.Fatalf("HTTP %d error body trace_id %q invalid\n%s", code, er.TraceID, body)
		}
		return er.TraceID
	}

	// 500: injected search fault on the first search.
	rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted search: HTTP %d, want 500", rec.Code)
	}
	tid500 := check(rec.Code, rec.Body.Bytes())
	if hdr := rec.Header().Get(TraceIDHeader); hdr != tid500 {
		t.Fatalf("500 header trace %q != body trace %q", hdr, tid500)
	}

	// 400: validation error.
	rec, _ = postSearch(t, h, SearchRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query: HTTP %d, want 400", rec.Code)
	}
	check(rec.Code, rec.Body.Bytes())

	// Status-class counters saw one 5xx, one 4xx, and no 2xx yet.
	snap := s.Tel().Snapshot()
	if snap.Counters["server_status_5xx"] != 1 || snap.Counters["server_status_4xx"] != 1 {
		t.Fatalf("status counters: %v", snap.Counters)
	}

	// The errored ring retains both, with messages.
	flight := getFlight(t, h)
	if len(flight.Errored) != 2 {
		t.Fatalf("errored ring has %d records, want 2", len(flight.Errored))
	}
	for _, fr := range flight.Errored {
		if fr.Error == "" || !telemetry.IsTraceID(fr.TraceID) {
			t.Fatalf("errored record incomplete: %+v", fr)
		}
	}
}

func TestMetricsEndpointValidExposition(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	if rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name}); rec.Code != 200 {
		t.Fatalf("search: HTTP %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	if err := telemetry.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"tracy_server_requests_total 1",
		"tracy_server_status_2xx_total 1",
		"tracy_server_latency_seconds_count 1",
		"tracy_request_decode_latency_seconds_count 1",
		"tracy_cache_lookup_latency_seconds_count 1",
		`tracy_query_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestAccessLogWiring(t *testing.T) {
	db, _ := smallDB(t)
	var logBuf bytes.Buffer
	s := NewFromDB(db, Config{
		AccessLog:          &logBuf,
		AccessLogSample:    1,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	rec, resp := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name})
	if rec.Code != 200 {
		t.Fatalf("HTTP %d", rec.Code)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d access lines, want 1:\n%s", len(lines), logBuf.String())
	}
	var line struct {
		TraceID string             `json:"trace_id"`
		Method  string             `json:"method"`
		Path    string             `json:"path"`
		Status  int                `json:"status"`
		DurMS   float64            `json:"dur_ms"`
		Slow    bool               `json:"slow"`
		Stages  map[string]float64 `json:"stages_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("bad access line: %v\n%s", err, lines[0])
	}
	if line.TraceID != resp.TraceID {
		t.Fatalf("access log trace %q != response trace %q", line.TraceID, resp.TraceID)
	}
	if line.Method != "POST" || line.Path != "/v1/search" || line.Status != 200 || line.DurMS <= 0 {
		t.Fatalf("access line fields: %+v", line)
	}
	if !line.Slow {
		t.Fatal("1ns slow threshold must mark the request slow")
	}
	if _, ok := line.Stages["compare"]; !ok {
		t.Fatalf("stages_ms missing compare: %v", line.Stages)
	}
	if s.Tel().Snapshot().Counters["server_slow_queries"] != 1 {
		t.Fatalf("server_slow_queries: %v", s.Tel().Snapshot().Counters)
	}

	// The repeat is an alias hit: its whole server time is decode, one
	// cache probe and encode — nothing is resolved.
	logBuf.Reset()
	if rec, resp := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name}); rec.Code != 200 || !resp.Cached {
		t.Fatalf("repeat: HTTP %d, cached %v", rec.Code, resp != nil && resp.Cached)
	}
	var hit struct {
		Cached bool               `json:"cached"`
		Stages map[string]float64 `json:"stages_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &hit); err != nil {
		t.Fatalf("bad access line: %v\n%s", err, logBuf.String())
	}
	for _, stage := range []string{"decode", "cache", "encode"} {
		if _, ok := hit.Stages[stage]; !ok {
			t.Errorf("alias hit's stages_ms missing %q: %v", stage, hit.Stages)
		}
	}
	if !hit.Cached || len(hit.Stages) != 3 {
		t.Errorf("alias hit logged cached=%v stages %v, want decode, cache and encode only", hit.Cached, hit.Stages)
	}
}

func TestBatchPerQuerySpans(t *testing.T) {
	db, _ := smallDB(t)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	body, _ := json.Marshal(BatchRequest{Queries: []SearchRequest{
		{Exe: e.Exe, Name: e.Name},
		{Exe: "nope", Name: "nope"},
	}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", rec.Code)
	}
	var out BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !telemetry.IsTraceID(out.TraceID) {
		t.Fatalf("batch trace_id %q", out.TraceID)
	}
	if out.Results[0].Result == nil || out.Results[0].Result.TraceID != out.TraceID {
		t.Fatalf("batch item must share the batch trace ID: %+v", out.Results[0])
	}

	flight := getFlight(t, h)
	for _, fr := range flight.Slowest {
		if fr.TraceID != out.TraceID {
			continue
		}
		q0 := fr.Span.child("query:0")
		if q0 == nil {
			t.Fatalf("batch span tree lacks query:0: %v", stageNames(fr.Span))
		}
		if q0.child("compare") == nil {
			t.Fatalf("query:0 lacks compare stage: %v", stageNames(*q0))
		}
		if fr.Span.child("query:1") == nil {
			t.Fatalf("batch span tree lacks query:1 (failed queries trace too)")
		}
		return
	}
	t.Fatalf("batch trace %s not recorded", out.TraceID)
}

func TestTimeoutAnswersWithRecordedTrace(t *testing.T) {
	db, _ := smallDB(t)
	// Injected latency holds the search past its budget whatever the
	// machine's speed.
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultSearch, Mode: faultinject.Latency, Latency: 10 * time.Second})
	s := NewFromDB(db, Config{Faults: faults})
	h := s.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	// timeout_ms: 1 expires mid-search: the ctxHTTPErr path answers 504
	// with the trace ID in the body.
	rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name, TimeoutMS: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("search past its 1ms budget answered HTTP %d, want 504", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !telemetry.IsTraceID(er.TraceID) {
		t.Fatalf("504 body trace_id %q", er.TraceID)
	}
	flight := getFlight(t, h)
	if len(flight.Errored) == 0 || flight.Errored[0].Status != http.StatusGatewayTimeout {
		t.Fatalf("504 not in errored ring: %+v", flight.Errored)
	}
}
