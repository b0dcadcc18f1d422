package rpc_test

// The tests here drive the transport the way its callers do — a Breaker on
// a Conn, as the coordinator arms one per replica, and FailoverRace over
// two Conns posting a batch — so they sit outside the package, beside the
// wire types of internal/server they post.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/rpc"
)

// TestCircuitBreakerOpensAndRecovers: an rpc.Conn carrying a Breaker,
// as the coordinator arms one per replica, fails fast once the breaker
// opens and closes again on a successful half-open probe.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"down"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	// No Retry: isolate breaker behavior from retries.
	conn := &rpc.Conn{BaseURL: srv.URL, Breaker: &rpc.Breaker{Threshold: 3, Cooldown: 30 * time.Millisecond}}
	healthz := func() error {
		var h server.HealthResponse
		return conn.Do(context.Background(), http.MethodGet, "/v1/healthz", nil, &h)
	}

	for i := 0; i < 3; i++ {
		if err := healthz(); err == nil {
			t.Fatal("unhealthy server answered")
		}
	}
	if conn.Breaker.State() != "open" {
		t.Fatalf("breaker state = %s after %d failures, want open", conn.Breaker.State(), 3)
	}
	if err := healthz(); !errors.Is(err, rpc.ErrCircuitOpen) {
		t.Fatalf("open breaker error = %v, want ErrCircuitOpen", err)
	}

	healthy.Store(true)
	time.Sleep(40 * time.Millisecond) // past cooldown: half-open probe allowed
	if err := healthz(); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if conn.Breaker.State() != "closed" {
		t.Errorf("breaker state = %s after successful probe, want closed", conn.Breaker.State())
	}
}

func TestBreakerIgnoresSaturationAndCancellation(t *testing.T) {
	b := &rpc.Breaker{Threshold: 2}
	b.Record(&rpc.APIError{Status: http.StatusTooManyRequests, Msg: "saturated"})
	b.Record(&rpc.APIError{Status: http.StatusTooManyRequests, Msg: "saturated"})
	b.Record(context.Canceled)
	b.Record(context.DeadlineExceeded)
	b.Record(&rpc.APIError{Status: http.StatusBadRequest, Msg: "bad request"})
	b.Record(&rpc.APIError{Status: http.StatusBadRequest, Msg: "bad request"})
	if b.State() != "closed" {
		t.Error("saturation/cancellation/4xx tripped the breaker")
	}
	b.Record(&rpc.TransportError{Err: errors.New("refused")})
	b.Record(&rpc.TransportError{Err: errors.New("refused")})
	if b.State() != "open" {
		t.Error("transport failures did not trip the breaker")
	}
}

// batchLeg is one FailoverRace leg posting a batch through conn, as a
// coordinator's scatter leg posts a search to one replica.
func batchLeg(conn *rpc.Conn) func(context.Context) (*server.BatchResponse, error) {
	return func(ctx context.Context) (*server.BatchResponse, error) {
		var resp server.BatchResponse
		req := server.BatchRequest{Queries: []server.SearchRequest{{Exe: "a", Name: "b"}}}
		if err := conn.Do(ctx, http.MethodPost, "/v1/search/batch", req, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
}

// TestHedgedBatchRacesSlowPrimary: FailoverRace over two rpc.Conns — a
// slow primary loses to the leg its hedge timer launches, and the
// sibling sees that leg marked with X-Tracy-Hedge: 1 (the primary is
// not).
func TestHedgedBatchRacesSlowPrimary(t *testing.T) {
	var primaryHedge atomic.Value
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryHedge.Store(r.Header.Get(rpc.HedgeHeader))
		// Read the body first: the server notices the cancelled leg's
		// closed connection only once it has.
		io.Copy(io.Discard, r.Body)
		// Slow primary: the hedge should win long before this finishes.
		select {
		case <-time.After(10 * time.Second):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"results":[]}`))
	}))
	defer primary.Close()
	var siblingHedge atomic.Value
	sibling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		siblingHedge.Store(r.Header.Get(rpc.HedgeHeader))
		w.Write([]byte(`{"results":[]}`))
	}))
	defer sibling.Close()
	var stats rpc.Counters
	hedges := 0

	start := time.Now()
	_, out := rpc.FailoverRace(context.Background(), 20*time.Millisecond, func() { hedges++ },
		batchLeg(&rpc.Conn{BaseURL: primary.URL, Stats: &stats}),
		batchLeg(&rpc.Conn{BaseURL: sibling.URL, Stats: &stats}))
	if out.Winner != 1 || !out.HedgeWon {
		t.Fatalf("hedged race: outcome %+v, want the hedge leg (1) to win", out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedge did not rescue the slow primary: %v", elapsed)
	}
	if hedges != 1 {
		t.Errorf("hedges = %d, want 1", hedges)
	}
	if got := siblingHedge.Load(); got != "1" {
		t.Errorf("sibling saw %s %q, want \"1\"", rpc.HedgeHeader, got)
	}
	if got := primaryHedge.Load(); got != "" {
		t.Errorf("primary saw %s %q, want none", rpc.HedgeHeader, got)
	}
	for _, ar := range stats.Snapshot().Recent {
		if ar.Status == http.StatusOK && !ar.Hedge {
			t.Errorf("winning attempt %+v not recorded as a hedge", ar)
		}
	}
}

// TestHedgeBothFail: when both legs of a hedged FailoverRace fail, the
// race has no winner and reports each leg's APIError.
func TestHedgeBothFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"down"}`))
	}))
	defer srv.Close()
	_, out := rpc.FailoverRace(context.Background(), time.Millisecond, nil,
		batchLeg(&rpc.Conn{BaseURL: srv.URL}), batchLeg(&rpc.Conn{BaseURL: srv.URL}))
	if out.Winner != -1 {
		t.Fatalf("both legs failed but leg %d won", out.Winner)
	}
	for i, err := range out.Errs {
		var ae *rpc.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
			t.Errorf("leg %d: err = %v, want APIError 500", i, err)
		}
	}
}
