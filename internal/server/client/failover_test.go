package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// healthzStub returns a server answering healthz OK and counting hits.
func healthzStub(t *testing.T, hits *atomic.Int32) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_ = json.NewEncoder(w).Encode(server.HealthResponse{Status: "ok", Generation: 1})
	}))
	t.Cleanup(s.Close)
	return s
}

// TestClientFailoverOn5xx: a coordinator answering 502 is skipped and
// the next coordinator in the list answers.
func TestClientFailoverOn5xx(t *testing.T) {
	var badHits, goodHits atomic.Int32
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, `{"error":"fleet: all shards failed"}`, http.StatusBadGateway)
	}))
	t.Cleanup(bad.Close)
	good := healthzStub(t, &goodHits)

	c := New(bad.URL + "," + good.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 1} // isolate failover from retry
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz through a dead coordinator: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	if badHits.Load() == 0 || goodHits.Load() == 0 {
		t.Fatalf("hit counts: bad=%d good=%d, want both tried", badHits.Load(), goodHits.Load())
	}

	// The preference sticks: the next call goes straight to the healthy
	// coordinator.
	badBefore := badHits.Load()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if badHits.Load() != badBefore {
		t.Errorf("second call re-tried the failing coordinator (hits %d -> %d)", badBefore, badHits.Load())
	}
}

// TestClientFailoverOnConnectionRefused: a dead address in the list is
// skipped.
func TestClientFailoverOnConnectionRefused(t *testing.T) {
	var goodHits atomic.Int32
	good := healthzStub(t, &goodHits)
	// Grab an address with nothing listening: bind, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c := New(deadURL + "," + good.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 1}
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz with a dead first coordinator: %v", err)
	}
	if goodHits.Load() == 0 {
		t.Fatal("healthy coordinator never tried")
	}
}

// TestClientNoFailoverOn4xx: 4xx replies indict the request, not the
// coordinator — the second target must never be consulted.
func TestClientNoFailoverOn4xx(t *testing.T) {
	first := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no indexed function a/b"}`, http.StatusNotFound)
	}))
	t.Cleanup(first.Close)
	var secondHits atomic.Int32
	second := healthzStub(t, &secondHits)

	c := New(first.URL + "," + second.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 1}
	_, err := c.Search(context.Background(), &server.SearchRequest{Exe: "a", Name: "b"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want the 404 relayed", err)
	}
	if secondHits.Load() != 0 {
		t.Fatalf("404 failed over to the second coordinator (%d hits)", secondHits.Load())
	}
}

// TestClientFailoverBreakersAreIndependent: once the live coordinator
// has answered, later calls go straight to it and never dial the dead
// one again.
func TestClientFailoverBreakersAreIndependent(t *testing.T) {
	var goodHits atomic.Int32
	good := healthzStub(t, &goodHits)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c := New(deadURL + "," + good.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 1}
	for i := 0; i < 3; i++ {
		if _, err := c.Healthz(context.Background()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if goodHits.Load() != 3 {
		t.Fatalf("healthy coordinator answered %d calls, want 3", goodHits.Load())
	}
	// One refused dial on the first call, then one round trip per call.
	if st := c.Stats(); st.Attempts != 4 {
		t.Errorf("3 calls made %d round trips, want 4: the dead coordinator was dialed again", st.Attempts)
	}
}

// TestClientAllCoordinatorsDown: with every target dead the first
// failure is reported.
func TestClientAllCoordinatorsDown(t *testing.T) {
	a := httptest.NewServer(http.NotFoundHandler())
	aURL := a.URL
	a.Close()
	b := httptest.NewServer(http.NotFoundHandler())
	bURL := b.URL
	b.Close()

	c := New(aURL + "," + bURL)
	c.Retry = &RetryPolicy{MaxAttempts: 1}
	_, err := c.Healthz(context.Background())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a transport error", err)
	}
}
