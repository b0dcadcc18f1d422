package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry is a policy tuned for tests: real backoff mechanics, tiny
// delays.
func fastRetry() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// flakyServer answers 200 after failing the first n requests with
// status code and body from fail().
func flakyServer(n int, fail func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			fail(w)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	return srv, &calls
}

func TestRetryEventuallySucceeds(t *testing.T) {
	srv, calls := flakyServer(2, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"transient"}`))
	})
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = fastRetry()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("retryable failures should be absorbed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries", st)
	}
}

func TestRetryOn429AndConnectionError(t *testing.T) {
	srv, _ := flakyServer(1, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"saturated"}`))
	})
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = fastRetry()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("429 then success should be absorbed: %v", err)
	}

	// Connection errors are retryable too — and exhaust into a typed
	// TransportError, not a hang.
	dead := New("http://127.0.0.1:1") // nothing listens on port 1
	dead.Retry = fastRetry()
	_, err := dead.Healthz(context.Background())
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("connection refused should be a TransportError, got %T: %v", err, err)
	}
	if st := dead.Stats(); st.Attempts != 4 {
		t.Errorf("connection-refused attempts = %d, want 4", st.Attempts)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	srv, calls := flakyServer(99, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad k"}`))
	})
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = fastRetry()
	_, err := c.Healthz(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if calls.Load() != 1 {
		t.Errorf("client retried a 400: %d calls", calls.Load())
	}
}

func TestAPIErrorExposesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"saturated"}`))
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = nil // single attempt: inspect the raw error
	_, err := c.Healthz(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", ae.RetryAfter)
	}
}

func TestNeverRetryAfterContextDone(t *testing.T) {
	srv, calls := flakyServer(99, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"down"}`))
	})
	defer srv.Close()
	c := New(srv.URL)
	// Long backoff: the context expires during the first sleep.
	c.Retry = &RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Healthz(ctx)
	if err == nil {
		t.Fatal("want an error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop outlived its context: %v", elapsed)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls after ctx done, want 1", calls.Load())
	}
}

// TestRetryBudget: the caller's context deadline is the retry loop's
// budget — a policy allowing 100 attempts stops when the deadline does,
// with the last server error rather than the context's.
func TestRetryBudget(t *testing.T) {
	srv, calls := flakyServer(99, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 100, BaseDelay: 20 * time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Jitter: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Healthz(ctx)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want the last APIError 500", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("the deadline did not bound the retry loop: %v", elapsed)
	}
	if n := calls.Load(); n > 5 {
		t.Errorf("a 50ms deadline allowed %d attempts 20ms apart", n)
	}
}

func TestMalformedAndOversizedErrorBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("<html>not json at all"))
		case "/v1/functions":
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(strings.Repeat("x", 4<<20))) // 4 MiB error body
		}
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = nil

	_, err := c.Healthz(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway {
		t.Fatalf("malformed body: err = %v, want APIError 502", err)
	}
	if !strings.Contains(ae.Msg, "not json") {
		t.Errorf("malformed body not preserved: %q", ae.Msg)
	}

	_, err = c.Functions(context.Background(), "", 0)
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("oversized body: err = %v, want APIError 400", err)
	}
	if len(ae.Msg) > maxErrBody {
		t.Errorf("oversized error body not truncated: %d bytes", len(ae.Msg))
	}
}

func TestCancellationMidRequestNoGoroutineLeak(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(block)

	before := runtime.NumGoroutine()
	c := New(srv.URL)
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := c.Healthz(ctx)
		cancel()
		if err == nil {
			t.Fatal("cancelled request returned nil error")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled request error = %v, want DeadlineExceeded", err)
		}
	}
	// Give the transport a moment to reap connection goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew %d -> %d after cancelled requests", before, after)
	}
}

// TestRetryStormShape documents the worst-case attempt pattern for ops:
// default policy, server always down, per-call ceiling of MaxAttempts.
func TestRetryStormShape(t *testing.T) {
	srv, calls := flakyServer(99, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"down"}`))
	})
	defer srv.Close()
	c := New(srv.URL)
	c.Retry = fastRetry()
	for i := 0; i < 3; i++ {
		if _, err := c.Healthz(context.Background()); err == nil {
			t.Fatal("down server answered")
		}
	}
	if got, want := calls.Load(), int64(3*4); got != want {
		t.Errorf("3 calls produced %d attempts, want %d", got, want)
	}
}
