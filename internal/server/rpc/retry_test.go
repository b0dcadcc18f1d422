package rpc

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDelayBackoffShape(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Jitter: -1} // deterministic
	for i, want := range []time.Duration{10, 20, 40, 80, 80, 80} {
		if got := p.delay(i, 0); got != want*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i, got, want*time.Millisecond)
		}
	}
	// Retry-After floors the backoff.
	if got := p.delay(0, 500*time.Millisecond); got != 500*time.Millisecond {
		t.Errorf("delay with Retry-After = %v, want 500ms", got)
	}
	// Jitter stays within [1-jitter, 1] of nominal.
	pj := &RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5,
		randFloat: func() float64 { return 1.0 }}
	if got := pj.delay(0, 0); got != 50*time.Millisecond {
		t.Errorf("full-jitter delay = %v, want 50ms", got)
	}
	pj.randFloat = func() float64 { return 0.0 }
	if got := pj.delay(0, 0); got != 100*time.Millisecond {
		t.Errorf("zero-jitter delay = %v, want 100ms", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Errorf("seconds form = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage = %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 5*time.Second || d > 10*time.Second {
		t.Errorf("http-date form = %v", d)
	}
}

// TestNilCountersSafe pins the nil-Stats contract: a Conn with no
// Counters sink must account nothing and crash nowhere.
func TestNilCountersSafe(t *testing.T) {
	var s *Counters
	s.addAttempt()
	s.addRetry()
	s.record(AttemptRecord{})
	if got := s.Snapshot(); got.Attempts != 0 || got.Recent != nil {
		t.Errorf("nil Counters snapshot = %+v, want zero", got)
	}
}

// TestBreakerHalfOpenConcurrentProbe pins the half-open contract under
// concurrency: when the cooldown lapses, exactly ONE caller wins the
// probe slot per round — the losers fast-fail with ErrCircuitOpen
// ("probe in flight") instead of stampeding the recovering server.
func TestBreakerHalfOpenConcurrentProbe(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: 10 * time.Millisecond}
	b.Record(errors.New("boom")) // trip it open
	if b.State() != "open" {
		t.Fatal("breaker not open after threshold failures")
	}
	time.Sleep(15 * time.Millisecond) // cooldown lapsed: half-open

	const callers = 32
	var admitted, fastFailed atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := b.Allow()
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrCircuitOpen):
				fastFailed.Add(1)
			default:
				t.Errorf("unexpected Allow error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d concurrent callers admitted through the half-open breaker, want exactly 1", got)
	}
	if got := fastFailed.Load(); got != callers-1 {
		t.Fatalf("%d callers fast-failed, want %d", got, callers-1)
	}

	// A failed probe re-opens: the next wave (post-cooldown) again admits
	// exactly one.
	b.Record(errors.New("still down"))
	if b.State() != "open" {
		t.Fatal("breaker closed after a failed probe")
	}
	time.Sleep(15 * time.Millisecond)
	admitted.Store(0)
	var wg2 sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if b.Allow() == nil {
				admitted.Add(1)
			}
		}()
	}
	wg2.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("after failed probe: %d admitted, want exactly 1", got)
	}

	// A successful probe closes the breaker for everyone.
	b.Record(nil)
	if b.State() != "closed" {
		t.Fatal("breaker not closed after a successful probe")
	}
	var denied atomic.Int32
	var wg3 sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg3.Add(1)
		go func() {
			defer wg3.Done()
			if b.Allow() != nil {
				denied.Add(1)
			}
		}()
	}
	wg3.Wait()
	if got := denied.Load(); got != 0 {
		t.Fatalf("closed breaker denied %d callers", got)
	}
}
