package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy shapes the retry loop. Zero-valued fields take the
// documented defaults, so &RetryPolicy{} is the default policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; values < 1 mean the default).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized, 0..1
	// (default 0.5: delay is 50–100% of nominal). Negative disables
	// jitter entirely.
	Jitter float64

	// randFloat is the jitter source (test seam; default math/rand).
	randFloat func() float64
}

// DefaultRetryPolicy returns the policy client.New and the coordinator
// arm: 4 attempts, 50ms base delay doubling to a 2s cap, half-width
// jitter. The caller's context deadline is the overall budget.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{}
}

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 4
	}
	return p.MaxAttempts
}

// delay computes the backoff before retry number retry (0-based).
// A server-provided Retry-After floors the result: the server knows its
// own saturation horizon better than our exponential guess.
func (p *RetryPolicy) delay(retry int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = 2 * time.Second
	}
	d := base << uint(retry)
	if d > maxD || d <= 0 { // <= 0: shift overflow
		d = maxD
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.5
	}
	if jitter > 0 {
		if jitter > 1 {
			jitter = 1
		}
		rf := p.randFloat
		if rf == nil {
			rf = rand.Float64
		}
		// Uniform in [1-jitter, 1] of nominal: never longer than the cap,
		// decorrelated across clients.
		d = time.Duration(float64(d) * (1 - jitter*rf()))
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retryable reports whether err is worth another attempt: saturation
// (429), server failure (5xx), or a transport error. Client mistakes
// (4xx) and context ends are final.
func retryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return false
}

// retryAfterOf extracts the server's Retry-After hint from err, if any.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// withRetry drives attempts of f under the policy: breaker check,
// attempt number try, classify, back off (honoring Retry-After), repeat.
// A done context is never retried past — the in-flight attempt's error
// (or the context's) returns immediately — so the caller's deadline
// bounds the whole loop.
func (c *Conn) withRetry(ctx context.Context, f func(ctx context.Context, try int) ([]byte, error)) ([]byte, error) {
	attempts := 1
	if c.Retry != nil {
		attempts = c.Retry.maxAttempts()
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		if err := c.Breaker.Allow(); err != nil {
			return nil, err
		}
		data, err := f(ctx, try)
		c.Breaker.Record(err)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil || try == attempts-1 {
			return nil, err
		}
		c.Stats.addRetry()
		t := time.NewTimer(c.Retry.delay(try, retryAfterOf(err)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// ErrCircuitOpen is returned (wrapped) while the breaker is open.
var ErrCircuitOpen = errors.New("circuit breaker open")

// Breaker is a consecutive-failure circuit breaker: after Threshold
// failures in a row it opens and fails requests instantly for Cooldown,
// then lets a single probe through (half-open); the probe's outcome
// closes or re-opens it. A nil *Breaker is a no-op. Saturation (429)
// does not trip the breaker — a shedding server is alive, and backoff
// is the right response, not lockout. Context cancellation does not
// trip it either: the caller gave up, the server did not fail.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5; values < 1 mean the default).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a probe
	// (default 1s).
	Cooldown time.Duration

	mu       sync.Mutex
	fails    int
	state    breakerState
	openedAt time.Time
	probing  bool
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
)

func (b *Breaker) threshold() int {
	if b.Threshold < 1 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return time.Second
	}
	return b.Cooldown
}

// Allow reports whether a request may proceed: nil when closed or when
// it wins the half-open probe slot, an ErrCircuitOpen-wrapped error
// otherwise.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		return nil
	}
	if since := time.Since(b.openedAt); since >= b.cooldown() {
		if !b.probing {
			b.probing = true // half-open: exactly one probe at a time
			return nil
		}
		return fmt.Errorf("%w: probe in flight", ErrCircuitOpen)
	}
	return fmt.Errorf("%w: retry in %v", ErrCircuitOpen, b.cooldown()-time.Since(b.openedAt))
}

// Record feeds a request outcome into the breaker.
func (b *Breaker) Record(err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	failure := err != nil && !errors.Is(err, ErrSaturated) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	if failure {
		var ae *APIError
		if errors.As(err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests {
			failure = false // the caller's mistake, not the server's health
		}
	}
	if !failure {
		if err == nil {
			b.fails = 0
			b.state = breakerClosed
		}
		b.probing = false
		return
	}
	b.probing = false
	b.fails++
	if b.state == breakerOpen || b.fails >= b.threshold() {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}

// State returns "closed" or "open" (for logs and tests).
func (b *Breaker) State() string {
	if b == nil {
		return "closed"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		return "closed"
	}
	return "open"
}

// maxAttemptRecords bounds the attempt-record ring: enough to cover
// every round trip of a recent burst without growing with traffic.
const maxAttemptRecords = 64

// AttemptRecord describes one HTTP round trip: which logical request
// it belonged to (TraceID), which try it was (Attempt, Hedge) and how
// it ended. Retries each get their own record under the same trace ID —
// the client-side half of the end-to-end trace join.
type AttemptRecord struct {
	TraceID string  // trace ID shared by all attempts of one request
	Path    string  // request path, e.g. "/v1/search"
	Attempt int     // 0-based attempt number within the request
	Hedge   bool    // this round trip belongs to a FailoverRace hedge leg
	Status  int     // HTTP status (0 when the transport failed)
	Err     string  // "" on success
	DurMS   float64 // round-trip wall time
}

// Counters accumulates resilience activity across the calls of one or
// more Conns. Every method no-ops on nil, so an untracked Conn pays one
// branch.
type Counters struct {
	attempts atomic.Uint64
	retries  atomic.Uint64

	mu      sync.Mutex
	recent  []AttemptRecord // ring of the last maxAttemptRecords attempts
	recNext int
	recFull bool
}

func (s *Counters) addAttempt() {
	if s == nil {
		return
	}
	s.attempts.Add(1)
}

func (s *Counters) addRetry() {
	if s == nil {
		return
	}
	s.retries.Add(1)
}

// record appends one finished round trip to the attempt ring.
func (s *Counters) record(rec AttemptRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recent == nil {
		s.recent = make([]AttemptRecord, maxAttemptRecords)
	}
	s.recent[s.recNext] = rec
	s.recNext++
	if s.recNext == len(s.recent) {
		s.recNext = 0
		s.recFull = true
	}
}

// recentCopy returns the ring's contents oldest-first.
func (s *Counters) recentCopy() []AttemptRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recFull {
		return append([]AttemptRecord(nil), s.recent[:s.recNext]...)
	}
	out := make([]AttemptRecord, 0, len(s.recent))
	out = append(out, s.recent[s.recNext:]...)
	out = append(out, s.recent[:s.recNext]...)
	return out
}

// Stats is a point-in-time copy of the resilience counters.
type Stats struct {
	Attempts uint64 // HTTP round trips started
	Retries  uint64 // backoff retries taken

	// Recent holds the last attempts (oldest first, bounded ring): one
	// record per HTTP round trip with its trace ID and outcome.
	Recent []AttemptRecord
}

// Snapshot returns the cumulative resilience counters and the recent
// attempt records.
func (s *Counters) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Attempts: s.attempts.Load(),
		Retries:  s.retries.Load(),
		Recent:   s.recentCopy(),
	}
}
