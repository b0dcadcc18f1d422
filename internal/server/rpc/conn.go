// Package rpc is the resilient JSON-over-HTTP transport shared by every
// caller of a tracy server: the Go client (internal/server/client) and
// the coordinator's intra-fleet shard RPC (internal/server). It owns the
// un-typed half of the client stack — structured errors,
// exponential-backoff retries honoring Retry-After, a consecutive-failure
// circuit breaker, the failover/hedge race over a replica group, and the
// per-attempt trace/record plumbing — with no dependency on the server's
// wire schema, so the server package itself can dial peers through it
// without an import cycle.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// ErrSaturated is wrapped by errors returned when the server sheds load
// with 429; callers back off and retry (the default RetryPolicy already
// does): errors.Is(err, ErrSaturated).
var ErrSaturated = errors.New("server saturated")

// MaxErrBody bounds how much of an error response body is read: a
// misbehaving server cannot make the caller buffer an unbounded error.
const MaxErrBody = 1 << 16

// MaxReplyBody bounds how much of a 200 body is read, so a misbehaving
// worker or proxy cannot make a coordinator, `tracy query` or the bench
// client buffer without limit. It sits above the largest body a tracy
// server writes:
//
//   - a /v1/search/batch answer: 64 queries (the batch limit) × 1000 hits
//     (the limit cap) × at most 1 KiB a hit — about 200 B of keys and
//     numbers, plus an executable and a function name of up to ~400 B
//     each as written — is 62.5 MiB, and each query's header adds under
//     1 KiB;
//   - a /v1/functions listing at about 90 B a function (up to 128 B with
//     long names) is under 64 MiB up to 500 000 functions, five times
//     the largest corpus measured;
//   - a /v1/fleet/function answer is one function gob, which the
//     coordinator forwards inside a request body a worker caps at
//     Config.MaxBodyBytes (8 MiB by default), so a usable one is smaller.
const MaxReplyBody = 64 << 20

// Attempt-identity headers stamped on every round trip, consumed by the
// server's observe middleware (internal/server re-exports them).
const (
	AttemptHeader = "X-Tracy-Attempt" // 0-based attempt number within one logical request
	HedgeHeader   = "X-Tracy-Hedge"   // "1" on a leg FailoverRace's hedge timer launched
)

// APIError is a non-2xx reply decoded from the server's error body.
type APIError struct {
	Status     int           // HTTP status code
	Msg        string        // server-provided message
	RetryAfter time.Duration // parsed Retry-After header; 0 when absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.Status)
}

// Unwrap lets errors.Is(err, ErrSaturated) match 429 replies.
func (e *APIError) Unwrap() error {
	if e.Status == http.StatusTooManyRequests {
		return ErrSaturated
	}
	return nil
}

// TransportError wraps a failure to reach the server at all (connection
// refused/reset, DNS failure, broken response stream). Transport errors
// are always retryable.
type TransportError struct {
	Err error
}

func (e *TransportError) Error() string { return "transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// parseRetryAfter reads a Retry-After header value: delta-seconds or an
// HTTP date. 0 means absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Conn dials one tracy server. The zero value of every policy field is
// safe: nil Retry means no retries, nil Breaker means no circuit
// breaking, nil Stats means no attempt accounting. Fields are read per
// call, so a Conn may be rebuilt around a shared *Counters without
// losing history.
type Conn struct {
	// BaseURL is the server root, e.g. "http://localhost:8077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// Retry, when non-nil, retries saturated (429), server-failure (5xx),
	// and transport errors with exponential backoff and jitter. A context
	// that ends stops retrying immediately.
	Retry *RetryPolicy

	// Breaker, when non-nil, fails requests fast with ErrCircuitOpen
	// after a run of consecutive failures, probing again after a cooldown.
	Breaker *Breaker

	// Stats, when non-nil, accumulates attempt and retry counts and the
	// recent attempt-record ring across calls.
	Stats *Counters
}

// A type that brings its own JSON codec (internal/server's SearchRequest
// and SearchResponse) is encoded and decoded by it directly: the request
// body is not compacted again and a plain reply is scanned once, without
// json.Unmarshal's validating pass and reflection. Each interface holds
// the one method Conn calls; an UnmarshalJSON reached this way must
// accept exactly what json.Unmarshal accepts, since nothing checks the
// body first.
type (
	jsonMarshaler   interface{ MarshalJSON() ([]byte, error) }
	jsonUnmarshaler interface{ UnmarshalJSON([]byte) error }
)

// Do sends one JSON request under the retry policy and decodes the
// reply into out. Marshalling happens once. Every HTTP round trip of the
// call — first try and backoff retries — carries one trace ID in its
// traceparent header, with a fresh span ID per attempt, plus its attempt
// number and, on a FailoverRace hedge leg, the hedge flag; so the
// server's access log and flight recorder tell the attempts apart while
// still joining them. The trace ID is the one of the request span in ctx
// (a coordinator's scatter leg, lookup or reload joins the request that
// caused it) and a fresh one when ctx carries none.
func (c *Conn) Do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if m, ok := in.(jsonMarshaler); ok {
			payload, err = m.MarshalJSON()
		} else {
			payload, err = json.Marshal(in)
		}
		if err != nil {
			return err
		}
	}
	traceID := telemetry.SpanFromContext(ctx).TraceID()
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	data, err := c.withRetry(ctx, func(ctx context.Context, n int) ([]byte, error) {
		return c.attempt(ctx, method, path, payload, in != nil, traceID, n)
	})
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if u, ok := out.(jsonUnmarshaler); ok {
		return u.UnmarshalJSON(data)
	}
	return json.Unmarshal(data, out)
}

// attempt performs exactly one HTTP round trip, number n of the call
// traced as trace, and classifies the outcome: raw 200 body, *APIError
// (with parsed Retry-After), or *TransportError. Context errors come
// back unwrapped so the retry layer can tell "the caller gave up" from
// "the network failed". Every outcome lands in the attempt-record ring
// (Stats).
func (c *Conn) attempt(ctx context.Context, method, path string, payload []byte, hasBody bool, trace string, n int) ([]byte, error) {
	c.Stats.addAttempt()
	t0 := time.Now()
	rec := AttemptRecord{TraceID: trace, Path: path, Attempt: n, Hedge: isHedgeLeg(ctx)}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(trace, telemetry.NewSpanID()))
	req.Header.Set(AttemptHeader, strconv.Itoa(n))
	if rec.Hedge {
		req.Header.Set(HedgeHeader, "1")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else {
			err = &TransportError{Err: err}
		}
		rec.Err = err.Error()
		rec.DurMS = msSince(t0)
		c.Stats.record(rec)
		return nil, err
	}
	defer resp.Body.Close()
	rec.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, MaxErrBody))
		// The server's error bodies are ErrorResponse JSON; fall back to
		// the raw body for proxies and panics that answer something else.
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		aerr := &APIError{
			Status:     resp.StatusCode,
			Msg:        msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		rec.Err = aerr.Error()
		rec.DurMS = msSince(t0)
		c.Stats.record(rec)
		return nil, aerr
	}
	data, err := readReply(resp)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else {
			err = &TransportError{Err: err}
		}
		rec.Err = err.Error()
		rec.DurMS = msSince(t0)
		c.Stats.record(rec)
		return nil, err
	}
	rec.DurMS = msSince(t0)
	c.Stats.record(rec)
	return data, nil
}

// readReply reads a 200 body of at most MaxReplyBody bytes, as
// io.ReadAll does but into a buffer sized by the declared length when
// there is one; the caller reports a longer body as a *TransportError.
func readReply(resp *http.Response) ([]byte, error) {
	r := io.LimitReader(resp.Body, MaxReplyBody+1)
	b := make([]byte, 0, min(max(resp.ContentLength, 0), MaxReplyBody)+bytes.MinRead)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
	if len(b) > MaxReplyBody {
		return nil, fmt.Errorf("reply body exceeds %d bytes", MaxReplyBody)
	}
	return b, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
