// Package client is the Go client of the tracy query service
// (internal/server) for callers inside this module — `tracy query` and
// the benchmark harness: typed wrappers over the /v1 HTTP/JSON API with
// context support, structured errors, exponential-backoff retries with
// jitter (honoring Retry-After) and failover across a list of
// coordinators. The transport itself is internal/server/rpc, which the
// coordinator's intra-fleet RPC shares; this package binds it to the
// wire schema and re-exports the types its callers see.
package client

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/server/rpc"
)

// Re-exported transport types, so callers need not import rpc too.
type (
	// APIError is a non-2xx reply decoded from the server's error body.
	APIError = rpc.APIError
	// TransportError wraps a failure to reach the server at all.
	TransportError = rpc.TransportError
	// RetryPolicy shapes the client's retry loop.
	RetryPolicy = rpc.RetryPolicy
	// AttemptRecord describes one HTTP round trip.
	AttemptRecord = rpc.AttemptRecord
	// Stats is a point-in-time copy of the client's resilience counters.
	Stats = rpc.Stats
)

// ErrSaturated is wrapped by errors returned when the server sheds load
// with 429: errors.Is(err, ErrSaturated).
var ErrSaturated = rpc.ErrSaturated

// maxErrBody bounds how much of an error response body is read.
const maxErrBody = rpc.MaxErrBody

// DefaultRetryPolicy returns the policy New() arms: 4 attempts, 50ms
// base delay doubling to a 2s cap, half-width jitter. The caller's
// context deadline is the overall budget.
func DefaultRetryPolicy() *RetryPolicy { return rpc.DefaultRetryPolicy() }

// Client talks to one tracy server, or to several interchangeable
// coordinators. A nil Retry means no retries; New() arms the default
// policy.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8077". It may
	// list several interchangeable coordinators separated by commas
	// ("http://c1:8077,http://c2:8077"): each call starts at the last
	// known-good one and fails over to the next on a transport error or
	// a 5xx — so the coordinator itself is not a single point of
	// failure. 4xx replies (including 429) are the caller's problem, not
	// the target's, and never fail over.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// Retry, when non-nil, retries saturated (429), server-failure (5xx),
	// and transport errors with exponential backoff and jitter. A context
	// that ends stops retrying immediately.
	Retry *RetryPolicy

	stats rpc.Counters

	// preferred is the index (into targets()) of the last coordinator
	// that answered, so a healthy fleet pays zero failover probes.
	preferred atomic.Int32
}

// New returns a client for the server at baseURL with the default
// retry policy armed.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), Retry: DefaultRetryPolicy()}
}

// targets splits BaseURL into the coordinator list. Computed per call:
// BaseURL may be reassigned between calls (tests do).
func (c *Client) targets() []string {
	var out []string
	for _, t := range strings.Split(c.BaseURL, ",") {
		if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// conn views the client's current policy fields as an rpc.Conn against
// one target. Built per call (fields may be reassigned between calls),
// sharing the persistent stats accumulator.
func (c *Client) conn(target string) *rpc.Conn {
	return &rpc.Conn{BaseURL: target, HTTPClient: c.HTTPClient, Retry: c.Retry, Stats: &c.stats}
}

// failover reports whether err indicts the coordinator rather than the
// request: transport failures and 5xx move on to the next target; 4xx
// (including 429 saturation, which retries in place via the retry
// policy) do not.
func failover(err error) bool {
	var te *rpc.TransportError
	if errors.As(err, &te) {
		return true
	}
	var ae *rpc.APIError
	return errors.As(err, &ae) && ae.Status >= 500
}

// do runs one API call with coordinator failover: targets are tried in
// order starting from the last known-good one, and the preference
// sticks on success.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	targets := c.targets()
	start := int(c.preferred.Load())
	if start >= len(targets) {
		start = 0
	}
	var firstErr error
	for i := 0; i < len(targets); i++ {
		ti := (start + i) % len(targets)
		err := c.conn(targets[ti]).Do(ctx, method, path, in, out)
		if err == nil {
			c.preferred.Store(int32(ti))
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil || !failover(err) {
			return err
		}
	}
	return firstErr
}

// Search runs one query.
func (c *Client) Search(ctx context.Context, req *server.SearchRequest) (*server.SearchResponse, error) {
	var resp server.SearchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/search", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SearchImage uploads an executable image and searches for its function
// fn (empty: the largest); extra tunes limit/min_score/k when non-nil.
func (c *Client) SearchImage(ctx context.Context, img []byte, fn string, extra *server.SearchRequest) (*server.SearchResponse, error) {
	req := server.SearchRequest{}
	if extra != nil {
		req = *extra
	}
	req.SetImage(img)
	req.Function = fn
	req.Exe, req.Name = "", ""
	return c.Search(ctx, &req)
}

// SearchBatch runs several queries in one round trip.
func (c *Client) SearchBatch(ctx context.Context, queries []server.SearchRequest) (*server.BatchResponse, error) {
	var resp server.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/search/batch", server.BatchRequest{Queries: queries}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Functions lists the indexed corpus; exe filters by executable and
// limit caps the listing when > 0.
func (c *Client) Functions(ctx context.Context, exe string, limit int) (*server.FunctionsResponse, error) {
	q := url.Values{}
	if exe != "" {
		q.Set("exe", exe)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/functions"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp server.FunctionsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz probes liveness and the loaded snapshot's shape.
func (c *Client) Healthz(ctx context.Context) (*server.HealthResponse, error) {
	var resp server.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Reload asks the server to hot-reload its index from disk.
func (c *Client) Reload(ctx context.Context) (*server.ReloadResponse, error) {
	var resp server.ReloadResponse
	if err := c.do(ctx, http.MethodPost, "/v1/reload", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats returns the client's cumulative resilience counters and the
// recent attempt records.
func (c *Client) Stats() Stats {
	return c.stats.Snapshot()
}
