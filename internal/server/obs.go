package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server/rpc"
	"repro/internal/telemetry"
)

// Request observability: the observe middleware is the outermost layer
// of every API route. It adopts (or mints) the request's trace ID from
// the W3C traceparent header, roots a span the whole pipeline hangs
// stage children off via context, echoes the ID in the X-Trace-Id
// response header, and on completion feeds one RequestRecord to the
// flight recorder (/debug/requests) and the sampled access log.

// Trace propagation headers. The client stamps every HTTP attempt with
// traceparent plus its retry/hedge identity; the server echoes the
// trace ID back so even a body-less reply is joinable. The attempt
// headers are defined by the shared transport (internal/server/rpc) and
// re-exported here for API consumers.
const (
	TraceIDHeader = "X-Trace-Id"      // response: the request's trace ID
	AttemptHeader = rpc.AttemptHeader // request: 0-based client retry attempt
	HedgeHeader   = rpc.HedgeHeader   // request: "1" on a coordinator's hedge leg
)

// statusRecorder captures the status code a handler chain writes; a
// handler that never calls WriteHeader implicitly answers 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// obsState carries per-request observations that are strings rather
// than span attributes — today just the error message. It needs a
// mutex because TimeoutHandler keeps the inner handler running in its
// own goroutine after a timeout, so the handler may still be recording
// while the middleware reads the final state.
type obsState struct {
	mu     sync.Mutex
	errMsg string
}

func (o *obsState) setErr(msg string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.errMsg = msg
	o.mu.Unlock()
}

func (o *obsState) err() string {
	if o == nil {
		return ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.errMsg
}

type obsCtxKey struct{}

func obsFromContext(ctx context.Context) *obsState {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(obsCtxKey{}).(*obsState)
	return o
}

// observe wraps h with the tracing middleware. It runs outside the
// panic-recovery and timeout layers so the trace spans the request's
// full wall-clock life and a timeout's 503 is recorded like any other
// outcome.
func (s *Server) observe(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tid, _, _ := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
		sp := telemetry.StartTraceSpan("request", tid) // mints a fresh ID when tid is ""
		attempt, _ := strconv.Atoi(r.Header.Get(AttemptHeader))
		obs := &obsState{}
		ctx := telemetry.ContextWithSpan(r.Context(), sp)
		ctx = context.WithValue(ctx, obsCtxKey{}, obs)
		w.Header().Set(TraceIDHeader, sp.TraceID())
		sr := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(sr, r.WithContext(ctx))
		sp.End()

		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		switch {
		case status >= 500:
			s.tel.Inc(telemetry.ServerStatus5xx)
		case status >= 400:
			s.tel.Inc(telemetry.ServerStatus4xx)
		default:
			s.tel.Inc(telemetry.ServerStatus2xx)
		}
		dur := time.Since(start)
		slow := dur >= s.slowThresh
		if slow {
			s.tel.Inc(telemetry.ServerSlowQueries)
		}
		rec := &telemetry.RequestRecord{
			TraceID:   sp.TraceID(),
			Method:    r.Method,
			Path:      r.URL.Path,
			Start:     start,
			DurMS:     float64(dur.Nanoseconds()) / 1e6,
			Status:    status,
			Error:     obs.err(),
			Attempt:   attempt,
			Hedge:     r.Header.Get(HedgeHeader) == "1",
			Cached:    sp.Attr("cached") != 0,
			Degraded:  sp.Attr("degraded") != 0,
			Truncated: sp.Attr("truncated") != 0,
			Slow:      slow,
			Span:      sp,
		}
		s.flight.Record(rec)
		s.accessLog.Log(rec)
	})
}
