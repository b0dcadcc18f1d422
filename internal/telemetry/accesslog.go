package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// AccessLogger emits one structured JSON line per logged request:
// trace ID, method/path, status, duration, flags and the per-stage
// timings flattened out of the request's span tree. Logging every
// request at fleet scale is unaffordable, so lines are sampled 1-in-N —
// but errors and slow queries always log, which is the retention rule
// that makes the log joinable with the flight recorder: anything worth
// debugging is guaranteed present in both.
//
// A nil *AccessLogger no-ops. Log is safe for concurrent use; the
// underlying writer sees one complete line per call.
type AccessLogger struct {
	mu     sync.Mutex
	w      io.Writer
	sample int           // log 1 in sample requests (1 = all)
	slow   time.Duration // always log requests at least this slow
	seq    uint64
}

// DefaultSlowQuery is the slow-query threshold when none is configured.
const DefaultSlowQuery = time.Second

// NewAccessLogger logs to w, sampling 1 in sample requests (values < 1
// mean 1: log everything) and always retaining requests slower than
// slow (<= 0 selects DefaultSlowQuery). A nil writer returns nil — the
// no-op logger.
func NewAccessLogger(w io.Writer, sample int, slow time.Duration) *AccessLogger {
	if w == nil {
		return nil
	}
	if sample < 1 {
		sample = 1
	}
	if slow <= 0 {
		slow = DefaultSlowQuery
	}
	return &AccessLogger{w: w, sample: sample, slow: slow}
}

// accessLine is the wire shape of one access-log line.
type accessLine struct {
	Time    string             `json:"ts"`
	TraceID string             `json:"trace_id"`
	Method  string             `json:"method"`
	Path    string             `json:"path"`
	Status  int                `json:"status"`
	DurMS   float64            `json:"dur_ms"`
	Attempt int                `json:"attempt,omitempty"`
	Hedge   bool               `json:"hedge,omitempty"`
	Cached  bool               `json:"cached,omitempty"`
	Degrade bool               `json:"degraded,omitempty"`
	Trunc   bool               `json:"truncated,omitempty"`
	Slow    bool               `json:"slow,omitempty"`
	Sampled bool               `json:"sampled,omitempty"` // logged by sampling, not by merit
	Error   string             `json:"error,omitempty"`
	Stages  map[string]float64 `json:"stages_ms,omitempty"` // per-stage ms from the span tree
}

// Log emits rec if it is an error, slow, or selected by sampling, and
// reports whether a line was written.
func (l *AccessLogger) Log(rec *RequestRecord) bool {
	if l == nil || rec == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	sampled := l.sample == 1 || l.seq%uint64(l.sample) == 1
	merit := rec.Status >= 400 || rec.Slow
	if !sampled && !merit {
		return false
	}
	line := accessLine{
		Time:    rec.Start.UTC().Format(time.RFC3339Nano),
		TraceID: rec.TraceID,
		Method:  rec.Method,
		Path:    rec.Path,
		Status:  rec.Status,
		DurMS:   rec.DurMS,
		Attempt: rec.Attempt,
		Hedge:   rec.Hedge,
		Cached:  rec.Cached,
		Degrade: rec.Degraded,
		Trunc:   rec.Truncated,
		Slow:    rec.Slow,
		Sampled: !merit,
		Error:   rec.Error,
		Stages:  StageTimings(rec.Span),
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false
	}
	_, _ = l.w.Write(append(b, '\n'))
	return true
}

// StageTimings flattens a request span tree into stage -> milliseconds:
// each direct child of the root contributes its duration under its
// name (repeated names — batch items — accumulate). Nil-safe.
func StageTimings(root *Span) map[string]float64 {
	if root == nil {
		return nil
	}
	kids := root.Children()
	if len(kids) == 0 {
		return nil
	}
	out := make(map[string]float64, len(kids))
	for _, c := range kids {
		out[c.Name()] += float64(c.Duration().Nanoseconds()) / 1e6
		for _, g := range c.Children() {
			out[c.Name()+"."+g.Name()] += float64(g.Duration().Nanoseconds()) / 1e6
		}
	}
	return out
}
