package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one node of a hierarchical query trace: a named, timed region
// with integer attributes and child spans. Spans answer "where did THIS
// query go" (decompose → scan → per-candidate compare → per-tracelet
// decision), complementing the Collector's aggregates.
//
// All methods are safe on a nil *Span and safe for concurrent use, so a
// span can be threaded through CompareEachCtx's worker pool: children may be
// attached from multiple goroutines.
type Span struct {
	mu       sync.Mutex
	name     string
	traceID  string // root spans only: the request's 128-bit trace ID
	root     *Span  // the tree's root; nil on a root
	start    time.Time
	durNS    int64
	attrs    map[string]int64
	children []*Span
}

// StartSpan starts a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartTraceSpan starts a root span bound to a trace ID (minting a fresh
// one when id is empty or malformed), the form every request-scoped root
// uses: the ID is what joins this span tree to client stats, access logs
// and error bodies.
func StartTraceSpan(name, id string) *Span {
	if !isHex(id, 32) {
		id = NewTraceID()
	}
	return &Span{name: name, traceID: id, start: time.Now()}
}

// TraceID returns the trace ID of the span's tree: the root's, for a
// child too ("" on nil spans and on trees started without one).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	if s.root != nil {
		return s.root.traceID
	}
	return s.traceID
}

// Child starts and attaches a child span. On a nil receiver it returns
// nil (which itself accepts every Span method), so tracing code needs no
// guards — though callers should still avoid computing expensive names
// for a nil parent.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	root := s.root
	if root == nil {
		root = s
	}
	c := &Span{name: name, root: root, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End records the span duration. Calling End more than once keeps the
// first measurement.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.durNS == 0 {
		s.durNS = time.Since(s.start).Nanoseconds()
		if s.durNS == 0 {
			s.durNS = 1 // a finished span is never 0ns — 0 means "unfinished"
		}
	}
	s.mu.Unlock()
}

// Set stores an integer attribute on the span.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Add increments an integer attribute on the span.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]int64)
	}
	s.attrs[key] += delta
	s.mu.Unlock()
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Attr returns one attribute value (0 if absent or nil span).
func (s *Span) Attr(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Children returns a copy of the child slice.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Duration returns the span's recorded duration, or the elapsed time so
// far for an unfinished span (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.durNS == 0 {
		return time.Since(s.start)
	}
	return time.Duration(s.durNS)
}

// spanCtxKey keys the request span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp. A nil span is carried
// too (SpanFromContext then returns nil), so pipeline code can thread
// the context unconditionally — nil propagates as "tracing off" exactly
// like the nil *Span itself does.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil. Every Span
// method accepts a nil receiver, so the result can be used unguarded.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// spanJSON is the wire form of a span tree.
type spanJSON struct {
	Name     string           `json:"name"`
	TraceID  string           `json:"trace_id,omitempty"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Span          `json:"children,omitempty"`
}

// MarshalJSON serializes the span tree. An unfinished span reports the
// elapsed time so far.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	s.mu.Lock()
	j := spanJSON{Name: s.name, TraceID: s.traceID, DurNS: s.durNS}
	if j.DurNS == 0 {
		j.DurNS = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]int64, len(s.attrs))
		for k, v := range s.attrs {
			j.Attrs[k] = v
		}
	}
	j.Children = append(j.Children, s.children...)
	s.mu.Unlock()
	return json.Marshal(j)
}

// WriteJSON writes the span tree as indented JSON.
func (s *Span) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
