package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !IsTraceID(id) {
			t.Fatalf("NewTraceID() = %q: not 32 lowercase hex digits", id)
		}
		if isZero(id) {
			t.Fatalf("NewTraceID() produced the forbidden all-zero ID")
		}
		if seen[id] {
			t.Fatalf("NewTraceID() repeated %q within 100 draws", id)
		}
		seen[id] = true
	}
	if sid := NewSpanID(); !isHex(sid, 16) || isZero(sid) {
		t.Fatalf("NewSpanID() = %q: want 16 nonzero lowercase hex digits", sid)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q: got (%q, %q, %v), want (%q, %q, true)", h, gotT, gotS, ok, tid, sid)
	}
}

func TestFormatTraceparentFillsBadIDs(t *testing.T) {
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("A", 32)} {
		h := FormatTraceparent(bad, "")
		if _, _, ok := ParseTraceparent(h); !ok {
			t.Errorf("FormatTraceparent(%q, ...) = %q: not parseable", bad, h)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", valid, true},
		{"valid future version", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true},
		{"valid with extension after dash", valid + "-extrafield", true},
		{"empty", "", false},
		{"too short", valid[:54], false},
		{"junk appended without dash", valid + "ff", false},
		{"forbidden version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"uppercase hex", "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", false},
		{"non-hex trace id", "00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"all-zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"missing dashes", "00x0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331x01", false},
		{"fields swapped widths", "00-b7ad6b7169203331-0af7651916cd43dd8448eb211c80319c-01", false},
	}
	for _, tc := range cases {
		tid, sid, ok := ParseTraceparent(tc.in)
		if ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.in, ok, tc.ok)
		}
		if !ok && (tid != "" || sid != "") {
			t.Errorf("%s: malformed parse leaked IDs (%q, %q)", tc.name, tid, sid)
		}
	}
}

func TestStartTraceSpanAdoptsOrMints(t *testing.T) {
	tid := NewTraceID()
	if got := StartTraceSpan("req", tid).TraceID(); got != tid {
		t.Fatalf("StartTraceSpan kept %q, want %q", got, tid)
	}
	minted := StartTraceSpan("req", "not-a-trace-id").TraceID()
	if !IsTraceID(minted) {
		t.Fatalf("StartTraceSpan minted invalid ID %q for malformed input", minted)
	}
	// A child carries its root's trace ID (so an RPC made under a stage
	// span joins the request's trace), but only the root writes it.
	root := StartTraceSpan("req", tid)
	child := root.Child("stage")
	if got := child.Child("leg").TraceID(); got != tid {
		t.Fatalf("grandchild TraceID = %q, want the root's %q", got, tid)
	}
	child.End()
	root.End()
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), `"trace_id"`); n != 1 {
		t.Fatalf("span JSON carries trace_id %d times, want once (on the root): %s", n, b)
	}
}

func TestContextSpanPropagation(t *testing.T) {
	sp := StartTraceSpan("req", "")
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext returned %v, want the stored span", got)
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("SpanFromContext on a bare context = %v, want nil", got)
	}
	// A nil span must propagate as "tracing off" without panics: every
	// downstream call pattern on the result must be safe.
	nctx := ContextWithSpan(context.Background(), nil)
	nsp := SpanFromContext(nctx)
	if nsp != nil {
		t.Fatalf("nil span round-tripped to %v", nsp)
	}
	c := nsp.Child("stage")
	c.Set("k", 1)
	c.Add("k", 1)
	c.End()
	if c != nil || nsp.TraceID() != "" || nsp.Duration() != 0 {
		t.Fatal("nil-span operations must all no-op")
	}
	if got := SpanFromContext(nil); got != nil { //nolint:staticcheck // nil ctx is the documented edge
		t.Fatalf("SpanFromContext(nil) = %v, want nil", got)
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	sp := StartSpan("x")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	d1 := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End() // keeps the first measurement
	if d2 := sp.Duration(); d2 != d1 {
		t.Fatalf("second End changed duration: %v -> %v", d1, d2)
	}
	if d1 <= 0 {
		t.Fatalf("finished span duration %v, want > 0", d1)
	}
}

func TestSpanConcurrentChildEnd(t *testing.T) {
	// Child attachment racing End must be safe and lose no children:
	// exercised under -race in CI.
	sp := StartTraceSpan("req", "")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := sp.Child("stage")
				c.Set("i", int64(i))
				c.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				sp.End()
				sp.Duration()
				_ = sp.Children()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := len(sp.Children()); got != workers*perWorker {
		t.Fatalf("lost children under concurrency: %d, want %d", got, workers*perWorker)
	}
}
