package server_test

// Chaos-suite extension for end-to-end tracing: through REAL TCP
// servers with injected faults, one logical request must keep a single
// trace ID across every retry and every hedged scatter leg, and that ID
// must join the client's attempt records, the servers' flight recorders
// and access logs, and the response body.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the access logger writes
// from server handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestChaosOneTraceAcrossRetries is the acceptance path: a transient
// search fault forces two retries, and afterwards the same trace ID is
// visible in (1) the client's Stats().Recent as three distinct attempts,
// (2) the server's flight recorder — two errored attempts plus the
// winner with its stage spans, (3) the access log, and (4) the response.
func TestChaosOneTraceAcrossRetries(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Error, Count: 2})
	var accessLog syncBuffer
	s, url := startChaos(t, server.Config{Faults: faults, AccessLog: &accessLog, AccessLogSample: 1})
	cl := client.New(url)
	cl.Retry = fastPolicy()

	req := chaosQuery(t, chaosDB(t))
	resp, err := cl.Search(context.Background(), &req)
	if err != nil {
		t.Fatalf("search should survive the transient fault: %v", err)
	}
	if !telemetry.IsTraceID(resp.TraceID) {
		t.Fatalf("response trace_id %q invalid", resp.TraceID)
	}
	tid := resp.TraceID

	// Client side: three attempts (0, 1, 2), one trace, no hedges.
	recent := cl.Stats().Recent
	if len(recent) != 3 {
		t.Fatalf("client recorded %d attempts, want 3: %+v", len(recent), recent)
	}
	for i, ar := range recent {
		if ar.TraceID != tid {
			t.Errorf("attempt %d trace %q, want %q", i, ar.TraceID, tid)
		}
		if ar.Attempt != i || ar.Hedge {
			t.Errorf("attempt record %d = %+v, want Attempt=%d Hedge=false", i, ar, i)
		}
	}
	if recent[0].Status != 500 || recent[1].Status != 500 || recent[2].Status != 200 {
		t.Errorf("attempt statuses %d/%d/%d, want 500/500/200",
			recent[0].Status, recent[1].Status, recent[2].Status)
	}

	// Server side: the flight recorder holds all three round trips under
	// the one trace — two in the errored ring, the winner in slowest with
	// a finished span tree.
	flight := s.Flight().Snapshot()
	errored := 0
	for _, fr := range flight.Errored {
		if fr.TraceID == tid {
			errored++
			if fr.Status != 500 || fr.Error == "" {
				t.Errorf("errored record %+v, want status 500 with a message", fr)
			}
		}
	}
	if errored != 2 {
		t.Errorf("errored ring has %d records for %s, want 2", errored, tid)
	}
	var winner *telemetry.RequestRecord
	for _, fr := range flight.Slowest {
		if fr.TraceID == tid && fr.Status == 200 {
			winner = fr
			break
		}
	}
	if winner == nil {
		t.Fatalf("winning attempt for %s not in flight recorder", tid)
	}
	if winner.Attempt != 2 {
		t.Errorf("winner attempt %d, want 2 (server sees the client's attempt header)", winner.Attempt)
	}
	if winner.Span == nil || winner.Span.Duration() <= 0 {
		t.Error("winner lost its span tree")
	}

	// Access log: one line per attempt, all carrying the trace. The log
	// write races the response by a hair, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var lines []string
	for {
		lines = nil
		for _, ln := range strings.Split(strings.TrimSpace(accessLog.String()), "\n") {
			if strings.Contains(ln, tid) {
				lines = append(lines, ln)
			}
		}
		if len(lines) >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines for %s, want 3:\n%s", len(lines), tid, accessLog.String())
	}
	var last struct {
		TraceID string             `json:"trace_id"`
		Attempt int                `json:"attempt"`
		Status  int                `json:"status"`
		Stages  map[string]float64 `json:"stages_ms"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad access line: %v\n%s", err, lines[len(lines)-1])
	}
	if last.TraceID != tid {
		t.Errorf("access line trace %q, want %q", last.TraceID, tid)
	}
}

// TestChaosHedgeSharesTrace: a coordinator with ShardHedge over one
// group of two replicas whose primary is slowed by a latency fault. The
// scatter leg the hedge timer launches races past it, and the sibling
// that answers it records a 200 marked as a hedge under the
// coordinator's own trace ID — the server learns both from the request
// headers.
func TestChaosHedgeSharesTrace(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Latency, Latency: 3 * time.Second})
	_, primaryURL := startChaos(t, server.Config{Faults: faults})
	sibling, siblingURL := startChaos(t, server.Config{})
	coord, err := server.New(server.Config{
		Fleet:         []string{primaryURL + "|" + siblingURL},
		ShardHedge:    30 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	cl := client.New("http://" + addr.String())
	cl.Retry = nil

	req := chaosQuery(t, chaosDB(t))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	resp, err := cl.Search(ctx, &req)
	if err != nil {
		t.Fatalf("hedged scatter should win past the latency fault: %v", err)
	}
	if took := time.Since(t0); took >= 3*time.Second {
		t.Errorf("search took %v: it waited out the slow primary", took)
	}
	if !telemetry.IsTraceID(resp.TraceID) {
		t.Fatalf("coordinator trace_id %q invalid", resp.TraceID)
	}
	tid := resp.TraceID
	if got := coord.Tel().Get(telemetry.FleetHedges); got < 1 {
		t.Fatalf("fleet_hedges = %d, want >= 1", got)
	}

	var hedged bool
	for _, fr := range sibling.Flight().Snapshot().Slowest {
		if fr.TraceID == tid && fr.Path == "/v1/search" && fr.Hedge && fr.Status == 200 {
			hedged = true
		}
	}
	if !hedged {
		t.Errorf("sibling's flight recorder has no successful hedge-marked search for %s: %+v",
			tid, sibling.Flight().Snapshot().Slowest)
	}
}
