package server_test

// The chaos suite runs the REAL client against a REAL fault-injected
// server over TCP — no httptest shortcuts — and checks the resilience
// story end to end: transient faults are retried away, injected latency
// never outlives a deadline, panics become 500s without killing the
// process, cache faults are invisible, and a saturated server is
// eventually answered once its load clears. CI runs this file under
// -race (the chaos-smoke job).

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

var (
	chaosOnce sync.Once
	chaosDBv  *index.DB
	chaosErr  error
)

// chaosDB builds the shared chaos corpus once per test binary.
func chaosDB(t *testing.T) *index.DB {
	t.Helper()
	chaosOnce.Do(func() {
		c, err := corpus.Build(corpus.BuildConfig{
			Seed: 7, ContextCopies: 2, Versions: 2, NoiseExes: 1,
			FuncsPerExe: 2, TargetStmts: 30, FillerStmts: 10, Opt: tinyc.O2,
		})
		if err != nil {
			chaosErr = err
			return
		}
		db := index.New()
		for _, e := range c.Exes {
			if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
				chaosErr = err
				return
			}
		}
		chaosDBv = db
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosDBv
}

// startChaos boots a real TCP server around the chaos corpus and
// returns it with its base URL; shutdown is a test cleanup.
func startChaos(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.NewFromDB(chaosDB(t), cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + addr.String()
}

// chaosQuery returns a by-reference SearchRequest the chaos corpus can
// always answer.
func chaosQuery(t *testing.T, db *index.DB) server.SearchRequest {
	t.Helper()
	for _, e := range db.Entries {
		if e.Truth == corpus.LibFuncName {
			return server.SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 5}
		}
	}
	t.Fatalf("chaos corpus has no %s entry", corpus.LibFuncName)
	return server.SearchRequest{}
}

// fastPolicy retries aggressively so chaos tests converge in
// milliseconds instead of the production-shaped seconds.
func fastPolicy() *client.RetryPolicy {
	return &client.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// TestChaosRetriesClearTransientFaults: a count-limited error fault at
// the search point fails the first attempts; the client's retry loop
// outlives the fault and the call succeeds end to end.
func TestChaosRetriesClearTransientFaults(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Error, Count: 2})
	s, url := startChaos(t, server.Config{Faults: faults})
	cl := client.New(url)
	cl.Retry = fastPolicy()

	req := chaosQuery(t, chaosDB(t))
	resp, err := cl.Search(context.Background(), &req)
	if err != nil {
		t.Fatalf("search should survive a transient fault: %v", err)
	}
	if len(resp.Hits) == 0 {
		t.Error("post-fault search returned no hits")
	}
	if got := cl.Stats().Retries; got < 2 {
		t.Errorf("client took %d retries, want >= 2 (fault fires twice)", got)
	}
	if got := faults.Fired(server.FaultSearch); got != 2 {
		t.Errorf("search fault fired %d times, want exactly 2 (count cap)", got)
	}
	if got := s.Tel().Get(telemetry.FaultsInjected); got != 2 {
		t.Errorf("faults_injected = %d, want 2", got)
	}
}

// TestChaosCancelledSearchReturnsPromptly: a 10s latency fault cannot
// hold a caller hostage — the client's context deadline cuts the search
// short well within 2x the deadline, and the server counts the
// cancellation.
func TestChaosCancelledSearchReturnsPromptly(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Latency, Latency: 10 * time.Second})
	s, url := startChaos(t, server.Config{Faults: faults})
	cl := client.New(url)
	cl.Retry = nil

	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req := chaosQuery(t, chaosDB(t))
	start := time.Now()
	_, err := cl.Search(ctx, &req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search through a 10s latency fault should not succeed in 500ms")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Errorf("cancelled search took %v, want <= 2x the %v deadline", elapsed, deadline)
	}
	// The server notices the disconnect asynchronously; give it a moment.
	deadlineAt := time.Now().Add(5 * time.Second)
	for s.Tel().Get(telemetry.SearchesCancelled)+s.Tel().Get(telemetry.SearchesDeadline) == 0 {
		if time.Now().After(deadlineAt) {
			t.Error("server never counted the cancelled search")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosServerSideDeadline: the request's own timeout_ms budget cuts
// an injected 10s latency short on the server, coming back as a clean
// 504 within 2x the budget.
func TestChaosServerSideDeadline(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Latency, Latency: 10 * time.Second})
	_, url := startChaos(t, server.Config{Faults: faults})
	cl := client.New(url)
	cl.Retry = nil

	const budget = 500 * time.Millisecond
	req := chaosQuery(t, chaosDB(t))
	req.TimeoutMS = int(budget.Milliseconds())
	start := time.Now()
	_, err := cl.Search(context.Background(), &req)
	elapsed := time.Since(start)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("error = %v, want a 504 APIError", err)
	}
	if elapsed > 2*budget {
		t.Errorf("deadline-bounded search took %v, want <= 2x the %v budget", elapsed, budget)
	}
}

// TestChaosPanicBecomesRetriableError: a one-shot panic fault at decode
// turns into a 500 the retry loop simply retries past; the server keeps
// serving and counts the recovery.
func TestChaosPanicBecomesRetriableError(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultDecode, Mode: faultinject.Panic, Count: 1})
	s, url := startChaos(t, server.Config{Faults: faults})
	cl := client.New(url)
	cl.Retry = fastPolicy()

	req := chaosQuery(t, chaosDB(t))
	if _, err := cl.Search(context.Background(), &req); err != nil {
		t.Fatalf("search should retry past a one-shot panic: %v", err)
	}
	if got := s.Tel().Get(telemetry.ServerPanics); got != 1 {
		t.Errorf("server_panics = %d, want 1", got)
	}
	if got := cl.Stats().Retries; got < 1 {
		t.Errorf("client took %d retries, want >= 1", got)
	}
}

// TestChaosCacheFaultsInvisible: a permanently broken result cache
// degrades to cache misses — answers stay correct and uncached, never
// errors.
func TestChaosCacheFaultsInvisible(t *testing.T) {
	faults := faultinject.New()
	_, url := startChaos(t, server.Config{Faults: faults, CacheEntries: 64})
	cl := client.New(url)
	cl.Retry = nil

	req := chaosQuery(t, chaosDB(t))
	baseline, err := cl.Search(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}

	faults.Arm(&faultinject.Fault{Point: server.FaultCache, Mode: faultinject.Error})
	for i := 0; i < 2; i++ {
		resp, err := cl.Search(context.Background(), &req)
		if err != nil {
			t.Fatalf("search %d with broken cache: %v", i, err)
		}
		if resp.Cached {
			t.Errorf("search %d claims a cache hit through a broken cache", i)
		}
		if len(resp.Hits) != len(baseline.Hits) {
			t.Fatalf("search %d returned %d hits, baseline %d", i, len(resp.Hits), len(baseline.Hits))
		}
		for j := range resp.Hits {
			if resp.Hits[j] != baseline.Hits[j] {
				t.Errorf("search %d hit %d drifted: %+v vs %+v", i, j, resp.Hits[j], baseline.Hits[j])
			}
		}
	}
}

// TestChaosSaturationEventuallyAnswered: with one in-flight slot pinned
// by a slow (latency-faulted) search, a second client is shed with 429 +
// Retry-After, keeps backing off, and succeeds once the slot frees.
func TestChaosSaturationEventuallyAnswered(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultSearch, Mode: faultinject.Latency,
		Latency: 1500 * time.Millisecond, Count: 1})
	_, url := startChaos(t, server.Config{Faults: faults, MaxInFlight: 1, CacheEntries: -1})
	req := chaosQuery(t, chaosDB(t))

	// Pin the only slot with a bare client (no retries to muddy the water).
	holder := &client.Client{BaseURL: url}
	holdDone := make(chan error, 1)
	go func() {
		_, err := holder.Search(context.Background(), &req)
		holdDone <- err
	}()
	// The one-shot fault firing means the holder is inside the slot,
	// sleeping; only then is the server provably saturated.
	for deadline := time.Now().Add(5 * time.Second); faults.Fired(server.FaultSearch) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("slot-holding search never reached the latency fault")
		}
		time.Sleep(time.Millisecond)
	}
	probe := &client.Client{BaseURL: url}
	if _, err := probe.Search(context.Background(), &req); !errors.Is(err, client.ErrSaturated) {
		t.Fatalf("probe during the held slot: err = %v, want ErrSaturated", err)
	}

	cl := client.New(url)
	cl.Retry = &client.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := cl.Search(ctx, &req)
	if err != nil {
		t.Fatalf("retrying client should outlast saturation: %v", err)
	}
	if len(resp.Hits) == 0 {
		t.Error("post-saturation search returned no hits")
	}
	if got := cl.Stats().Retries; got < 1 {
		t.Errorf("client took %d retries, want >= 1 (it was shed first)", got)
	}
	if err := <-holdDone; err != nil {
		t.Errorf("slot-holding search failed: %v", err)
	}
}

// TestChaosLSHFaultFallsBackToScan: with the lsh lookup path
// fault-armed, an lsh-mode search still answers — served by the scan
// prefilter under the degraded:true contract, counted in
// lsh_fallbacks, and never cached (the real lsh answer must not be
// shadowed once the fault clears). After the fault count is spent, lsh
// serves normally again.
func TestChaosLSHFaultFallsBackToScan(t *testing.T) {
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: server.FaultLSH, Mode: faultinject.Error, Count: 2})
	s, url := startChaos(t, server.Config{Faults: faults, CacheEntries: 64})
	cl := client.New(url)
	cl.Retry = nil

	req := chaosQuery(t, chaosDB(t))
	req.Candidates = 5

	scanReq := req
	baseline, err := cl.Search(context.Background(), &scanReq)
	if err != nil {
		t.Fatal(err)
	}

	req.PrefilterMode = "lsh"
	for i := 0; i < 2; i++ {
		resp, err := cl.Search(context.Background(), &req)
		if err != nil {
			t.Fatalf("lsh search %d with a faulted lookup path must degrade, not error: %v", i, err)
		}
		if !resp.Degraded || resp.DegradedReason == "" {
			t.Errorf("search %d: degraded = %v (reason %q), want the degraded contract",
				i, resp.Degraded, resp.DegradedReason)
		}
		if resp.PrefilterMode != "scan" {
			t.Errorf("search %d: effective mode %q, want scan", i, resp.PrefilterMode)
		}
		if resp.Cached {
			t.Errorf("search %d: degraded fallback answer was served from (and will poison) the cache", i)
		}
		if len(resp.Hits) != len(baseline.Hits) {
			t.Fatalf("search %d: %d hits, scan baseline %d", i, len(resp.Hits), len(baseline.Hits))
		}
		for j := range resp.Hits {
			if resp.Hits[j] != baseline.Hits[j] {
				t.Errorf("search %d hit %d drifted from the scan baseline: %+v vs %+v",
					i, j, resp.Hits[j], baseline.Hits[j])
			}
		}
	}
	if got := s.Tel().Get(telemetry.LSHFallbacks); got != 2 {
		t.Errorf("lsh_fallbacks = %d, want 2", got)
	}
	if got := faults.Fired(server.FaultLSH); got != 2 {
		t.Errorf("lsh fault fired %d times, want exactly 2", got)
	}

	// Fault spent: the same request now runs the real lsh prefilter.
	resp, err := cl.Search(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Error("lsh search after the fault cleared still reports degraded")
	}
	if resp.PrefilterMode != "lsh" {
		t.Errorf("post-fault mode %q, want lsh", resp.PrefilterMode)
	}
	if got := s.Tel().Get(telemetry.LSHQueries); got == 0 {
		t.Error("post-fault search never reached the lsh index (lsh_queries = 0)")
	}
}

// TestChaosReloadFault: an injected reload failure surfaces as a typed
// API error naming the injection, and the next reload (fault spent)
// succeeds.
func TestChaosReloadFault(t *testing.T) {
	db := chaosDB(t)
	path := filepath.Join(t.TempDir(), "chaos.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f, index.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	faults := faultinject.New()
	s, err := server.New(server.Config{DBPath: path, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	// Armed only after boot: the server's initial load IS a reload and
	// would otherwise consume the one-shot fault.
	faults.Arm(&faultinject.Fault{Point: server.FaultReload, Mode: faultinject.Error, Count: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	cl := client.New("http://" + addr.String())
	cl.Retry = nil

	_, err = cl.Reload(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("faulted reload error = %v, want APIError", err)
	}
	if got, err := cl.Reload(context.Background()); err != nil {
		t.Fatalf("reload after the fault cleared: %v", err)
	} else if got.Functions != db.Len() {
		t.Errorf("reload saw %d functions, want %d", got.Functions, db.Len())
	}
}
