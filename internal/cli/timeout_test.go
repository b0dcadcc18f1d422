package cli

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSearchTimeoutFlag(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a1 := buildExe(t, dir, "a1.bin", srcA+srcB, 11)
	q := buildExe(t, dir, "q.bin", srcA, 99)
	if _, err := run(t, "index", "-db", db, a1); err != nil {
		t.Fatal(err)
	}

	// A generous budget changes nothing: the search completes normally.
	out, err := run(t, "search", "-db", db, "-exe", q, "-timeout", "1m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "query:") {
		t.Errorf("search with -timeout should still print results:\n%s", out)
	}

	// An already-expired budget fails fast with a timeout error, not a hang
	// or a partial result.
	out, err = run(t, "search", "-db", db, "-exe", q, "-timeout", "1ns")
	if err == nil {
		t.Fatalf("search with 1ns -timeout should fail, got:\n%s", out)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timeout error = %v, want 'timed out'", err)
	}
}

func TestServeRejectsBadFaultSpec(t *testing.T) {
	// A malformed -faults spec must be rejected before the server binds
	// (the flag is chaos-testing only; typos should not half-arm it).
	_, err := run(t, "serve", "-faults", "search-latency-200ms")
	if err == nil {
		t.Fatal("serve with malformed -faults spec should error")
	}
	if !strings.Contains(err.Error(), "fault") {
		t.Errorf("error should mention the fault spec: %v", err)
	}

	_, err = run(t, "serve", "-faults", "search=frobnicate")
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("unknown fault mode should be named in the error: %v", err)
	}
}

func TestServeRefusesDegradedCoordinator(t *testing.T) {
	// server.New refuses the pair before anything binds.
	_, err := run(t, "serve", "-fleet", "http://127.0.0.1:1", "-degraded", "-addr", "127.0.0.1:0")
	const want = "serve: -degraded cannot combine with -fleet (a coordinator degrades by merging the surviving shards)"
	if err == nil || err.Error() != want {
		t.Fatalf("serve -fleet -degraded: %v, want %q", err, want)
	}
}
