package cli

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
)

// countHits returns the number of ranked result lines (they all carry
// the "matched N/M tracelets" suffix).
func countHits(out string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "tracelets (") {
			n++
		}
	}
	return n
}

func TestSearchLimitAndMinScore(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a1 := buildExe(t, dir, "a1.bin", srcA+srcB, 11)
	a2 := buildExe(t, dir, "a2.bin", srcA, 23)
	q := buildExe(t, dir, "q.bin", srcA, 99)
	if _, err := run(t, "index", "-db", db, a1, a2); err != nil {
		t.Fatal(err)
	}

	out, err := run(t, "search", "-db", db, "-exe", q, "-limit", "2")
	if err != nil {
		t.Fatal(err)
	}
	if got := countHits(out); got != 2 {
		t.Errorf("-limit 2 printed %d hits:\n%s", got, out)
	}

	// A min-score above every noise hit keeps only the real matches.
	out, err = run(t, "search", "-db", db, "-exe", q, "-limit", "100", "-min-score", "0.9")
	if err != nil {
		t.Fatal(err)
	}
	n := countHits(out)
	if n < 2 || n > 2 {
		t.Errorf("-min-score 0.9 printed %d hits, want the 2 alpha embeddings:\n%s", n, out)
	}
	if strings.Count(out, "*") < n {
		t.Errorf("surviving hits should all be matches:\n%s", out)
	}
}

func TestQueryAgainstRunningServer(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a1 := buildExe(t, dir, "a1.bin", srcA+srcB, 11)
	a2 := buildExe(t, dir, "a2.bin", srcA, 23)
	q := buildExe(t, dir, "q.bin", srcA, 99)
	if _, err := run(t, "index", "-db", db, "-lsh", a1, a2); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DBPath: db})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	out, err := run(t, "query", "-server", "http://"+addr.String(), "-exe", q, "-limit", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "query:") || strings.Count(out, "*") < 2 {
		t.Errorf("query output should rank the two alpha embeddings as matches:\n%s", out)
	}

	// The same query again is a result-cache hit with the same hit lines
	// (CI's server-smoke makes the same check on the built binary), and
	// obscheck finds the answered searches with their decode and encode stages.
	again, err := run(t, "query", "-server", "http://"+addr.String(), "-exe", q, "-limit", "5")
	if err != nil {
		t.Fatal(err)
	}
	head, hits, _ := strings.Cut(out, "\n")
	head2, hits2, _ := strings.Cut(again, "\n")
	if strings.Contains(head, "cached") || !strings.Contains(head2, "cached") || hits != hits2 {
		t.Errorf("repeated query should be served from the cache with identical hits:\n%s%s", out, again)
	}
	// An lsh query probes one bucket per band, which obscheck finds in the
	// occupancy histogram.
	if _, err := run(t, "query", "-server", "http://"+addr.String(), "-exe", q, "-limit", "5", "-prefilter-mode", "lsh", "-candidates", "3"); err != nil {
		t.Fatal(err)
	}
	if check, err := run(t, "obscheck", "-server", "http://"+addr.String()); err != nil ||
		!strings.Contains(check, "decode and encode stages") || !strings.Contains(check, "64 probed buckets over 1 lsh queries") {
		t.Errorf("obscheck after three answered searches: %v\n%s", err, check)
	}

	// Querying a stopped server must fail cleanly, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	if _, err := run(t, "query", "-server", "http://"+addr.String(), "-exe", q, "-timeout", "2s"); err == nil {
		t.Error("query against a stopped server should error")
	}
}

func TestMkcorpus(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	out, err := run(t, "mkcorpus", "-dir", dir, "-contexts", "1", "-versions", "1", "-noise", "1", "-funcs", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 3 executables") {
		t.Errorf("mkcorpus output:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // 3 executables + manifest.json
		t.Fatalf("wrote %d files, want 4", len(entries))
	}
	// The manifest must record the generating seed for reproducibility.
	mf, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest corpus.Manifest
	if err := json.Unmarshal(mf, &manifest); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if manifest.Config.Seed != 1 || len(manifest.Exes) != 3 {
		t.Errorf("manifest = %+v, want seed 1 and 3 exes", manifest)
	}
	// The generated executables must be indexable as-is.
	paths := []string{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bin") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	dbPath := filepath.Join(t.TempDir(), "c.db")
	iout, err := run(t, append([]string{"index", "-db", dbPath}, paths...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(iout, "indexed") {
		t.Errorf("index of mkcorpus output failed:\n%s", iout)
	}
}
