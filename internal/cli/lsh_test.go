package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// lshFixture builds two executables once and returns (dir, exeA, exeB);
// each test writes its own index from them.
func lshFixture(t *testing.T) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	exeA := buildExe(t, dir, "a.bin", srcA, 1)
	exeB := buildExe(t, dir, "b.bin", srcB, 2)
	return dir, exeA, exeB
}

// searchCounters runs tracy search with extra flags and returns the
// telemetry counters the run recorded.
func searchCounters(t *testing.T, dbPath, exe string, extra ...string) map[string]uint64 {
	t.Helper()
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	args := append([]string{"search", "-db", dbPath, "-exe", exe, "-stats-json", statsPath}, extra...)
	if _, err := run(t, args...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestSearchPrefilterFlagImplications: the flag layer of the
// "Candidates > 0 implies Enabled" contract — which flag combinations
// actually run the prefilter, observed through prefilter_candidates.
// The same table exists against PrefilterOptions in internal/index and
// against the JSON request in internal/server.
func TestSearchPrefilterFlagImplications(t *testing.T) {
	dir, exeA, exeB := lshFixture(t)
	dbPath := filepath.Join(dir, "test.db")
	if _, err := run(t, "index", "-db", dbPath, "-lsh", exeA, exeB); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		flags      []string
		prefilter  bool
		lshQueries uint64
	}{
		{"no flags stays exhaustive", nil, false, 0},
		{"-prefilter enables scan", []string{"-prefilter"}, true, 0},
		{"-candidates implies -prefilter", []string{"-candidates", "5"}, true, 0},
		{"-candidates 0 alone stays exhaustive", []string{"-candidates", "0"}, false, 0},
		{"-candidates -1 alone stays exhaustive", []string{"-candidates", "-1"}, false, 0},
		{"-prefilter -candidates -1 uses the default cap", []string{"-prefilter", "-candidates", "-1"}, true, 0},
		{"-prefilter-mode scan alone stays exhaustive", []string{"-prefilter-mode", "scan"}, false, 0},
		{"-prefilter-mode lsh implies -prefilter", []string{"-prefilter-mode", "lsh"}, true, 1},
		{"lsh with an explicit cap", []string{"-prefilter-mode", "lsh", "-candidates", "5"}, true, 1},
	}
	for _, tc := range cases {
		counters := searchCounters(t, dbPath, exeA, tc.flags...)
		if got := counters["prefilter_candidates"] > 0; got != tc.prefilter {
			t.Errorf("%s: prefilter ran = %v, want %v (prefilter_candidates = %d)",
				tc.name, got, tc.prefilter, counters["prefilter_candidates"])
		}
		if got := counters["lsh_queries"]; got != tc.lshQueries {
			t.Errorf("%s: lsh_queries = %d, want %d", tc.name, got, tc.lshQueries)
		}
		if got := counters["lsh_fallbacks"]; got != 0 {
			t.Errorf("%s: lsh_fallbacks = %d on an lsh-signed index", tc.name, got)
		}
	}

	if _, err := run(t, "search", "-db", dbPath, "-exe", exeA, "-prefilter-mode", "minhash"); err == nil {
		t.Error("search accepted unknown -prefilter-mode")
	}
}

// TestSearchLSHFallbackOnPlainV3: lsh mode against an index file written
// without -lsh degrades to the scan prefilter — counted, never an error.
func TestSearchLSHFallbackOnPlainV3(t *testing.T) {
	dir, exeA, exeB := lshFixture(t)
	dbPath := filepath.Join(dir, "plain.db")
	if _, err := run(t, "index", "-db", dbPath, exeA, exeB); err != nil {
		t.Fatal(err)
	}
	counters := searchCounters(t, dbPath, exeA, "-prefilter-mode", "lsh")
	if counters["lsh_fallbacks"] == 0 {
		t.Error("lsh search on an unsigned index file did not count a fallback")
	}
	if counters["lsh_queries"] != 0 {
		t.Errorf("fallback search counted %d served lsh queries", counters["lsh_queries"])
	}
	if counters["prefilter_candidates"] == 0 {
		t.Error("fallback search did not run the scan prefilter")
	}
}

// TestIndexLSHFlagGating: -lsh signs whatever index a verb writes — a
// fresh one included — and is refused where a verb writes none.
func TestIndexLSHFlagGating(t *testing.T) {
	dir, exeA, _ := lshFixture(t)

	fresh := filepath.Join(dir, "fresh.db")
	if _, err := run(t, "index", "-db", fresh, "-lsh", exeA); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, "idxinfo", fresh); err != nil || !strings.Contains(out, "LSHB") {
		t.Errorf("index -lsh on a fresh file wrote no LSHB (%v):\n%s", err, out)
	}
	if _, err := run(t, "mkcorpus", "-lsh", "-dir", dir); err == nil {
		t.Error("mkcorpus accepted -lsh without -index")
	}
}

// TestIdxinfoLSHLine: idxinfo reports the banding parameters of a
// signed index and stays quiet for unsigned ones; convert -lsh signs an
// existing file.
func TestIdxinfoLSHLine(t *testing.T) {
	dir, exeA, exeB := lshFixture(t)
	plain := filepath.Join(dir, "plain.db")
	if _, err := run(t, "index", "-db", plain, exeA, exeB); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "idxinfo", plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "lsh:") {
		t.Errorf("idxinfo invented an lsh line for an unsigned file:\n%s", out)
	}

	signed := filepath.Join(dir, "signed.db")
	if _, err := run(t, "convert", "-lsh", plain, signed); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, "idxinfo", "-verify", signed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lsh:", "bands x", "LSHB", "LSHT", "lsh table: persisted", "checksums: all sections OK", "every band in (band hash, id) order"} {
		if !strings.Contains(out, want) {
			t.Errorf("idxinfo output missing %q:\n%s", want, out)
		}
	}
}
