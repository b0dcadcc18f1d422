package index

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/tinyc"
)

// The scale benchmark behind BENCH_scale.json: a campaign-built corpus
// saved as both v2 gob and v3 columnar, then cold-started in child
// processes (one per format, so heap and page-cache state can't leak
// between measurements) that report load + snapshot-build time, one
// prefiltered query, and steady-state VmRSS. Run with
//
//	BENCH_SCALE_REPORT=BENCH_scale.json go test -run TestScaleBenchReport -timeout 30m ./internal/index/
//
// BENCH_SCALE_FUNCS overrides the corpus sizes (default "10000,100000").

var scaleReport = os.Getenv("BENCH_SCALE_REPORT")

// childProbe is one format's cold-start measurement, reported by the
// child process as a single JSON line on stdout.
type childProbe struct {
	ColdStartMS float64 `json:"cold_start_ms"` // open + BuildSnapshot
	QueryMS     float64 `json:"query_ms"`      // one prefiltered query
	RSSKB       int64   `json:"rss_kb"`        // VmRSS after GC
	Functions   int     `json:"functions"`
	Mapped      bool    `json:"mapped"`
}

// TestScaleColdStartProbe is the child half of the scale benchmark: it
// runs only when SCALE_CHILD_DB points at an index file, loads it,
// builds a snapshot, runs one prefiltered query and prints a childProbe
// JSON line.
func TestScaleColdStartProbe(t *testing.T) {
	path := os.Getenv("SCALE_CHILD_DB")
	if path == "" {
		t.Skip("child probe; driven by TestScaleBenchReport")
	}
	t0 := time.Now()
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := BuildSnapshot(db, []int{3}, 0)
	cold := time.Since(t0)

	ref := core.Decompose(db.Entries[0].Function(), 3)
	opts := core.DefaultOptions()
	t1 := time.Now()
	hits, err := snap.SearchDecomposedCtx(context.Background(), ref, opts, PrefilterOptions{Candidates: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("probe query returned no hits")
	}
	queryMS := float64(time.Since(t1).Microseconds()) / 1000

	runtime.GC()
	out, _ := json.Marshal(childProbe{
		ColdStartMS: float64(cold.Microseconds()) / 1000,
		QueryMS:     queryMS,
		RSSKB:       readVmRSSKB(),
		Functions:   snap.Len(),
		Mapped:      db.Info().Mapped,
	})
	fmt.Printf("SCALEPROBE %s\n", out)
}

// readVmRSSKB returns the current resident set size from
// /proc/self/status, or 0 where unavailable.
func readVmRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// runScaleChild re-executes the test binary against one index file and
// parses the probe line.
func runScaleChild(t *testing.T, dbPath string) childProbe {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestScaleColdStartProbe$", "-test.v")
	cmd.Env = append(os.Environ(), "SCALE_CHILD_DB="+dbPath, "BENCH_SCALE_REPORT=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child probe over %s: %v\n%s", dbPath, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "SCALEPROBE "); ok {
			var p childProbe
			if err := json.Unmarshal([]byte(rest), &p); err != nil {
				t.Fatalf("bad probe line %q: %v", rest, err)
			}
			return p
		}
	}
	t.Fatalf("no probe line in child output:\n%s", out)
	return childProbe{}
}

// TestScaleBenchReport builds campaign corpora, saves each as v2 gob and
// v3 columnar, and writes BENCH_scale.json comparing corpus build time,
// on-disk size, cold-start latency and steady-state RSS. The ≥5x
// cold-start and RSS advantage of the mmap path is asserted at the
// largest size when it reaches 100k functions.
func TestScaleBenchReport(t *testing.T) {
	if scaleReport == "" {
		t.Skip("set BENCH_SCALE_REPORT=path to write the report")
	}
	if testing.Short() {
		t.Skip("timing report; skipped in -short mode")
	}
	sizes := []int{10_000, 100_000}
	if s := os.Getenv("BENCH_SCALE_FUNCS"); s != "" {
		sizes = nil
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				t.Fatalf("bad BENCH_SCALE_FUNCS entry %q", part)
			}
			sizes = append(sizes, n)
		}
	}
	dir := t.TempDir()
	var rows []map[string]any
	for _, size := range sizes {
		ccfg := corpus.CampaignConfig{Seed: 7, Funcs: size, FuncsPerExe: 32, Stmts: 10}
		db := New()
		t0 := time.Now()
		total, err := corpus.RunCampaign(ccfg, func(e corpus.Executable, _ tinyc.OptLevel) error {
			return db.AddImage(e.Name, e.Image, e.Truth)
		})
		if err != nil {
			t.Fatal(err)
		}
		buildS := time.Since(t0).Seconds()
		t.Logf("size %d: campaign built %d functions in %.1fs", size, total, buildS)

		gobPath := filepath.Join(dir, fmt.Sprintf("scale-%d.gob", size))
		v3Path := filepath.Join(dir, fmt.Sprintf("scale-%d.v3", size))
		save := func(path string, fn func(io.Writer) error) int64 {
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := fn(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			return st.Size()
		}
		gobBytes := save(gobPath, db.Save)
		v3Bytes := save(v3Path, db.SaveV3)

		gob := runScaleChild(t, gobPath)
		v3 := runScaleChild(t, v3Path)
		if gob.Functions != db.Len() || v3.Functions != db.Len() {
			t.Fatalf("probe function counts %d/%d, corpus has %d", gob.Functions, v3.Functions, db.Len())
		}
		coldX := gob.ColdStartMS / v3.ColdStartMS
		rssX := float64(gob.RSSKB) / float64(v3.RSSKB)
		rows = append(rows, map[string]any{
			"functions":          db.Len(),
			"corpus_build_s":     buildS,
			"gob_bytes":          gobBytes,
			"v3_bytes":           v3Bytes,
			"gob_cold_start_ms":  gob.ColdStartMS,
			"v3_cold_start_ms":   v3.ColdStartMS,
			"cold_start_ratio_x": coldX,
			"gob_rss_kb":         gob.RSSKB,
			"v3_rss_kb":          v3.RSSKB,
			"rss_ratio_x":        rssX,
			"gob_query_ms":       gob.QueryMS,
			"v3_query_ms":        v3.QueryMS,
			"v3_mapped":          v3.Mapped,
		})
		t.Logf("size %d: cold start gob %.0fms vs v3 %.0fms (%.1fx), RSS gob %dMB vs v3 %dMB (%.1fx)",
			size, gob.ColdStartMS, v3.ColdStartMS, coldX, gob.RSSKB>>10, v3.RSSKB>>10, rssX)
		if size >= 100_000 {
			if coldX < 5 {
				t.Errorf("size %d: v3 cold start only %.1fx faster than gob, want >= 5x", size, coldX)
			}
			if rssX < 5 {
				t.Errorf("size %d: v3 RSS only %.1fx smaller than gob, want >= 5x", size, rssX)
			}
		}
	}
	report := map[string]any{
		"benchmark":  "cold start + steady-state RSS, v2 gob vs v3 mmap, campaign corpus, k=3",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"sizes":      rows,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scaleReport, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", scaleReport)
}
