package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

const srcA = `
int alpha(int a, int b, char *s) {
	int x = 1;
	int y = 0;
	if (a == 1) { printf("(%d) HELLO", x); }
	else if (a == 2) { printf(s); }
	while (y < b) { y = y + a; }
	fprintf(a, "Cmd %d DONE", x);
	return x + y;
}
`

const srcB = `
int beta(int a, int b, char *s) {
	int acc = 0;
	int i = 0;
	for (i = 0; i < a; i = i + 1) { acc = acc * 31 + i % 7; }
	while (b > 0) { acc = acc + b; b = b - 1; }
	return acc;
}
`

// buildExe writes a compiled, stripped executable into dir.
func buildExe(t *testing.T, dir, name, src string, seed int64) string {
	t.Helper()
	img, err := tinyc.BuildStripped(src, tinyc.Config{Opt: tinyc.O2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := Run(&buf, args)
	return buf.String(), err
}

func TestIndexSearchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a1 := buildExe(t, dir, "a1.bin", srcA+srcB, 11)
	a2 := buildExe(t, dir, "a2.bin", srcA, 23)
	q := buildExe(t, dir, "q.bin", srcA, 99)

	out, err := run(t, "index", "-db", db, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "indexed") {
		t.Errorf("index output: %s", out)
	}
	out, err = run(t, "search", "-db", db, "-exe", q, "-top", "5")
	if err != nil {
		t.Fatal(err)
	}
	// The two alpha embeddings must appear as matches ('*').
	if got := strings.Count(out, "*"); got < 2 {
		t.Errorf("expected >=2 matches in:\n%s", out)
	}
	if !strings.Contains(out, "query:") {
		t.Errorf("missing query header:\n%s", out)
	}
}

func TestCompareExplain(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	b := buildExe(t, dir, "b.bin", srcA, 8)
	out, err := run(t, "compare", "-explain", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "similarity") || !strings.Contains(out, "match=true") {
		t.Errorf("compare output:\n%s", out)
	}
	if !strings.Contains(out, "tracelet") {
		t.Errorf("explain output missing:\n%s", out)
	}
}

func TestDisasm(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	out, err := run(t, "disasm", a)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"block 0", "call _printf", "retn"} {
		if !strings.Contains(out, want) {
			t.Errorf("disasm missing %q:\n%s", want, out)
		}
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a := buildExe(t, dir, "a.bin", srcA+srcB, 3)
	if _, err := run(t, "index", "-db", db, a); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "stats", "-db", db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"functions: 2", "basic blocks:", "3-tracelets:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
}

func TestBadUsage(t *testing.T) {
	if _, err := run(t); err == nil {
		t.Error("no args should error")
	}
	if _, err := run(t, "bogus"); err == nil {
		t.Error("unknown command should error")
	}
	if _, err := run(t, "search", "-db", "/nonexistent/x.db", "-exe", "y"); err == nil {
		t.Error("missing db should error")
	}
	if _, err := run(t, "search"); err == nil {
		t.Error("search without -exe should error")
	}
	if _, err := run(t, "compare", "one.bin"); err == nil {
		t.Error("compare with one arg should error")
	}
	if _, err := run(t, "experiments", "-scale", "bogus"); err == nil {
		t.Error("bad scale should error")
	}
	if _, err := run(t, "experiments", "nosuch"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestSearchByFunctionName(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a := buildExe(t, dir, "a.bin", srcA+srcB, 3)
	if _, err := run(t, "index", "-db", db, a); err != nil {
		t.Fatal(err)
	}
	// Find the real recovered name via disasm, then search by it.
	out, err := run(t, "disasm", a)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "; sub_") {
			name = strings.Fields(line)[1]
			break
		}
	}
	if name == "" {
		t.Fatalf("no function name found in disasm:\n%s", out)
	}
	if _, err := run(t, "search", "-db", db, "-exe", a, "-fn", name); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "search", "-db", db, "-exe", a, "-fn", "nosuch"); err == nil {
		t.Error("unknown -fn should error")
	}
}

func TestTracelets(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	out, err := run(t, "tracelets", "-k", "2", a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2-tracelets") || !strings.Contains(out, "-- tracelet 0") {
		t.Errorf("tracelets output:\n%s", out)
	}
	if _, err := run(t, "tracelets"); err == nil {
		t.Error("tracelets without args should error")
	}
}

func TestEmulate(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcB, 5)
	out, err := run(t, "emulate", "-args", "4, 2", a)
	if err != nil {
		t.Fatal(err)
	}
	// beta(4,2): acc = sum of (acc*31 + i%7) over i<4, then +2+1.
	if !strings.Contains(out, "steps") {
		t.Errorf("emulate output:\n%s", out)
	}
	if _, err := run(t, "emulate", "-args", "zap", a); err == nil {
		t.Error("bad args should error")
	}
	if _, err := run(t, "emulate"); err == nil {
		t.Error("missing exe should error")
	}
}

// searchStatsSetup indexes two executables and returns (db path, query path).
func searchStatsSetup(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a1 := buildExe(t, dir, "a1.bin", srcA+srcB, 11)
	a2 := buildExe(t, dir, "a2.bin", srcA, 23)
	q := buildExe(t, dir, "q.bin", srcA, 99)
	if _, err := run(t, "index", "-db", db, a1, a2); err != nil {
		t.Fatal(err)
	}
	return db, q
}

// TestSearchStatsJSON is the acceptance check of the telemetry tentpole:
// `tracy search -stats-json -` must emit a machine-readable report with
// per-stage latency histograms, alignment-cache hit/miss counts, rewrite
// attempted/skipped/succeeded counts, and end-to-end query latency.
func TestSearchStatsJSON(t *testing.T) {
	db, q := searchStatsSetup(t)
	out, err := run(t, "search", "-db", db, "-exe", q, "-stats-json", "-")
	if err != nil {
		t.Fatal(err)
	}
	// The JSON report follows the human-readable hit list; find it.
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(out[idx:]), &snap); err != nil {
		t.Fatalf("stats-json not valid JSON: %v\n%s", err, out[idx:])
	}
	if snap.Counters["queries"] != 1 {
		t.Errorf("queries = %d, want 1", snap.Counters["queries"])
	}
	if snap.Counters["compares"] == 0 || snap.Counters["pairs_compared"] == 0 {
		t.Errorf("no compare work recorded: %v", snap.Counters)
	}
	if snap.Counters["block_cache_hits"]+snap.Counters["block_cache_misses"] == 0 {
		t.Errorf("no block-cache traffic recorded: %v", snap.Counters)
	}
	if _, ok := snap.Counters["rewrites_attempted"]; !ok {
		t.Error("rewrites_attempted missing from counters")
	}
	if _, ok := snap.Counters["rewrites_skipped"]; !ok {
		t.Error("rewrites_skipped missing from counters")
	}
	if _, ok := snap.Counters["rewrites_succeeded"]; !ok {
		t.Error("rewrites_succeeded missing from counters")
	}
	for _, h := range []string{"query_latency", "compare_latency", "pair_latency", "decompose_latency"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s empty", h)
		}
	}
	if snap.Histograms["query_latency"].Count != 1 {
		t.Errorf("query_latency count = %d, want 1", snap.Histograms["query_latency"].Count)
	}
}

func TestSearchStatsSummaryAndFile(t *testing.T) {
	db, q := searchStatsSetup(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "stats.json")
	out, err := run(t, "search", "-db", db, "-exe", q, "-stats", "-stats-json", jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- telemetry --", "block cache:", "query_latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("stats file invalid: %v", err)
	}
	if snap.Counters["queries"] != 1 {
		t.Errorf("file snapshot queries = %d", snap.Counters["queries"])
	}
}

// spanNode is the JSON shape of a span tree, as written by -trace-json
// and served at /debug/requests.
type spanNode struct {
	Name     string           `json:"name"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs"`
	Children []spanNode       `json:"children"`
}

// engineStages returns, in order, the children of root that are stages
// of the search engine (as opposed to the transport around it).
func engineStages(root spanNode) []string {
	var out []string
	for _, c := range root.Children {
		switch c.Name {
		case "prefilter", "compare", "prune", "rank":
			out = append(out, c.Name)
		}
	}
	return out
}

// perCandidateSpans counts the compare:<name> children of root's
// "compare" stage.
func perCandidateSpans(root spanNode) int {
	n := 0
	for _, c := range root.Children {
		if c.Name == "compare" {
			n += len(c.Children)
		}
	}
	return n
}

func TestSearchTraceJSON(t *testing.T) {
	db, q := searchStatsSetup(t)
	out, err := run(t, "search", "-db", db, "-exe", q, "-trace-json", "-")
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(out, "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var span spanNode
	if err := json.Unmarshal([]byte(out[idx:]), &span); err != nil {
		t.Fatalf("trace-json invalid: %v\n%s", err, out[idx:])
	}
	if span.Name != "search" || span.DurNS <= 0 {
		t.Errorf("root span wrong: %+v", span)
	}
	names := map[string]bool{}
	var compares int
	for _, c := range span.Children {
		names[c.Name] = true
		if c.Name == "compare" {
			for _, cc := range c.Children {
				if strings.HasPrefix(cc.Name, "compare:") {
					compares++
					if _, ok := cc.Attrs["verdict_match"]; !ok {
						t.Errorf("compare span missing verdict: %+v", cc)
					}
				}
			}
		}
	}
	for _, want := range []string{"decompose", "compare", "prune", "rank"} {
		if !names[want] {
			t.Errorf("trace missing %q child (have %v)", want, names)
		}
	}
	if compares == 0 {
		t.Error("no compare:<name> spans under compare")
	}
}

// TestStageNamesSameOfflineAndServed: `tracy search -trace-json` and a
// served request's flight-recorder span tree name the engine's stages
// identically, on every kind of search. Only the offline trace, which
// passes opts.Trace, carries per-candidate compare:<name> spans.
func TestStageNamesSameOfflineAndServed(t *testing.T) {
	dbPath, q := searchStatsSetup(t)
	db, err := index.OpenFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := db.Entries[0]

	cases := []struct {
		name string
		args []string
		req  server.SearchRequest
		want []string
	}{
		{"exhaustive", nil, server.SearchRequest{}, []string{"compare", "prune", "rank"}},
		{"scan", []string{"-candidates", "2"}, server.SearchRequest{Candidates: 2},
			[]string{"prefilter", "compare", "prune", "rank"}},
		{"lsh", []string{"-candidates", "2", "-prefilter-mode", "lsh"},
			server.SearchRequest{Candidates: 2, PrefilterMode: "lsh"},
			[]string{"prefilter", "compare", "prune", "rank"}},
	}
	for _, tc := range cases {
		args := append([]string{"search", "-db", dbPath, "-exe", q, "-trace-json", "-"}, tc.args...)
		out, err := run(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var offline spanNode
		if err := json.Unmarshal([]byte(out[strings.Index(out, "{"):]), &offline); err != nil {
			t.Fatalf("%s: trace-json invalid: %v", tc.name, err)
		}

		h := server.NewFromDB(db, server.Config{}).Handler()
		tc.req.Exe, tc.req.Name = e.Exe, e.Name
		body, _ := json.Marshal(tc.req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: served search: HTTP %d: %s", tc.name, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
		var flight struct {
			Slowest []struct {
				Span spanNode `json:"span"`
			} `json:"slowest"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &flight); err != nil || len(flight.Slowest) != 1 {
			t.Fatalf("%s: /debug/requests: %v\n%s", tc.name, err, rec.Body)
		}
		served := flight.Slowest[0].Span

		if got := engineStages(offline); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: offline stages %v, want %v", tc.name, got, tc.want)
		}
		if got := engineStages(served); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: served stages %v, want %v", tc.name, got, tc.want)
		}
		if n := perCandidateSpans(offline); n == 0 {
			t.Errorf("%s: offline compare stage has no compare:<name> spans", tc.name)
		}
		if n := perCandidateSpans(served); n != 0 {
			t.Errorf("%s: served compare stage has %d per-candidate spans, want 0", tc.name, n)
		}
	}
}

// TestCompareExplainTelemetryLine checks the satellite: explain output
// ends with an accountability line reporting cache hit rate and rewrite
// skip counts for the explained pair.
func TestCompareExplainTelemetryLine(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	b := buildExe(t, dir, "b.bin", srcA, 8)
	out, err := run(t, "compare", "-explain", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "telemetry: block cache") {
		t.Errorf("explain missing telemetry line:\n%s", out)
	}
	if !strings.Contains(out, "hit rate") || !strings.Contains(out, "skipped") {
		t.Errorf("telemetry line incomplete:\n%s", out)
	}
}

func TestComparePprofEndpoint(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	b := buildExe(t, dir, "b.bin", srcA, 8)
	out, err := run(t, "compare", "-pprof", "127.0.0.1:0", a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The bound address is announced on the first line; the server stays
	// up for the process lifetime, so we can still query it here.
	var addr string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "serving /statsz") {
			addr = line[strings.Index(line, "http://"):]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no pprof announcement in:\n%s", out)
	}
	resp, err := http.Get(addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["compares"] == 0 {
		t.Errorf("statsz shows no compares: %v", snap.Counters)
	}
}

func TestStatsWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "code.db")
	a := buildExe(t, dir, "a.bin", srcA+srcB, 3)
	if _, err := run(t, "index", "-db", db, a); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "stats", "-db", db, "-stats")
	if err != nil {
		t.Fatal(err)
	}
	// The stats command decomposes the corpus for k=1..4; that work must
	// show up in the telemetry summary.
	if !strings.Contains(out, "decomposed:") || !strings.Contains(out, "decompose_latency") {
		t.Errorf("stats telemetry missing decompose data:\n%s", out)
	}
}

func TestDisasmDot(t *testing.T) {
	dir := t.TempDir()
	a := buildExe(t, dir, "a.bin", srcA, 5)
	out, err := run(t, "disasm", "-dot", a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
		t.Errorf("dot output:\n%s", out)
	}
}
