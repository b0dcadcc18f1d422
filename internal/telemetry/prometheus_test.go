package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusValidates(t *testing.T) {
	c := New()
	c.Inc(Queries)
	c.Add(ServerRequests, 41)
	for i := 0; i < 10; i++ {
		c.Observe(QueryLatency, time.Duration(1<<uint(10+i))*time.Nanosecond)
	}
	c.Observe(PrefilterLatency, 3*time.Millisecond)
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, out)
	}
	for _, want := range []string{
		"tracy_uptime_seconds",
		"tracy_queries_total 1\n",
		"tracy_server_requests_total 41\n",
		"# TYPE tracy_query_latency_seconds histogram",
		`tracy_query_latency_seconds_bucket{le="+Inf"} 10`,
		"tracy_query_latency_seconds_count 10\n",
		"tracy_prefilter_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	c := New()
	c.Observe(QueryLatency, 100*time.Nanosecond)
	c.Observe(QueryLatency, time.Millisecond)
	c.Observe(QueryLatency, time.Second)
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Bucket values must be monotonically nondecreasing down the series.
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "tracy_query_latency_seconds_bucket{") {
			continue
		}
		n++
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket series not cumulative at %q (%d after %d)", line, v, last)
		}
		last = v
	}
	if n != numBuckets {
		t.Fatalf("got %d bucket lines, want %d (including +Inf)", n, numBuckets)
	}
	if last != 3 {
		t.Fatalf("+Inf bucket %d, want 3", last)
	}
}

func TestWritePrometheusNilCollector(t *testing.T) {
	var c *Collector
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("nil-collector exposition rejected: %v", err)
	}
}

func TestPrometheusHandler(t *testing.T) {
	c := New()
	c.Inc(Queries)
	rec := httptest.NewRecorder()
	PrometheusHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	if err := ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("handler output rejected: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no value", "metric_name\n"},
		{"bad name", "9metric 1\n"},
		{"bad value", "metric_name notanumber\n"},
		{"unquoted label", `m{le=+Inf} 1` + "\n"},
		{"bad label name", `m{9l="x"} 1` + "\n"},
		{"unterminated labels", `m{le="1" 5` + "\n"},
		{"type after samples", "m 1\n# TYPE m counter\n"},
		{"duplicate type", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"unknown type", "# TYPE m exotic\nm 1\n"},
		{"histogram missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"histogram missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n"},
		{"inf bucket mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"bad timestamp", "m 1 notatime\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition([]byte(tc.in)); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", tc.name, tc.in)
		}
	}
	good := "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\nm 1 1712345678\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestWritePrometheusInfoGauge(t *testing.T) {
	c := New()
	c.Inc(Queries) // at least one counter so the exposition has samples
	c.SetInfo("index_info", "", map[string]string{
		"format": "3",
		"mapped": "true",
		"path":   `dir\"x".db`,
	})
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition with info gauge rejected: %v\n%s", err, out)
	}
	want := `tracy_index_info{format="3",mapped="true",path="dir\\\"x\".db"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %s:\n%s", want, out)
	}
	if !strings.Contains(out, "# TYPE tracy_index_info gauge") {
		t.Errorf("info gauge missing TYPE comment:\n%s", out)
	}
	// Replacement is wholesale: a second SetInfo drops old labels.
	c.SetInfo("index_info", "", map[string]string{"format": "2"})
	if got := c.InfoLabels("index_info", ""); len(got) != 1 || got["format"] != "2" {
		t.Errorf("InfoLabels after replace = %v", got)
	}
	// Nil collector: all no-ops.
	var nc *Collector
	nc.SetInfo("x", "", map[string]string{"a": "b"})
	if nc.InfoLabels("x", "") != nil {
		t.Error("nil collector returned info labels")
	}
}

// TestWritePrometheusInfoFamily: the series of one info family share a
// single HELP/TYPE header, each series is one sample, and replacing a
// series by its key leaves its siblings alone.
func TestWritePrometheusInfoFamily(t *testing.T) {
	c := New()
	c.SetInfo("fleet_shard_info", "0", map[string]string{"shard": "0", "status": "ok"})
	c.SetInfo("fleet_shard_info", "1", map[string]string{"shard": "1", "status": "ok"})
	c.SetInfo("fleet_shard_info", "1", map[string]string{"shard": "1", "status": "down"})
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition with a two-series info family rejected: %v\n%s", err, out)
	}
	for _, want := range []string{
		`tracy_fleet_shard_info{shard="0",status="ok"} 1` + "\n",
		`tracy_fleet_shard_info{shard="1",status="down"} 1` + "\n",
	} {
		if strings.Count(out, want) != 1 {
			t.Errorf("exposition holds %d copies of %q, want 1:\n%s", strings.Count(out, want), want, out)
		}
	}
	if n := strings.Count(out, "tracy_fleet_shard_info{"); n != 2 {
		t.Errorf("family has %d samples, want 2:\n%s", n, out)
	}
	for _, hdr := range []string{"# HELP tracy_fleet_shard_info ", "# TYPE tracy_fleet_shard_info gauge"} {
		if n := strings.Count(out, hdr); n != 1 {
			t.Errorf("%d %q lines, want 1:\n%s", n, hdr, out)
		}
	}
}

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from the current exposition")

// goldenCollector is one fixed collector state: counters, an info
// family, and histograms with an observation in the first bucket, in a
// middle bucket and in the catch-all bucket.
func goldenCollector() *Collector {
	c := New()
	c.Inc(Queries)
	c.Add(ServerRequests, 41)
	c.Add(PairsCompared, 1<<40)
	c.SetInfo("index_info", "", map[string]string{"format": "4", "mapped": "true"})
	c.SetInfo("fleet_shard_info", "1", map[string]string{"shard": "1", "status": "down"})
	c.SetInfo("fleet_shard_info", "0", map[string]string{"shard": "0", "status": "ok"})
	c.Observe(QueryLatency, 50*time.Nanosecond)
	c.Observe(QueryLatency, 3*time.Millisecond)
	c.ObserveValue(QueryLatency, 1<<42)
	c.Observe(ServerLatency, 1500*time.Microsecond)
	c.ObserveValue(LSHBucketOccupancy, 7)
	c.ObserveValue(LSHBucketOccupancy, 300)
	return c
}

// TestWritePrometheusGolden pins the /metrics exposition of one collector
// state byte for byte (the uptime sample aside), and holds it to the
// /statsz snapshot of the same state: every counter, and every
// histogram's _count and _sum, reads what the snapshot reports, and each
// +Inf bucket equals its _count.
func TestWritePrometheusGolden(t *testing.T) {
	c := goldenCollector()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition rejected: %v", err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "tracy_uptime_seconds ") {
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "")
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n%s", path, got)
	}

	snap := c.Snapshot()
	samples := map[string]float64{}
	for _, line := range strings.Split(got, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := parseSample(line)
		if err != nil {
			t.Fatal(err)
		}
		if le, ok := labels["le"]; ok {
			if le != "+Inf" {
				continue
			}
			name += "{+Inf}"
		}
		samples[name] = v
	}
	for name, v := range snap.Counters {
		if got := samples["tracy_"+name+"_total"]; got != float64(v) {
			t.Errorf("counter %s: /metrics %v, /statsz %d", name, got, v)
		}
	}
	for name, hs := range snap.Histograms {
		full := "tracy_" + strings.TrimSuffix(name, "_latency") + "_latency_seconds"
		if got := samples[full+"_count"]; got != float64(hs.Count) {
			t.Errorf("%s_count %v, /statsz count %d", full, got, hs.Count)
		}
		if got := samples[full+"_bucket{+Inf}"]; got != float64(hs.Count) {
			t.Errorf("%s +Inf bucket %v, /statsz count %d", full, got, hs.Count)
		}
		if got, want := samples[full+"_sum"], float64(hs.SumNS)/1e9; got != want {
			t.Errorf("%s_sum %v, /statsz sum %v s", full, got, want)
		}
	}
	if qs := snap.Histograms[QueryLatency.String()]; qs.Count != 3 || len(qs.Buckets) != 3 ||
		qs.Buckets[0].UpperNS != BucketUpperNS(0) || qs.Buckets[2].UpperNS != BucketUpperNS(numBuckets-1) {
		t.Errorf("query_latency does not span the first, a middle and the catch-all bucket: %+v", qs)
	}
}
