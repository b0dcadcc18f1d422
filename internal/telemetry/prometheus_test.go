package telemetry

import (
	"bytes"
	"fmt"
	"net/http/httptest"
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
