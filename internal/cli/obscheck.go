package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// obscheck validates a running server's observability surfaces — the
// check CI's observability-smoke job runs after issuing real queries:
//
//   - /metrics parses under the Prometheus text exposition grammar and
//     contains counter and histogram series (_bucket/_sum/_count), and
//     the lsh bucket-occupancy histogram holds at least one observation
//     per lsh query answered (a query observes every bucket it probes),
//     and the pruned pairs are split over the three bounds that cut them,
//     and the candidates a top-k floor cut are counted, never more of them
//     than candidates compared,
//     and the write path's families are there (functions_lifted,
//     instructions_decoded, index_bytes_written, lift_latency,
//     index_save_latency) and consistent: no function lifted without an
//     instruction decoded in a timed lift;
//   - a process serving an index of its own publishes tracy_index_info
//     with the format label;
//   - /debug/requests has recorded requests, each carrying a trace ID
//     and a span tree, among them an answered search, and every answered
//     search names its request decoding and response encoding as the
//     "decode" and "encode" stages (the two that, with the cache probe,
//     make up a cache hit's server time);
//   - a live request's X-Trace-Id response header matches the trace_id
//     echoed in the response body;
//   - with -fleet, /v1/healthz reports coordinator mode with one entry
//     per expected shard, each naming its address, generation, index
//     format and mmap state.
func (c *env) obscheck(args []string) error {
	fs := flag.NewFlagSet("obscheck", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8077", "tracy server base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "overall deadline")
	fleetN := fs.Int("fleet", 0, "expect a coordinator over this many shards and validate its aggregated healthz")
	fleetLive := fs.Int("fleet-live", -1, "require exactly this many live shards (-1: all of -fleet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*serverURL, "/")
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// 1. Prometheus exposition.
	metrics, _, err := obsGet(ctx, base+"/metrics")
	if err != nil {
		return fmt.Errorf("obscheck: /metrics: %w", err)
	}
	if err := telemetry.ValidateExposition(metrics); err != nil {
		return fmt.Errorf("obscheck: /metrics violates the exposition format: %w", err)
	}
	counters := bytes.Count(metrics, []byte("# TYPE"))
	buckets := bytes.Count(metrics, []byte("_bucket{le="))
	if counters == 0 {
		return fmt.Errorf("obscheck: /metrics has no metric families")
	}
	if buckets == 0 {
		return fmt.Errorf("obscheck: /metrics has no histogram series (_bucket)")
	}
	fmt.Fprintf(c.w, "obscheck: /metrics ok (%d families, %d bucket series)\n", counters, buckets)
	lshQueries := promSample(metrics, "tracy_lsh_queries_total")
	probes := promSample(metrics, "tracy_lsh_bucket_occupancy_latency_seconds_count")
	if probes < lshQueries {
		return fmt.Errorf("obscheck: /metrics counts %v lsh queries but only %v probed buckets in lsh_bucket_occupancy", lshQueries, probes)
	}
	fmt.Fprintf(c.w, "obscheck: lsh bucket occupancy ok (%v probed buckets over %v lsh queries)\n", probes, lshQueries)
	// The pruner names the bound of its cascade that cut a pair: three
	// series that add up to the total (all zero on a coordinator, which
	// compares nothing).
	pruned, byStage := promSample(metrics, "tracy_pairs_pruned_bound_total"), 0.0
	for _, stage := range []string{"size", "profile", "rewrite_bound"} {
		name := "tracy_pairs_pruned_" + stage + "_total"
		if !bytes.Contains(metrics, []byte("\n"+name+" ")) {
			return fmt.Errorf("obscheck: /metrics has no %s", name)
		}
		byStage += promSample(metrics, name)
	}
	if byStage != pruned {
		return fmt.Errorf("obscheck: /metrics counts %v pruned pairs but %v over the three bounds", pruned, byStage)
	}
	fmt.Fprintf(c.w, "obscheck: pruned pairs by bound ok (%v)\n", pruned)
	// A top-k search names the candidates its floor cut. A cut candidate
	// was compared up to its rewrites, so it is counted in compares too.
	if !bytes.Contains(metrics, []byte("\ntracy_candidates_below_floor_total ")) {
		return fmt.Errorf("obscheck: /metrics has no tracy_candidates_below_floor_total")
	}
	below, compares := promSample(metrics, "tracy_candidates_below_floor_total"), promSample(metrics, "tracy_compares_total")
	if below > compares {
		return fmt.Errorf("obscheck: /metrics counts %v candidates below the floor but only %v compares", below, compares)
	}
	fmt.Fprintf(c.w, "obscheck: top-k floor ok (%v of %v compared candidates cut below it)\n", below, compares)
	// The write path reports into the same collector: what lifting images
	// (an index build, a by-image query) decoded and how long it took, and
	// what saving an index wrote. A process that lifted a function decoded
	// at least an instruction for it, in a lift that was timed.
	for _, name := range []string{
		"tracy_functions_lifted_total", "tracy_instructions_decoded_total", "tracy_index_bytes_written_total",
		"tracy_lift_latency_seconds_count", "tracy_index_save_latency_seconds_count",
	} {
		if !bytes.Contains(metrics, []byte("\n"+name+" ")) {
			return fmt.Errorf("obscheck: /metrics has no %s", name)
		}
	}
	lifted, decoded := promSample(metrics, "tracy_functions_lifted_total"), promSample(metrics, "tracy_instructions_decoded_total")
	lifts := promSample(metrics, "tracy_lift_latency_seconds_count")
	if decoded < lifted || (lifted > 0 && lifts == 0) {
		return fmt.Errorf("obscheck: /metrics counts %v functions lifted from %v instructions decoded in %v timed lifts", lifted, decoded, lifts)
	}
	fmt.Fprintf(c.w, "obscheck: write path ok (%v functions lifted, %v instructions decoded, %v lifts)\n", lifted, decoded, lifts)
	// A process that serves an index says which format it is. A
	// coordinator serves none of its own.
	info := ""
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "tracy_index_info{") {
			info = line
		}
	}
	switch {
	case info == "" && *fleetN == 0:
		return fmt.Errorf("obscheck: /metrics has no tracy_index_info")
	case info != "" && !strings.Contains(info, `format="`):
		return fmt.Errorf("obscheck: tracy_index_info lacks the format label: %s", info)
	case info != "":
		fmt.Fprintf(c.w, "obscheck: index info ok (%s)\n", info)
	}

	// 2. Flight recorder. The span wire shape is decoded structurally
	// (telemetry.Span only marshals), so mirror the JSON here.
	type spanDump struct {
		Name     string `json:"name"`
		TraceID  string `json:"trace_id"`
		DurNS    int64  `json:"dur_ns"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	type reqDump struct {
		TraceID string    `json:"trace_id"`
		Path    string    `json:"path"`
		Status  int       `json:"status"`
		Span    *spanDump `json:"span"`
	}
	var flight struct {
		Recorded uint64    `json:"recorded"`
		Slowest  []reqDump `json:"slowest"`
		Errored  []reqDump `json:"errored"`
	}
	body, _, err := obsGet(ctx, base+"/debug/requests")
	if err != nil {
		return fmt.Errorf("obscheck: /debug/requests: %w", err)
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		return fmt.Errorf("obscheck: /debug/requests is not valid JSON: %w", err)
	}
	if flight.Recorded == 0 || len(flight.Slowest) == 0 {
		return fmt.Errorf("obscheck: /debug/requests is empty — issue a query first")
	}
	searches := 0
	for i, rec := range flight.Slowest {
		if rec.TraceID == "" {
			return fmt.Errorf("obscheck: /debug/requests slowest[%d] has no trace_id", i)
		}
		if rec.Span == nil || rec.Span.DurNS <= 0 {
			return fmt.Errorf("obscheck: /debug/requests slowest[%d] has no finished span", i)
		}
		if rec.Status != http.StatusOK || !strings.HasPrefix(rec.Path, "/v1/search") {
			continue
		}
		searches++
		named := map[string]bool{}
		for _, stage := range rec.Span.Children {
			named[stage.Name] = true
		}
		for _, want := range []string{"decode", "encode"} {
			if !named[want] {
				return fmt.Errorf("obscheck: /debug/requests slowest[%d] (%s) answered without a %s stage", i, rec.Path, want)
			}
		}
	}
	if searches == 0 {
		return fmt.Errorf("obscheck: /debug/requests holds no answered search — issue a query first")
	}
	fmt.Fprintf(c.w, "obscheck: /debug/requests ok (%d recorded, %d slowest, %d errored; %d answered searches, each with decode and encode stages)\n",
		flight.Recorded, len(flight.Slowest), len(flight.Errored), searches)

	// 3. Header/body trace agreement on a live request. /v1/functions is
	// an observed route with a JSON body and needs no query input.
	body, hdr, err := obsGet(ctx, base+"/v1/functions?limit=1")
	if err != nil {
		return fmt.Errorf("obscheck: /v1/functions: %w", err)
	}
	_ = body
	echoed := hdr.Get("X-Trace-Id")
	if !telemetry.IsTraceID(echoed) {
		return fmt.Errorf("obscheck: /v1/functions X-Trace-Id %q is not a trace ID", echoed)
	}
	fmt.Fprintf(c.w, "obscheck: trace propagation ok (X-Trace-Id %s)\n", echoed)

	// 4. Fleet health aggregation (coordinator mode only).
	if *fleetN > 0 {
		if err := c.obscheckFleet(ctx, base, *fleetN, *fleetLive); err != nil {
			return err
		}
	}
	return nil
}

// promSample returns the value of the unlabelled sample `name` in a
// Prometheus text exposition, or 0 when there is none.
func promSample(metrics []byte, name string) float64 {
	for _, line := range strings.Split(string(metrics), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// obscheckFleet validates a coordinator's aggregated /v1/healthz: the
// server must identify as a coordinator over wantShards replica groups
// (contiguous shard numbers), each fleet entry must name its worker
// (address and replica index) and, when live, its snapshot identity
// (generation, index format, mmap state); wantLive pins how many shard
// groups must have at least one reachable replica (-1: all).
func (c *env) obscheckFleet(ctx context.Context, base string, wantShards, wantLive int) error {
	body, _, err := obsGet(ctx, base+"/v1/healthz")
	if err != nil {
		return fmt.Errorf("obscheck: /v1/healthz: %w", err)
	}
	var h struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		Shards   int    `json:"shards"`
		Replicas int    `json:"replicas"`
		Fleet    []struct {
			Shard       int    `json:"shard"`
			Replica     int    `json:"replica"`
			Addr        string `json:"addr"`
			Status      string `json:"status"`
			Functions   int    `json:"functions"`
			Generation  uint64 `json:"generation"`
			IndexFormat int    `json:"index_format"`
			IndexMapped bool   `json:"index_mapped"`
			Skewed      bool   `json:"skewed"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("obscheck: /v1/healthz is not valid JSON: %w", err)
	}
	if h.Mode != "coordinator" {
		return fmt.Errorf("obscheck: healthz mode %q, want coordinator", h.Mode)
	}
	if h.Shards != wantShards {
		return fmt.Errorf("obscheck: healthz reports %d shards, want %d", h.Shards, wantShards)
	}
	if h.Replicas != len(h.Fleet) {
		return fmt.Errorf("obscheck: healthz reports %d replicas but %d fleet entries",
			h.Replicas, len(h.Fleet))
	}
	liveByGroup := make([]int, wantShards)
	sizeByGroup := make([]int, wantShards)
	liveReplicas, skewed := 0, 0
	for i, sh := range h.Fleet {
		if sh.Shard < 0 || sh.Shard >= wantShards {
			return fmt.Errorf("obscheck: fleet[%d] has shard number %d, want 0..%d",
				i, sh.Shard, wantShards-1)
		}
		if sh.Replica != sizeByGroup[sh.Shard] {
			return fmt.Errorf("obscheck: fleet[%d] (shard %d) has replica index %d, want %d",
				i, sh.Shard, sh.Replica, sizeByGroup[sh.Shard])
		}
		sizeByGroup[sh.Shard]++
		if sh.Addr == "" {
			return fmt.Errorf("obscheck: fleet[%d] has no address", i)
		}
		if sh.Status == "unreachable" {
			continue
		}
		liveReplicas++
		liveByGroup[sh.Shard]++
		if sh.Skewed {
			skewed++
			continue // a straggler may legitimately lag generations
		}
		if sh.Functions == 0 || sh.Generation == 0 {
			return fmt.Errorf("obscheck: live shard %d replica %d reports functions=%d generation=%d",
				sh.Shard, sh.Replica, sh.Functions, sh.Generation)
		}
	}
	liveGroups := 0
	for i, n := range sizeByGroup {
		if n == 0 {
			return fmt.Errorf("obscheck: shard %d has no fleet entries", i)
		}
		if liveByGroup[i] > 0 {
			liveGroups++
		}
	}
	if wantLive < 0 {
		wantLive = wantShards
	}
	if liveGroups != wantLive {
		return fmt.Errorf("obscheck: %d live shard groups, want %d (status %q)",
			liveGroups, wantLive, h.Status)
	}
	wantStatus := "ok"
	switch {
	case liveReplicas == 0:
		wantStatus = "down"
	case liveReplicas < len(h.Fleet) || skewed > 0:
		wantStatus = "degraded"
	}
	if h.Status != wantStatus {
		return fmt.Errorf("obscheck: fleet status %q with %d/%d replicas live, want %q",
			h.Status, liveReplicas, len(h.Fleet), wantStatus)
	}
	fmt.Fprintf(c.w, "obscheck: fleet healthz ok (%d/%d shard groups live, %d/%d replicas, status %s)\n",
		liveGroups, wantShards, liveReplicas, len(h.Fleet), h.Status)
	return nil
}

// obsGet fetches url and returns the body and response headers,
// erroring on any non-200 status.
func obsGet(ctx context.Context, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, resp.Header, nil
}
