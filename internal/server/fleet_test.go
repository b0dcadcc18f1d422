package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// shardDBs splits db into n disjoint shard databases through the real
// on-disk shard format (write + load round trip, exactly what tracy
// shard produces).
func shardDBs(t *testing.T, db *index.DB, n int) []*index.DB {
	t.Helper()
	out := make([]*index.DB, n)
	total := 0
	for i := range out {
		var buf bytes.Buffer
		if err := db.Save(&buf, index.SaveOptions{Shard: i, Shards: n}); err != nil {
			t.Fatalf("Save shard %d/%d: %v", i, n, err)
		}
		sdb, err := index.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("loading shard %d: %v", i, err)
		}
		out[i] = sdb
		total += sdb.Len()
	}
	if total != db.Len() {
		t.Fatalf("shards hold %d functions, input has %d", total, db.Len())
	}
	return out
}

// startFleet boots n worker servers over disjoint shards of db plus a
// coordinator scattering to them, all torn down with the test.
func startFleet(t *testing.T, db *index.DB, n int, coordCfg Config) (*Server, []*Server) {
	t.Helper()
	workers := make([]*Server, n)
	urls := make([]string, n)
	for i, sdb := range shardDBs(t, db, n) {
		w := NewFromDB(sdb, Config{})
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
		workers[i] = w
		urls[i] = "http://" + addr.String()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, w := range workers {
			_ = w.Shutdown(ctx)
		}
	})
	coordCfg.Fleet = urls
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx) // stops the membership prober
	})
	return coord, workers
}

// TestFleetSearchParity is the merge-contract property test: for both
// query forms, an exhaustive coordinator search over disjoint shards is
// bit-identical to the same search on a single server holding the union
// corpus — same hits, same order, same scores, same candidate count.
func TestFleetSearchParity(t *testing.T) {
	db, c := smallDB(t)
	single := NewFromDB(db, Config{})
	sh := single.Handler()
	coord, _ := startFleet(t, db, 3, Config{})
	ch := coord.Handler()

	e := entryWithTruth(t, db, corpus.LibFuncName)
	byRef := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}
	byImage := SearchRequest{Limit: 1000}
	byImage.SetImage(exeImage(t, c, "ctx0"))

	for name, req := range map[string]SearchRequest{"by-ref": byRef, "by-image": byImage} {
		rec, want := postSearch(t, sh, req)
		if want == nil {
			t.Fatalf("%s: single-server search failed: %d %s", name, rec.Code, rec.Body.String())
		}
		rec, got := postSearch(t, ch, req)
		if got == nil {
			t.Fatalf("%s: fleet search failed: %d %s", name, rec.Code, rec.Body.String())
		}
		if got.Degraded {
			t.Fatalf("%s: full fleet answered degraded: %s", name, got.DegradedReason)
		}
		if got.Query != want.Query || got.K != want.K {
			t.Errorf("%s: resolved (query %q, k %d), single server (query %q, k %d)",
				name, got.Query, got.K, want.Query, want.K)
		}
		if got.Candidates != want.Candidates {
			t.Errorf("%s: fleet scanned %d candidates, single server %d", name, got.Candidates, want.Candidates)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("%s: fleet returned %d hits, single server %d", name, len(got.Hits), len(want.Hits))
		}
		for i := range got.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Errorf("%s: hit %d diverged:\n  fleet:  %+v\n  single: %+v", name, i, got.Hits[i], want.Hits[i])
			}
		}
	}
}

// TestFleetCachesFullAnswers: the coordinator's result cache serves a
// repeated query without re-scattering.
func TestFleetCachesFullAnswers(t *testing.T) {
	db, _ := smallDB(t)
	coord, _ := startFleet(t, db, 2, Config{CacheEntries: 64})
	h := coord.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 5}

	rec, first := postSearch(t, h, req)
	if first == nil {
		t.Fatalf("first search failed: %d %s", rec.Code, rec.Body.String())
	}
	if first.Cached {
		t.Error("first fleet search claims cached")
	}
	_, second := postSearch(t, h, req)
	if second == nil || !second.Cached {
		t.Fatalf("second identical search not served from cache: %+v", second)
	}
	if len(second.Hits) != len(first.Hits) {
		t.Errorf("cached answer has %d hits, original %d", len(second.Hits), len(first.Hits))
	}
}

// TestFleetChaosShardFaultDegrades: with one scatter leg fault-armed,
// the coordinator answers from the surviving shards — degraded:true
// with the failure named, the survivors' hits in canonical order,
// nothing cached — and recovers to full-quality answers when the fault
// clears.
func TestFleetChaosShardFaultDegrades(t *testing.T) {
	const nShards = 3
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultShard + "1", Mode: faultinject.Error, Count: 1})
	coord, _ := startFleet(t, db, nShards, Config{Faults: faults, CacheEntries: 64})
	h := coord.Handler()

	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}

	rec, got := postSearch(t, h, req)
	if got == nil {
		t.Fatalf("partial fleet search must answer, got %d %s", rec.Code, rec.Body.String())
	}
	if !got.Degraded || !strings.Contains(got.DegradedReason, "shard 1") {
		t.Fatalf("degraded = %v (reason %q), want a partial answer naming shard 1",
			got.Degraded, got.DegradedReason)
	}
	if len(got.Hits) == 0 {
		t.Fatal("partial answer has no hits at all")
	}
	if coord.Tel().Get(telemetry.FleetShardErrors) == 0 {
		t.Error("fleet_shard_errors did not move")
	}
	if coord.Tel().Get(telemetry.FleetPartials) == 0 {
		t.Error("fleet_partials did not move")
	}

	// The survivors' merge must equal the union answer minus shard 1's
	// functions, in the same canonical order.
	single := NewFromDB(db, Config{})
	_, want := postSearch(t, single.Handler(), req)
	if want == nil {
		t.Fatal("single-server baseline failed")
	}
	var surviving []Hit
	for _, hh := range want.Hits {
		if index.ShardOf(hh.Exe, hh.Name, nShards) != 1 {
			surviving = append(surviving, hh)
		}
	}
	if len(got.Hits) != len(surviving) {
		t.Fatalf("partial answer has %d hits, survivors of the union answer %d", len(got.Hits), len(surviving))
	}
	for i := range got.Hits {
		if got.Hits[i] != surviving[i] {
			t.Errorf("partial hit %d diverged:\n  fleet:    %+v\n  expected: %+v", i, got.Hits[i], surviving[i])
		}
	}

	// Fault spent: the next identical query is full-quality and was not
	// shadowed by a cached partial.
	_, healed := postSearch(t, h, req)
	if healed == nil || healed.Degraded {
		t.Fatalf("post-fault search should be full quality: %+v", healed)
	}
	if healed.Cached {
		t.Error("post-fault search served from cache: the partial answer was cached")
	}
	if len(healed.Hits) != len(want.Hits) {
		t.Errorf("post-fault search has %d hits, union answer %d", len(healed.Hits), len(want.Hits))
	}
}

// TestFleetAllShardsDownErrors: when no shard answers, the coordinator
// reports a gateway failure instead of an empty result set.
func TestFleetAllShardsDownErrors(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultShard, Mode: faultinject.Error}) // every leg
	coord, _ := startFleet(t, db, 2, Config{Faults: faults})
	h := coord.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)

	rec, _ := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all-shards-down search: status %d, want 502 (%s)", rec.Code, rec.Body.String())
	}
}

// TestFleetHealthzAggregates: the coordinator's healthz names every
// shard, sums the live corpus, and degrades when a worker dies.
func TestFleetHealthzAggregates(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startFleet(t, db, 3, Config{})

	h := coord.backend.Health(context.Background())
	if h.Mode != "coordinator" || h.Status != "ok" {
		t.Fatalf("healthy fleet: mode %q status %q, want coordinator/ok", h.Mode, h.Status)
	}
	if h.Shards != 3 || len(h.Fleet) != 3 {
		t.Fatalf("fleet health has %d shards (%d entries), want 3", h.Shards, len(h.Fleet))
	}
	if h.Functions != db.Len() {
		t.Errorf("fleet functions = %d, want the union corpus %d", h.Functions, db.Len())
	}
	for i, sh := range h.Fleet {
		if sh.Shard != i || sh.Addr == "" || sh.Status != "ok" || sh.Generation == 0 {
			t.Errorf("shard health %d malformed: %+v", i, sh)
		}
	}
	// Each shard is one series of the fleet_shard_info family.
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := telemetry.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	metrics := rec.Body.String()
	for i := 0; i < 3; i++ {
		series := fmt.Sprintf(`tracy_fleet_shard_info{generation="1",live="1",replicas="1",shard="%d",status="ok"} 1`, i)
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	if n := strings.Count(metrics, "# TYPE tracy_fleet_replica_info gauge"); n != 1 {
		t.Errorf("%d TYPE lines for tracy_fleet_replica_info, want 1", n)
	}

	// Kill one worker: status degrades, the dead shard is named, the
	// live sum shrinks.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := workers[2].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h = coord.backend.Health(context.Background())
	if h.Status != "degraded" {
		t.Fatalf("fleet with a dead worker: status %q, want degraded", h.Status)
	}
	if h.Fleet[2].Status != "unreachable" || h.Fleet[2].Error == "" {
		t.Errorf("dead shard entry: %+v, want unreachable with an error", h.Fleet[2])
	}
	if h.Functions >= db.Len() {
		t.Errorf("degraded fleet functions = %d, want < %d", h.Functions, db.Len())
	}
}

// TestFleetScatterLegsJoinCoordinatorTrace: the trace a coordinator
// mints at the edge is the one its scatter legs carry, so each worker's
// /debug/requests holds the by-reference search's leg under the
// coordinator's trace_id — and a batch's legs, which run under each
// item's query:N span, under the batch's.
func TestFleetScatterLegsJoinCoordinatorTrace(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startFleet(t, db, 2, Config{CacheEntries: -1, ProbeInterval: time.Hour})
	e := entryWithTruth(t, db, corpus.LibFuncName)
	rec, got := postSearch(t, coord.Handler(), SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 10})
	if got == nil || got.Degraded {
		t.Fatalf("fleet search: %d %s", rec.Code, rec.Body.String())
	}
	if !telemetry.IsTraceID(got.TraceID) {
		t.Fatalf("coordinator trace_id %q invalid", got.TraceID)
	}
	app := entryWithTruth(t, db, corpus.AppFuncName)
	body, _ := json.Marshal(BatchRequest{Queries: []SearchRequest{
		{Exe: e.Exe, Name: e.Name, Limit: 10},
		{Exe: app.Exe, Name: app.Name, Limit: 10},
	}})
	brec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(brec, httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(body)))
	var batch BatchResponse
	if err := json.Unmarshal(brec.Body.Bytes(), &batch); err != nil || brec.Code != http.StatusOK {
		t.Fatalf("fleet batch: %d %s (%v)", brec.Code, brec.Body.String(), err)
	}
	for i, item := range batch.Results {
		if item.Result == nil || item.Result.Degraded {
			t.Fatalf("fleet batch item %d: %+v", i, item)
		}
	}
	for i, w := range workers {
		legs := map[string]int{}
		for _, r := range getFlight(t, w.Handler()).Slowest {
			if r.Path == "/v1/search" && r.Status == http.StatusOK {
				legs[r.TraceID]++
			}
		}
		if legs[got.TraceID] != 1 {
			t.Errorf("worker %d recorded %d searches under the coordinator's trace %s, want 1", i, legs[got.TraceID], got.TraceID)
		}
		if legs[batch.TraceID] != 2 {
			t.Errorf("worker %d recorded %d searches under the batch's trace %s, want 2 (legs: %v)", i, legs[batch.TraceID], batch.TraceID, legs)
		}
	}
}

// TestFleetServerReload: Server.Reload, which tracy serve calls on
// SIGHUP, has a coordinator reload every worker, as POST /v1/reload
// does: it answers with the summed function count, moves the fleet
// generation, and reports the index format and mapping its workers report.
func TestFleetServerReload(t *testing.T) {
	db, _ := smallDB(t)
	dir := t.TempDir()
	var urls []string
	var workers []*Server
	for i, sdb := range shardDBs(t, db, 2) {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.idx", i))
		replaceIndex(t, path, sdb)
		w, err := New(Config{DBPath: path})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		urls = append(urls, "http://"+addr.String())
	}
	coord, err := New(Config{Fleet: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
		for _, w := range workers {
			_ = w.Shutdown(ctx)
		}
	})
	before := coord.backend.Health(context.Background()).Generation
	res, err := coord.Reload()
	if err != nil {
		t.Fatalf("coordinator Reload: %v", err)
	}
	if res.Functions != db.Len() || res.Generation == before {
		t.Errorf("coordinator Reload = %+v, want %d functions and a generation other than %d", res, db.Len(), before)
	}
	for i, w := range workers {
		if g := w.snap.Load().gen; g != 2 {
			t.Errorf("worker %d at generation %d after the fleet reload, want 2", i, g)
		}
	}
	if got := coord.Tel().Get(telemetry.ServerReloads); got != 1 {
		t.Errorf("coordinator server_reloads = %d, want 1", got)
	}
	// The workers serve alike, so the coordinator reports what each does.
	for i, w := range workers {
		wr, err := w.Reload()
		if err != nil {
			t.Fatalf("worker %d Reload: %v", i, err)
		}
		if res.Format != wr.Format || res.Mapped != wr.Mapped {
			t.Errorf("coordinator Reload reports format %d mapped=%v, worker %d format %d mapped=%v",
				res.Format, res.Mapped, i, wr.Format, wr.Mapped)
		}
	}
}

// TestFleetRejectsAmbiguousQuery: the three query forms are mutually
// exclusive on both coordinator and worker.
func TestFleetRejectsAmbiguousQuery(t *testing.T) {
	db, _ := smallDB(t)
	coord, _ := startFleet(t, db, 2, Config{})
	h := coord.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)

	req := SearchRequest{Exe: e.Exe, Name: e.Name, QueryGob: "AAAA"}
	rec, _ := postSearch(t, h, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("query_gob + exe/name: status %d, want 400", rec.Code)
	}
	rec, _ = postSearch(t, h, SearchRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty query: status %d, want 400", rec.Code)
	}
	rec, _ = postSearch(t, h, SearchRequest{QueryGob: "not base64!"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage query_gob: status %d, want 400", rec.Code)
	}
}

// getFunctions GETs /v1/functions?query and decodes a 200 answer.
func getFunctions(t *testing.T, h http.Handler, query string) (*httptest.ResponseRecorder, *FunctionsResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/functions"+query, nil))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp FunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/v1/functions%s: %v", query, err)
	}
	return rec, &resp
}

// TestFleetFunctionsListing: the coordinator's /v1/functions is the
// single-process listing merged over the shards — the same total, the
// same set in (exe, name) order, the same exe filter — and keeps the
// search's degradation contract: the survivors' union marked degraded
// with a worker down, a 502 with every worker down.
func TestFleetFunctionsListing(t *testing.T) {
	const nShards = 2
	db, _ := smallDB(t)
	_, single := getFunctions(t, NewFromDB(db, Config{}).Handler(), "")
	if single == nil {
		t.Fatal("single-process listing failed")
	}
	coord, workers := startFleet(t, db, nShards, Config{ProbeInterval: time.Hour})
	h := coord.Handler()

	key := func(f FunctionInfo) string { return f.Exe + "\x00" + f.Name }
	sorted := func(fns []FunctionInfo) bool {
		for i := 1; i < len(fns); i++ {
			if key(fns[i-1]) >= key(fns[i]) {
				return false
			}
		}
		return true
	}
	same := func(what string, got, want []FunctionInfo) {
		t.Helper()
		if !sorted(got) {
			t.Errorf("%s: listing not in (exe, name) order", what)
		}
		wantSet := map[string]FunctionInfo{}
		for _, f := range want {
			wantSet[key(f)] = f
		}
		if len(got) != len(wantSet) {
			t.Errorf("%s: %d functions, want %d", what, len(got), len(wantSet))
		}
		for _, f := range got {
			if w, ok := wantSet[key(f)]; !ok || w != f {
				t.Errorf("%s: %+v not in the expected listing", what, f)
			}
		}
	}

	rec, all := getFunctions(t, h, "")
	if all == nil {
		t.Fatalf("fleet listing: %d %s", rec.Code, rec.Body.String())
	}
	if all.Total != single.Total || all.Degraded {
		t.Errorf("fleet listing total %d degraded %v, want total %d, not degraded", all.Total, all.Degraded, single.Total)
	}
	same("unlimited", all.Functions, single.Functions)

	exe := single.Functions[0].Exe
	var ofExe []FunctionInfo
	for _, f := range single.Functions {
		if f.Exe == exe {
			ofExe = append(ofExe, f)
		}
	}
	rec, filtered := getFunctions(t, h, "?exe="+exe)
	if filtered == nil {
		t.Fatalf("fleet listing ?exe=%s: %d %s", exe, rec.Code, rec.Body.String())
	}
	if filtered.Total != single.Total {
		t.Errorf("?exe= total %d, want the unfiltered %d", filtered.Total, single.Total)
	}
	same("?exe="+exe, filtered.Functions, ofExe)

	killWorker(t, workers[1])
	var survivors []FunctionInfo
	for _, f := range single.Functions {
		if index.ShardOf(f.Exe, f.Name, nShards) != 1 {
			survivors = append(survivors, f)
		}
	}
	rec, partial := getFunctions(t, h, "")
	if partial == nil {
		t.Fatalf("fleet listing with a worker down: %d %s", rec.Code, rec.Body.String())
	}
	if !partial.Degraded {
		t.Error("fleet listing with a worker down is not marked degraded")
	}
	same("survivors", partial.Functions, survivors)

	killWorker(t, workers[0])
	if rec, _ := getFunctions(t, h, ""); rec.Code != http.StatusBadGateway {
		t.Errorf("fleet listing with every worker down: status %d, want 502 (%s)", rec.Code, rec.Body.String())
	}
}

// TestFleetRefusesDegradedMode: New refuses a coordinator with
// DegradedMode, whose saturated requests would otherwise answer 503
// without a Retry-After or a cache probe.
func TestFleetRefusesDegradedMode(t *testing.T) {
	s, err := New(Config{Fleet: []string{"http://127.0.0.1:1"}, DegradedMode: true})
	if err == nil {
		_ = s.Shutdown(context.Background())
		t.Fatal("New accepted a coordinator with DegradedMode")
	}
	const want = "serve: -degraded cannot combine with -fleet (a coordinator degrades by merging the surviving shards)"
	if err.Error() != want {
		t.Errorf("New error %q, want %q", err, want)
	}
}
