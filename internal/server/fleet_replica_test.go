package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// startReplicatedFleet boots a fleet of n shard groups with r replicas
// each — every replica of a group serves the SAME shard slice — plus a
// coordinator over them. Returned workers are indexed [shard][replica];
// dead workers may be Shutdown by the test, the rest tear down with it.
func startReplicatedFleet(t *testing.T, db *index.DB, n, r int, coordCfg Config) (*Server, [][]*Server) {
	t.Helper()
	sdbs := shardDBs(t, db, n)
	workers := make([][]*Server, n)
	entries := make([]string, n)
	for i, sdb := range sdbs {
		workers[i] = make([]*Server, r)
		urls := make([]string, r)
		for j := 0; j < r; j++ {
			w := NewFromDB(sdb, Config{})
			addr, err := w.Start("127.0.0.1:0")
			if err != nil {
				t.Fatalf("starting worker %d/%d: %v", i, j, err)
			}
			workers[i][j] = w
			urls[j] = "http://" + addr.String()
		}
		entries[i] = strings.Join(urls, "|")
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, g := range workers {
			for _, w := range g {
				_ = w.Shutdown(ctx)
			}
		}
	})
	coordCfg.Fleet = entries
	coord, err := New(coordCfg)
	if err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return coord, workers
}

// entryOnShard finds an indexed entry with the given ground-truth name
// that FNV placement puts on the wanted shard.
func entryOnShard(t *testing.T, db *index.DB, truth string, shard, nShards int) *index.Entry {
	t.Helper()
	for _, e := range db.Entries {
		if e.Truth == truth && index.ShardOf(e.Exe, e.Name, nShards) == shard {
			return e
		}
	}
	t.Fatalf("no entry with truth %q on shard %d/%d", truth, shard, nShards)
	return nil
}

func killWorker(t *testing.T, w *Server) {
	t.Helper()
	// A scatter leg cancelled by the race can leave a freshly-dialed,
	// never-used connection in the shared client pool; the worker's
	// http.Server sees it as StateNew and waits ~5s before reaping it.
	// Flush the pool so Shutdown is prompt.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFleetReplicaFailoverFullAnswers is the tentpole chaos/parity
// invariant: with 2 replicas per shard, killing one replica of EVERY
// shard mid-fleet still yields degraded:false answers bit-identical to
// the single-snapshot search, with the failovers counted. The prober is
// parked (1h interval) so the test exercises the scatter path's own
// failover, not a lucky pre-query probe.
func TestFleetReplicaFailoverFullAnswers(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 2, 2, Config{
		CacheEntries:  -1, // every query re-scatters
		ProbeInterval: time.Hour,
	})
	h := coord.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}

	single := NewFromDB(db, Config{})
	_, want := postSearch(t, single.Handler(), req)
	if want == nil {
		t.Fatal("single-server baseline failed")
	}

	// Healthy warm-up: full parity before any chaos.
	rec, got := postSearch(t, h, req)
	if got == nil || got.Degraded {
		t.Fatalf("healthy replicated fleet: %d %s", rec.Code, rec.Body.String())
	}

	// Kill replica 0 of every shard group.
	for i := range workers {
		killWorker(t, workers[i][0])
	}

	// Every post-kill query must be full quality and bit-identical; the
	// replica rotation guarantees some leg lands on a dead worker first,
	// so fleet_failovers must move.
	for q := 0; q < 4; q++ {
		rec, got := postSearch(t, h, req)
		if got == nil {
			t.Fatalf("query %d after killing one replica per shard: %d %s", q, rec.Code, rec.Body.String())
		}
		if got.Degraded {
			t.Fatalf("query %d degraded despite a live replica per shard: %s", q, got.DegradedReason)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("query %d: %d hits, single server %d", q, len(got.Hits), len(want.Hits))
		}
		for i := range got.Hits {
			if got.Hits[i] != want.Hits[i] {
				t.Errorf("query %d hit %d diverged:\n  fleet:  %+v\n  single: %+v", q, i, got.Hits[i], want.Hits[i])
			}
		}
	}
	if coord.Tel().Get(telemetry.FleetFailovers) == 0 {
		t.Error("fleet_failovers did not move after killing one replica per shard")
	}
	if coord.Tel().Get(telemetry.FleetReplicaDown) == 0 {
		t.Error("fleet_replica_down did not move")
	}
	if coord.Tel().Get(telemetry.FleetPartials) != 0 {
		t.Error("fleet_partials moved: some answer went partial despite live replicas")
	}
}

// TestFleetReplicaGroupDownPartial: only when an ENTIRE replica group is
// down does the answer become partial — degraded:true naming the shard,
// the survivors' hits in canonical order, nothing cached.
func TestFleetReplicaGroupDownPartial(t *testing.T) {
	const nShards = 2
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, nShards, 2, Config{CacheEntries: 64})
	h := coord.Handler()
	// The query must resolve from a LIVE group: pick an entry placed on
	// shard 0 (shard 1's whole group dies below).
	e := entryOnShard(t, db, corpus.LibFuncName, 0, nShards)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}

	killWorker(t, workers[1][0])
	killWorker(t, workers[1][1])

	rec, got := postSearch(t, h, req)
	if got == nil {
		t.Fatalf("partial fleet search must answer, got %d %s", rec.Code, rec.Body.String())
	}
	if !got.Degraded || !strings.Contains(got.DegradedReason, "shard 1") {
		t.Fatalf("degraded = %v (reason %q), want a partial answer naming shard 1",
			got.Degraded, got.DegradedReason)
	}

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

	// Partial answers are never cached.
	_, again := postSearch(t, h, req)
	if again == nil || again.Cached {
		t.Fatalf("repeated partial query served from cache: %+v", again)
	}
}

// TestFleetHedgedScatter: with -shard-hedge armed, a slow (not dead)
// replica is raced by its sibling and the hedged leg's win is counted —
// latency costs the hedge delay, not the slow replica's stall.
func TestFleetHedgedScatter(t *testing.T) {
	db, _ := smallDB(t)
	faults := faultinject.New()
	// Replica 0 of shard 0 stalls 2s on every search leg; the hedge
	// fires after 20ms and its sibling answers immediately.
	faults.Arm(&faultinject.Fault{Point: FaultShard + "0r0", Mode: faultinject.Latency, Latency: 2 * time.Second})
	coord, _ := startReplicatedFleet(t, db, 2, 2, Config{
		Faults:        faults,
		CacheEntries:  -1,
		ShardHedge:    20 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	h := coord.Handler()
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}

	t0 := time.Now()
	rec, got := postSearch(t, h, req)
	took := time.Since(t0)
	if got == nil || got.Degraded {
		t.Fatalf("hedged fleet search: %d %s", rec.Code, rec.Body.String())
	}
	if took >= 2*time.Second {
		t.Errorf("hedged query took %v: it waited out the slow replica instead of hedging", took)
	}
	if coord.Tel().Get(telemetry.FleetHedges) == 0 {
		t.Error("fleet_hedges did not move")
	}
	if coord.Tel().Get(telemetry.FleetHedgesWon) == 0 {
		t.Error("fleet_hedges_won did not move")
	}
}

// TestFleetMembershipDownAndReadmit drives the membership state machine
// end to end: a killed worker is marked down (unreachable in healthz,
// fleet_replica_down moves), and a replacement on the same address is
// readmitted by the prober's healthz + generation gate
// (fleet_readmits moves, status recovers to ok).
func TestFleetMembershipDownAndReadmit(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 2, 2, Config{ProbeInterval: 25 * time.Millisecond})
	sdbs := shardDBs(t, db, 2)

	// Remember the victim's address, then kill it.
	h := coord.backend.Health(context.Background())
	if h.Status != "ok" || h.Replicas != 4 {
		t.Fatalf("healthy fleet: status %q replicas %d, want ok/4", h.Status, h.Replicas)
	}
	victimAddr := ""
	for _, sh := range h.Fleet {
		if sh.Shard == 0 && sh.Replica == 0 {
			victimAddr = strings.TrimPrefix(sh.Addr, "http://")
		}
	}
	killWorker(t, workers[0][0])

	h = coord.backend.Health(context.Background())
	var down ShardHealth
	for _, sh := range h.Fleet {
		if sh.Shard == 0 && sh.Replica == 0 {
			down = sh
		}
	}
	if h.Status != "degraded" || down.Status != "unreachable" || down.Error == "" {
		t.Fatalf("after kill: fleet status %q, victim %+v; want degraded/unreachable", h.Status, down)
	}
	if coord.Tel().Get(telemetry.FleetReplicaDown) == 0 {
		t.Error("fleet_replica_down did not move")
	}

	// Resurrect a worker on the same address and poll for readmission.
	replacement := NewFromDB(sdbs[0], Config{})
	var err error
	for i := 0; i < 50; i++ {
		if _, err = replacement.Start(victimAddr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // the old listener may still be draining
	}
	if err != nil {
		t.Fatalf("restarting worker on %s: %v", victimAddr, err)
	}
	workers[0][0] = replacement // cleanup shuts the replacement down

	deadline := time.Now().Add(5 * time.Second)
	for {
		h = coord.backend.Health(context.Background())
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica not readmitted within 5s: fleet status %q (%+v)", h.Status, h.Fleet)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if coord.Tel().Get(telemetry.FleetReadmits) == 0 {
		t.Error("fleet_readmits did not move")
	}
}

// TestFleetGenerationSkew: when one replica of a group serves a
// different index generation, the group serves the majority (ties to
// the newest) and the straggler is flagged Skewed in fleet healthz —
// while queries stay full quality off the serving replica.
func TestFleetGenerationSkew(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 2, 2, Config{
		CacheEntries:  -1,
		ProbeInterval: time.Hour,
	})
	sdbs := shardDBs(t, db, 2)

	// Reload replica (1,1) onto the same slice: generation 2 vs its
	// sibling's 1. The 1-vs-1 tie breaks to the newest, so the sibling
	// (1,0) is the straggler.
	workers[1][1].install(sdbs[1], time.Now())

	h := coord.backend.Health(context.Background())
	if h.Status != "degraded" {
		t.Fatalf("fleet with a generation straggler: status %q, want degraded", h.Status)
	}
	var straggler, current ShardHealth
	for _, sh := range h.Fleet {
		if sh.Shard == 1 && sh.Replica == 0 {
			straggler = sh
		}
		if sh.Shard == 1 && sh.Replica == 1 {
			current = sh
		}
	}
	if !straggler.Skewed || current.Skewed {
		t.Fatalf("skew flags wrong: replica 0 %+v, replica 1 %+v", straggler, current)
	}

	// Queries keep full quality: the serving-generation replica answers.
	e := entryWithTruth(t, db, corpus.LibFuncName)
	rec, got := postSearch(t, coord.Handler(), SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000})
	if got == nil || got.Degraded {
		t.Fatalf("skewed-group query: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFleetScatterFailureMarksDownImmediately pins the satellite bug
// fix: a scatter leg's transport error must down-mark the replica in
// the membership view at once — no TTL window where a dead worker keeps
// eating a shard timeout per query.
func TestFleetScatterFailureMarksDownImmediately(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 2, 2, Config{
		CacheEntries:  -1,
		ProbeInterval: time.Hour, // membership may only move via the scatter path
	})
	fb := coord.backend.(*fleetBackend)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 10}

	killWorker(t, workers[0][0])

	// Drive queries until one lands on the dead replica (rotation
	// alternates the preferred replica, so two suffice).
	for q := 0; q < 2; q++ {
		rec, got := postSearch(t, coord.Handler(), req)
		if got == nil || got.Degraded {
			t.Fatalf("query %d: %d %s", q, rec.Code, rec.Body.String())
		}
	}
	// The membership view itself (no forced sweep) must show the victim
	// down, purely from the scatter failure.
	st := fb.groups[0].replicas[0].state()
	if st.up {
		t.Fatal("dead replica still up in the membership view after a scatter transport error")
	}
	if coord.Tel().Get(telemetry.FleetReplicaDown) == 0 {
		t.Error("fleet_replica_down did not move")
	}
}

// TestFleet502StructuredBody pins the error-quality satellite: when no
// shard answers, the 502 carries per-replica failure detail and a
// Retry-After header derived from the prober's schedule.
func TestFleet502StructuredBody(t *testing.T) {
	db, c := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 1, 2, Config{ProbeInterval: time.Hour})
	h := coord.Handler()
	// An image query resolves on the coordinator itself, so the failure
	// under test is the scatter, not the by-reference lookup.
	req := SearchRequest{Limit: 10}
	req.SetImage(exeImage(t, c, "ctx0"))

	killWorker(t, workers[0][0])
	killWorker(t, workers[0][1])

	for q := 0; q < 2; q++ { // second query reports down-gated siblings too
		rec, _ := postSearch(t, h, req)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("all-replicas-down search: status %d, want 502 (%s)", rec.Code, rec.Body.String())
		}
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Error("502 has no Retry-After header")
		}
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("502 body is not JSON: %v\n%s", err, rec.Body.String())
		}
		if len(body.Fleet) == 0 {
			t.Fatalf("502 body has no per-replica detail: %s", rec.Body.String())
		}
		for _, re := range body.Fleet {
			if re.Addr == "" || re.Error == "" {
				t.Errorf("replica error entry missing addr/error: %+v", re)
			}
		}
	}
}

// TestParseFleetGroups covers the replica-group fleet syntax.
func TestParseFleetGroups(t *testing.T) {
	got := parseFleetGroups([]string{"http://a1|http://a2", " http://b1/ ", "", "|"})
	want := [][]string{{"http://a1", "http://a2"}, {"http://b1"}}
	if len(got) != len(want) {
		t.Fatalf("parseFleetGroups returned %d groups, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("group %d replica %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestFleetInfoSeriesStates pins the fleet_replica_info and
// fleet_shard_info series in every state the membership view produces:
// a skewed straggler, an unreachable replica (keeping its last-known
// format and mapping), and a group that is degraded, then down.
func TestFleetInfoSeriesStates(t *testing.T) {
	db, _ := smallDB(t)
	coord, workers := startReplicatedFleet(t, db, 2, 2, Config{CacheEntries: -1, ProbeInterval: time.Hour})
	sdbs := shardDBs(t, db, 2)
	tel := coord.Tel()
	replica := func(shard, idx int) map[string]string {
		return tel.InfoLabels("fleet_replica_info", fmt.Sprintf("%d/%d", shard, idx))
	}
	shard := func(id int) map[string]string { return tel.InfoLabels("fleet_shard_info", strconv.Itoa(id)) }
	check := func(what string, got, want map[string]string) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Errorf("%s series = %v, want %v", what, got, want)
		}
	}
	with := func(labels map[string]string, kv ...string) map[string]string {
		out := maps.Clone(labels)
		for i := 0; i < len(kv); i += 2 {
			out[kv[i]] = kv[i+1]
		}
		return out
	}

	coord.backend.Health(context.Background())
	healthy := replica(0, 0)
	if healthy["status"] != "ok" || healthy["generation"] != "1" || healthy["format"] == "" || healthy["mapped"] == "" {
		t.Fatalf("healthy replica series = %v", healthy)
	}
	check("healthy shard 0", shard(0), map[string]string{"shard": "0", "status": "ok", "generation": "1", "replicas": "2", "live": "2"})

	// Replica (1,1) moves to generation 2; the tie breaks to the newest,
	// so (1,0) is the skewed straggler and the group serves generation 2.
	straggler := replica(1, 0)
	workers[1][1].install(sdbs[1], time.Now())
	coord.backend.Health(context.Background())
	check("skewed replica 1/0", replica(1, 0), with(straggler, "status", "skewed"))
	check("shard 1 with a straggler", shard(1), map[string]string{"shard": "1", "status": "ok", "generation": "2", "replicas": "2", "live": "2"})

	killWorker(t, workers[0][0])
	coord.backend.Health(context.Background())
	check("unreachable replica 0/0", replica(0, 0), with(healthy, "status", "unreachable"))
	check("degraded shard 0", shard(0), map[string]string{"shard": "0", "status": "degraded", "generation": "1", "replicas": "2", "live": "1"})

	killWorker(t, workers[0][1])
	coord.backend.Health(context.Background())
	check("down shard 0", shard(0), map[string]string{"shard": "0", "status": "down", "generation": "1", "replicas": "2", "live": "0"})

	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := telemetry.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, series := range []string{
		`tracy_fleet_shard_info{generation="1",live="0",replicas="2",shard="0",status="down"} 1`,
		fmt.Sprintf(`tracy_fleet_replica_info{addr=%q,format=%q,generation="1",mapped=%q,replica="0",shard="0",status="unreachable"} 1`,
			healthy["addr"], healthy["format"], healthy["mapped"]),
	} {
		if !strings.Contains(rec.Body.String(), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}
