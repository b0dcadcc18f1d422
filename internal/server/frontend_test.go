package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// frontEnd is one server under the front-end battery: a local server or
// a coordinator whose workers count the /v1/fleet/function lookups they
// receive.
type frontEnd struct {
	name    string
	s       *Server
	h       http.Handler
	lookups func(e *index.Entry) int64 // received by e's owning worker; nil on a local server
}

// countedFleet boots a coordinator over n workers, like startFleet, with
// every worker counting the by-reference lookups that reach it. A count
// is taken on arrival, so it is final once the coordinator has answered.
func countedFleet(t *testing.T, db *index.DB, n int, cfg Config) frontEnd {
	t.Helper()
	workers := make([]*Server, n)
	counts := make([]atomic.Int64, n)
	for i, sdb := range shardDBs(t, db, n) {
		i, w := i, NewFromDB(sdb, Config{})
		h := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/fleet/function" {
				counts[i].Add(1)
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		workers[i] = w
		cfg.Fleet = append(cfg.Fleet, srv.URL)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx) // stops the membership prober
	})
	return frontEnd{name: "coordinator", s: coord, h: coord.Handler(), lookups: func(e *index.Entry) int64 {
		for i, w := range workers {
			if w.snap.Load().snap.Lookup(e.Exe, e.Name) != nil {
				return counts[i].Load()
			}
		}
		t.Fatalf("no worker owns %s/%s", e.Exe, e.Name)
		return 0
	}}
}

// TestFrontEndParity drives one function through every way a request can
// be answered — cold, through its request alias, and through the content
// key from a different designator — by image and by reference, on a local
// server and through a 2-shard coordinator. Every answer must equal the
// offline oracle hit for hit and carry the query's own header; each
// request ticks exactly one of server_cache_hits / server_cache_misses;
// an alias hit resolves nothing (no decomposition, no worker lookup); and
// the cache holds one response however many designators reach it.
func TestFrontEndParity(t *testing.T) {
	db, c := smallDB(t)
	local := NewFromDB(db, Config{})
	fronts := []frontEnd{{name: "local", s: local, h: local.Handler()}, countedFleet(t, db, 2, Config{})}
	// The local snapshot views each corpus entry on first touch: one
	// exhaustive search views them all, so that the steps below count the
	// query's decompositions alone.
	warm := index.Query{Func: mustDecode(t, db.Entries[0]), Opts: core.DefaultOptions()}
	if _, err := local.snap.Load().snap.Search(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	var sample []*index.Entry
	for _, truth := range []string{corpus.LibFuncName, corpus.AppFuncName} {
		sample = append(sample, entryWithTruth(t, db, truth))
	}
	sample = append(sample, db.Entries[len(db.Entries)-1])

	for _, fe := range fronts {
		for _, e := range sample {
			var want []Hit
			for _, h := range index.TopK(index.SerialSearch(db.Entries, mustDecode(t, e), core.DefaultOptions()), 1000, 0) {
				want = append(want, wireHit(h))
			}
			byImage := SearchRequest{Function: e.Name, Limit: 1000}
			byImage.SetImage(exeImage(t, c, e.Exe))
			reencoded := byImage
			reencoded.Image += "\n" // the same bytes under another text
			byRef := SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 1000}

			steps := []struct {
				name    string
				req     SearchRequest
				purge   bool // start from an empty cache
				cached  bool
				keys    int // cache index size afterwards
				decomp  int // decompositions a local server may run
				lookups int // worker lookups a coordinator may make
			}{
				{name: "image cold", req: byImage, purge: true, keys: 2, decomp: 1},
				{name: "image alias", req: byImage, cached: true, keys: 2},
				{name: "image content key", req: reencoded, cached: true, keys: 3, decomp: 1},
				{name: "ref content key", req: byRef, cached: true, keys: 4, lookups: 1},
				{name: "ref alias", req: byRef, cached: true, keys: 4},
				{name: "ref cold", req: byRef, purge: true, keys: 2, lookups: 1},
				{name: "ref alias again", req: byRef, cached: true, keys: 2},
				{name: "image content key after ref", req: byImage, cached: true, keys: 3, decomp: 1},
			}
			for _, st := range steps {
				if st.purge {
					fe.s.cache.purge()
				}
				tel := fe.s.Tel()
				hits0, misses0 := tel.Get(telemetry.ServerCacheHits), tel.Get(telemetry.ServerCacheMisses)
				decomp0 := tel.Get(telemetry.FunctionsDecomposed)
				var lookups0 int64
				if fe.lookups != nil {
					lookups0 = fe.lookups(e)
				}
				rec, got := postSearch(t, fe.h, st.req)
				id := fe.name + " " + e.Exe + "/" + e.Name + " " + st.name
				if got == nil {
					t.Fatalf("%s: status %d: %s", id, rec.Code, rec.Body.String())
				}
				if got.Cached != st.cached || got.Degraded {
					t.Errorf("%s: cached %v degraded %v, want cached %v", id, got.Cached, got.Degraded, st.cached)
				}
				fn := mustDecode(t, e)
				if got.Query != e.Name || got.QueryBlocks != fn.NumBlocks() || got.QueryInsts != fn.NumInsts() {
					t.Errorf("%s: header %q %d/%d, want %q %d/%d", id,
						got.Query, got.QueryBlocks, got.QueryInsts, e.Name, fn.NumBlocks(), fn.NumInsts())
				}
				if got.Candidates != db.Len() || !reflect.DeepEqual(got.Hits, want) {
					t.Errorf("%s: answer over %d candidates differs from the offline oracle's over %d", id, got.Candidates, db.Len())
				}
				dh, dm := tel.Get(telemetry.ServerCacheHits)-hits0, tel.Get(telemetry.ServerCacheMisses)-misses0
				if wantHit := b2i(st.cached); dh != wantHit || dm != 1-wantHit {
					t.Errorf("%s: ticked %d hits and %d misses, want %d and %d", id, dh, dm, wantHit, 1-wantHit)
				}
				if l, k := fe.s.cache.len(), fe.s.cache.keys(); l != 1 || k != st.keys {
					t.Errorf("%s: cache holds %d responses under %d keys, want 1 under %d", id, l, k, st.keys)
				}
				if fe.lookups == nil {
					if d := tel.Get(telemetry.FunctionsDecomposed) - decomp0; d != uint64(st.decomp) {
						t.Errorf("%s: decomposed %d functions, want %d", id, d, st.decomp)
					}
				} else if d := fe.lookups(e) - lookups0; d != int64(st.lookups) {
					t.Errorf("%s: %d /v1/fleet/function calls reached the owner, want %d", id, d, st.lookups)
				}
			}
		}
	}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestHitAnswersUnderItsOwnHeader: two indexed functions with identical
// tracelet content and different names share one cached answer, and each
// is answered under its own name — through the content key and, on the
// repeat, through its alias.
func TestHitAnswersUnderItsOwnHeader(t *testing.T) {
	small, _ := smallDB(t)
	orig := entryWithTruth(t, small, corpus.LibFuncName)
	fn := mustDecode(t, orig)
	b := idxfile.NewBuilder()
	for _, e := range small.Entries {
		b.Add(e.Exe, mustDecode(t, e), e.Truth, nil)
	}
	b.Add("twin", &prep.Function{Name: "sub_TWIN", Addr: fn.Addr + 0x40, Graph: fn.Graph}, "", nil)
	var file bytes.Buffer
	if _, err := b.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	db, err := index.Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	s := NewFromDB(db, Config{})
	h := s.Handler()

	reqs := []SearchRequest{{Exe: orig.Exe, Name: orig.Name}, {Exe: "twin", Name: "sub_TWIN"}}
	var first *SearchResponse
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			rec, got := postSearch(t, h, req)
			if got == nil {
				t.Fatalf("%s/%s: status %d: %s", req.Exe, req.Name, rec.Code, rec.Body.String())
			}
			if first == nil {
				first = got
			}
			if got.Cached != (round > 0 || i > 0) {
				t.Errorf("round %d %s/%s: cached %v", round, req.Exe, req.Name, got.Cached)
			}
			if got.Query != req.Name || got.QueryBlocks != fn.NumBlocks() || got.QueryInsts != fn.NumInsts() {
				t.Errorf("round %d %s/%s answered under header %q %d/%d", round, req.Exe, req.Name,
					got.Query, got.QueryBlocks, got.QueryInsts)
			}
			if !reflect.DeepEqual(got.Hits, first.Hits) {
				t.Errorf("round %d %s/%s: hits differ from the shared answer", round, req.Exe, req.Name)
			}
		}
	}
	if l, k := s.cache.len(), s.cache.keys(); l != 1 || k != 3 {
		t.Errorf("cache holds %d responses under %d keys, want 1 under 3", l, k)
	}
}

// TestReloadMissesTheAlias: the generation is part of both keys, so a
// repeated request misses after a local reload, and on a coordinator —
// whose cache nobody purges — after a worker's.
func TestReloadMissesTheAlias(t *testing.T) {
	db, _ := smallDB(t)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}
	expect := func(h http.Handler, what string, cached bool) {
		t.Helper()
		rec, got := postSearch(t, h, req)
		if got == nil {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.String())
		}
		if got.Cached != cached {
			t.Errorf("%s: cached %v, want %v", what, got.Cached, cached)
		}
	}

	local := NewFromDB(db, Config{})
	expect(local.Handler(), "local first", false)
	expect(local.Handler(), "local repeat", true)
	local.install(db, time.Now())
	expect(local.Handler(), "local after reload", false)

	coord, workers := startFleet(t, db, 2, Config{})
	expect(coord.Handler(), "fleet first", false)
	expect(coord.Handler(), "fleet repeat", true)
	workers[0].install(shardDBs(t, db, 2)[0], time.Now())
	coord.backend.Health(context.Background()) // sweep: the coordinator learns the new generation
	if coord.cache.len() != 1 {
		t.Fatalf("coordinator cache holds %d responses, want the stale one", coord.cache.len())
	}
	expect(coord.Handler(), "fleet after a worker reload", false)
	expect(coord.Handler(), "fleet repeat after the reload", true)
}

// TestUnrepeatableAnswersGetNoKey: an lsh-fallback answer and a partial
// fleet answer are stored under neither key; a saturated server's
// degraded answer is stored in its own keyspace without an alias, so the
// exact answer computed later is what the alias reaches; and a worker's
// QueryGob request is keyed by content alone.
func TestUnrepeatableAnswersGetNoKey(t *testing.T) {
	db, _ := smallDB(t)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	req := SearchRequest{Exe: e.Exe, Name: e.Name}
	post := func(s *Server, req SearchRequest, what string) *SearchResponse {
		t.Helper()
		rec, got := postSearch(t, s.Handler(), req)
		if got == nil {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.String())
		}
		return got
	}
	holds := func(s *Server, what string, resps, keys int) {
		t.Helper()
		if l, k := s.cache.len(), s.cache.keys(); l != resps || k != keys {
			t.Errorf("%s: cache holds %d responses under %d keys, want %d under %d", what, l, k, resps, keys)
		}
	}

	faults := faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultLSH, Mode: faultinject.Error, Count: 1})
	s := NewFromDB(db, Config{Faults: faults})
	lsh := SearchRequest{Exe: e.Exe, Name: e.Name, PrefilterMode: "lsh"}
	if got := post(s, lsh, "lsh fallback"); !got.Degraded || got.Cached {
		t.Errorf("lsh fallback: degraded %v cached %v", got.Degraded, got.Cached)
	}
	holds(s, "lsh fallback", 0, 0)
	if got := post(s, lsh, "lsh after the fault"); got.Degraded || got.Cached {
		t.Errorf("lsh after the fault: degraded %v cached %v", got.Degraded, got.Cached)
	}
	holds(s, "lsh after the fault", 1, 2)

	s = NewFromDB(db, Config{DegradedMode: true})
	for i, wantCached := range []bool{false, true} {
		got, err := s.search(context.Background(), &req, true)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Degraded || got.Cached != wantCached {
			t.Errorf("saturated request %d: degraded %v cached %v", i, got.Degraded, got.Cached)
		}
		holds(s, "saturated", 1, 1)
	}
	if got := post(s, req, "exact"); got.Degraded || got.Cached {
		t.Errorf("exact after degraded: degraded %v cached %v", got.Degraded, got.Cached)
	}
	holds(s, "exact after degraded", 2, 3)
	if got, err := s.search(context.Background(), &req, true); err != nil || got.Degraded || !got.Cached {
		t.Errorf("saturated after exact: %+v, %v; want the cached exact answer", got, err)
	}

	faults = faultinject.New()
	faults.Arm(&faultinject.Fault{Point: FaultShard + "1", Mode: faultinject.Error, Count: 1})
	coord, _ := startFleet(t, db, 2, Config{Faults: faults})
	if got := post(coord, req, "partial"); !got.Degraded || got.Cached {
		t.Errorf("partial: degraded %v cached %v", got.Degraded, got.Cached)
	}
	holds(coord, "partial", 0, 0)
	if got := post(coord, req, "full fleet"); got.Degraded || got.Cached {
		t.Errorf("full fleet: degraded %v cached %v", got.Degraded, got.Cached)
	}
	holds(coord, "full fleet", 1, 2)

	s = NewFromDB(db, Config{})
	qgob, _, err := encodeQueryGob(mustDecode(t, e))
	if err != nil {
		t.Fatal(err)
	}
	for i, wantCached := range []bool{false, true} {
		if got := post(s, SearchRequest{QueryGob: qgob}, "query_gob"); got.Cached != wantCached || got.Query != e.Name {
			t.Errorf("query_gob request %d: cached %v under %q", i, got.Cached, got.Query)
		}
		holds(s, "query_gob", 1, 1)
	}
}

// TestSingleFunctionLiftErrorSurface: an upload that names its function
// has only that function lifted, on either backend. Undecodable bytes in
// another function do not fail the request (they did before, and still
// do when no function is named); an unknown name stays 404, and the
// corrupted function itself and a malformed ELF stay 400.
func TestSingleFunctionLiftErrorSurface(t *testing.T) {
	db, c := smallDB(t)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	img := exeImage(t, c, e.Exe)
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	images, err := f.Functions()
	if err != nil {
		t.Fatal(err)
	}
	victim := images[0]
	if victim.Name == e.Name {
		victim = images[1]
	}
	at := bytes.Index(img, victim.Code)
	if at < 0 {
		t.Fatalf("cannot place %s's code in the image", victim.Name)
	}
	bad := bytes.Clone(img)
	bad[at+len(victim.Code)-1] = 0xF4 // hlt: the decoder rejects it

	local := NewFromDB(db, Config{})
	coord, _ := startFleet(t, db, 2, Config{})
	for name, h := range map[string]http.Handler{"local": local.Handler(), "coordinator": coord.Handler()} {
		upload := func(img []byte, function string) (*httptest.ResponseRecorder, *SearchResponse) {
			req := SearchRequest{Function: function, Limit: 1000}
			req.SetImage(img)
			return postSearch(t, h, req)
		}
		_, want := upload(img, e.Name)
		rec, got := upload(bad, e.Name)
		if want == nil || got == nil {
			t.Fatalf("%s: intact function of a corrupted image: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if got.Query != e.Name || !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Errorf("%s: the corrupted image's intact function answers differently from the clean image's", name)
		}
		for _, tc := range []struct {
			what     string
			img      []byte
			function string
			status   int
		}{
			{"the corrupted function", bad, victim.Name, http.StatusBadRequest},
			{"a corrupted image, no function named", bad, "", http.StatusBadRequest},
			{"an unknown function", bad, "no_such_fn", http.StatusNotFound},
			{"a malformed ELF", img[:40], e.Name, http.StatusBadRequest},
		} {
			if rec, _ := upload(tc.img, tc.function); rec.Code != tc.status {
				t.Errorf("%s: %s: status %d, want %d (%s)", name, tc.what, rec.Code, tc.status, rec.Body.String())
			}
		}
	}
}

// TestWritePathTelemetry: a by-image request's lift reports into the
// server's collector — one timed lift, the function it lifted, the
// instructions discovery decoded — a by-reference request lifts nothing,
// and the write path's families are on /metrics and /statsz before the
// first lift and still there, with their counts, after a reload.
func TestWritePathTelemetry(t *testing.T) {
	db, c := smallDB(t)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	s := NewFromDB(db, Config{})
	h := s.Handler()
	scrape := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	families := []string{
		"tracy_functions_lifted_total", "tracy_instructions_decoded_total", "tracy_index_bytes_written_total",
		"tracy_lift_latency_seconds_count", "tracy_index_save_latency_seconds_count",
	}
	for _, name := range families {
		if !bytes.Contains([]byte(scrape("/metrics")), []byte("\n"+name+" 0\n")) {
			t.Errorf("/metrics before any lift: no %s at 0", name)
		}
	}

	if rec, got := postSearch(t, h, SearchRequest{Exe: e.Exe, Name: e.Name}); got == nil {
		t.Fatalf("by reference: status %d", rec.Code)
	}
	if n := s.tel.Get(telemetry.FunctionsLifted); n != 0 {
		t.Errorf("a by-reference request lifted %d functions", n)
	}

	byImage := SearchRequest{Function: e.Name}
	byImage.SetImage(exeImage(t, c, e.Exe))
	if rec, got := postSearch(t, h, byImage); got == nil {
		t.Fatalf("by image: status %d: %s", rec.Code, rec.Body.String())
	}
	snap := s.tel.Snapshot()
	lifted, decoded := snap.Counters["functions_lifted"], snap.Counters["instructions_decoded"]
	insts := mustDecode(t, e).NumInsts()
	if lifted != 1 || snap.Histograms["lift_latency"].Count != 1 || decoded < uint64(insts) {
		t.Errorf("one function lifted by image: functions_lifted %d, lift_latency count %d, instructions_decoded %d (the function has %d)",
			lifted, snap.Histograms["lift_latency"].Count, decoded, insts)
	}

	s.install(db, time.Now())
	metrics, statsz := scrape("/metrics"), scrape("/statsz")
	for _, want := range []string{"\ntracy_functions_lifted_total 1\n", "\ntracy_lift_latency_seconds_count 1\n", "\ntracy_index_save_latency_seconds_count 0\n"} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Errorf("/metrics after a reload lacks %q", want)
		}
	}
	for _, want := range []string{`"functions_lifted"`, `"instructions_decoded"`, `"index_bytes_written"`, `"lift_latency"`, `"index_save_latency"`} {
		if !bytes.Contains([]byte(statsz), []byte(want)) {
			t.Errorf("/statsz after a reload lacks %s", want)
		}
	}
}
