package index

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minhash"
	"repro/internal/telemetry"
)

// TestPrefilterCap: the "Candidates > 0 implies Enabled" contract at the
// options layer, including the zero, negative and Mode-only corners. The
// server and CLI layers re-test their own spellings of the same rule.
func TestPrefilterCap(t *testing.T) {
	cases := []struct {
		name string
		pf   PrefilterOptions
		want int
	}{
		{"zero value disabled", PrefilterOptions{}, 0},
		{"enabled default cap", PrefilterOptions{Enabled: true}, DefaultPrefilterCandidates},
		{"candidates imply enabled", PrefilterOptions{Candidates: 7}, 7},
		{"negative candidates stay disabled", PrefilterOptions{Candidates: -3}, 0},
		{"enabled negative uses default", PrefilterOptions{Enabled: true, Candidates: -3}, DefaultPrefilterCandidates},
		{"enabled zero uses default", PrefilterOptions{Enabled: true, Candidates: 0}, DefaultPrefilterCandidates},
		{"mode alone does not enable", PrefilterOptions{Mode: ModeLSH}, 0},
		{"mode with candidates", PrefilterOptions{Mode: ModeLSH, Candidates: 4}, 4},
		{"mode with enabled", PrefilterOptions{Mode: ModeLSH, Enabled: true}, DefaultPrefilterCandidates},
		{"scan mode zero value", PrefilterOptions{Mode: ModeScan}, 0},
	}
	for _, tc := range cases {
		if got := tc.pf.cap(); got != tc.want {
			t.Errorf("%s: cap() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParsePrefilterMode(t *testing.T) {
	cases := []struct {
		in   string
		mode PrefilterMode
		ok   bool
	}{
		{"", ModeScan, true},
		{"scan", ModeScan, true},
		{"lsh", ModeLSH, true},
		{"LSH", "", false},
		{"minhash", "", false},
	}
	for _, tc := range cases {
		mode, ok := ParsePrefilterMode(tc.in)
		if mode != tc.mode || ok != tc.ok {
			t.Errorf("ParsePrefilterMode(%q) = (%q, %v), want (%q, %v)", tc.in, mode, ok, tc.mode, tc.ok)
		}
	}
}

// TestLSHOracleEquality: at a saturating limit, the lshIndex candidate
// set must EQUAL the brute-force banding oracle — every entry sharing at
// least one band bucket with the query, no more and no fewer — and the
// ranking must be (Shared = colliding bands * Rows, desc, id asc). With
// Rows=1 (the default) Shared is exactly the matching-position count;
// the 16x4 case pins the generalized semantics.
func TestLSHOracleEquality(t *testing.T) {
	feats := [][]uint64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 2, 3, 4, 5, 6, 7, 9}, // near-duplicate of 0
		{100, 200, 300},
		{1, 2, 3},
		{}, // empty set: EmptySig signature, never a candidate for a real query
		{5000, 6000, 7000, 8000},
	}
	for _, p := range []minhash.Params{
		minhash.Default,
		{Bands: 16, Rows: 4, Seed: minhash.DefaultSeed},
	} {
		sigs := make([]uint32, len(feats)*p.K())
		for i, fs := range feats {
			minhash.Signature(sigs[i*p.K():(i+1)*p.K()], fs, p)
		}
		x := newLSHIndex(p, sigs, len(feats), nil)
		query := feats[0]
		qsig := minhash.Signature(nil, query, p)

		oracle := make(map[int32]int) // id -> colliding bands * Rows
		for id, fs := range feats {
			sig := minhash.Signature(nil, fs, p)
			colliding := 0
			for b := 0; b < p.Bands; b++ {
				if minhash.BandHash(sig, b, p) == minhash.BandHash(qsig, b, p) {
					colliding++
				}
			}
			if colliding > 0 {
				oracle[int32(id)] = colliding * p.Rows
			}
		}
		if _, ok := oracle[0]; !ok {
			t.Fatal("oracle lost the query's own entry")
		}
		if p.Rows == 1 {
			// Single-row bands: Shared must equal the raw matching-position
			// count that EstJaccard is built on.
			for id, want := range oracle {
				sig := minhash.Signature(nil, feats[id], p)
				if got := minhash.SharedPositions(qsig, sig); got != want {
					t.Errorf("rows=1 id %d: oracle %d != shared positions %d", id, want, got)
				}
			}
		}

		got := x.ranked(context.Background(), query, len(feats)+1, nil)
		if len(got) != len(oracle) {
			t.Fatalf("%dx%d: ranked returned %d candidates, oracle has %d", p.Bands, p.Rows, len(got), len(oracle))
		}
		for i, r := range got {
			want, ok := oracle[r.ID]
			if !ok {
				t.Fatalf("%dx%d: candidate %d not in the banding oracle", p.Bands, p.Rows, r.ID)
			}
			if r.Shared != want {
				t.Errorf("%dx%d: id %d: Shared = %d, oracle says %d", p.Bands, p.Rows, r.ID, r.Shared, want)
			}
			if i > 0 {
				prev := got[i-1]
				if prev.Shared < r.Shared || (prev.Shared == r.Shared && prev.ID >= r.ID) {
					t.Errorf("%dx%d: rank order violated at %d: %+v before %+v", p.Bands, p.Rows, i, prev, r)
				}
			}
		}
		if got[0].ID != 0 || got[0].Shared != p.K() {
			t.Errorf("%dx%d: self entry should rank first with full agreement, got %+v", p.Bands, p.Rows, got[0])
		}

		ids := sortedIDs(got)
		if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			t.Errorf("sortedIDs not ascending: %v", ids)
		}
		if len(ids) != len(got) {
			t.Errorf("sortedIDs kept %d ids, ranked had %d", len(ids), len(got))
		}

		if x.ranked(context.Background(), nil, 10, nil) != nil {
			t.Error("empty query feature set must yield no candidates")
		}
	}
}

// TestLSHSubsetOfExhaustive: the final results of an lsh-prefiltered
// search are a subset of the exhaustive scan with bit-identical Results
// per entry — lsh only changes which candidates reach the exact stage.
func TestLSHSubsetOfExhaustive(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	full := SerialSearch(db.Entries, query, opts)
	byEntry := make(map[*Entry]core.Result, len(full))
	for _, h := range full {
		byEntry[h.Entry] = h.Result
	}
	for _, c := range []int{1, 5, 1 << 20} {
		pre := mustSearch(t, db.View(), Query{Func: query, Opts: opts, Prefilter: PrefilterOptions{Candidates: c, Mode: ModeLSH}})
		if len(pre) == 0 {
			t.Fatalf("cap %d: no lsh candidates for a query lifted from the corpus", c)
		}
		if len(pre) > c {
			t.Fatalf("cap %d exceeded: %d hits", c, len(pre))
		}
		for _, h := range pre {
			want, ok := byEntry[h.Entry]
			if !ok {
				t.Fatalf("cap %d: lsh hit not in exhaustive results", c)
			}
			if h.Result != want {
				t.Errorf("cap %d: %s/%s result drifted: %+v vs %+v",
					c, h.Entry.Exe, h.Entry.Name, h.Result, want)
			}
		}
	}
}

// TestLSHFindsSelf: the query is lifted from an indexed executable, so
// its feature set — and therefore its signature — matches a corpus entry
// exactly: it collides in every band, ranks first, and must survive even
// a tiny candidate cap.
func TestLSHFindsSelf(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Candidates: 3, Mode: ModeLSH}})
	found := false
	for _, h := range hits {
		if h.Result.IsMatch {
			found = true
		}
	}
	if !found {
		t.Error("lsh search lost the planted match at cap 3")
	}
}

// TestLSHDeterministicAcrossBackends: the same corpus must yield the same
// lsh candidates and hits whether the signatures were computed in memory,
// persisted by Save with lsh and adopted from the store, or re-persisted from
// a loaded store (a convert round trip) — the build/load/convert
// determinism contract.
func TestLSHDeterministicAcrossBackends(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	pf := PrefilterOptions{Candidates: 7, Mode: ModeLSH}

	hitKey := func(hits []Hit) []string {
		var out []string
		for _, h := range hits {
			out = append(out, h.Entry.Exe+"/"+h.Entry.Name)
		}
		return out
	}

	q := Query{Func: query, Opts: opts, Prefilter: pf}
	memA := mustSearch(t, db.View(), q)
	memB := mustSearch(t, db.View(), q)
	if !reflect.DeepEqual(hitKey(memA), hitKey(memB)) {
		t.Fatal("identical lsh queries returned different hits")
	}

	var buf bytes.Buffer
	if err := db.Save(&buf, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	db2, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Store().HasLSH() {
		t.Fatal("Save with lsh wrote no LSHB section")
	}
	// Store-adopted signatures must be exactly what the in-memory path
	// computes from the same feature sets.
	p := db2.Store().LSHParams()
	if p != minhash.Default {
		t.Fatalf("persisted params %+v, want %+v", p, minhash.Default)
	}
	feats := serialFeatures(t, db)
	for i, fs := range feats {
		want := minhash.Signature(nil, fs, p)
		if !reflect.DeepEqual(db2.Store().LSHSig(i), want) {
			t.Fatalf("entry %d: persisted signature differs from recomputed", i)
		}
	}

	// Query by the same function, resolved in the loaded DB.
	query2 := queryFor(t, db2, corpus.LibFuncName)
	if query2 == nil {
		query2 = query
	}
	storeHits := mustSearch(t, db2.View(), q)
	if !reflect.DeepEqual(hitKey(memA), hitKey(storeHits)) {
		t.Errorf("store-backed lsh hits differ from in-memory:\n mem:   %v\n store: %v",
			hitKey(memA), hitKey(storeHits))
	}

	// Convert round trip: re-serializing the loaded store must reproduce
	// the signature pool byte for byte.
	var buf2 bytes.Buffer
	if err := db2.Save(&buf2, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	db3, err := Load(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db3.Store().LSHSigs(), db2.Store().LSHSigs()) {
		t.Error("convert round trip changed the signature pool")
	}
}

// TestLSHSnapshotParity: prefiltered searches — lsh and scan — of the
// database's view and of a snapshot built from it agree hit for hit.
func TestLSHSnapshotParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 4)
	opts := core.DefaultOptions()
	for _, gen := range []struct {
		name string
		pf   PrefilterOptions
	}{
		{"lsh", PrefilterOptions{Candidates: 9, Mode: ModeLSH}},
		{"scan", PrefilterOptions{Candidates: 9}},
	} {
		want := mustSearch(t, db.View(), Query{Func: query, Opts: opts, Prefilter: gen.pf})
		got := mustSearch(t, snap, Query{Ref: core.Decompose(query, 3), Opts: opts, Prefilter: gen.pf})
		sameHits(t, gen.name, got, want)
	}
}

// TestLSHTelemetry: an lsh query counts lsh_queries and lsh_candidates and
// observes the size of every bucket it probed — one per band, empty ones
// as 0, summing to lsh_band_collisions — into the occupancy histogram, and
// PrefilterRankWith mirrors the same accounting on the degraded path.
func TestLSHTelemetry(t *testing.T) {
	db, _ := buildTestDB(t)
	tel := telemetry.New()
	db.Tel = tel
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 2)

	ranked, err := snap.PrefilterRankWith(context.Background(), core.Decompose(query, 3), 5, ModeLSH)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no lsh candidates for a corpus query")
	}
	if got := tel.Get(telemetry.LSHQueries); got != 1 {
		t.Errorf("lsh_queries = %d, want 1", got)
	}
	if got := tel.Get(telemetry.LSHCandidates); got != uint64(len(ranked)) {
		t.Errorf("lsh_candidates = %d, want %d", got, len(ranked))
	}
	if got := tel.Get(telemetry.LSHBandCollisions); got == 0 {
		t.Error("lsh_band_collisions stayed zero across a colliding query")
	}
	if got := tel.Get(telemetry.LSHFallbacks); got != 0 {
		t.Errorf("lsh_fallbacks = %d on a corpus with signatures", got)
	}
	occ := tel.Snapshot().Histograms["lsh_bucket_occupancy"]
	if occ.Count != uint64(minhash.Default.Bands) {
		t.Errorf("bucket occupancy histogram holds %d observations after one query, want one per band (%d)", occ.Count, minhash.Default.Bands)
	}
	if got := tel.Get(telemetry.LSHBandCollisions); uint64(occ.SumNS) != got {
		t.Errorf("probed bucket sizes sum to %d, lsh_band_collisions = %d", occ.SumNS, got)
	}

	// Scan-mode ranking must leave the lsh counters untouched.
	before := tel.Get(telemetry.LSHQueries)
	if _, err := snap.PrefilterRankWith(context.Background(), core.Decompose(query, 3), 5, ModeScan); err != nil {
		t.Fatal(err)
	}
	if got := tel.Get(telemetry.LSHQueries); got != before {
		t.Errorf("scan ranking bumped lsh_queries to %d", got)
	}
}
