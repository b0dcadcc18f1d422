package index

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minhash"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// encodeVersion serializes db in any historical TRACYIDX format.
func encodeVersion(t *testing.T, db *DB, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch version {
	case 0: // headerless gob
		if err := gob.NewEncoder(&buf).Encode(gobDB{Entries: db.Entries}); err != nil {
			t.Fatal(err)
		}
	case 1: // header + entries-only gob
		buf.Write(append([]byte(indexMagic), 1))
		type gobDBv1 struct{ Entries []*Entry }
		if err := gob.NewEncoder(&buf).Encode(gobDBv1{Entries: db.Entries}); err != nil {
			t.Fatal(err)
		}
	case 2:
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
	case 3:
		if err := db.SaveV3(&buf); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no encoder for v%d", version)
	}
	return buf.Bytes()
}

// hitKey strips the entry pointer out of a Hit so results from different
// loads of the same corpus compare by value.
type hitKey struct {
	Exe, Name, Truth string
	Addr             uint32
	Result           core.Result
}

func hitKeys(hits []Hit) []hitKey {
	out := make([]hitKey, len(hits))
	for i, h := range hits {
		out[i] = hitKey{h.Entry.Exe, h.Entry.Name, h.Entry.Truth, h.Entry.Addr, h.Result}
	}
	return out
}

// TestCrossVersionSearchParity: the same corpus serialized as v0, v1, v2
// and v3 must load and produce bit-identical Snapshot.Search results —
// exhaustive and prefiltered — through both the stream loader and the
// file opener. This is the compatibility contract tracy convert depends
// on.
func TestCrossVersionSearchParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()

	baseSnap := BuildSnapshot(db, []int{opts.K}, 4)
	baseHits, err := baseSnap.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := hitKeys(baseHits)
	basePre, err := baseSnap.SearchDecomposedCtx(context.Background(), core.Decompose(query, opts.K), opts, PrefilterOptions{Enabled: true, Candidates: 7})
	if err != nil {
		t.Fatal(err)
	}
	preBase := hitKeys(basePre)

	dir := t.TempDir()
	for _, version := range []int{0, 1, 2, 3} {
		data := encodeVersion(t, db, version)
		path := filepath.Join(dir, "idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaders := map[string]func() (*DB, error){
			"Load":     func() (*DB, error) { return Load(bytes.NewReader(data)) },
			"OpenFile": func() (*DB, error) { return OpenFile(path) },
		}
		for lname, load := range loaders {
			db2, err := load()
			if err != nil {
				t.Fatalf("v%d %s: %v", version, lname, err)
			}
			if db2.Len() != db.Len() {
				t.Fatalf("v%d %s: %d entries, want %d", version, lname, db2.Len(), db.Len())
			}
			if got := db2.Info().Version; got != version {
				t.Errorf("v%d %s: Info().Version = %d", version, lname, got)
			}
			snap := BuildSnapshot(db2, []int{opts.K}, 4)
			hits, err := snap.Search(query, opts)
			if err != nil {
				t.Fatalf("v%d %s search: %v", version, lname, err)
			}
			if !reflect.DeepEqual(hitKeys(hits), base) {
				t.Errorf("v%d %s: Snapshot.Search diverged from in-memory results", version, lname)
			}
			pre, err := snap.SearchDecomposedCtx(context.Background(), core.Decompose(query, opts.K), opts, PrefilterOptions{Enabled: true, Candidates: 7})
			if err != nil {
				t.Fatalf("v%d %s prefiltered search: %v", version, lname, err)
			}
			if !reflect.DeepEqual(hitKeys(pre), preBase) {
				t.Errorf("v%d %s: prefiltered Snapshot.Search diverged", version, lname)
			}
			// Offline DB.Search must agree too.
			off := db2.Search(query, opts)
			if !reflect.DeepEqual(hitKeys(off), base) {
				t.Errorf("v%d %s: DB.Search diverged from snapshot results", version, lname)
			}
			db2.Close()
		}
	}
}

// TestV3WithoutLSHBFallsBack: a v3 file written before the LSHB section
// existed still loads and serves scan searches bit-identically, and a
// ModeLSH request against it degrades to the scan prefilter — a counted
// lsh_fallbacks telemetry event, never an error. A file that does carry
// LSHB must serve lsh queries without any fallback, and its extra
// section must not perturb scan results.
func TestV3WithoutLSHBFallsBack(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	pfScan := PrefilterOptions{Enabled: true, Candidates: 7}
	pfLSH := PrefilterOptions{Enabled: true, Candidates: 7, Mode: ModeLSH}

	var plain, signed bytes.Buffer
	if err := db.SaveV3(&plain); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveV3LSH(&signed, minhash.Default); err != nil {
		t.Fatal(err)
	}

	load := func(data []byte) (*DB, *Snapshot, *telemetry.Collector) {
		t.Helper()
		db2, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		db2.Tel = tel
		return db2, BuildSnapshot(db2, []int{opts.K}, 4), tel
	}

	dbPlain, snapPlain, telPlain := load(plain.Bytes())
	dbSigned, snapSigned, telSigned := load(signed.Bytes())
	if dbPlain.Store().HasLSH() {
		t.Fatal("SaveV3 output unexpectedly carries LSHB")
	}
	if !dbSigned.Store().HasLSH() {
		t.Fatal("SaveV3LSH output carries no LSHB")
	}

	ref := core.Decompose(query, opts.K)
	scanPlain, err := snapPlain.SearchDecomposedCtx(context.Background(), ref, opts, pfScan)
	if err != nil {
		t.Fatal(err)
	}
	scanSigned, err := snapSigned.SearchDecomposedCtx(context.Background(), ref, opts, pfScan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hitKeys(scanPlain), hitKeys(scanSigned)) {
		t.Error("LSHB section changed scan-mode results")
	}

	// ModeLSH against the unsigned file: same answer as scan, no error,
	// one counted fallback.
	lshPlain, err := snapPlain.SearchDecomposedCtx(context.Background(), ref, opts, pfLSH)
	if err != nil {
		t.Fatalf("lsh search against a pre-LSHB file must not error: %v", err)
	}
	if !reflect.DeepEqual(hitKeys(lshPlain), hitKeys(scanPlain)) {
		t.Error("lsh fallback diverged from the scan prefilter")
	}
	if got := telPlain.Get(telemetry.LSHFallbacks); got == 0 {
		t.Error("fallback was not counted in lsh_fallbacks")
	}
	if got := telPlain.Get(telemetry.LSHQueries); got != 0 {
		t.Errorf("fallback counted as a served lsh query (lsh_queries = %d)", got)
	}

	// ModeLSH against the signed file: served from the persisted
	// signatures, no fallback.
	if _, err := snapSigned.SearchDecomposedCtx(context.Background(), ref, opts, pfLSH); err != nil {
		t.Fatal(err)
	}
	if got := telSigned.Get(telemetry.LSHFallbacks); got != 0 {
		t.Errorf("signed file fell back %d times", got)
	}
	if got := telSigned.Get(telemetry.LSHQueries); got != 1 {
		t.Errorf("lsh_queries = %d, want 1", got)
	}

	// The degraded ranking path falls back the same way.
	if _, err := snapPlain.PrefilterRankWith(context.Background(), ref, 5, ModeLSH); err != nil {
		t.Fatalf("PrefilterRankWith on a pre-LSHB file must not error: %v", err)
	}
}

// TestLSHOverGrownV3: a database opened from a v3+LSHB file and then
// extended with AddImage must serve ModeLSH over the appended functions
// too. The file's signatures cover only its own functions, so the
// snapshot has to hash all entries from their features rather than
// adopt them — and must not count that as a fallback.
func TestLSHOverGrownV3(t *testing.T) {
	_, c := buildTestDB(t)
	base := New()
	last := c.Exes[len(c.Exes)-1]
	for _, e := range c.Exes[:len(c.Exes)-1] {
		if err := base.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := base.SaveV3LSH(&buf, minhash.Default); err != nil {
		t.Fatal(err)
	}
	db, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	db.Tel = tel
	if err := db.AddImage(last.Name, last.Image, last.Truth); err != nil {
		t.Fatal(err)
	}
	appended := db.Entries[db.Len()-1]
	if appended.Exe != last.Name {
		t.Fatalf("last entry is %s/%s, want one of %s", appended.Exe, appended.Name, last.Name)
	}

	snap := BuildSnapshot(db, []int{3}, 2)
	hits, err := snap.SearchDecomposedCtx(context.Background(), core.Decompose(appended.Function(), 3),
		core.DefaultOptions(), PrefilterOptions{Candidates: db.Len() + 1, Mode: ModeLSH})
	if err != nil {
		t.Fatal(err)
	}
	self := false
	for _, h := range hits {
		if h.Entry == appended {
			self = true
			if h.Result.SimilarityScore != 1.0 {
				t.Errorf("appended function scores %v against itself, want 1.0", h.Result.SimilarityScore)
			}
		}
	}
	if !self {
		t.Errorf("appended function %s/%s is not among %d lsh candidates of its own query",
			appended.Exe, appended.Name, len(hits))
	}
	if got := tel.Get(telemetry.LSHFallbacks); got != 0 {
		t.Errorf("lsh_fallbacks = %d, want 0", got)
	}
}

// TestDBSearchDecomposesOnlyCandidates: a candidate-capped DB.SearchCtx
// over a v3 store-backed database decodes and decomposes the candidates
// it compares (plus the query), not the corpus.
func TestDBSearchDecomposesOnlyCandidates(t *testing.T) {
	c, err := corpus.Build(corpus.BuildConfig{
		Seed: 5, ContextCopies: 2, Versions: 2, NoiseExes: 40, FuncsPerExe: 5,
		TargetStmts: 30, FillerStmts: 10, Opt: tinyc.O2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := New()
	for _, e := range c.Exes {
		if err := mem.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Len() < 200 {
		t.Fatalf("corpus has %d functions, want >= 200", mem.Len())
	}
	query := queryFor(t, mem, corpus.LibFuncName)
	var buf bytes.Buffer
	if err := mem.SaveV3LSH(&buf, minhash.Default); err != nil {
		t.Fatal(err)
	}
	db, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	db.Tel = tel
	hits, err := db.SearchCtx(context.Background(), query, core.DefaultOptions(),
		PrefilterOptions{Candidates: 5, Mode: ModeLSH})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("got %d hits, want 1..5", len(hits))
	}
	if got := tel.Get(telemetry.FunctionsDecomposed); got > 6 {
		t.Errorf("functions_decomposed = %d over a %d-function index, want <= 6 (5 candidates + the query)",
			got, db.Len())
	}
}

// TestV3RoundTripEntries: converting to v3 and loading back preserves
// every entry field-for-field, including lazily decoded function bodies.
func TestV3RoundTripEntries(t *testing.T) {
	db, _ := buildTestDB(t)
	var buf bytes.Buffer
	if err := db.SaveV3(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Store() == nil {
		t.Fatal("v3 load did not retain the columnar store")
	}
	for i, e := range db.Entries {
		e2 := db2.Entries[i]
		if e2.Exe != e.Exe || e2.Name != e.Name || e2.Addr != e.Addr || e2.Truth != e.Truth {
			t.Errorf("entry %d metadata changed: %+v", i, e2)
		}
		if e2.Func != nil {
			t.Fatalf("entry %d eagerly materialized; v3 entries must decode lazily", i)
		}
		if !reflect.DeepEqual(e2.Function(), e.Function()) {
			t.Errorf("entry %d function body changed across v3 round trip", i)
		}
	}
	// Feature sets must be adopted from the file's pool, not recomputed.
	want := db.features()
	got := db2.features()
	if !reflect.DeepEqual(got, want) {
		t.Error("v3 feature pool diverged from computed features")
	}
}

// TestOpenFileMmap: OpenFile maps v3 files and reports provenance.
func TestOpenFileMmap(t *testing.T) {
	db, _ := buildTestDB(t)
	path := filepath.Join(t.TempDir(), "idx.v3")
	fd, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveV3(fd); err != nil {
		t.Fatal(err)
	}
	fd.Close()
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	info := db2.Info()
	if info.Version != 3 || info.Path != path || info.Funcs != db.Len() {
		t.Errorf("Info = %+v", info)
	}
	st, _ := os.Stat(path)
	if info.Bytes != st.Size() {
		t.Errorf("Info.Bytes = %d, want %d", info.Bytes, st.Size())
	}
	if !info.Mapped {
		t.Skip("platform without mmap fast path")
	}
}

// TestV3ConvertBackToGob: a store-backed database re-saved as gob loads
// as a self-contained v2 file with identical entries.
func TestV3ConvertBackToGob(t *testing.T) {
	db, _ := buildTestDB(t)
	var v3 bytes.Buffer
	if err := db.SaveV3(&v3); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gobBuf bytes.Buffer
	if err := db2.Save(&gobBuf); err != nil {
		t.Fatal(err)
	}
	db3, err := Load(bytes.NewReader(gobBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if db3.Info().Version != indexVersion {
		t.Errorf("round-tripped format version %d", db3.Info().Version)
	}
	for i, e := range db.Entries {
		if !reflect.DeepEqual(db3.Entries[i].Function(), e.Function()) {
			t.Errorf("entry %d changed across v3→gob round trip", i)
		}
	}
}
