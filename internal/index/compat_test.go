package index

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

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

// parityCorpus is the corpus the cross-version parity test builds in
// memory and saves.
var parityCorpus = corpus.BuildConfig{
	Seed: 7, ContextCopies: 2, Versions: 2, NoiseExes: 1, FuncsPerExe: 3,
	TargetStmts: 12, FillerStmts: 6, Opt: tinyc.O2,
}

// parityMemDB builds parityCorpus in memory.
func parityMemDB(t testing.TB) *DB {
	t.Helper()
	c, err := corpus.Build(parityCorpus)
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	for _, e := range c.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// gobIndex returns an index in gob format v as an older tracy wrote it: a
// gob stream of entries, headerless for v0 and behind the TRACYIDX prelude
// with version v for v1 and v2.
func gobIndex(t testing.TB, v int) []byte {
	t.Helper()
	type entry struct {
		Exe, Name string
		Addr      uint32
		Truth     string
	}
	var buf bytes.Buffer
	if v > 0 {
		buf.WriteString(idxfile.Magic)
		buf.WriteByte(byte(v))
	}
	payload := struct{ Entries []*entry }{[]*entry{{"a.bin", "sub_8048060", 0x8048060, "f"}, {"b.bin", "main", 0x8048100, ""}}}
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refusesGob fails the test unless err refuses a gob index of format v
// without decoding it: it wraps ErrLegacy, names tracy convert and is no
// gob decode error; a v1 or v2 refusal names the format and the tracy that
// still converts it, and a v0 one — a file without the prelude, which
// cannot be told from a foreign file — is ErrLegacy's own text.
func refusesGob(t *testing.T, what string, v int, err error) {
	t.Helper()
	switch {
	case !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), "tracy convert") || strings.Contains(err.Error(), "gob:"):
		t.Errorf("%s of a v%d gob index: %v, want ErrLegacy naming tracy convert", what, v, err)
	case v > 0 && !strings.Contains(err.Error(), fmt.Sprintf("format v%d is a gob index; only a tracy built before", v)):
		t.Errorf("%s of a v%d gob index: %v, want the format and the tracy that converts it named", what, v, err)
	case v == 0 && !strings.HasSuffix(err.Error(), ": "+ErrLegacy.Error()):
		t.Errorf("%s of a v0 gob index: %v, want ErrLegacy's own text", what, err)
	}
}

// refusedEverywhere checks that Load and OpenFile each refuse the gob
// index of format v, Load whole and cut to its first bytes.
func refusedEverywhere(t *testing.T, v int) {
	t.Helper()
	data := gobIndex(t, v)
	path := filepath.Join(t.TempDir(), fmt.Sprintf("idx-v%d", v))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	refusesGob(t, "OpenFile", v, err)
	for _, cut := range []int{len(data), len(idxfile.Magic) + 1} {
		_, err = Load(bytes.NewReader(data[:cut]))
		refusesGob(t, fmt.Sprintf("Load (%d bytes)", cut), v, err)
	}
}

// TestLoadHeaderlessV0: files written before the header existed are a
// bare gob stream. Nothing reads gob any more, and without the prelude
// such a file cannot be told from a foreign one: every reader refuses it
// with ErrLegacy's own text.
func TestLoadHeaderlessV0(t *testing.T) { refusedEverywhere(t, 0) }

// TestLoadV1Compat: a v1-headered gob index (entries only) is refused by
// every reader on its prelude alone, with an error naming the format and
// the tracy that still converts it.
func TestLoadV1Compat(t *testing.T) { refusedEverywhere(t, 1) }

// TestSaveLoadV2Features: a v2 gob index (entries and a feature table) is
// refused as v1 is, before any of its payload — the feature table
// included — is decoded.
func TestSaveLoadV2Features(t *testing.T) { refusedEverywhere(t, 2) }

// TestCrossVersionSearchParity: save, then parity. The v4 file the corpus
// saves to opens, through Load and OpenFile, to bit-identical search
// results — of a snapshot, exhaustive and prefiltered, and of the
// database's view — equal to those of the database built in memory from
// the corpus seed. Every older format is refused (TestLegacyRefused).
func TestCrossVersionSearchParity(t *testing.T) {
	mem := parityMemDB(t)
	query := queryFor(t, mem, corpus.LibFuncName)
	opts := core.DefaultOptions()
	pf := PrefilterOptions{Enabled: true, Candidates: 7}
	search := func(db *DB) (exhaustive, prefiltered []hitKey) {
		t.Helper()
		snap := BuildSnapshot(db, []int{opts.K}, 4)
		hits := mustSearch(t, snap, Query{Func: query, Opts: opts})
		pre := mustSearch(t, snap, Query{Ref: core.Decompose(query, opts.K), Opts: opts, Prefilter: pf})
		if off := hitKeys(mustSearch(t, db.View(), Query{Func: query, Opts: opts})); !reflect.DeepEqual(off, hitKeys(hits)) {
			t.Error("the database's view diverged from snapshot results")
		}
		return hitKeys(hits), hitKeys(pre)
	}
	base, preBase := search(mem)

	var buf bytes.Buffer
	if err := mem.Save(&buf, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mem.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaders := map[string]func() (*DB, error){
		"Load":     func() (*DB, error) { return Load(bytes.NewReader(buf.Bytes())) },
		"OpenFile": func() (*DB, error) { return OpenFile(path) },
	}
	for lname, open := range loaders {
		db, err := open()
		if err != nil {
			t.Fatalf("%s: %v", lname, err)
		}
		if db.Len() != mem.Len() || db.Info().Version != idxfile.Version {
			t.Fatalf("%s: %d entries of v%d, want %d of v%d", lname, db.Len(), db.Info().Version, mem.Len(), idxfile.Version)
		}
		hits, pre := search(db)
		if !reflect.DeepEqual(hits, base) {
			t.Errorf("%s: Snapshot.Search diverged from the in-memory database", lname)
		}
		if !reflect.DeepEqual(pre, preBase) {
			t.Errorf("%s: prefiltered Snapshot.Search diverged from the in-memory database", lname)
		}
		db.Close()
	}
}

// TestLegacyRefused: Load and OpenFile refuse every older format, whole or
// cut short, before decoding anything: each gob index, and a TRACYIDX v3
// prelude — here in front of a v4 file's body, which would otherwise
// parse. The error wraps ErrLegacy, names tracy convert and the tracy that
// still converts the format, and is no gob decode error or corruption.
func TestLegacyRefused(t *testing.T) {
	dir := t.TempDir()
	db, _ := buildTestDB(t)
	var v3 bytes.Buffer
	if err := db.Save(&v3, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	v3.Bytes()[len(idxfile.Magic)] = 3
	for v := 0; v <= 3; v++ {
		data := v3.Bytes()
		if v < 3 {
			data = gobIndex(t, v)
		}
		path := filepath.Join(dir, fmt.Sprintf("idx-v%d", v))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLoad := Load(bytes.NewReader(data))
		_, errCut := Load(bytes.NewReader(data[:len(data)/3]))
		_, errOpen := OpenFile(path)
		for _, err := range []error{errLoad, errCut, errOpen} {
			if !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), "tracy convert") || strings.Contains(err.Error(), "gob:") || idxfile.IsCorrupt(err) {
				t.Errorf("v%d: refused with %v, want ErrLegacy naming tracy convert", v, err)
			}
			if v == 3 && !strings.Contains(err.Error(), "format v3 is a TRACYIDX v3 index; only a tracy built before") {
				t.Errorf("v3: refused with %v, want the format and the tracy that converts it named", err)
			}
		}
	}
}

// TestNoLSHBFallsBack: a file written without the LSHB section
// still loads and serves scan searches bit-identically, and a
// ModeLSH request against it degrades to the scan prefilter — a counted
// lsh_fallbacks telemetry event, never an error. A file that does carry
// LSHB must serve lsh queries without any fallback, and its extra
// section must not perturb scan results.
func TestNoLSHBFallsBack(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	pfScan := PrefilterOptions{Enabled: true, Candidates: 7}
	pfLSH := PrefilterOptions{Enabled: true, Candidates: 7, Mode: ModeLSH}

	var plain, signed bytes.Buffer
	if err := db.Save(&plain, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&signed, SaveOptions{LSH: &minhash.Default}); err != nil {
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
		t.Fatal("Save without lsh wrote LSHB")
	}
	if !dbSigned.Store().HasLSH() {
		t.Fatal("Save with lsh wrote no LSHB")
	}

	ref := core.Decompose(query, opts.K)
	scanPlain := mustSearch(t, snapPlain, Query{Ref: ref, Opts: opts, Prefilter: pfScan})
	scanSigned := mustSearch(t, snapSigned, Query{Ref: ref, Opts: opts, Prefilter: pfScan})
	if !reflect.DeepEqual(hitKeys(scanPlain), hitKeys(scanSigned)) {
		t.Error("LSHB section changed scan-mode results")
	}

	// ModeLSH against the unsigned file: same answer as scan, no error,
	// one counted fallback.
	lshPlain, err := snapPlain.Search(context.Background(), Query{Ref: ref, Opts: opts, Prefilter: pfLSH})
	if err != nil {
		t.Fatalf("lsh search against a pre-LSHB file must not error: %v", err)
	}
	if !reflect.DeepEqual(hitKeys(lshPlain.Hits), hitKeys(scanPlain)) {
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
	mustSearch(t, snapSigned, Query{Ref: ref, Opts: opts, Prefilter: pfLSH})
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

// TestLSHOverGrownIndex: a database opened from an index file with LSHB and then
// extended with AddImage must serve ModeLSH over the appended functions
// too. The file's signatures cover only its own functions, so the
// snapshot has to hash all entries from their features rather than
// adopt them — and must not count that as a fallback.
func TestLSHOverGrownIndex(t *testing.T) {
	_, c := buildTestDB(t)
	base := New()
	last := c.Exes[len(c.Exes)-1]
	for _, e := range c.Exes[:len(c.Exes)-1] {
		if err := base.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := base.Save(&buf, SaveOptions{LSH: &minhash.Default}); err != nil {
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
	hits := mustSearch(t, snap, Query{Func: mustDecode(t, appended), Opts: core.DefaultOptions(),
		Prefilter: PrefilterOptions{Candidates: db.Len() + 1, Mode: ModeLSH}})
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

// TestDBSearchDecomposesOnlyCandidates: a candidate-capped search of the
// view of a store-backed database decomposes the candidates
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
	if err := mem.Save(&buf, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	db, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	db.Tel = tel
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Candidates: 5, Mode: ModeLSH}})
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("got %d hits, want 1..5", len(hits))
	}
	if got := tel.Get(telemetry.FunctionsDecomposed); got > 6 {
		t.Errorf("functions_decomposed = %d over a %d-function index, want <= 6 (5 candidates + the query)",
			got, db.Len())
	}
}

// TestRoundTripEntries: saving to an index file and loading back preserves
// every entry field-for-field, including lazily decoded function bodies.
func TestRoundTripEntries(t *testing.T) {
	db, _ := buildTestDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Store() == nil {
		t.Fatal("the load did not retain the columnar store")
	}
	for i, e := range db.Entries {
		e2 := db2.Entries[i]
		if e2.Exe != e.Exe || e2.Name != e.Name || e2.Addr != e.Addr || e2.Truth != e.Truth {
			t.Errorf("entry %d metadata changed: %+v", i, e2)
		}
		if e2.fn != nil {
			t.Fatalf("entry %d eagerly materialized; store-backed entries must decode lazily", i)
		}
		if !reflect.DeepEqual(mustDecode(t, e2), e.fn) {
			t.Errorf("entry %d function body changed across the file round trip", i)
		}
	}
	// The file's feature pool holds the features computed from each function.
	want := serialFeatures(t, db)
	got := make([][]uint64, db2.Len())
	for i := range got {
		got[i] = db2.Store().Features(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the file's feature pool diverged from computed features")
	}
}

// TestOpenFileMmap: OpenFile maps index files and reports provenance.
func TestOpenFileMmap(t *testing.T) {
	db, _ := buildTestDB(t)
	path := filepath.Join(t.TempDir(), "idx.v4")
	fd, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(fd, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	fd.Close()
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	info := db2.Info()
	if info.Version != idxfile.Version || info.Path != path || info.Funcs != db.Len() {
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
