package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
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

// legacyCorpus is the corpus the gob fixtures under testdata/legacy hold:
// v0.gob (headerless), v1.gob (entries only) and v2.gob (entries and
// features), each written by the last release that wrote gob.
var legacyCorpus = corpus.BuildConfig{
	Seed: 7, ContextCopies: 2, Versions: 2, NoiseExes: 1, FuncsPerExe: 3,
	TargetStmts: 12, FillerStmts: 6, Opt: tinyc.O2,
}

// legacyFixture reads the gob index of format version v.
func legacyFixture(t testing.TB, v int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", fmt.Sprintf("v%d.gob", v)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyMemDB builds in memory the database the gob fixtures hold.
func legacyMemDB(t testing.TB) *DB {
	t.Helper()
	c, err := corpus.Build(legacyCorpus)
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

// loadLegacyFixture reads the gob fixture of format version v with the
// legacy reader, after checking its prelude: none for v0, the TRACYIDX
// magic and v for v1 and v2.
func loadLegacyFixture(t testing.TB, v int) *DB {
	t.Helper()
	data := legacyFixture(t, v)
	headered := bytes.HasPrefix(data, []byte(idxfile.Magic))
	if v == 0 && headered || v > 0 && (!headered || int(data[len(idxfile.Magic)]) != v) {
		t.Fatalf("fixture v%d has the wrong prelude %.9q", v, data)
	}
	db, err := LoadLegacy(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v%d legacy load: %v", v, err)
	}
	return db
}

// TestLoadHeaderlessV0: files written before the header existed are a
// bare gob stream; the legacy reader loads them entry for entry as the
// database the same corpus builds in memory.
func TestLoadHeaderlessV0(t *testing.T) {
	mem := legacyMemDB(t)
	db := loadLegacyFixture(t, 0)
	if db.Len() != mem.Len() {
		t.Fatalf("v0 load: %d entries, want %d", db.Len(), mem.Len())
	}
	for i, e := range db.Entries {
		m := mem.Entries[i]
		if e.Exe != m.Exe || e.Name != m.Name || e.Addr != m.Addr || e.Truth != m.Truth {
			t.Errorf("entry %d: %s %s@%#x (%q), want %s %s@%#x (%q)", i, e.Exe, e.Name, e.Addr, e.Truth, m.Exe, m.Name, m.Addr, m.Truth)
		}
		if !reflect.DeepEqual(e.Function(), m.Function()) {
			t.Errorf("entry %d (%s %s): lifted function differs from the in-memory one", i, e.Exe, e.Name)
		}
	}
}

// TestLoadV1Compat: a v1-headered index (entries only, no feature table)
// still loads through the legacy reader, searches, and serves prefiltered
// queries — the features are recomputed, not deserialized.
func TestLoadV1Compat(t *testing.T) {
	db := loadLegacyFixture(t, 1)
	if want := legacyMemDB(t).Len(); db.Len() != want {
		t.Fatalf("v1 load: %d entries, want %d", db.Len(), want)
	}
	if db.feats != nil {
		t.Error("v1 payload cannot carry features; expected lazy recompute")
	}
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	exhaustive := mustSearch(t, db.View(), Query{Func: query, Opts: opts})
	if len(exhaustive) != db.Len() {
		t.Fatalf("v1 search returned %d hits, want %d", len(exhaustive), db.Len())
	}
	pre := mustSearch(t, db.View(), Query{Func: query, Opts: opts, Prefilter: PrefilterOptions{Enabled: true, Candidates: 5}})
	if len(pre) == 0 || len(pre) > 5 {
		t.Fatalf("v1 prefiltered search returned %d hits", len(pre))
	}
}

// TestSaveLoadV2Features: the feature table a v2 file carries is not
// trusted; the legacy reader recomputes it equal to the in-memory
// database's, and converting to v4 persists it so Load views the stored
// sets verbatim.
func TestSaveLoadV2Features(t *testing.T) {
	want := legacyMemDB(t).features()
	db := loadLegacyFixture(t, 2)
	if db.feats != nil {
		t.Fatal("legacy reader adopted the v2 feature table")
	}
	if !reflect.DeepEqual(db.features(), want) {
		t.Fatal("features recomputed from the v2 entries differ from the in-memory ones")
	}
	var buf bytes.Buffer
	if err := db.SaveV3(&buf); err != nil {
		t.Fatal(err)
	}
	cur, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i, e := range cur.Entries {
		if e.src == nil {
			t.Fatalf("entry %d of the converted index is not store-backed", i)
		}
	}
	if !reflect.DeepEqual(cur.features(), want) {
		t.Error("features stored in the converted file differ from the recomputed ones")
	}
}

// TestCrossVersionSearchParity: convert, then parity. Every gob fixture
// read by the legacy reader and saved as v4, and the v4 file the same
// corpus saves to directly, open to bit-identical search results — of a
// snapshot, exhaustive and prefiltered, and of the database's view — equal to those of
// the database built in memory from the corpus seed. This is the migration
// contract tracy convert depends on.
func TestCrossVersionSearchParity(t *testing.T) {
	mem := legacyMemDB(t)
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

	dir := t.TempDir()
	sources := map[string]func() (*DB, error){"mem": func() (*DB, error) { return mem, nil }}
	for v := 0; v <= 2; v++ {
		data := legacyFixture(t, v)
		sources[fmt.Sprintf("v%d", v)] = func() (*DB, error) { return LoadLegacy(bytes.NewReader(data)) }
	}
	for name, load := range sources {
		src, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := src.SaveV3(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(dir, name+".idx")
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
				t.Fatalf("%s %s: %v", name, lname, err)
			}
			if db.Len() != mem.Len() || db.Info().Version != idxfile.Version {
				t.Fatalf("%s %s: %d entries of v%d, want %d of v%d", name, lname, db.Len(), db.Info().Version, mem.Len(), idxfile.Version)
			}
			hits, pre := search(db)
			if !reflect.DeepEqual(hits, base) {
				t.Errorf("%s %s: Snapshot.Search diverged from the in-memory database", name, lname)
			}
			if !reflect.DeepEqual(pre, preBase) {
				t.Errorf("%s %s: prefiltered Snapshot.Search diverged from the in-memory database", name, lname)
			}
			db.Close()
		}
	}
}

// TestLegacyRefused: Load and OpenFile refuse every gob fixture, whole or
// cut short, before decoding anything: the error wraps ErrLegacy, names
// tracy convert and is no gob decode error. The legacy reader in turn
// refuses a v4 file, a foreign one and an empty one.
func TestLegacyRefused(t *testing.T) {
	dir := t.TempDir()
	for v := 0; v <= 2; v++ {
		data := legacyFixture(t, v)
		path := filepath.Join(dir, fmt.Sprintf("idx-v%d", v))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLoad := Load(bytes.NewReader(data))
		_, errCut := Load(bytes.NewReader(data[:len(data)/3]))
		_, errOpen := OpenFile(path)
		for _, err := range []error{errLoad, errCut, errOpen} {
			if !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), "tracy convert") || strings.Contains(err.Error(), "gob:") {
				t.Errorf("v%d: refused with %v, want ErrLegacy naming tracy convert", v, err)
			}
		}
	}
	db, _ := buildTestDB(t)
	var cur bytes.Buffer
	if err := db.SaveV3(&cur); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{cur.Bytes(), []byte("PK\x03\x04 a zip"), nil} {
		if _, err := LoadLegacy(bytes.NewReader(data)); err == nil {
			t.Errorf("LoadLegacy accepted %.12q", data)
		}
	}
}

// v3Corpus is the corpus testdata/legacy/v3.idx holds: 13 functions,
// written with the PACK, LSHB and LSHT sections by the last release that
// wrote TRACYIDX v3.
var v3Corpus = corpus.BuildConfig{
	Seed: 7, ContextCopies: 2, Versions: 1, NoiseExes: 1, FuncsPerExe: 2,
	TargetStmts: 8, FillerStmts: 4, Opt: tinyc.O2,
}

// TestV3ConvertParity: convert, then parity, for TRACYIDX v3. The
// checked-in v3 file, and the same file without its PACK section, are
// refused by Load and OpenFile with ErrLegacy naming tracy convert; the
// legacy reader reads each entry for entry as the database the corpus
// builds in memory; and saved as v4 and opened, each answers exhaustive,
// scan and lsh searches hit for hit as that database does.
func TestV3ConvertParity(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", "v3.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if v := idxfile.SniffVersion(data); v != 3 {
		t.Fatalf("fixture is v%d", v)
	}
	c, err := corpus.Build(v3Corpus)
	if err != nil {
		t.Fatal(err)
	}
	mem := New()
	for _, e := range c.Exes {
		if err := mem.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions()
	search := func(db *DB) [][]hitKey {
		t.Helper()
		snap := BuildSnapshot(db, []int{opts.K}, 2)
		var out [][]hitKey
		for _, e := range mem.Entries {
			ref := core.Decompose(e.Func, opts.K)
			for _, pf := range []PrefilterOptions{{}, {Enabled: true, Candidates: 5}, {Candidates: 5, Mode: ModeLSH}} {
				hits := mustSearch(t, snap, Query{Ref: ref, Opts: opts, Prefilter: pf})
				out = append(out, hitKeys(hits))
			}
		}
		return out
	}
	want := search(mem)

	dir := t.TempDir()
	for name, v3 := range map[string][]byte{"pack": data, "nopack": withoutSection(t, data, idxfile.SecPACK)} {
		path := filepath.Join(dir, name+".idx")
		if err := os.WriteFile(path, v3, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLoad := Load(bytes.NewReader(v3))
		_, errOpen := OpenFile(path)
		for _, err := range []error{errLoad, errOpen} {
			if !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), "tracy convert") {
				t.Errorf("%s: refused with %v, want ErrLegacy naming tracy convert", name, err)
			}
		}
		legacy, err := LoadLegacy(bytes.NewReader(v3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if legacy.Len() != mem.Len() {
			t.Fatalf("%s: %d entries, want %d", name, legacy.Len(), mem.Len())
		}
		for i, e := range legacy.Entries {
			m := mem.Entries[i]
			if e.Exe != m.Exe || e.Name != m.Name || e.Addr != m.Addr || e.Truth != m.Truth || !reflect.DeepEqual(e.Func, m.Func) {
				t.Fatalf("%s: entry %d (%s/%s) differs from the in-memory one", name, i, m.Exe, m.Name)
			}
		}
		var buf bytes.Buffer
		if err := legacy.SaveV3LSH(&buf, minhash.Default); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, name+".idx")
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenFile(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := db.Store().Verify(); err != nil {
			t.Errorf("%s: converted file fails Verify: %v", name, err)
		}
		if got := search(db); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the converted file answers differently from the in-memory database", name)
		}
		db.Close()
	}
}

// TestV3RejectsCorruptRecords: the legacy reader checks every range and id
// of a v3 file's BLCK, INST, OPND and MEMT records before it follows one,
// so a file wrong in any of them is refused with an error, not read as
// something else and not a panic.
func TestV3RejectsCorruptRecords(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", "v3.idx"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, secs, _, err := idxfile.ReadSections(data)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]int{}
	for _, s := range secs {
		at[s.Name] = int(s.Offset)
	}
	// The first OPND record of a direct operand and of a memory operand
	// (byte 3 holds the flags), and the first MEMT record.
	opnd := func(mem bool) int {
		for o := at["OPND"]; ; o += 24 {
			if data[o+3]&2 != 0 == mem {
				return o
			}
		}
	}
	direct, memOp, term := opnd(false), opnd(true), at["MEMT"]
	put32 := func(at int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) }
	}
	symArg := func(kind, id int) func([]byte) {
		return func(b []byte) {
			b[kind] = byte(asm.KindSym)
			binary.LittleEndian.PutUint32(b[id:], 1<<20)
		}
	}
	for name, mutate := range map[string]func([]byte){
		"instruction range overruns INST": put32(at["BLCK"]+8, 1<<20),
		"operand range overruns OPND":     put32(at["INST"]+8, 1<<20),
		"mnemonic id out of range":        put32(at["INST"], 1<<20),
		"symbol id out of range":          symArg(direct, direct+4),
		"bad argument kind":               func(b []byte) { b[direct] = 0x7f },
		"memory operand without terms":    put32(memOp+20, 0),
		"bad memory operator":             func(b []byte) { b[term] = 0xff },
		"bad term kind":                   func(b []byte) { b[term+1] = 0x7f },
		"term symbol id out of range":     symArg(term+1, term+4),
	} {
		mut := append([]byte(nil), data...)
		mutate(mut)
		if db, err := LoadLegacy(bytes.NewReader(mut)); err == nil {
			t.Errorf("%s: read as %d entries, want an error", name, db.Len())
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: refused with %v, want a corruption error", name, err)
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

// TestLSHOverGrownV3: a database opened from an index file with LSHB and then
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
	hits := mustSearch(t, snap, Query{Func: appended.Function(), Opts: core.DefaultOptions(),
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
	if err := mem.SaveV3LSH(&buf, minhash.Default); err != nil {
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
		t.Fatal("the load did not retain the columnar store")
	}
	for i, e := range db.Entries {
		e2 := db2.Entries[i]
		if e2.Exe != e.Exe || e2.Name != e.Name || e2.Addr != e.Addr || e2.Truth != e.Truth {
			t.Errorf("entry %d metadata changed: %+v", i, e2)
		}
		if e2.Func != nil {
			t.Fatalf("entry %d eagerly materialized; store-backed entries must decode lazily", i)
		}
		if !reflect.DeepEqual(e2.Function(), e.Function()) {
			t.Errorf("entry %d function body changed across the file round trip", i)
		}
	}
	// Feature sets must be adopted from the file's pool, not recomputed.
	want := db.features()
	got := db2.features()
	if !reflect.DeepEqual(got, want) {
		t.Error("the file's feature pool diverged from computed features")
	}
}

// TestOpenFileMmap: OpenFile maps index files and reports provenance.
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
