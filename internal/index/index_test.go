package index

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// buildTestDB builds a small corpus and indexes it.
func buildTestDB(t *testing.T) (*DB, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Build(corpus.BuildConfig{
		Seed:          3,
		ContextCopies: 3,
		Versions:      2,
		NoiseExes:     2,
		FuncsPerExe:   3,
		TargetStmts:   40,
		FillerStmts:   15,
		Opt:           tinyc.O2,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	for _, e := range c.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	return db, c
}

// queryFor lifts the planted query function out of one corpus executable.
func queryFor(t *testing.T, db *DB, truthName string) *prep.Function {
	t.Helper()
	for _, e := range db.Entries {
		if e.Truth == truthName {
			return mustDecode(t, e)
		}
	}
	t.Fatalf("no entry with truth %q", truthName)
	return nil
}

// mustDecode returns e's lifted function, failing the test when it cannot
// be decoded.
func mustDecode(tb testing.TB, e *Entry) *prep.Function {
	tb.Helper()
	fn, err := e.Decode()
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// mustSearch runs q on s under a background context,
// failing the test on an error.
func mustSearch(tb testing.TB, s *Snapshot, q Query) []Hit {
	tb.Helper()
	a, err := s.Search(context.Background(), q)
	if err != nil {
		tb.Fatal(err)
	}
	return a.Hits
}

// sameHits fails the test unless got equals want entry for entry with
// bit-identical Results.
func sameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Entry != want[i].Entry || got[i].Result != want[i].Result {
			t.Errorf("%s hit %d: %s/%s %+v, want %s/%s %+v", label, i,
				got[i].Entry.Exe, got[i].Entry.Name, got[i].Result,
				want[i].Entry.Exe, want[i].Entry.Name, want[i].Result)
		}
	}
}

func TestSearchFindsAllContexts(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions()})
	if len(hits) != db.Len() {
		t.Fatalf("got %d hits, want %d", len(hits), db.Len())
	}
	// The top ContextCopies hits must be the planted library functions.
	for i := 0; i < 3; i++ {
		if hits[i].Entry.Truth != corpus.LibFuncName {
			t.Errorf("hit %d is %q (score %.2f), want %s", i,
				hits[i].Entry.Truth, hits[i].Result.SimilarityScore, corpus.LibFuncName)
		}
		if !hits[i].Result.IsMatch {
			t.Errorf("hit %d not classified as match (score %.2f)", i,
				hits[i].Result.SimilarityScore)
		}
	}
	// Everything else should score clearly below.
	for _, h := range hits[3:] {
		if h.Result.IsMatch {
			t.Errorf("false positive: %s/%s scored %.2f", h.Entry.Exe,
				h.Entry.Truth, h.Result.SimilarityScore)
		}
	}
}

func TestSearchFindsVersions(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.AppFuncName)
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions()})
	for i := 0; i < 2; i++ {
		if hits[i].Entry.Truth != corpus.AppFuncName {
			t.Errorf("hit %d is %q, want %s (score %.2f)", i, hits[i].Entry.Truth,
				corpus.AppFuncName, hits[i].Result.SimilarityScore)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, _ := buildTestDB(t)
	db2, err := Load(saved(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("loaded %d entries, want %d", db2.Len(), db.Len())
	}
	// Every entry must survive field-for-field, including function bodies.
	for i, e := range db.Entries {
		e2 := db2.Entries[i]
		if e2.Exe != e.Exe || e2.Name != e.Name || e2.Addr != e.Addr || e2.Truth != e.Truth {
			t.Errorf("entry %d metadata changed: %+v vs %+v", i, e2, e)
		}
		fn2, err := e2.Decode()
		if err != nil {
			t.Fatalf("entry %d lost its function: %v", i, err)
		}
		if fn2.NumBlocks() != e.fn.NumBlocks() {
			t.Errorf("entry %d: %d blocks after load, want %d", i,
				fn2.NumBlocks(), e.fn.NumBlocks())
			continue
		}
		for bi, b := range e.fn.Graph.Blocks {
			b2 := fn2.Graph.Blocks[bi]
			if len(b2.Insts) != len(b.Insts) {
				t.Errorf("entry %d block %d: %d insts, want %d", i, bi,
					len(b2.Insts), len(b.Insts))
			}
		}
	}
	// The loaded DB must search identically.
	query := queryFor(t, db, corpus.LibFuncName)
	hits := mustSearch(t, db2.View(), Query{Func: query, Opts: core.DefaultOptions()})
	if hits[0].Entry.Truth != corpus.LibFuncName {
		t.Errorf("loaded DB search broken: top hit %q", hits[0].Entry.Truth)
	}
}

// TestSaveOptions: Save refuses a negative shard count and a shard out of
// range before it writes a byte, and a one-way split writes the file the
// zero options write.
func TestSaveOptions(t *testing.T) {
	db, _ := buildTestDB(t)
	for _, o := range []SaveOptions{{Shards: -1}, {Shard: -1, Shards: 2}, {Shard: 2, Shards: 2}} {
		var buf bytes.Buffer
		if err := db.Save(&buf, o); err == nil || buf.Len() != 0 {
			t.Errorf("Save(%+v) = %v after %d bytes, want a refusal before any", o, err, buf.Len())
		}
	}
	var one, whole bytes.Buffer
	if err := db.Save(&one, SaveOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&whole, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), whole.Bytes()) {
		t.Errorf("Save with Shards 1 wrote %d bytes unlike the %d of the zero options", one.Len(), whole.Len())
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load(garbage) should fail")
	}
}

// TestLoadTruncated: a valid index cut off mid-way must produce an
// error, not a silently shortened database.
func TestLoadTruncated(t *testing.T) {
	db, _ := buildTestDB(t)
	full := saved(t, db).Bytes()
	for _, frac := range []int{2, 4, 10} {
		cut := full[:len(full)/frac]
		if _, err := Load(bytes.NewReader(cut)); err == nil {
			t.Errorf("Load(first 1/%d of stream) should fail", frac)
		}
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load(empty) should fail")
	}
}

// TestSearchRecordsTelemetry: a collector hung on the DB is picked up by
// a search of its view when the options carry none.
func TestSearchRecordsTelemetry(t *testing.T) {
	db, _ := buildTestDB(t)
	db.Tel = telemetry.New()
	query := queryFor(t, db, corpus.LibFuncName)
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions()})
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if got := db.Tel.Get(telemetry.Queries); got != 1 {
		t.Errorf("queries = %d, want 1", got)
	}
	if got := db.Tel.Get(telemetry.Compares); got != uint64(db.Len()) {
		t.Errorf("compares = %d, want %d", got, db.Len())
	}
	snap := db.Tel.Snapshot()
	if snap.Histograms["query_latency"].Count != 1 {
		t.Error("query latency not recorded")
	}
	if snap.Histograms["compare_latency"].Count == 0 {
		t.Error("compare latency not recorded")
	}
}

// mustDecomposed is db.Decomposed on a database whose functions all load.
func mustDecomposed(tb testing.TB, db *DB, k int) []*core.Decomposed {
	tb.Helper()
	ds, err := db.Decomposed(k)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func TestDecomposedCache(t *testing.T) {
	db, _ := buildTestDB(t)
	a := mustDecomposed(t, db, 3)
	b := mustDecomposed(t, db, 3)
	if a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Error("decomposition not cached")
	}
	c := mustDecomposed(t, db, 2)
	if len(c) != len(a) {
		t.Error("per-k decompositions misaligned")
	}
}

func TestAddImageInvalidatesCache(t *testing.T) {
	db, c := buildTestDB(t)
	before := len(mustDecomposed(t, db, 3))
	if err := db.AddImage("again", c.Exes[0].Image, nil); err != nil {
		t.Fatal(err)
	}
	after := len(mustDecomposed(t, db, 3))
	if after <= before {
		t.Errorf("cache not invalidated: %d -> %d", before, after)
	}
}

func TestAddImageBadData(t *testing.T) {
	db := New()
	if err := db.AddImage("x", []byte("not elf"), nil); err == nil {
		t.Error("AddImage(garbage) should fail")
	}
}

// TestConcurrentSearches runs several searches in parallel on a shared DB
// (the decomposition cache must be safe once built).
func TestConcurrentSearches(t *testing.T) {
	db, _ := buildTestDB(t)
	db.Decomposed(3) // prebuild before sharing
	queries := []*prep.Function{
		queryFor(t, db, corpus.LibFuncName),
		queryFor(t, db, corpus.AppFuncName),
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := db.View().Search(context.Background(), Query{Func: queries[i%2], Opts: core.DefaultOptions()})
			if err != nil || len(a.Hits) != db.Len() {
				errs <- fmt.Sprintf("%d hits, %v", len(a.Hits), err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
