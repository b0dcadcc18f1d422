package index

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/tinyc"
)

// campaignExes compiles the seed-1 campaign in the shape of the ingest
// workload, funcs functions in 32-function images.
func campaignExes(tb testing.TB, funcs int) []corpus.Executable {
	tb.Helper()
	var exes []corpus.Executable
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1, Funcs: funcs, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { exes = append(exes, e); return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return exes
}

// addImages indexes exes into db in order.
func addImages(tb testing.TB, db *DB, exes []corpus.Executable) {
	tb.Helper()
	for _, e := range exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			tb.Fatal(err)
		}
	}
}

// saveKinds are the saves a database streams its features into, by name.
var saveKinds = []struct {
	name string
	o    SaveOptions
}{
	{"whole", SaveOptions{}},
	{"whole, lsh", SaveOptions{LSH: &minhash.Default}},
	{"shard 0/2, lsh", SaveOptions{Shard: 0, Shards: 2, LSH: &minhash.Default}},
	{"shard 1/2, lsh", SaveOptions{Shard: 1, Shards: 2, LSH: &minhash.Default}},
}

// saveAll runs every save kind on db, in order, and returns the files.
func saveAll(tb testing.TB, db *DB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	for _, k := range saveKinds {
		var buf bytes.Buffer
		if err := db.Save(&buf, k.o); err != nil {
			tb.Fatalf("%s: %v", k.name, err)
		}
		out[k.name] = buf.Bytes()
	}
	return out
}

// prefiltered runs one lsh and one scan search on db's view, by the first
// entry, which makes the view seal the entries into an index file.
func prefiltered(tb testing.TB, db *DB) {
	tb.Helper()
	for _, mode := range []PrefilterMode{ModeLSH, ModeScan} {
		q := Query{Func: db.Entries[0].fn, Opts: core.DefaultOptions(), Limit: 3,
			Prefilter: PrefilterOptions{Candidates: 8, Mode: mode}}
		if hits := mustSearch(tb, db.View(), q); len(hits) == 0 {
			tb.Fatalf("%s search found nothing", mode)
		}
	}
}

// serialFeatures returns the feature sets of db's entries, each computed
// from its function on the caller's goroutine.
func serialFeatures(tb testing.TB, db *DB) [][]uint64 {
	tb.Helper()
	out := make([][]uint64, len(db.Entries))
	for i, e := range db.Entries {
		fn, err := e.Decode()
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = FuncFeatures(fn)
	}
	return out
}

// serialBytes returns the file o selects of db's entries as
// idxfile.Builder.Add writes it, one function at a time, with their
// features computed serially: the oracle the stream is held to.
func serialBytes(tb testing.TB, db *DB, o SaveOptions) []byte {
	tb.Helper()
	feats := serialFeatures(tb, db)
	b := idxfile.NewBuilder()
	for i, e := range db.Entries {
		if o.Shards <= 1 || ShardOf(e.Exe, e.Name, o.Shards) == o.Shard {
			fn, _ := e.Decode()
			b.Add(e.Exe, fn, e.Truth, feats[i])
		}
	}
	var buf bytes.Buffer
	if _, err := b.WriteLSH(&buf, o.LSH); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFeaturiserSavesSerialBytes holds the build stream to its contract:
// whatever the GOMAXPROCS and wherever its join falls, a save writes the
// bytes idxfile.Builder.Add writes of the same entries with their features
// computed serially. The joins exercised: a save right after the last
// AddImage (each save kind first in turn), a view and prefiltered searches
// between AddImage calls and after the last one, and AddImage onto a
// database opened from a file of part of the corpus.
func TestFeaturiserSavesSerialBytes(t *testing.T) {
	exes := campaignExes(t, 96)
	half := len(exes) / 2

	built := New()
	addImages(t, built, exes)
	want := make(map[string][]byte)
	for _, k := range saveKinds {
		want[k.name] = serialBytes(t, built, k.o)
	}
	same := func(label string, got map[string][]byte) {
		t.Helper()
		for _, k := range saveKinds {
			if !bytes.Equal(got[k.name], want[k.name]) {
				t.Errorf("%s: %s writes %d bytes unlike the %d of serially computed features", label, k.name, len(got[k.name]), len(want[k.name]))
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for first := range saveKinds {
			db := New()
			addImages(t, db, exes)
			got := make(map[string][]byte)
			for i := range saveKinds {
				k := saveKinds[(first+i)%len(saveKinds)]
				var buf bytes.Buffer
				if err := db.Save(&buf, k.o); err != nil {
					t.Fatal(err)
				}
				got[k.name] = buf.Bytes()
			}
			same(fmt.Sprintf("GOMAXPROCS %d, %s first after the last AddImage", procs, saveKinds[first].name), got)
		}

		db := New()
		addImages(t, db, exes[:half])
		prefiltered(t, db)
		addImages(t, db, exes[half:])
		prefiltered(t, db)
		same(fmt.Sprintf("GOMAXPROCS %d, searched mid-build and after it", procs), saveAll(t, db))

		part := New()
		addImages(t, part, exes[:half])
		var buf bytes.Buffer
		if err := part.Save(&buf, SaveOptions{LSH: &minhash.Default}); err != nil {
			t.Fatal(err)
		}
		grown, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		addImages(t, grown, exes[half:])
		same(fmt.Sprintf("GOMAXPROCS %d, grown from a file", procs), saveAll(t, grown))
	}
}

// TestFeaturiserInterleaved drives databases in the orders the write
// path's callers use, for the race detector, and holds every file saved to
// the bytes idxfile.Builder.Add writes with serially computed features:
// tracy index (a file opened, images added, saved), the benchmark's ingest
// (images added, saved, then searched by reference over a snapshot) and
// its in-memory set-ups (images added, then searched at once — exhaustive
// and prefiltered searches on the view and on a snapshot, and a save, all
// from their own goroutines while the last batch may still be in flight).
func TestFeaturiserInterleaved(t *testing.T) {
	exes := campaignExes(t, 96)
	half := len(exes) / 2
	opts := core.DefaultOptions()

	// tracy index onto an existing file.
	part := New()
	addImages(t, part, exes[:half])
	var file bytes.Buffer
	if err := part.Save(&file, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	grown, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	addImages(t, grown, exes[half:])
	var grownOut bytes.Buffer
	if err := grown.Save(&grownOut, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}

	// The benchmark's ingest: build, save, search the database it kept.
	db := New()
	addImages(t, db, exes)
	var out bytes.Buffer
	if err := db.Save(&out, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	want := serialBytes(t, db, SaveOptions{LSH: &minhash.Default})
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("the database built at once saves other bytes than serially computed features")
	}
	if !bytes.Equal(grownOut.Bytes(), want) {
		t.Error("the database grown from a file saves other bytes than serially computed features")
	}
	snap := BuildSnapshot(db, []int{opts.K}, 2)
	for _, e := range db.Entries[:4] {
		ref, err := snap.LookupDecomposed(e.Exe, e.Name, opts.K)
		if err != nil {
			t.Fatal(err)
		}
		mustSearch(t, snap, Query{Ref: ref, Opts: opts, Limit: 3, Prefilter: PrefilterOptions{Candidates: 8, Mode: ModeLSH}})
	}

	// The in-memory set-ups: searched and saved right after the last
	// AddImage, concurrently.
	db = New()
	addImages(t, db, exes[:half])
	prefiltered(t, db) // a join mid-build
	addImages(t, db, exes[half:])
	query := db.Entries[len(db.Entries)-1].fn
	var wg sync.WaitGroup
	run := func(name string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	search := func(s *Snapshot, pf PrefilterOptions) func() error {
		return func() error {
			_, err := s.Search(context.Background(), Query{Func: query, Opts: opts, Limit: 5, Prefilter: pf})
			return err
		}
	}
	served := BuildSnapshot(db, []int{opts.K}, 2)
	run("exhaustive on the view", search(db.View(), PrefilterOptions{}))
	run("exhaustive on a snapshot", search(served, PrefilterOptions{}))
	run("lsh on the view", search(db.View(), PrefilterOptions{Candidates: 8, Mode: ModeLSH}))
	run("scan on the view", search(db.View(), PrefilterOptions{Candidates: 8, Mode: ModeScan}))
	run("lsh on a snapshot", search(served, PrefilterOptions{Candidates: 8, Mode: ModeLSH}))
	var concurrent bytes.Buffer
	run("Save with lsh", func() error { return db.Save(&concurrent, SaveOptions{LSH: &minhash.Default}) })
	wg.Wait()
	if !bytes.Equal(concurrent.Bytes(), want) {
		t.Error("a save racing searches writes other bytes than serially computed features")
	}
}
