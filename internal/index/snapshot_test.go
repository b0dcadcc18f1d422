package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/minhash"
)

// TestSnapshotSearchMatchesDBSearch: the database's own view and
// snapshots of every fan-out rank the query exactly as the serial
// reference does.
func TestSnapshotSearchMatchesDBSearch(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	want := SerialSearch(db.Entries, query, core.DefaultOptions())
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"view", db.View()},
		{"shards=1", BuildSnapshot(db, []int{3}, 1)},
		{"shards=3", BuildSnapshot(db, []int{3}, 3)},
		{"shards=0", BuildSnapshot(db, []int{3}, 0)},
	} {
		sameHits(t, tc.name, mustSearch(t, tc.snap, Query{Func: query, Opts: core.DefaultOptions()}), want)
	}
}

func TestSnapshotUnsupportedK(t *testing.T) {
	db, _ := buildTestDB(t)
	snap := BuildSnapshot(db, []int{3}, 2)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	opts.K = 2
	if _, err := snap.Search(context.Background(), Query{Func: query, Opts: opts}); err == nil {
		t.Fatal("k=2 search against a k=3 snapshot should fail")
	}
	if !snap.SupportsK(3) || snap.SupportsK(2) {
		t.Errorf("SupportsK wrong: ks=%v", snap.Ks())
	}
}

func TestSnapshotLookup(t *testing.T) {
	db, _ := buildTestDB(t)
	snap := BuildSnapshot(db, []int{3}, 0)
	e := db.Entries[len(db.Entries)/2]
	if got := snap.Lookup(e.Exe, e.Name); got != e {
		t.Errorf("Lookup(%s, %s) = %v, want %v", e.Exe, e.Name, got, e)
	}
	if got := snap.Lookup("nope", "nothing"); got != nil {
		t.Errorf("Lookup of absent function = %v, want nil", got)
	}
	// LookupDecomposed hands out the memoized decomposition searches
	// compare against, not a fresh one per call.
	d, _ := snap.LookupDecomposed(e.Exe, e.Name, 3)
	if again, err := snap.LookupDecomposed(e.Exe, e.Name, 3); d == nil || d != again || err != nil {
		t.Errorf("LookupDecomposed(%s, %s) = %p, want one memoized decomposition", e.Exe, e.Name, d)
	} else if want := core.Decompose(mustDecode(t, e), 3); d.Name != e.Name || d.Fingerprint() != want.Fingerprint() {
		t.Errorf("LookupDecomposed(%s, %s) is %s with fingerprint %x, want %x", e.Exe, e.Name, d.Name, d.Fingerprint(), want.Fingerprint())
	}
	if got, err := snap.LookupDecomposed("nope", "nothing", 3); got != nil || err != nil {
		t.Errorf("LookupDecomposed of absent function = %v, %v, want nil, nil", got, err)
	}
	// The name index keys an entry by its two strings, so a by-reference
	// lookup builds no key, however long the names (a joined key of more
	// than 32 bytes would be allocated).
	long := strings.Repeat("lib/", 10) + e.Exe
	if n := testing.AllocsPerRun(100, func() {
		snap.Lookup(e.Exe, e.Name)
		snap.LookupDecomposed(e.Exe, e.Name, 3)
		snap.Lookup(long, e.Name)
		snap.LookupDecomposed(long, e.Name, 3)
	}); n != 0 {
		t.Errorf("Lookup and LookupDecomposed allocate %v objects a call", n)
	}
}

func TestTopK(t *testing.T) {
	mk := func(exe, name string, score float64) Hit {
		return Hit{Entry: &Entry{Exe: exe, Name: name}, Result: core.Result{SimilarityScore: score}}
	}
	hits := []Hit{
		mk("b", "y", 0.5), mk("a", "z", 0.9), mk("a", "x", 0.5), mk("c", "w", 0.1),
	}
	got := TopK(hits, 3, 0.2)
	if len(got) != 3 {
		t.Fatalf("got %d hits, want 3", len(got))
	}
	// 0.9 first, then the two 0.5s tie-broken by exe/name; 0.1 filtered.
	if got[0].Entry.Name != "z" || got[1].Entry.Exe != "a" || got[2].Entry.Exe != "b" {
		t.Errorf("wrong order: %v %v %v", got[0].Entry, got[1].Entry, got[2].Entry)
	}
	if n := len(TopK(hits, 0, 0)); n != 4 {
		t.Errorf("limit 0 kept %d, want all 4", n)
	}
	// The input must not be reordered.
	if hits[0].Entry.Name != "y" {
		t.Error("TopK mutated its input")
	}
}

// TestSortHitsStableOrder: SortHits gives the order of the
// sort.SliceStable call it replaced, full ties (same score, executable and
// name — distinct entries all the same) left in input order.
func TestSortHitsStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hits := make([]Hit, 500)
	for i := range hits {
		e := &Entry{Exe: fmt.Sprintf("exe%d", rng.Intn(4)), Name: fmt.Sprintf("sub_%d", rng.Intn(6))}
		hits[i] = Hit{Entry: e, Result: core.Result{SimilarityScore: float64(rng.Intn(5)) / 4, PairsCompared: i}}
	}
	want := slices.Clone(hits)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Result.SimilarityScore != b.Result.SimilarityScore {
			return a.Result.SimilarityScore > b.Result.SimilarityScore
		}
		if a.Entry.Exe != b.Entry.Exe {
			return a.Entry.Exe < b.Entry.Exe
		}
		return a.Entry.Name < b.Entry.Name
	})
	SortHits(hits)
	if !slices.Equal(hits, want) {
		t.Error("SortHits orders a shuffled list with ties differently from sort.SliceStable over the same order")
	}
}

// TestConcurrentDBSearch drives a cold view of an index file from many
// goroutines, k=2 and k=3 searches racing to fill the decomposition slots
// they first touch; every k=3 search matches the serial reference. Run
// under -race.
func TestConcurrentDBSearch(t *testing.T) {
	db, _ := buildTestDB(t)
	fresh, err := Load(saved(t, db))
	if err != nil {
		t.Fatal(err)
	}
	raceSearch(t, db, fresh.View(), []int{3, 2})
}

// TestConcurrentSnapshotSearch drives a heap snapshot fanning each search
// over 4 workers from many goroutines; every search matches the serial
// reference. Run under -race.
func TestConcurrentSnapshotSearch(t *testing.T) {
	db, _ := buildTestDB(t)
	raceSearch(t, db, BuildSnapshot(db, []int{3}, 4), []int{3})
}

// raceSearch runs 8 concurrent searches of snap, worker w at tracelet size
// ks[w%len(ks)], and holds each k=3 search (ks[0] is 3) to the serial
// reference over db.
func raceSearch(t *testing.T, db *DB, snap *Snapshot, ks []int) {
	t.Helper()
	query := queryFor(t, db, corpus.LibFuncName)
	want := hitKeys(SerialSearch(db.Entries, query, core.DefaultOptions()))
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]Hit, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := core.DefaultOptions()
			opts.K = ks[w%len(ks)]
			a, err := snap.Search(context.Background(), Query{Func: query, Opts: opts})
			if err != nil {
				t.Error(err)
			}
			results[w] = a.Hits
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w += len(ks) { // the k=3 searches
		if got := hitKeys(results[w]); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d diverged from the serial reference", w)
		}
	}
}

// saved round-trips db through Save into a reader.
func saved(t *testing.T, db *DB) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestLoadFutureVersion(t *testing.T) {
	data := append([]byte(idxfile.Magic), 9)
	data = append(data, []byte("whatever follows")...)
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("future-version file should fail to load")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("format v%d expected", idxfile.Version)) || !strings.Contains(err.Error(), "v9") || errors.Is(err, ErrLegacy) {
		t.Errorf("unhelpful version error: %v", err)
	}
}

func TestLoadForeignFileError(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("PK\x03\x04 this is a zip, not an index")))
	if err == nil {
		t.Fatal("foreign file should fail to load")
	}
	if !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), fmt.Sprintf("TRACYIDX v%d", idxfile.Version)) {
		t.Errorf("foreign-file error does not name the expected format: %v", err)
	}
}

// TestBuildSnapshotIsLazy: BuildSnapshot over a store-backed database
// builds neither candidate index, writes no index file of its own (which
// would featurise every entry) and decodes nothing; the first lsh query
// adopts the file's band table and still leaves the inverted feature
// index unbuilt, which the first scan-mode ranking then builds. A
// database that grew after the snapshot was taken does not reach into it.
func TestBuildSnapshotIsLazy(t *testing.T) {
	mem, c := buildTestDB(t)
	db, err := Load(bytes.NewReader(savedLSH(t, mem, minhash.Default)))
	if err != nil {
		t.Fatal(err)
	}
	snap := BuildSnapshot(db, []int{3}, 2)
	if snap.fidx != nil || snap.lsh != nil || db.sealed != nil {
		t.Fatal("BuildSnapshot built a candidate index or sealed the entries into a file of its own")
	}
	for _, e := range db.Entries {
		if Memoized(e) {
			t.Fatalf("BuildSnapshot decoded %s/%s", e.Exe, e.Name)
		}
	}
	ref := core.Decompose(queryFor(t, mem, corpus.LibFuncName), 3)
	if _, err := snap.PrefilterRankWith(context.Background(), ref, 5, ModeLSH); err != nil {
		t.Fatal(err)
	}
	if snap.lsh == nil || &snap.lsh.table[0] != &db.Store().LSHTable()[0] {
		t.Error("the first lsh query did not adopt the file's band table")
	}
	if snap.fidx != nil {
		t.Error("an lsh query built the inverted feature index")
	}

	extra := c.Exes[0]
	if err := db.AddImage("again-"+extra.Name, extra.Image, extra.Truth); err != nil {
		t.Fatal(err)
	}
	ranked, err := snap.PrefilterRankWith(context.Background(), ref, len(db.Entries), ModeScan)
	if err != nil {
		t.Fatal(err)
	}
	if snap.fidx == nil || snap.fidx.n != snap.Len() {
		t.Fatalf("the first scan ranking indexed %v entries, the snapshot holds %d", snap.fidx, snap.Len())
	}
	for _, r := range ranked {
		if int(r.ID) >= snap.Len() {
			t.Fatalf("scan ranking names entry %d of a %d-entry snapshot", r.ID, snap.Len())
		}
	}
}
