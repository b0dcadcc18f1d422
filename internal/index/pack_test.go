package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/telemetry"
)

// sectionAt returns the offset of the named section's payload in an index
// file, through its directory (internal/idxfile/format.go).
func sectionAt(tb testing.TB, data []byte, name string) int {
	tb.Helper()
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		e := data[v3HeaderSize+i*v3DirEntrySize:]
		if string(e[:4]) == name {
			return int(binary.LittleEndian.Uint64(e[8:]))
		}
	}
	tb.Fatalf("file has no %s section", name)
	return 0
}

// TestStoreParity: every database is searched as views over an index file
// that holds its entries, and answers hit for hit, every Result field and
// every by-reference fingerprint included, as BuildSnapshot(Load(Save(db)))
// does — exhaustive and lsh: the in-memory database AddImage built, whose
// snapshot views the records AddImage packed; the same entries set by
// hand, sealed through writeIndex; a database opened from a file of part of
// the corpus and grown with AddImage to the rest; and a built one grown by
// one more AddImage after it was sealed. BuildSnapshot decomposes nothing,
// the search views each entry once, counted and timed, a database is sealed
// once per state of its entries, and by-reference lsh queries, which decode
// each query's blocks for their features, keep none of what they decoded.
func TestStoreParity(t *testing.T) {
	db, c := buildTestDB(t)
	opts := core.DefaultOptions()
	data := savedLSH(t, db, minhash.Default)

	type answer struct {
		Fingerprint uint64
		Exhaustive  []hitKey
		LSH         []hitKey
	}
	search := func(d *DB, via string) []answer {
		t.Helper()
		tel := telemetry.New()
		d.Tel = tel
		snap := BuildSnapshot(d, []int{opts.K}, 2)
		if got := tel.Get(telemetry.FunctionsDecomposed); got != 0 {
			t.Errorf("%s: BuildSnapshot decomposed %d functions", via, got)
		}
		if again := BuildSnapshot(d, []int{opts.K}, 2); again.store != snap.store {
			t.Errorf("%s: a second snapshot of the same entries sealed them again", via)
		}
		var out []answer
		for _, e := range db.Entries {
			// By reference: the snapshot's own decomposition of the entry is
			// the query, a view over the file it serves.
			ref, err := snap.LookupDecomposed(e.Exe, e.Name, opts.K)
			if err != nil || ref == nil {
				t.Fatalf("%s: LookupDecomposed(%s, %s) = %v, %v", via, e.Exe, e.Name, ref, err)
			}
			a := answer{Fingerprint: ref.Fingerprint()}
			for _, pf := range []PrefilterOptions{{}, {Candidates: 6, Mode: ModeLSH}} {
				ans, err := snap.Search(context.Background(), Query{Ref: ref, Opts: opts, Prefilter: pf})
				if err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				if pf.Candidates == 0 {
					a.Exhaustive = hitKeys(ans.Hits)
				} else {
					a.LSH = hitKeys(ans.Hits)
				}
			}
			out = append(out, a)
		}
		if got := tel.Get(telemetry.FunctionsDecomposed); got != uint64(d.Len()) {
			t.Errorf("%s: %d functions decomposed, want each of the %d once", via, got, d.Len())
		}
		if got := tel.Snapshot().Histograms[telemetry.DecomposeLatency.String()].Count; got != uint64(d.Len()) {
			t.Errorf("%s: %d decompositions timed, want %d", via, got, d.Len())
		}
		return out
	}
	load := func(data []byte) *DB {
		t.Helper()
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	packed := load(data)
	want := search(packed, "file")
	for _, e := range packed.Entries {
		if Memoized(e) {
			t.Fatalf("a by-reference lsh query left %s/%s decoded on the heap", e.Exe, e.Name)
		}
	}
	if got := search(db, "built"); !reflect.DeepEqual(got, want) {
		t.Error("the database AddImage built answers differently from its file")
	}
	if db.sealed == nil || db.sealed.Size() != int64(len(data)) {
		t.Error("the built database was not sealed into the file AddImage fed")
	}

	byHand := New()
	for _, e := range db.Entries {
		byHand.Entries = append(byHand.Entries, &Entry{Exe: e.Exe, Name: e.Name, Addr: e.Addr, Truth: e.Truth, fn: e.fn})
	}
	if got := search(byHand, "set by hand"); !reflect.DeepEqual(got, want) {
		t.Error("entries set by hand answer differently from the same corpus indexed at once")
	}

	// Grown: all but the last executable first, the last by AddImage —
	// once after saving and loading the rest, once after sealing it.
	last := c.Exes[len(c.Exes)-1]
	base := New()
	for _, e := range c.Exes[:len(c.Exes)-1] {
		if err := base.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	grown := load(savedLSH(t, base, minhash.Default))
	for via, d := range map[string]*DB{"grown file": grown, "built, grown after a seal": base} {
		BuildSnapshot(d, []int{opts.K}, 2)
		if err := d.AddImage(last.Name, last.Image, last.Truth); err != nil {
			t.Fatal(err)
		}
		if got := search(d, via); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answers differently from the same corpus indexed at once", via)
		}
	}
}

// TestSearchDecodesNoCandidate: a search over an index file compares its
// candidates where they lie — no entry is decoded, not even the query when
// it arrives decomposed.
func TestSearchDecodesNoCandidate(t *testing.T) {
	mem, _ := buildTestDB(t)
	db, err := Load(bytes.NewReader(savedLSH(t, mem, minhash.Default)))
	if err != nil {
		t.Fatal(err)
	}
	snap := BuildSnapshot(db, []int{3}, 2)
	ref := core.Decompose(mem.Entries[0].fn, 3)
	if hits := mustSearch(t, snap, Query{Ref: ref, Opts: core.DefaultOptions()}); len(hits) != db.Len() {
		t.Fatalf("%d hits, want %d", len(hits), db.Len())
	}
	for _, e := range db.Entries {
		if Memoized(e) {
			t.Fatalf("the search decoded %s/%s", e.Exe, e.Name)
		}
	}
}

// TestViewPinsMapping: a decomposition built from a mapped file's packed
// blocks keeps the mapping alive by itself. With the database and the
// snapshot dropped and two collections run — the first would queue the
// file's unmap finalizer, the second run it — the retained view still
// compares, to the Result it compared to before.
func TestViewPinsMapping(t *testing.T) {
	mem, _ := buildTestDB(t)
	path := filepath.Join(t.TempDir(), "t.idx")
	if err := os.WriteFile(path, savedLSH(t, mem, minhash.Default), 0o644); err != nil {
		t.Fatal(err)
	}
	m := core.NewMatcher(core.DefaultOptions())
	var views []*core.Decomposed
	var want []core.Result
	func() {
		db, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !db.Info().Mapped {
			t.Skip("the platform does not map index files")
		}
		snap := BuildSnapshot(db, []int{3}, 2)
		for _, e := range db.Entries[:4] {
			d, err := snap.LookupDecomposed(e.Exe, e.Name, 3)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, d)
		}
		for _, d := range views {
			want = append(want, m.Compare(views[0], d))
		}
	}()
	runtime.GC()
	runtime.GC()
	for i, d := range views {
		if got := m.Compare(views[0], d); got != want[i] {
			t.Errorf("view %d compares to %+v after the database was dropped, %+v before", i, got, want[i])
		}
		if len(d.DistinctBlocks()) == 0 {
			t.Errorf("view %d can no longer reach its function", i)
		}
	}
}

// firstTouchAllocCeiling bounds what the first compare against a stored
// function allocates before it can compare: the block headers, the paths,
// the tracelets and the decomposition's own arrays, whatever the
// function's size. A decode and a heap decomposition, which the view
// replaced, cost up to 31.
const firstTouchAllocCeiling = 8

// TestFirstTouchAllocs: the first touch of every function of a campaign
// corpus stays under the ceiling.
func TestFirstTouchAllocs(t *testing.T) {
	db, err := Load(bytes.NewReader(savedLSH(t, campaignDB(t, 96), minhash.Default)))
	if err != nil {
		t.Fatal(err)
	}
	s := db.View()
	slots := s.slotsFor(3)
	worst := 0.0
	for i := range db.Entries {
		worst = max(worst, testing.AllocsPerRun(5, func() {
			slots[i].Store(nil) // cold again
			if _, err := s.dec(slots, 3, i); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if worst > firstTouchAllocCeiling {
		t.Errorf("a first touch allocates up to %v objects, ceiling %d", worst, firstTouchAllocCeiling)
	}
	t.Logf("%d functions, at most %v allocations per first touch", db.Len(), worst)
}

// TestCorruptAtTouch: a file whose one function has a broken record opens
// — Parse does not walk the records — and the search that touches the
// function fails with the store's typed error, whichever way the function
// is read; a search that does not touch it succeeds.
func TestCorruptAtTouch(t *testing.T) {
	mem, _ := buildTestDB(t)
	data := savedLSH(t, mem, minhash.Default)
	victim := 1 // entry 0 stays intact and is the query
	// The victim's first block: its successor range is followed by both
	// ways of reading a function (BLCK records are addr, succOff, nsuccs).
	blockOff := binary.LittleEndian.Uint32(data[sectionAt(t, data, idxfile.SecFUNC)+victim*40+20:])
	broken := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(broken[sectionAt(t, data, idxfile.SecBLCK)+int(blockOff)*12+4:], 1<<30)

	db, err := Load(bytes.NewReader(broken))
	if err != nil {
		t.Fatalf("a function's records are checked when it is read, not at load: %v", err)
	}
	snap := BuildSnapshot(db, []int{3}, 2)
	ref := core.Decompose(mem.Entries[0].fn, 3)
	_, err = snap.Search(context.Background(), Query{Ref: ref, Opts: core.DefaultOptions()})
	if !idxfile.IsCorrupt(err) {
		t.Errorf("an exhaustive search over the broken function returned %v, want a corruption error", err)
	}
	if d, err := snap.LookupDecomposed(db.Entries[victim].Exe, db.Entries[victim].Name, 3); d != nil || !idxfile.IsCorrupt(err) {
		t.Errorf("LookupDecomposed of the broken function = %v, %v", d, err)
	}
	if fn, err := db.Entries[victim].Decode(); fn != nil || !idxfile.IsCorrupt(err) {
		t.Errorf("Decode of the broken function = %v, %v, want a corruption error", fn, err)
	}
	// One candidate, the query itself: the broken function is not touched.
	a, err := snap.Search(context.Background(), Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Candidates: 1, Mode: ModeLSH}})
	if err != nil || len(a.Hits) != 1 || a.Hits[0].Entry != db.Entries[0] {
		t.Errorf("a search that does not touch the broken function returned %d hits, %v", len(a.Hits), err)
	}
	if err := db.Store().Verify(); !idxfile.IsCorrupt(err) {
		t.Errorf("Verify returned %v, want a corruption error", err)
	}
}
