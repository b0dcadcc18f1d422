package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// campaignDB indexes a compiled campaign of the given size in memory.
func campaignDB(tb testing.TB, funcs int) *DB {
	tb.Helper()
	db := New()
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 13, Funcs: funcs, FuncsPerExe: 16, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { return db.AddImage(e.Name, e.Image, e.Truth) })
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// savedLSH serializes db with signatures and band table under p.
func savedLSH(tb testing.TB, db *DB, p minhash.Params) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf, SaveOptions{LSH: &p}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Index header and directory geometry (internal/idxfile/format.go), as far as
// the section surgery below needs it.
const (
	v3HeaderSize   = 48
	v3DirEntrySize = 32
)

// withoutSection returns a copy of an index file whose directory no longer
// lists the named section — the file as a writer that did not know the
// section would have left it, but for the dead payload bytes.
func withoutSection(tb testing.TB, data []byte, name string) []byte {
	tb.Helper()
	out := append([]byte(nil), data...)
	nsec := int(binary.LittleEndian.Uint32(out[12:]))
	dir := out[v3HeaderSize : v3HeaderSize+nsec*v3DirEntrySize]
	for i := 0; i < nsec; i++ {
		if string(dir[i*v3DirEntrySize:][:4]) != name {
			continue
		}
		copy(dir[i*v3DirEntrySize:], dir[(i+1)*v3DirEntrySize:])
		clear(dir[(nsec-1)*v3DirEntrySize:])
		binary.LittleEndian.PutUint32(out[12:], uint32(nsec-1))
		sum := crc32.Checksum(dir[:(nsec-1)*v3DirEntrySize], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(out[32:], sum)
		return out
	}
	tb.Fatalf("file has no %s section", name)
	return nil
}

// mapLSH is the band-bucket representation the sorted table replaced, kept
// as the oracle: per band a map from band hash to the ascending ids
// bucketed there, and the same counting-sort ranking over it.
type mapLSH struct {
	p       minhash.Params
	n       int
	buckets []map[uint64][]int32
}

func newMapLSH(p minhash.Params, sigs []uint32, n int) *mapLSH {
	k := p.K()
	x := &mapLSH{p: p, n: n, buckets: make([]map[uint64][]int32, p.Bands)}
	for b := range x.buckets {
		x.buckets[b] = make(map[uint64][]int32)
	}
	for id := 0; id < n; id++ {
		sig := sigs[id*k : (id+1)*k]
		for b := 0; b < p.Bands; b++ {
			h := minhash.BandHash(sig, b, p)
			x.buckets[b][h] = append(x.buckets[b][h], int32(id))
		}
	}
	return x
}

func (x *mapLSH) ranked(query []uint64, limit int) []Ranked {
	if limit <= 0 || len(query) == 0 {
		return nil
	}
	qsig := minhash.Signature(nil, query, x.p)
	counts := make([]int32, x.n)
	for b := 0; b < x.p.Bands; b++ {
		for _, id := range x.buckets[b][minhash.BandHash(qsig, b, x.p)] {
			counts[id]++
		}
	}
	byCount := make([][]int32, x.p.Bands+1)
	for id := int32(0); id < int32(x.n); id++ {
		if c := counts[id]; c > 0 {
			byCount[c] = append(byCount[c], id)
		}
	}
	cands := make([]Ranked, 0, limit)
	for c := x.p.Bands; c >= 1 && len(cands) < limit; c-- {
		for _, id := range byCount[c] {
			cands = append(cands, Ranked{ID: id, Shared: c * x.p.Rows})
			if len(cands) == limit {
				break
			}
		}
	}
	return cands
}

// TestLSHRankedParity: for every function of a campaign corpus as the
// query, at a small and at a saturating cap, the ranking out of the
// persisted band table, out of the table sorted from the signatures of a
// file that carries none, and out of the map-based oracle are the same
// list — under the default 64x1 banding and under two-row bands.
func TestLSHRankedParity(t *testing.T) {
	db := campaignDB(t, 192)
	feats := serialFeatures(t, db)
	for _, p := range []minhash.Params{minhash.Default, {Bands: 32, Rows: 2, Seed: minhash.DefaultSeed}} {
		data := savedLSH(t, db, p)
		persisted, err := idxfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		stripped, err := idxfile.Parse(withoutSection(t, data, idxfile.SecLSHT))
		if err != nil {
			t.Fatal(err)
		}
		if persisted.LSHTable() == nil || stripped.LSHTable() != nil || !stripped.HasLSH() {
			t.Fatalf("%dx%d: fixture files are not (LSHB+LSHT, LSHB alone)", p.Bands, p.Rows)
		}
		fromFile, fromSigs := lshFromStore(persisted), lshFromStore(stripped)
		if !reflect.DeepEqual(fromFile.table, fromSigs.table) {
			t.Fatalf("%dx%d: persisted band table differs from the one sorted at first use", p.Bands, p.Rows)
		}
		oracle := newMapLSH(p, persisted.LSHSigs(), persisted.NumFuncs())
		ctx := context.Background()
		for i, query := range feats {
			for _, limit := range []int{25, len(feats) + 1} {
				want := oracle.ranked(query, limit)
				if got := fromFile.ranked(ctx, query, limit, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d entry %d cap %d: persisted table ranks\n %v\nmap oracle\n %v", p.Bands, p.Rows, i, limit, got, want)
				}
				if got := fromSigs.ranked(ctx, query, limit, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d entry %d cap %d: table from signatures ranks\n %v\nmap oracle\n %v", p.Bands, p.Rows, i, limit, got, want)
				}
			}
		}
	}
}

// TestLSHShuffledTableIsSafe: a band table whose bands are permutations
// out of order — what Parse accepts and only Verify rejects — is probed
// without faulting: every ranking ends, within the cap, on ids of the
// corpus, each at most once.
func TestLSHShuffledTableIsSafe(t *testing.T) {
	db := campaignDB(t, 96)
	f, err := idxfile.Parse(savedLSH(t, db, minhash.Default))
	if err != nil {
		t.Fatal(err)
	}
	n := f.NumFuncs()
	table := append([]uint32(nil), f.LSHTable()...)
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < minhash.Default.Bands; b++ {
		run := table[b*n : (b+1)*n]
		rng.Shuffle(n, func(i, j int) { run[i], run[j] = run[j], run[i] })
	}
	x := newLSHIndex(f.LSHParams(), f.LSHSigs(), n, table)
	for i, query := range serialFeatures(t, db) {
		seen := make(map[int32]bool)
		ranked := x.ranked(context.Background(), query, n+1, nil)
		for _, r := range ranked {
			if r.ID < 0 || int(r.ID) >= n || seen[r.ID] || r.Shared < 1 || r.Shared > minhash.Default.K() {
				t.Fatalf("entry %d: shuffled table ranked %+v", i, r)
			}
			seen[r.ID] = true
		}
	}
}

// TestV3WithoutBandTable: a file with LSHB and no LSHT — every v3+LSHB
// file written before the section existed — loads, serves lsh searches
// with no fallback, and answers them hit for hit as the file that carries
// the table does; so does a database opened from the file and then grown
// with AddImage, against the same corpus indexed in memory.
func TestV3WithoutBandTable(t *testing.T) {
	db, c := buildTestDB(t)
	opts := core.DefaultOptions()
	pf := PrefilterOptions{Candidates: 6, Mode: ModeLSH}
	data := savedLSH(t, db, minhash.Default)

	search := func(d *DB, via string) [][]hitKey {
		t.Helper()
		tel := telemetry.New()
		d.Tel = tel
		snap := BuildSnapshot(d, []int{opts.K}, 2)
		var out [][]hitKey
		for _, e := range db.Entries {
			a, err := snap.Search(context.Background(), Query{Func: e.fn, Opts: opts, Prefilter: pf})
			if err != nil {
				t.Fatalf("%s: %v", via, err)
			}
			out = append(out, hitKeys(a.Hits))
		}
		if got := tel.Get(telemetry.LSHFallbacks); got != 0 {
			t.Errorf("%s: lsh_fallbacks = %d, want 0", via, got)
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

	want := search(load(data), "LSHB+LSHT")
	old := load(withoutSection(t, data, idxfile.SecLSHT))
	if old.Store().LSHTable() != nil {
		t.Fatal("stripped file still carries a band table")
	}
	if got := search(old, "LSHB alone"); !reflect.DeepEqual(got, want) {
		t.Error("a file without the band table answers differently from the file with it")
	}
	if got := search(db, "in memory"); !reflect.DeepEqual(got, want) {
		t.Error("the in-memory database answers differently from its v3 file")
	}

	// Grown: all but the last executable from the file, the last by AddImage.
	base := New()
	last := c.Exes[len(c.Exes)-1]
	for _, e := range c.Exes[:len(c.Exes)-1] {
		if err := base.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	grown := load(savedLSH(t, base, minhash.Default))
	if err := grown.AddImage(last.Name, last.Image, last.Truth); err != nil {
		t.Fatal(err)
	}
	if got := search(grown, "grown v3"); !reflect.DeepEqual(got, want) {
		t.Error("a v3 database grown with AddImage answers differently from the same corpus indexed at once")
	}
}

// BenchmarkLSHBuild measures what a first lsh query pays when the table
// is not persisted — sorting it from 4032 functions' signatures — next to
// the band-bucket map build it replaced.
func BenchmarkLSHBuild(b *testing.B) {
	p := minhash.Default
	const n = 4032
	db := campaignDB(b, n)
	feats := serialFeatures(b, db)
	sigs := make([]uint32, len(feats)*p.K())
	for i, fs := range feats {
		minhash.Signature(sigs[i*p.K():(i+1)*p.K()], fs, p)
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newLSHIndex(p, sigs, len(feats), nil)
		}
	})
	b.Run("maps-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newMapLSH(p, sigs, len(feats))
		}
	})
}
