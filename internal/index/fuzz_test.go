package index

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/idxfile"
)

// FuzzIndexLoad throws arbitrary bytes at the index reader, Load, which
// serves TRACYIDX v4 only. It must reject garbage with an error, never
// panic, and never crash on truncations or bit-flips of a genuine index.
// What it accepts must be internally consistent enough to decompose, and
// an older format's prelude (a gob index at v1 or v2, TRACYIDX v3) is
// refused with ErrLegacy.
func FuzzIndexLoad(f *testing.F) {
	// Genuine indexes as the prime seeds, so the fuzzer mutates real
	// structure instead of guessing the formats from scratch.
	cp, err := corpus.Build(corpus.BuildConfig{
		Seed: 1, ContextCopies: 1, NoiseExes: 1, FuncsPerExe: 1,
		TargetStmts: 10, FillerStmts: 8,
	})
	if err != nil {
		f.Fatal(err)
	}
	db := New()
	for _, e := range cp.Exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			f.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := db.Save(&saved, SaveOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	for v := 0; v <= 2; v++ {
		f.Add(gobIndex(f, v))
	}
	f.Add(gobIndex(f, 2)[:len(idxfile.Magic)+1])
	f.Add([]byte("TRACYIDX"))
	f.Add([]byte("TRACYIDX\x01\x00\x00\x00garbage"))
	f.Add([]byte("TRACYIDX\x03\x00\x00\x00garbage"))
	f.Add([]byte{})
	f.Add([]byte("not an index at all"))
	// The genuine index behind a v3 prelude: the structure of the last
	// format before v4, refused on its version byte.
	v3 := bytes.Clone(saved.Bytes())
	v3[len(idxfile.Magic)] = 3
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the input so the fuzzer explores structure, not size.
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		loaded, err := Load(bytes.NewReader(data))
		if v := idxfile.SniffVersion(data); v >= 1 && v <= 3 && !errors.Is(err, ErrLegacy) {
			t.Fatalf("Load of a v%d prelude returned %v, want ErrLegacy", v, err)
		}
		if err == nil {
			// An index file validates each function's records when they are
			// first read, and what fails then must say so with the store's
			// typed error.
			for _, e := range loaded.Entries {
				if fn, err := e.Decode(); fn == nil && !idxfile.IsCorrupt(err) {
					t.Fatalf("Load accepted an index with a function that is neither there nor corrupt: %v", err)
				}
			}
			if _, err := loaded.Decomposed(3); err != nil && !idxfile.IsCorrupt(err) {
				t.Fatalf("decomposing a loaded index failed with something other than corruption: %v", err)
			}
		}
	})
}
