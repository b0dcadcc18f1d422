package index

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/idxfile"
)

// FuzzIndexLoad throws arbitrary bytes at the gob index deserializer:
// it must reject garbage with an error, never panic, and never crash on
// truncations or bit-flips of a genuine index. A loaded index must be
// internally consistent enough to decompose.
func FuzzIndexLoad(f *testing.F) {
	// A genuine saved index as the prime seed, so the fuzzer mutates real
	// structure instead of guessing the format from scratch.
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
	if err := db.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	var savedV3 bytes.Buffer
	if err := db.SaveV3(&savedV3); err != nil {
		f.Fatal(err)
	}
	f.Add(savedV3.Bytes())
	f.Add(savedV3.Bytes()[:savedV3.Len()/2])
	f.Add([]byte("TRACYIDX"))
	f.Add([]byte("TRACYIDX\x01\x00\x00\x00garbage"))
	f.Add([]byte("TRACYIDX\x03\x00\x00\x00garbage"))
	f.Add([]byte{})
	f.Add([]byte("not an index at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Gob can legally encode huge allocations in few bytes; bound the
		// input so the fuzzer explores structure, not allocation size.
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A gob index is validated whole at load; a v3 one validates each
		// function's records when they are first read, and what fails then
		// must say so with the store's typed error.
		for _, e := range loaded.Entries {
			if e == nil {
				t.Fatal("Load accepted an index with nil entries")
			}
			if fn, err := e.LoadFunction(); fn == nil && !idxfile.IsCorrupt(err) {
				t.Fatalf("Load accepted an index with a function that is neither there nor corrupt: %v", err)
			}
		}
		// A successfully loaded index must survive decomposition.
		if _, err := loaded.Decomposed(3); err != nil && !idxfile.IsCorrupt(err) {
			t.Fatalf("decomposing a loaded index failed with something other than corruption: %v", err)
		}
	})
}
