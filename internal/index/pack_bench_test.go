package index

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/minhash"
)

// BenchmarkSave measures the write side over 4032 in-memory functions:
// "whole" is Save with lsh of a database AddImage built, which only writes
// the file its stream was fed; "2 shards" saves both shards of a 2-way
// split with lsh, each streaming its entries through a stream of its own
// that featurises and packs them anew. Allocated bytes per op show what
// the builder's columns cost to grow.
func BenchmarkSave(b *testing.B) {
	db := campaignDB(b, 4032)
	for _, bc := range []struct {
		name  string
		saves []SaveOptions
	}{
		{"whole", []SaveOptions{{LSH: &minhash.Default}}},
		{"2 shards", []SaveOptions{{Shard: 0, Shards: 2, LSH: &minhash.Default}, {Shard: 1, Shards: 2, LSH: &minhash.Default}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, o := range bc.saves {
					if err := db.Save(io.Discard, o); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFirstTouch measures what the first compare against a stored
// function pays before it can compare, per function (run it with -cpu 1):
// a view over the file's PACK section.
func BenchmarkFirstTouch(b *testing.B) {
	data := savedLSH(b, campaignDB(b, 1024), minhash.Default)
	db, err := Load(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	n := db.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			// A fresh snapshot and fresh entries: nothing memoized.
			b.StopTimer()
			if db, err = Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		s := db.View()
		if _, err := s.dec(s.slotsFor(3), 3, i%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures what materializing a stored function costs, per
// function (run it with -cpu 1): Entry.Decode, the one walk over the
// function's PACK record that checks and rebuilds it, which is what
// /v1/functions, the fleet's by-reference lookup and tracy convert pay per
// function.
func BenchmarkDecode(b *testing.B) {
	data := savedLSH(b, campaignDB(b, 1024), minhash.Default)
	db, err := Load(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	n := db.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			// Fresh entries each pass.
			b.StopTimer()
			if db, err = Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := db.Entries[i%n].Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
