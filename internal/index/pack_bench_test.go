package index

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/minhash"
)

// BenchmarkSave measures the write side: Save with lsh of 4032 in-memory
// functions, everything a save emits. Allocated bytes
// per op show what the builder's columns cost to grow.
func BenchmarkSave(b *testing.B) {
	db := campaignDB(b, 4032)
	db.features() // computed once per database, not per save
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Save(io.Discard, SaveOptions{LSH: &minhash.Default}); err != nil {
			b.Fatal(err)
		}
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
