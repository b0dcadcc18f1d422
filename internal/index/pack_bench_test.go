package index

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/idxfile"
	"repro/internal/minhash"
)

// BenchmarkSaveV3 measures the write side of the PACK section: SaveV3LSH of
// 4032 in-memory functions, everything a v3 save emits. Allocated bytes
// per op show what the builder's columns cost to grow.
func BenchmarkSaveV3(b *testing.B) {
	db := campaignDB(b, 4032)
	db.features() // computed once per database, not per save
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.SaveV3LSH(io.Discard, minhash.Default); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstTouch measures what the first compare against a stored
// function pays before it can compare, per function (run it with -cpu 1):
// a view over the file's PACK section, against decoding the function's
// records and decomposing them on the heap, which is what a file without
// the section costs.
func BenchmarkFirstTouch(b *testing.B) {
	data := savedLSH(b, campaignDB(b, 1024), minhash.Default)
	for _, tc := range []struct {
		name string
		data []byte
	}{{"pack", data}, {"records", withoutSection(b, data, idxfile.SecPACK)}} {
		b.Run(tc.name, func(b *testing.B) {
			db, err := Load(bytes.NewReader(tc.data))
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
					if db, err = Load(bytes.NewReader(tc.data)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				s := db.view()
				if _, err := s.dec(s.slotsFor(3), 3, i%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
