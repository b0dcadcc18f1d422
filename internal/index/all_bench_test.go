package index

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// BenchmarkSnapshotSearchAll is the exhaustive-2k shape in process: the
// seed-1 campaign of 2016 functions held on the heap, and 32 queries spread
// evenly over its size ranking, each compared with every function (no
// prefilter, Limit 0). One op is the 32 queries; ms/query and the tracelet
// pairs visited per query are reported next to B/op and allocs/op.
func BenchmarkSnapshotSearchAll(b *testing.B) {
	db := New()
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1, Funcs: 2016, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { return db.AddImage(e.Name, e.Image, e.Truth) })
	if err != nil {
		b.Fatal(err)
	}
	snap := BuildSnapshot(db, []int{3}, 0)
	refs := sizeRankedQueries(b, db, 32)
	for _, ref := range refs { // the workers' buffers grown before the clock starts
		mustSearch(b, snap, Query{Ref: ref, Opts: core.DefaultOptions()})
	}
	opts := core.DefaultOptions()
	opts.Tel = telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ref := range refs {
			mustSearch(b, snap, Query{Ref: ref, Opts: opts})
		}
	}
	q := float64(b.N * len(refs))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/q, "ms/query")
	b.ReportMetric(float64(opts.Tel.Get(telemetry.PairsCompared))/q, "pairs/query")
}

// sizeRankedQueries decomposes db at k=3 and picks n functions with
// tracelets spread evenly over the ranking by instruction count, smallest
// and largest included.
func sizeRankedQueries(tb testing.TB, db *DB, n int) []*core.Decomposed {
	tb.Helper()
	ds, err := db.Decomposed(3)
	if err != nil {
		tb.Fatal(err)
	}
	var ranked []*core.Decomposed
	for _, d := range ds {
		if len(d.Tracelets) > 0 {
			ranked = append(ranked, d)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].NumInsts < ranked[j].NumInsts })
	out := make([]*core.Decomposed, n)
	for i := range out {
		out[i] = ranked[i*(len(ranked)-1)/(n-1)]
	}
	return out
}
