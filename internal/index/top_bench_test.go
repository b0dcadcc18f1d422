package index

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minhash"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// BenchmarkSnapshotSearchTop measures what a limit saves, the serve-lsh-4k
// shape in process: 32 queries spread over the entries of a 4032-function
// campaign served from its index file, 500 lsh candidates each, at limit 10
// (held to the top-k floor) against limit 0 (every candidate compared in
// full). One op is the 32 queries; ms/query, CSP solves per query and the
// candidates the floor cut per query are reported next to B/op and
// allocs/op. The two counts are exact: they come from one untimed pass on
// one compare worker (Opts.Workers -1), where no compare can finish ahead
// of another and move the floor, so they repeat at any -cpu and
// -benchtime. The timed loop keeps the snapshot's fan-out.
func BenchmarkSnapshotSearchTop(b *testing.B) {
	db := New()
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1, Funcs: 4032, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { return db.AddImage(e.Name, e.Image, e.Truth) })
	if err != nil {
		b.Fatal(err)
	}
	refs := topQueries(b, db, 32)
	// Served as a server serves it: an index file with its band table and
	// packed blocks, candidates compared where they lie.
	if db, err = Load(bytes.NewReader(savedLSH(b, db, minhash.Default))); err != nil {
		b.Fatal(err)
	}
	snap := BuildSnapshot(db, []int{3}, 0)
	pf := PrefilterOptions{Enabled: true, Candidates: 500, Mode: ModeLSH}
	for _, ref := range refs { // every candidate touched before the clock starts
		mustSearch(b, snap, Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: pf})
	}
	for _, bc := range []struct {
		name  string
		limit int
	}{{"limit10", 10}, {"limit0", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			serial := core.DefaultOptions()
			serial.Workers, serial.Tel = -1, telemetry.New()
			for _, ref := range refs {
				mustSearch(b, snap, Query{Ref: ref, Opts: serial, Prefilter: pf, Limit: bc.limit})
			}
			opts := core.DefaultOptions()
			opts.Tel = telemetry.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ref := range refs {
					mustSearch(b, snap, Query{Ref: ref, Opts: opts, Prefilter: pf, Limit: bc.limit})
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*len(refs)), "ms/query")
			q := float64(len(refs))
			b.ReportMetric(float64(serial.Tel.Get(telemetry.CSPSolves))/q, "solves/query")
			b.ReportMetric(float64(serial.Tel.Get(telemetry.CandidatesBelowFloor))/q, "cut/query")
		})
	}
}
