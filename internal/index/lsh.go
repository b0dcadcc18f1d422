package index

import (
	"context"

	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/telemetry"
)

// lshIndex is the banded MinHash candidate generator in its one
// representation, the sorted band table (minhash.BandTable): per band,
// every entry id ordered by (band hash, id), so a band bucket is a
// contiguous, id-ascending stretch of the band's run found by binary
// search, with the hashes recomputed from the signatures. For an index file
// with an LSHT section both slices alias the file mapping — nothing is
// built at first query — and are valid for as long as the store is not
// Closed, the same lifetime as the lazily decoded entries the snapshot
// serves; otherwise the table is sorted once from the signatures at first
// use. It is then read lock-free by any number of queries. Lookup cost is
// Bands binary searches plus the bucket sizes plus a dense counting pass,
// versus the scan prefilter's full posting-list merge.
type lshIndex struct {
	p     minhash.Params
	n     int
	sigs  []uint32 // n·K signature values, function-major
	table []uint32 // Bands runs of n ids
}

// newLSHIndex serves n pre-computed signatures, through table when the
// store persisted one.
func newLSHIndex(p minhash.Params, sigs []uint32, n int, table []uint32) *lshIndex {
	if table == nil {
		table = minhash.BandTable(p, sigs, n)
	}
	return &lshIndex{p: p, n: n, sigs: sigs, table: table}
}

// lshFromStore adopts the persisted signatures (and band table, when
// present) of an index file carrying an LSHB section, or returns nil when the
// file has none.
func lshFromStore(f *idxfile.File) *lshIndex {
	if f == nil || !f.HasLSH() {
		return nil
	}
	return newLSHIndex(f.LSHParams(), f.LSHSigs(), f.NumFuncs(), f.LSHTable())
}

// ranked unions the query's band-bucket collisions and ranks by
// estimated Jaccard — signature positions pinned by colliding bands
// (Rows per collision, so Shared is collisions*Rows out of K; with
// Rows=1 that is exactly the matching-position count), descending, id
// ascending — returning the top limit. Collision counting uses a dense
// per-entry array and a counting-sort selection over the Bands+1
// possible counts, so a probe costs O(total bucket sizes + n) with no
// comparison sort and no per-candidate signature walk. An empty query
// feature set yields no candidates, mirroring the scan prefilter. ctx
// is polled per band; on cancellation the partial ranking is abandoned
// and nil is returned (callers check ctx.Err()). Raw collision counts
// go to tel, and the size of every probed bucket (0 for a band nothing
// collides in) to its lsh_bucket_occupancy value histogram, so bucket
// pileups (a degenerate hash family or corpus) are visible on /metrics.
func (x *lshIndex) ranked(ctx context.Context, query []uint64, limit int, tel *telemetry.Collector) []Ranked {
	if x == nil || limit <= 0 || len(query) == 0 {
		return nil
	}
	qsig := minhash.Signature(nil, query, x.p)
	counts := make([]int32, x.n)
	collisions := 0
	for b := 0; b < x.p.Bands; b++ {
		if ctx != nil && ctx.Err() != nil {
			return nil
		}
		ids := minhash.Bucket(x.p, x.sigs, x.table, x.n, b, minhash.BandHash(qsig, b, x.p))
		tel.ObserveValue(telemetry.LSHBucketOccupancy, int64(len(ids)))
		collisions += len(ids)
		for _, id := range ids {
			counts[id]++
		}
	}
	tel.Add(telemetry.LSHBandCollisions, uint64(collisions))
	// Bucket ids by collision count; iterating ids ascending makes each
	// bucket ascending, so draining counts high-to-low emits the exact
	// (Shared desc, ID asc) order a comparison sort would.
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
