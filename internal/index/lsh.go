package index

import (
	"context"

	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/telemetry"
)

// lshIndex is the banded MinHash candidate generator: per band, a map
// from band hash to the ascending entry ids bucketed there. It is built
// once (from persisted v3 signatures or freshly hashed feature sets)
// and then read lock-free by any number of queries. The source
// signatures are NOT retained — they may alias a zero-copy mmap slice,
// and everything a probe needs lives in the buckets — so the index
// safely outlives the backing store. Lookup cost is Bands bucket probes
// plus a dense counting pass — independent of corpus size for
// well-spread buckets, versus the scan prefilter's full posting-list
// merge.
type lshIndex struct {
	p       minhash.Params
	n       int
	buckets []map[uint64][]int32
}

// newLSHIndex buckets n pre-computed signatures. The bucket-occupancy
// distribution goes to tel as the lsh_bucket_occupancy value histogram,
// so pathological bucket pileups (a degenerate hash family or corpus)
// are visible on /metrics.
func newLSHIndex(p minhash.Params, sigs []uint32, n int, tel *telemetry.Collector) *lshIndex {
	k := p.K()
	x := &lshIndex{p: p, n: n, buckets: make([]map[uint64][]int32, p.Bands)}
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
	for _, bk := range x.buckets {
		for _, ids := range bk {
			tel.ObserveValue(telemetry.LSHBucketOccupancy, int64(len(ids)))
		}
	}
	return x
}

// lshFromStore adopts the persisted signatures of a v3 file carrying an
// LSHB section, or returns nil when the file has none.
func lshFromStore(f *idxfile.File, tel *telemetry.Collector) *lshIndex {
	if f == nil || !f.HasLSH() {
		return nil
	}
	return newLSHIndex(f.LSHParams(), f.LSHSigs(), f.NumFuncs(), tel)
}

// lshFromFeatures hashes per-entry feature sets under p — the in-memory
// path for gob-backed databases, where the corpus is small enough that
// signing it at first use is cheap.
func lshFromFeatures(p minhash.Params, feats [][]uint64, tel *telemetry.Collector) *lshIndex {
	sigs := make([]uint32, len(feats)*p.K())
	k := p.K()
	for i, fs := range feats {
		minhash.Signature(sigs[i*k:(i+1)*k], fs, p)
	}
	return newLSHIndex(p, sigs, len(feats), tel)
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
// go to tel.
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
		ids := x.buckets[b][minhash.BandHash(qsig, b, x.p)]
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
