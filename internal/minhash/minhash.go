// Package minhash implements k-permutation MinHash signatures and LSH
// banding over u64 feature sets — the sublinear candidate-generation
// substrate of the search stack.
//
// A function's prefilter feature set (normalized per-block 3-grams, see
// internal/index) is summarized as k = Bands*Rows 32-bit signature
// values; signature position i holds the minimum of a per-position
// 64-bit mixing hash over the set. Two sets with Jaccard similarity s
// agree at each position with probability s, so the fraction of
// matching positions is an unbiased estimator of s with Chernoff
// concentration: P(|est − s| >= eps) <= 2·exp(−2k·eps²).
//
// Banding turns the estimator into a bucketed index: the signature is
// split into Bands bands of Rows values, each band is hashed to one
// bucket key, and two sets collide (share at least one band bucket)
// with probability 1 − (1 − s^Rows)^Bands — an S-curve with threshold
// ~(1/Bands)^(1/Rows). Candidate lookup is then a union of Bands bucket
// probes instead of a corpus scan.
//
// Everything here is deterministic: the same Params (including Seed)
// and the same feature set produce byte-identical signatures on every
// platform, which is what lets signatures be persisted in a TRACYIDX
// LSHB section and compared against freshly computed ones.
package minhash

import "math"

// EmptySig is the signature value written at every position for an
// empty feature set (min over nothing). Two empty sets therefore have
// identical signatures, matching the J(∅,∅)=1 convention.
const EmptySig = ^uint32(0)

// DefaultSeed is the seed baked into Default. Changing it would orphan
// every persisted LSHB section, so it is a named constant, not a knob.
const DefaultSeed = 0x74726163796c7368 // "tracylsh"

// Params fixes one MinHash/LSH configuration. Signatures computed under
// different Params are incomparable.
type Params struct {
	Bands int    // number of bands (bucket tables)
	Rows  int    // signature values per band
	Seed  uint64 // hash-family seed
}

// Default is the tuned configuration: 64 single-row bands (k=64). With
// Rows=1 a band collision IS a matching signature position, so the
// collision count doubles as the Jaccard estimate that ranks
// candidates, and the effective threshold drops to ~1/64 — low enough
// that the mid-similarity tail of the exhaustive top-10 (Jaccard
// 0.05–0.2 on campaign corpora) still surfaces. Wider rows (e.g. 32x2)
// buy smaller buckets but cull exactly that tail, costing ~15 recall@10
// points in the tuning sweep, and 32 single-row bands leave too many
// tail entries tied at one collision (recall@10 0.88 vs 0.97 at 20k
// functions) — see EXPERIMENTS.md and BENCH_lsh.json.
var Default = Params{Bands: 64, Rows: 1, Seed: DefaultSeed}

// K returns the signature length Bands*Rows.
func (p Params) K() int { return p.Bands * p.Rows }

// Valid reports whether the parameters are usable (positive bands and
// rows within the caps the LSHB loader enforces).
func (p Params) Valid() bool {
	return p.Bands > 0 && p.Rows > 0 && p.Bands <= MaxBands && p.Rows <= MaxRows
}

// Caps shared with the idxfile LSHB validator: generous for any sane
// tuning, tight enough that a corrupt header cannot demand a huge k.
const (
	MaxBands = 256
	MaxRows  = 64
)

// mix64 is the splitmix64 finalizer — a cheap bijective 64-bit mixer
// with full avalanche, the hash family behind every signature position.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// posSeed derives the independent per-position seed for signature
// position i.
func posSeed(seed uint64, i int) uint64 {
	return mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
}

// Signature computes the k-value MinHash signature of feats under p
// into dst (reused when cap(dst) >= k, else reallocated) and returns
// it. feats is treated as a set; order and duplicates do not affect the
// result. An empty set yields EmptySig at every position.
func Signature(dst []uint32, feats []uint64, p Params) []uint32 {
	k := p.K()
	if cap(dst) < k {
		dst = make([]uint32, k)
	} else {
		dst = dst[:k]
	}
	if len(feats) == 0 {
		for i := range dst {
			dst[i] = EmptySig
		}
		return dst
	}
	for i := 0; i < k; i++ {
		seed := posSeed(p.Seed, i)
		min := ^uint64(0)
		for _, f := range feats {
			if h := mix64(f ^ seed); h < min {
				min = h
			}
		}
		dst[i] = uint32(min)
	}
	return dst
}

// BandHash folds band b (rows [b*Rows, (b+1)*Rows) of sig) into one
// bucket key. The band index is mixed in so identical row values in
// different bands key different buckets.
func BandHash(sig []uint32, band int, p Params) uint64 {
	return foldBand(bandSeed(band, p), sig[band*p.Rows:(band+1)*p.Rows])
}

func bandSeed(band int, p Params) uint64 {
	return mix64(p.Seed ^ (uint64(band)+1)*0x9e3779b97f4a7c15)
}

func foldBand(h uint64, rows []uint32) uint64 {
	for _, v := range rows {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// EstJaccard returns the fraction of matching positions between two
// signatures of equal length — the MinHash estimate of the underlying
// sets' Jaccard similarity. It returns 0 for mismatched lengths.
func EstJaccard(a, b []uint32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// SharedPositions returns the number of matching positions between two
// equal-length signatures (the integer form of EstJaccard, used for
// ranking without float math).
func SharedPositions(a, b []uint32) int {
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return match
}

// CollisionProb returns the banding S-curve 1 − (1 − s^Rows)^Bands: the
// probability that two sets with Jaccard similarity s share at least
// one band bucket under p.
func CollisionProb(s float64, p Params) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Bands))
}

// Threshold returns the similarity (1/Bands)^(1/Rows) where the
// S-curve is steepest — sets above it almost always collide, sets far
// below it almost never do.
func (p Params) Threshold() float64 {
	return math.Pow(1/float64(p.Bands), 1/float64(p.Rows))
}

// BandTable returns the sorted band table of n signatures laid out
// function-major in sigs (n·K values): Bands runs of n entry ids, run b
// holding every id in [0, n) ordered by (BandHash of its signature in
// band b, id). A band bucket is then a contiguous stretch of the run,
// found by binary search with the hashes recomputed from sigs, and it
// lists its ids ascending — the representation persisted in a TRACYIDX
// LSHT section and probed by the index. Each run is sorted by a
// stable LSD radix sort over the 64-bit band hashes, which starts from
// the ids in ascending order and so needs no tie-break pass.
func BandTable(p Params, sigs []uint32, n int) []uint32 {
	const (
		digitBits = 11
		passes    = 6 // 6 x 11 bits cover the 64-bit key; even, so each run ends where it began
	)
	k := p.K()
	table := make([]uint32, p.Bands*n)
	keys := make([]uint64, 2*n)
	tmp := make([]uint32, n)
	var count [1 << digitBits]uint32
	for b := 0; b < p.Bands; b++ {
		srcK, dstK := keys[:n], keys[n:]
		srcI, dstI := table[b*n:(b+1)*n], tmp
		for id := range srcI {
			srcK[id] = BandHash(sigs[id*k:(id+1)*k], b, p)
			srcI[id] = uint32(id)
		}
		for pass := 0; pass < passes; pass++ {
			shift := uint(pass * digitBits)
			clear(count[:])
			for _, key := range srcK {
				count[(key>>shift)&(1<<digitBits-1)]++
			}
			sum := uint32(0)
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			for i, key := range srcK {
				d := (key >> shift) & (1<<digitBits - 1)
				pos := count[d]
				count[d]++
				dstK[pos], dstI[pos] = key, srcI[i]
			}
			srcK, dstK = dstK, srcK
			srcI, dstI = dstI, srcI
		}
	}
	return table
}

// Bucket returns the ids in band's bucket h, ascending, out of a band
// table of the n signatures in sigs (see BandTable): the stretch of the
// band's run whose band hashes, recomputed from sigs, equal h, delimited
// by two binary searches. The result aliases table. On a run that is not
// in (band hash, id) order the searches still end, somewhere, and the
// result is some stretch of the run — wrong, but ids of the table and
// each at most once.
func Bucket(p Params, sigs, table []uint32, n, band int, h uint64) []uint32 {
	run := table[band*n : (band+1)*n]
	seed, k, r0 := bandSeed(band, p), p.K(), band*p.Rows
	// first returns the first position in run[lo:] whose hash is >= h
	// (above == false) or > h (above == true).
	first := func(lo int, above bool) int {
		hi := n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			at := int(run[mid])*k + r0
			if g := foldBand(seed, sigs[at:at+p.Rows]); g < h || (above && g == h) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	lo := first(0, false)
	return run[lo:first(lo, true)]
}
