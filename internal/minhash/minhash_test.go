package minhash

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// genPair builds two feature sets with exact Jaccard similarity
// inter/(inter+aOnly+bOnly), all members distinct random u64s.
func genPair(rng *rand.Rand, inter, aOnly, bOnly int) (a, b []uint64) {
	seen := make(map[uint64]bool, inter+aOnly+bOnly)
	draw := func() uint64 {
		for {
			v := rng.Uint64()
			if !seen[v] {
				seen[v] = true
				return v
			}
		}
	}
	for i := 0; i < inter; i++ {
		v := draw()
		a = append(a, v)
		b = append(b, v)
	}
	for i := 0; i < aOnly; i++ {
		a = append(a, draw())
	}
	for i := 0; i < bOnly; i++ {
		b = append(b, draw())
	}
	return a, b
}

// TestSignatureDeterminism: the tentpole determinism contract — the
// same seed + feature set yields byte-identical signatures regardless
// of element order, duplicates, destination-buffer reuse, or how many
// times it is computed.
func TestSignatureDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	feats := make([]uint64, 100)
	for i := range feats {
		feats[i] = rng.Uint64()
	}
	base := Signature(nil, feats, Default)
	if len(base) != Default.K() {
		t.Fatalf("signature length %d, want k=%d", len(base), Default.K())
	}

	// Recompute into a reused buffer.
	buf := make([]uint32, 0, Default.K())
	again := Signature(buf, feats, Default)
	for i := range base {
		if again[i] != base[i] {
			t.Fatalf("position %d differs on recompute: %d vs %d", i, again[i], base[i])
		}
	}

	// Shuffle: a set has no order.
	shuffled := append([]uint64(nil), feats...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := Signature(nil, shuffled, Default); EstJaccard(got, base) != 1 {
		t.Fatal("shuffled feature set changed the signature")
	}

	// Duplicates: a set has no multiplicity.
	doubled := append(append([]uint64(nil), feats...), feats...)
	if got := Signature(nil, doubled, Default); EstJaccard(got, base) != 1 {
		t.Fatal("duplicated features changed the signature")
	}

	// A different seed must change the signature.
	other := Default
	other.Seed++
	if got := Signature(nil, feats, other); EstJaccard(got, base) == 1 {
		t.Fatal("changing the seed left the signature identical")
	}
}

func TestEmptySignature(t *testing.T) {
	sig := Signature(nil, nil, Default)
	for i, v := range sig {
		if v != EmptySig {
			t.Fatalf("empty-set signature position %d = %d, want EmptySig", i, v)
		}
	}
	// Two empty sets: identical signatures, estimate 1, collide everywhere.
	if est := EstJaccard(sig, Signature(nil, []uint64{}, Default)); est != 1 {
		t.Fatalf("EstJaccard(empty, empty) = %v, want 1", est)
	}
}

// TestChernoffBound is the headline property test: the per-position
// collision frequency of MinHash signatures tracks the true Jaccard
// similarity within the Chernoff bound. For each target similarity we
// draw N independent pairs, pool the N*k Bernoulli(J) position trials,
// and require |freq − J| <= eps with eps chosen so the bound
// 2·exp(−2·M·eps²) is < 1e−9 — a deterministic seed then makes any
// failure a real estimator bug, not noise. Per-pair estimates are also
// checked at the per-trial bound (eps = 0.3, k = 64).
func TestChernoffBound(t *testing.T) {
	const N = 200
	p := Default // k = 64
	k := p.K()
	rng := rand.New(rand.NewSource(1))

	cases := []struct {
		inter, aOnly, bOnly int
	}{
		{10, 45, 45},  // J = 0.10
		{30, 35, 35},  // J = 0.30
		{50, 25, 25},  // J = 0.50
		{70, 15, 15},  // J = 0.70
		{90, 5, 5},    // J = 0.90
		{100, 0, 0},   // J = 1.00
		{0, 50, 50},   // J = 0.00
		{25, 75, 150}, // J = 0.10, asymmetric sizes
	}
	for _, tc := range cases {
		j := float64(tc.inter) / float64(tc.inter+tc.aOnly+tc.bOnly)
		name := fmt.Sprintf("J=%.2f/%d+%d+%d", j, tc.inter, tc.aOnly, tc.bOnly)
		t.Run(name, func(t *testing.T) {
			matches := 0
			perTrialViolations := 0
			for trial := 0; trial < N; trial++ {
				a, b := genPair(rng, tc.inter, tc.aOnly, tc.bOnly)
				sa := Signature(nil, a, p)
				sb := Signature(nil, b, p)
				m := SharedPositions(sa, sb)
				matches += m
				if math.Abs(float64(m)/float64(k)-j) > 0.3 {
					perTrialViolations++
				}
			}
			// Pooled frequency: M = N*k draws, eps for 2exp(−2Meps²) < 1e−9.
			m := float64(N * k)
			eps := math.Sqrt(math.Log(2/1e-9) / (2 * m))
			freq := float64(matches) / m
			if math.Abs(freq-j) > eps {
				t.Errorf("pooled collision frequency %.4f vs true Jaccard %.4f exceeds Chernoff eps %.4f (M=%d)",
					freq, j, eps, int(m))
			}
			// Per-trial bound: P(violation) <= 2exp(−2·64·0.09) ≈ 2e−5, so
			// over 200 trials even one violation is overwhelmingly unlikely.
			if perTrialViolations > 0 {
				t.Errorf("%d/%d per-pair estimates strayed more than 0.3 from J=%.2f", perTrialViolations, N, j)
			}
		})
	}
}

// TestBandCollisionSCurve: the empirical probability that two sets
// share at least one band bucket tracks the analytic S-curve
// 1−(1−s^r)^b. This is the property the lsh candidate path's recall
// rests on.
func TestBandCollisionSCurve(t *testing.T) {
	const N = 400
	p := Default
	rng := rand.New(rand.NewSource(2))

	cases := []struct {
		inter, each int // J = inter/(inter+2·each)
	}{
		{5, 47},  // J ≈ 0.05: far below threshold, rare collisions
		{20, 40}, // J = 0.20
		{40, 30}, // J = 0.40
		{70, 15}, // J = 0.70: far above threshold, near-certain collision
	}
	for _, tc := range cases {
		j := float64(tc.inter) / float64(tc.inter+2*tc.each)
		want := CollisionProb(j, p)
		collided := 0
		for trial := 0; trial < N; trial++ {
			a, b := genPair(rng, tc.inter, tc.each, tc.each)
			sa := Signature(nil, a, p)
			sb := Signature(nil, b, p)
			for band := 0; band < p.Bands; band++ {
				if BandHash(sa, band, p) == BandHash(sb, band, p) {
					collided++
					break
				}
			}
		}
		got := float64(collided) / N
		// Binomial(N, want) sd is at most 0.025; 0.1 is a 4-sigma margin
		// on top of the small bias from estimating J by signature.
		if math.Abs(got-want) > 0.1 {
			t.Errorf("J=%.2f: empirical band-collision rate %.3f, S-curve predicts %.3f", j, got, want)
		}
	}

	// Identical sets collide in every band (identical signatures).
	a, _ := genPair(rng, 50, 0, 0)
	sa := Signature(nil, a, p)
	sb := Signature(nil, append([]uint64(nil), a...), p)
	for band := 0; band < p.Bands; band++ {
		if BandHash(sa, band, p) != BandHash(sb, band, p) {
			t.Fatalf("identical sets missed a collision in band %d", band)
		}
	}
}

func TestCollisionProbShape(t *testing.T) {
	p := Default
	// Monotone nondecreasing in s, pinned at the ends.
	prev := 0.0
	for s := 0.0; s <= 1.0001; s += 0.05 {
		c := CollisionProb(s, p)
		if c < prev-1e-12 {
			t.Fatalf("CollisionProb not monotone at s=%.2f", s)
		}
		prev = c
	}
	if c := CollisionProb(0, p); c != 0 {
		t.Errorf("CollisionProb(0) = %v", c)
	}
	if c := CollisionProb(1, p); math.Abs(c-1) > 1e-12 {
		t.Errorf("CollisionProb(1) = %v", c)
	}
	// Threshold sits where the curve crosses ~0.5-ish: below it the
	// curve is small, well above it the curve is near 1.
	th := p.Threshold()
	if th <= 0 || th >= 1 {
		t.Fatalf("Threshold() = %v", th)
	}
	if CollisionProb(th/2, p) > 0.5 {
		t.Errorf("curve too hot below threshold: P(%.2f) = %.3f", th/2, CollisionProb(th/2, p))
	}
	if hi := math.Min(1, th*3); CollisionProb(hi, p) < 0.9 {
		t.Errorf("curve too cold above threshold: P(%.2f) = %.3f", hi, CollisionProb(hi, p))
	}
}

func TestParamsValid(t *testing.T) {
	cases := []struct {
		p    Params
		want bool
	}{
		{Default, true},
		{Params{Bands: 16, Rows: 4, Seed: 1}, true},
		{Params{Bands: 0, Rows: 2}, false},
		{Params{Bands: 2, Rows: 0}, false},
		{Params{Bands: MaxBands + 1, Rows: 1}, false},
		{Params{Bands: 1, Rows: MaxRows + 1}, false},
		{Params{Bands: MaxBands, Rows: MaxRows}, true},
	}
	for _, tc := range cases {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%+v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestEstJaccardEdges(t *testing.T) {
	if got := EstJaccard([]uint32{1, 2}, []uint32{1}); got != 0 {
		t.Errorf("mismatched lengths: %v", got)
	}
	if got := EstJaccard(nil, nil); got != 0 {
		t.Errorf("empty signatures: %v", got)
	}
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 9, 3, 9}
	if got := EstJaccard(a, b); got != 0.5 {
		t.Errorf("EstJaccard = %v, want 0.5", got)
	}
	if got := SharedPositions(a, b); got != 2 {
		t.Errorf("SharedPositions = %d, want 2", got)
	}
}

// tableSigs draws n signatures whose values come from a small alphabet, so
// that band buckets hold several ids and the id tie-break is exercised.
func tableSigs(p Params, n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]uint32, n*p.K())
	for i := range sigs {
		sigs[i] = uint32(rng.Intn(7))
	}
	return sigs
}

// TestBandTableOrder: every band of the table is a permutation of the ids
// in strictly ascending (band hash, id) order, for single-row and
// multi-row bands, and for the empty corpus.
func TestBandTableOrder(t *testing.T) {
	for _, p := range []Params{Default, {Bands: 16, Rows: 2, Seed: 5}} {
		if got := BandTable(p, nil, 0); len(got) != 0 {
			t.Fatalf("%dx%d: empty corpus yields %d table entries", p.Bands, p.Rows, len(got))
		}
		const n = 300
		sigs := tableSigs(p, n, 1)
		table := BandTable(p, sigs, n)
		if len(table) != p.Bands*n {
			t.Fatalf("%dx%d: table holds %d ids, want %d", p.Bands, p.Rows, len(table), p.Bands*n)
		}
		k := p.K()
		for b := 0; b < p.Bands; b++ {
			seen := make([]bool, n)
			var prevH uint64
			var prevID uint32
			for i, id := range table[b*n : (b+1)*n] {
				if id >= n || seen[id] {
					t.Fatalf("%dx%d band %d: id %d out of range or repeated", p.Bands, p.Rows, b, id)
				}
				seen[id] = true
				h := BandHash(sigs[int(id)*k:(int(id)+1)*k], b, p)
				if i > 0 && (h < prevH || (h == prevH && id <= prevID)) {
					t.Fatalf("%dx%d band %d: position %d breaks (band hash, id) order", p.Bands, p.Rows, b, i)
				}
				prevH, prevID = h, id
			}
		}
	}
}

// TestBucketEqualsBruteForce: a probe returns exactly the ids whose band
// hash equals the probed one, ascending — for every bucket that exists and
// for a hash no entry has.
func TestBucketEqualsBruteForce(t *testing.T) {
	for _, p := range []Params{Default, {Bands: 16, Rows: 2, Seed: 5}} {
		const n = 300
		sigs := tableSigs(p, n, 2)
		table := BandTable(p, sigs, n)
		k := p.K()
		for b := 0; b < p.Bands; b++ {
			hashes := make([]uint64, n)
			for id := range hashes {
				hashes[id] = BandHash(sigs[id*k:(id+1)*k], b, p)
			}
			for _, h := range append(hashes[:n:n], 0, ^uint64(0), hashes[0]+1) {
				var want []uint32
				for id, g := range hashes {
					if g == h {
						want = append(want, uint32(id))
					}
				}
				got := Bucket(p, sigs, table, n, b, h)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%dx%d band %d hash %#x: bucket %v, want %v", p.Bands, p.Rows, b, h, got, want)
				}
			}
		}
	}
}

// TestBucketOnShuffledRun: on a run that is not sorted a probe still ends
// and returns a stretch of the run.
func TestBucketOnShuffledRun(t *testing.T) {
	p := Default
	const n = 300
	sigs := tableSigs(p, n, 3)
	table := BandTable(p, sigs, n)
	rng := rand.New(rand.NewSource(4))
	for b := 0; b < p.Bands; b++ {
		run := table[b*n : (b+1)*n]
		rng.Shuffle(n, func(i, j int) { run[i], run[j] = run[j], run[i] })
	}
	k := p.K()
	for b := 0; b < p.Bands; b++ {
		for id := 0; id < n; id++ {
			got := Bucket(p, sigs, table, n, b, BandHash(sigs[id*k:(id+1)*k], b, p))
			if len(got) > n {
				t.Fatalf("band %d: bucket of %d ids out of a run of %d", b, len(got), n)
			}
		}
	}
}
