// Package core implements function-to-function similarity by tracelet
// decomposition (paper Section 4.2, Algorithm 1): both functions are
// decomposed into k-tracelets, every reference tracelet is compared
// against every target tracelet — alignment, constraint-based rewriting,
// re-scoring — and the fraction of reference tracelets that found a match
// above the tracelet threshold β becomes the function similarity score,
// thresholded by α for a match verdict.
//
// The block-granularity optimization of Section 5.2 is applied: scores
// are computed per distinct basic-block pair and cached in a flat matrix,
// so a block shared by many tracelets is aligned once per distinct target
// block. A decomposition holds every block packed (asm.Packed) — as the
// index file stores it, or as Decompose packs a query — and the compare
// path touches nothing else: the alignment kernel, the rewrite
// engine and the re-score all run on the packed form, out of buffers a
// compare worker owns and reuses. On top sits a lossless score-bound
// pruner (Options.Prune), a cascade of upper bounds on a pair's normalized
// score, cheapest first, all cut at the one threshold that decides a match,
// β: the blocks' identity scores (three loads a pair, in one branch-free
// pass over each reference tracelet's targets), their kind profiles
// (folded into two words a block, then merged), the score DP, the
// order-aware rewrite bound, the rewrite. Each bound dominates everything
// after it, so a pair that cannot match — directly or after any rewrite —
// is never aligned, and every Result has the same Verdict either way.
package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/prep"
	"repro/internal/rewrite"
	"repro/internal/telemetry"
	"repro/internal/tracelet"
)

// Options configures the matcher. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	K     int          // tracelet size in basic blocks
	Beta  float64      // tracelet match threshold (paper β, 0..1)
	Alpha float64      // function coverage-rate threshold (paper α, 0..1)
	Norm  align.Method // score normalization

	// UseRewrite enables the constraint-based rewrite engine for tracelet
	// pairs that do not match syntactically (paper Section 4.4).
	UseRewrite bool
	// RewriteSkipBelow skips the rewrite attempt for pairs whose
	// pre-rewrite normalized score is below this value — the postmortem
	// optimization of Section 6.3 (tracelets scoring below 50% are not
	// improved by rewriting). Zero always attempts the rewrite.
	RewriteSkipBelow float64
	// Prune enables the lossless score-bound pruner, a cascade of upper
	// bounds on a tracelet pair's score, cheapest first, each cut at Beta:
	// the blocks' identity scores, then their instruction-kind profiles,
	// before the alignment DP; the order-aware rewrite bound before the
	// traceback and the constraint solve. Rewriting renames symbols within
	// their class and never changes instruction kinds, so a pair that a
	// bound holds to Beta or less can match neither directly nor after any
	// rewrite, and is never aligned. Results have the same Verdict with and
	// without pruning; only the work changes, and its accounting
	// (PairsRewritten, PairsPruned) with it.
	Prune bool
	// Workers bounds parallelism in CompareEachCtx. 0 means
	// runtime.GOMAXPROCS(0); negative values are clamped to 1 (serial).
	Workers int

	// Tel, when non-nil, receives matcher telemetry: stage counters
	// (block-cache hits/misses, pairs pruned, rewrites
	// attempted/skipped/succeeded) and latency histograms
	// (per compare, per tracelet pair, per rewrite attempt). A nil
	// collector disables instrumentation at negligible cost.
	Tel *telemetry.Collector
	// Trace, when non-nil, receives one child span per Compare call
	// carrying the match-decision trail (per-tracelet attributes). It is
	// a per-query object: set it on the Options of one search, not on a
	// long-lived default. Safe under CompareEachCtx parallelism.
	Trace *telemetry.Span
}

// DefaultK is the tracelet size the paper found best (k=3): what
// DefaultOptions sets, and what a search, a matcher, a snapshot and the
// server use when none is given.
const DefaultK = 3

// DefaultOptions returns the configuration the paper found best: k=3,
// β=0.8 (anywhere in the robust 0.7-0.9 plateau of Table 2), ratio
// normalization, rewriting enabled with the 50% skip optimization, and
// the lossless score-bound pruner on (it never changes Results).
func DefaultOptions() Options {
	return Options{
		K:                DefaultK,
		Beta:             0.8,
		Alpha:            0.5,
		Norm:             align.Ratio,
		UseRewrite:       true,
		RewriteSkipBelow: 0.5,
		Prune:            true,
	}
}

// blockInfo is one distinct basic-block body of a decomposition, with
// everything the matcher wants per block at hand: the packed form every
// compare works on, its content hash, the identity (self-alignment) score,
// and the instruction-kind profile the score-bound pruner intersects, also
// folded into two words.
type blockInfo struct {
	pk    *asm.Packed
	hash  uint64
	fold  fold
	prof  []asm.KindCount
	ident int32
	at    int32 // the graph block whose body this is: the first one visited
}

// Source yields the lifted function of a decomposition, which holds packed
// blocks only. Decode is asked each time the instructions are needed; the
// decomposition keeps nothing of what it returns.
type Source interface {
	Decode() (*prep.Function, error)
}

// Decomposed is a function decomposed into k-tracelets with the distinct
// basic-block bodies deduplicated and preprocessed (packed form, hash,
// identity score, kind profile) so that per-Compare state is a few flat
// matrices instead of a hash map.
//
// Every decomposition is a view over packed blocks (DecomposeBlocks): those
// an index file stores, or those Decompose packs from a lifted query. It
// keeps its Source, which must keep the blocks' memory valid.
type Decomposed struct {
	Name      string
	K         int
	Tracelets []*tracelet.Tracelet
	NumBlocks int
	NumInsts  int

	blocks      []asm.Block // the graph blocks, packed
	distinct    []blockInfo // deduplicated block bodies, in order of first visit
	blockID     []int32     // per tracelet its K blocks' indices into distinct, back to back
	blockIdent  []int32     // the identity scores of those blocks, in the same layout
	ident       []int32     // identity score per tracelet
	maxIdent    int32       // the largest of them, which sizes the size pass's threshold table
	fingerprint uint64

	src Source // where the instructions can be had
}

// lifted is the Source of a function Decompose packed: the function itself.
type lifted struct{ fn *prep.Function }

func (l lifted) Decode() (*prep.Function, error) { return l.fn, nil }

// Decompose packs the graph blocks of a lifted function with their
// successors, all out of the same few arrays (asm.PackEach), and views them
// with DecomposeBlocks, as a stored function is. Its tracelets also carry
// their blocks' bodies, for callers that align tracelets directly. The
// number of allocations does not grow with the function.
func Decompose(fn *prep.Function, k int) *Decomposed {
	g := fn.Graph
	bodies := make([][]asm.Inst, len(g.Blocks))
	nsuccs := 0
	for b, blk := range g.Blocks {
		bodies[b] = blk.Body()
		nsuccs += len(blk.Succs)
	}
	blocks := asm.PackEach(bodies)
	succs := make([]uint32, 0, nsuccs)
	for b, blk := range g.Blocks {
		at := len(succs)
		for _, s := range blk.Succs {
			succs = append(succs, uint32(s))
		}
		blocks[b].Succs = succs[at:len(succs):len(succs)]
	}
	d := DecomposeBlocks(fn.Name, blocks, g.NumInsts(), k, lifted{fn})
	tracelet.WithBodies(d.Tracelets, bodies)
	return d
}

// DecomposeBlocks decomposes a function that is stored packed: blocks are
// its graph blocks as an index file holds them (see asm.Block), numInsts
// its instruction count, jumps included. Nothing is decoded, packed or
// hashed: the k-tracelet paths are walked over the blocks' successors, and
// the distinct blocks are numbered in first-visit order. It aliases blocks
// and whatever they alias, and keeps src — which must keep that memory
// valid — for the callers that ask for instructions (DistinctBlocks); src
// may be nil if none will.
func DecomposeBlocks(name string, blocks []asm.Block, numInsts, k int, src Source) *Decomposed {
	paths := tracelet.Paths(len(blocks), k, func(b int) []uint32 { return blocks[b].Succs })
	d := &Decomposed{
		Name:      name,
		K:         k,
		Tracelets: tracelet.Index(paths, k),
		NumBlocks: len(blocks),
		NumInsts:  numInsts,
		blocks:    blocks,
		src:       src,
	}
	d.number()
	return d
}

// number hands out the distinct-block ids: it visits the tracelets' blocks
// in order, keeps each content it has not met before (told apart by hash)
// as the next distinct block, and derives the tracelets' block ids and
// identity scores and the fingerprint from them.
func (d *Decomposed) number() {
	k, ts := d.K, d.Tracelets
	fp := asm.Mix(asm.Mix(asm.Mix(asm.HashSeed, uint64(k)), uint64(d.NumBlocks)), uint64(d.NumInsts))
	if len(ts) == 0 {
		d.fingerprint = fp
		return
	}
	// One scratch array holds, per graph block, 1 + its distinct id (0: not
	// visited), and an open-addressing table from content hash to the same.
	// All but the largest functions fit the one on the stack.
	nb := len(d.blocks)
	slots := 1
	for slots < 2*nb {
		slots *= 2
	}
	var small [3 * 64]int32
	scratch := small[:]
	if nb+slots > len(small) {
		scratch = make([]int32, nb+slots)
	}
	idOf, table := scratch[:nb], scratch[nb:nb+slots]
	d.distinct = make([]blockInfo, 0, nb)
	// Every tracelet has k blocks: one array holds the blocks' ids, their
	// identity scores and the tracelets' identity scores.
	n := len(ts) * k
	perBlock := make([]int32, 2*n+len(ts))
	d.blockID, d.blockIdent, d.ident = perBlock[:n:n], perBlock[n:2*n:2*n], perBlock[2*n:]
	for i, t := range ts {
		ids := d.blockIDs(i)
		var total int32
		for j, bi := range t.BlockIdx {
			if idOf[bi] == 0 {
				blk := &d.blocks[bi]
				slot := int(blk.Hash) & (slots - 1)
				for table[slot] != 0 && d.distinct[table[slot]-1].hash != blk.Hash {
					slot = (slot + 1) & (slots - 1)
				}
				if table[slot] == 0 {
					ident := int32(2*blk.Len() + len(blk.Args))
					d.distinct = append(d.distinct, blockInfo{
						pk:    &blk.Packed,
						hash:  blk.Hash,
						fold:  foldProfile(blk.Prof, ident),
						prof:  blk.Prof,
						ident: ident,
						at:    int32(bi),
					})
					table[slot] = int32(len(d.distinct))
				}
				idOf[bi] = table[slot]
			}
			id := idOf[bi] - 1
			ids[j] = id
			d.blockIdent[i*k+j] = d.distinct[id].ident
			total += d.distinct[id].ident
			fp = asm.Mix(fp, d.distinct[id].hash)
		}
		d.ident[i] = total
		d.maxIdent = max(d.maxIdent, total)
	}
	d.fingerprint = fp
}

// blockIDs returns, for the blocks of tracelet i in order, their indices
// into distinct.
func (d *Decomposed) blockIDs(i int) []int32 { return d.blockID[i*d.K : (i+1)*d.K : (i+1)*d.K] }

// DistinctBlocks returns the deduplicated basic-block bodies of the
// decomposition (jump instructions already stripped). The slices are
// shared and must be treated as read-only; callers like the index feature
// prefilter use them to derive per-block features without re-walking the
// tracelets. The bodies are the lifted function's, which the Source
// decodes; nil comes back when there is none to be had.
func (d *Decomposed) DistinctBlocks() [][]asm.Inst {
	if d.src == nil {
		return nil
	}
	fn, err := d.src.Decode()
	if err != nil || fn == nil {
		return nil // a source that cannot decode has no blocks to give
	}
	out := make([][]asm.Inst, len(d.distinct))
	for i := range d.distinct {
		out[i] = fn.Graph.Blocks[d.distinct[i].at].Body()
	}
	return out
}

// Fingerprint returns a 64-bit content hash of the decomposition: two
// functions with identical tracelet content (for the same k) collide,
// different content essentially never does. Result caches key on it. It
// is computed from the block content hashes as the blocks are numbered —
// k, the block and instruction counts, then every tracelet's blocks in
// order — and means nothing outside this process.
func (d *Decomposed) Fingerprint() uint64 { return d.fingerprint }

// DecomposeT is Decompose with telemetry: the decomposition is timed into
// tel's decompose-latency histogram and counted. A nil collector makes it
// identical to Decompose.
func DecomposeT(fn *prep.Function, k int, tel *telemetry.Collector) *Decomposed {
	t := tel.StartTimer(telemetry.DecomposeLatency)
	d := Decompose(fn, k)
	t.Stop()
	tel.Inc(telemetry.FunctionsDecomposed)
	return d
}

// profileBound returns an upper bound on the alignment score of two
// blocks: an optimal alignment never takes a negative-Sim pair (skipping
// is free), a positive-Sim pair exists only between SameKind instructions,
// and such a pair scores at most the class weight. Each class therefore
// contributes at most min(count_r, count_t)·weight.
func profileBound(p, q []asm.KindCount) int32 {
	var b int32
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		pi, qj := &p[i], &q[j]
		switch {
		case pi.Hash < qj.Hash || (pi.Hash == qj.Hash && pi.Weight < qj.Weight):
			i++
		case qj.Hash < pi.Hash || (pi.Hash == qj.Hash && qj.Weight < pi.Weight):
			j++
		default:
			b += min(pi.Count, qj.Count) * pi.Weight
			i++
			j++
		}
	}
	return b
}

// A fold is a block's kind profile folded into 16 byte lanes, two words
// of 8: each class adds count × weight to the lane its hash picks
// (foldLane). Two blocks' folds bound their profile bound from above —
// the lane-wise minima add up to at least the classes' minima, since
// classes that share a lane can only raise a sum of minima — and the
// smaller identity score bounds them, since a block's lanes add up to its
// own. A lane holds 7 bits, so a lane-wise
// minimum and a horizontal add run on the two words without a carry.
type fold [2]uint64

const (
	laneHigh = 0x8080808080808080 // bit 7 of every lane, which no fold sets
	laneMax  = 127
	// laneShorts picks every other lane of a word as four 16-bit lanes.
	laneShorts = 0x00ff00ff00ff00ff
)

// noFold is the fold of a block whose profile cannot be folded: bit 7 set
// in every lane, which no fold has (foldBound reads the first word).
var noFold = fold{laneHigh, laneHigh}

// foldLane picks the lane of a kind class: the low four bits of its hash.
// They depend on the low bits of the class's encoded bytes alone, and on
// the compiled campaign they keep the frequent classes apart better than a
// mixed hash does: the fold cuts 99.6 % of the pairs the profile merge
// cuts in the exhaustive search's shape, against 99.2 % for the top four
// bits and 97.8 % for the top four after a multiplicative mix.
func foldLane(h uint64) uint { return uint(h & 15) }

// foldProfile folds a block's kind profile (see fold), or returns noFold
// when the fold would not bound what the profile bound does: when a lane
// would pass 7 bits, when an entry counts less than one instruction or
// weighs less than a bare instruction (2), or when the entries do not add
// up to the block's identity score. A stored profile is taken on trust,
// so these checks keep a crafted one from changing which pairs are cut:
// such a block's pairs take the profile merge alone.
func foldProfile(prof []asm.KindCount, ident int32) fold {
	var f fold
	sum := int32(0)
	for _, kc := range prof {
		if kc.Count < 1 || kc.Weight < 2 || int64(kc.Count)*int64(kc.Weight) > laneMax {
			return noFold
		}
		cw := kc.Count * kc.Weight
		l := foldLane(kc.Hash)
		// The lane held at most 127 and gains at most 127: it cannot carry
		// into the next, and has bit 7 set exactly when it passes 127.
		if f[l/8] += uint64(cw) << (8 * (l % 8)); f[l/8]&laneHigh != 0 {
			return noFold
		}
		sum += cw
	}
	if sum != ident {
		return noFold
	}
	return f
}

// foldMin returns the sum over the 16 lanes of the smaller of a's and b's
// lane: the folded bound of two blocks. Lanes hold 7 bits, so 128 + a - b
// neither borrows from the next lane nor loses its sign, which bit 7
// keeps: set exactly where a ≥ b.
func foldMin(a, b fold) int32 {
	var s uint64
	for w := range a {
		ge := ((a[w] | laneHigh) - b[w]) & laneHigh >> 7 * 0xff
		m := b[w]&ge | a[w]&^ge
		s += m&laneShorts + m>>8&laneShorts // four 16-bit lanes, each at most 4·127
	}
	return int32(s * 0x0001000100010001 >> 48)
}

// sizeBound returns an upper bound on the blockwise profile bound of a
// tracelet pair from the identity scores of its blocks alone: a block's
// profile counts every instruction once at its class weight, which sums to
// its identity score, so the intersection of two profiles is at most the
// smaller of the two. r holds the reference tracelet's block identity
// scores, t the target's from its first block on.
func sizeBound(r, t []int32) int {
	t = t[:len(r)]
	var s int32
	for b, x := range r {
		s += min(x, t[b])
	}
	return int(s)
}

// sizeTable readies the size pass's threshold table for the compare in
// hand. A pair's identity scores rI, tI enter align.Norm only as x =
// rI+tI under Ratio and x = min(rI, tI) under Containment, and need[x] is
// the largest size bound that Norm holds to β or less at x (-1 when even 0
// clears β). Norm is monotone in the score, so a size bound clears β
// exactly when it is above need[x]: the integer test cuts the pairs the
// float one did. A size bound is at most min(rI, tI) — x/2 under Ratio, x
// under Containment — so an entry looks no further; and Norm falls as x
// grows, so need[x] is at least need[x-1] and its walk starts there. The
// table is the worker's: it grows as larger identity scores ask for it and
// is built again only when β or the method changes.
func (ctx *cmpCtx) sizeTable(beta float64, norm align.Method) {
	hi := int(ctx.ref.maxIdent) + int(ctx.tgt.maxIdent)
	if norm == align.Containment {
		hi = int(min(ctx.ref.maxIdent, ctx.tgt.maxIdent))
	}
	if b := math.Float64bits(beta); b != ctx.needBeta || norm != ctx.needNorm {
		ctx.need, ctx.needBeta, ctx.needNorm = ctx.need[:0], b, norm
	}
	if hi < len(ctx.need) {
		return
	}
	ctx.need = slices.Grow(ctx.need, hi+1-len(ctx.need))
	for x := len(ctx.need); x <= hi; x++ {
		s, top, rI, tI := int32(-1), x/2, x, 0 // Norm reads rI+tI = x
		if norm == align.Containment {
			top, tI = x, x // Norm reads min(rI, tI) = x
		}
		if x > 0 {
			s = ctx.need[x-1]
		}
		for int(s) < top && align.Norm(int(s)+1, rI, tI, norm) <= beta {
			s++
		}
		ctx.need = append(ctx.need, s)
	}
}

// sizePass is the first stage of the pruner's cascade as one pass over the
// row of reference tracelet ri: it keeps in ctx.surv, in target order, the
// target tracelets whose size bound is above the pair's threshold in the
// table — those the bound does not hold to β — and returns them. The pass
// does not branch on a pair: every target is written to the next free
// slot, and only a survivor moves the slot on.
func (ctx *cmpCtx) sizePass(ri int, norm align.Method) []int32 {
	ref, tgt := ctx.ref, ctx.tgt
	k := ref.K
	r, rI, surv := ref.blockIdent[ri*k:(ri+1)*k:(ri+1)*k], ref.ident[ri], ctx.surv
	tIdents := tgt.ident[:len(surv)]
	n := 0
	if k == DefaultK && norm != align.Containment {
		n = sizePass3(surv, r, tgt.blockIdent, tIdents, ctx.need[rI:])
	} else {
		containment := norm == align.Containment
		for ti, tI := range tIdents {
			x := rI + tI
			if containment {
				x = min(rI, tI)
			}
			surv[n] = int32(ti)
			if sizeBound(r, tgt.blockIdent[ti*k:]) > int(ctx.need[x]) {
				n++
			}
		}
	}
	return surv[:n]
}

// sizePass3 is the size pass at k = DefaultK under Ratio, the blocks'
// minima unrolled: need is the table from the reference tracelet's
// identity score on, so a target's threshold is need at its own.
func sizePass3(surv, r, tSizes, tIdents, need []int32) int {
	r0, r1, r2 := r[0], r[1], r[2]
	tSizes = tSizes[:3*len(tIdents)]
	n := 0
	for ti, tI := range tIdents {
		t := tSizes[3*ti : 3*ti+3 : 3*ti+3]
		sb := min(r0, t[0]) + min(r1, t[1]) + min(r2, t[2])
		surv[n] = int32(ti)
		if sb > need[tI] {
			n++
		}
	}
	return n
}

// Result is the outcome of one function-to-function comparison.
type Result struct {
	Name            string  // target function name
	SimilarityScore float64 // coverage rate of reference tracelets
	IsMatch         bool

	RefTracelets   int // |RefTracelets|
	MatchedDirect  int // matched before any rewrite
	MatchedRewrite int // matched only after the rewrite
	PairsCompared  int
	// Work accounting, not part of the answer (see Verdict): the pairs that
	// reached the rewrite stage — scored in [RewriteSkipBelow, β] and, under
	// Options.Prune, bounded above β — and the pairs a bound of the pruner's
	// cascade cut. Pruning never raises the first and alone makes the second
	// nonzero.
	PairsRewritten int
	PairsPruned    int

	// Truncated reports that the comparison stopped early — cut below a
	// search's top-k floor, or aborted by its context — so SimilarityScore
	// is only a lower bound and the Result must not be ranked.
	Truncated bool
}

// Matched returns the total number of matched reference tracelets.
func (r Result) Matched() int { return r.MatchedDirect + r.MatchedRewrite }

// Verdict returns r with its work accounting (PairsRewritten, PairsPruned)
// zeroed: what the matcher answered, as opposed to what the answer cost.
// Options.Prune leaves every Verdict bit-identical.
func (r Result) Verdict() Result {
	r.PairsRewritten, r.PairsPruned = 0, 0
	return r
}

// Matcher compares decomposed functions.
type Matcher struct {
	Opts Options
}

// NewMatcher returns a matcher over the given options.
func NewMatcher(opts Options) *Matcher {
	if opts.K <= 0 {
		opts.K = DefaultK
	}
	return &Matcher{Opts: opts}
}

// cmpStats tallies one Compare locally (no atomics in the inner loops);
// finishCompare flushes it to the collector in a handful of atomic adds.
type cmpStats struct {
	cacheHits   uint64
	cacheMisses uint64
	// pairs cut by each bound of the pruner's cascade, see scanTracelet
	prunedSize    uint64
	prunedProfile uint64
	prunedRewrite uint64
	rwAttempted   uint64
	rwSkipped     uint64
	rwSucceeded   uint64
}

// cancelCheckInterval is how many pair-loop iterations pass between Done
// channel probes. A power of two keeps the check a mask; 32 bounds the
// overshoot after cancellation to a handful of block-cache lookups while
// keeping the per-pair cost of an active context to one increment and one
// branch.
const cancelCheckInterval = 32

// cancelCheck is the cooperative cancellation probe threaded through the
// matcher's pair loops. The zero value (and any check built from a
// context whose Done channel is nil, such as context.Background()) is
// completely free: one nil comparison per poll, no channel operations —
// so uncancellable compares stay bit-identical in behavior and cost.
type cancelCheck struct {
	done <-chan struct{}
	ctx  context.Context
	seq  uint32
}

func newCancelCheck(ctx context.Context) cancelCheck {
	if ctx == nil {
		return cancelCheck{}
	}
	if done := ctx.Done(); done != nil {
		return cancelCheck{done: done, ctx: ctx}
	}
	return cancelCheck{}
}

// poll reports the context's error, probing the Done channel once every
// cancelCheckInterval calls (cheap enough for the per-pair hot loop).
func (c *cancelCheck) poll() error {
	if c.done == nil {
		return nil
	}
	c.seq++
	if c.seq&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return c.now()
}

// pollN is poll for n pair-loop iterations at once: it probes the Done
// channel when they cross a multiple of cancelCheckInterval.
func (c *cancelCheck) pollN(n int) error {
	if c.done == nil {
		return nil
	}
	seq := c.seq + uint32(n)
	crossed := seq/cancelCheckInterval != c.seq/cancelCheckInterval
	c.seq = seq
	if !crossed {
		return nil
	}
	return c.now()
}

// now probes the Done channel immediately — for coarse loop boundaries
// (per rewrite attempt, per reference tracelet) where the work between
// checks is already expensive.
func (c *cancelCheck) now() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// cmpCtx is one compare worker's state: what the Compare in progress is
// bound to — flat score/bound matrices over the distinct-block cross
// product, the telemetry sink and the (optional) trace span — and the
// scratch every Compare of the worker reuses: the matrices' memory, the
// alignment kernel's rows, the rewrite engine with its solver, and the
// rewrite-candidate and traceback buffers. A warm worker compares without
// allocating.
type cmpCtx struct {
	ref, tgt *Decomposed
	td       int // matrix stride: len(tgt.distinct)
	// The row of the reference tracelet in hand: the target tracelets that
	// survive its size pass, in target order, or without the pruner every
	// target tracelet (see scanTracelet). Its length is the row's.
	surv []int32
	// The size pass's threshold table (see sizeTable), and the β (its bits)
	// and method it holds for.
	need     []int32
	needBeta uint64
	needNorm align.Method
	// rd×td each; -1 = not yet computed. bounds, the profile bounds only
	// pairs the fold passes ask for, and rwBounds, the order-aware bounds
	// only rewrite candidates ask for, are nil until the first one does.
	scores, bounds, rwBounds []int32

	cancel    cancelCheck
	cancelErr error // first context error observed; aborts the compare

	tel   *telemetry.Collector
	span  *telemetry.Span
	stats cmpStats

	mats    [3][]int32 // backing memory of scores, bounds, rwBounds
	pairSeq uint64     // pairs seen by this worker; drives 1-in-8 pair-latency sampling
	dp      align.Kernel
	rw      rewrite.Engine
	rwRef   int           // reference tracelet rw is set to, -1 for none
	rblk    []*asm.Packed // its packed blocks
	tblk    []*asm.Packed // the packed blocks of the target being rewritten
	pairs   []align.Pair  // the tracebacks of its blocks, back to back ...
	ends    []int         // ... block b's ending at ends[b]
	cands   []rewriteCand

	// A compare rewrites in a second phase (see compareTop): the tracelets
	// the first left to a rewrite, each with its candidates from the first
	// feasible one on, back to back in stash.
	pending []pendingTracelet
	stash   []rewriteCand
	// The floor check of the compare in hand: the score bound and the floor
	// it was last held to, and whether the compare stopped there.
	floorChecked        bool
	floorBound, floorAt float64
	cut                 bool
}

// rewriteCand is a target tracelet worth a rewrite attempt, with the
// pre-rewrite score that ranks it.
type rewriteCand struct {
	ti   int
	norm float64
}

// pendingTracelet is a reference tracelet that the first phase of a
// compare left unmatched with a feasible rewrite candidate: its rewrite
// loop resumes at stash[from:to].
type pendingTracelet struct {
	ri, from, to int
	span         *telemetry.Span
}

// ctxPool recycles compare workers' state.
var ctxPool = sync.Pool{New: func() any { return new(cmpCtx) }}

// newCmpCtx returns a pooled worker state bound to (ref, tgt).
func newCmpCtx(ref, tgt *Decomposed, tel *telemetry.Collector) *cmpCtx {
	ctx := ctxPool.Get().(*cmpCtx)
	ctx.bind(ref, tgt, tel)
	return ctx
}

// bind points the worker at a new function pair and forgets everything
// the previous Compare learned.
func (ctx *cmpCtx) bind(ref, tgt *Decomposed, tel *telemetry.Collector) {
	ctx.ref, ctx.tgt, ctx.td, ctx.tel = ref, tgt, len(tgt.distinct), tel
	ctx.rw.Tel = tel
	ctx.cancel, ctx.cancelErr, ctx.span, ctx.stats = cancelCheck{}, nil, nil, cmpStats{}
	ctx.rwRef = -1
	ctx.scores, ctx.bounds, ctx.rwBounds = ctx.matrix(0), nil, nil
	ctx.pending, ctx.stash = ctx.pending[:0], ctx.stash[:0]
	ctx.floorChecked, ctx.cut = false, false
}

// matrix returns the worker's i-th matrix sized for the function pair in
// hand, every cell unknown.
func (ctx *cmpCtx) matrix(i int) []int32 {
	n := len(ctx.ref.distinct) * ctx.td
	if cap(ctx.mats[i]) < n {
		ctx.mats[i] = make([]int32, n)
	}
	m := ctx.mats[i][:n]
	for k := range m {
		m[k] = -1
	}
	return m
}

// release returns the worker state to the pool; it must not be used after.
// The pooled state keeps its buffers and nothing of the functions it
// compared: a parked worker must not hold a decomposition alive.
func (ctx *cmpCtx) release() {
	ctx.ref, ctx.tgt, ctx.tel, ctx.span, ctx.rw.Tel = nil, nil, nil, nil, nil
	ctx.cancel = cancelCheck{}
	clear(ctx.rblk[:cap(ctx.rblk)])
	clear(ctx.tblk[:cap(ctx.tblk)])
	clear(ctx.pending[:cap(ctx.pending)])
	ctx.rw.Reset()
	ctxPool.Put(ctx)
}

// pairTimer returns a running PairLatency timer for one pair in eight
// (the zero Timer otherwise). Timing every pair costs two clock reads on
// a path that is often just a cache lookup, which benchmarks showed at
// ~7% Compare overhead; sampling keeps the histogram representative at
// ~1/8 of that cost. The counter belongs to the worker, not to one
// Compare, so the samples fall uniformly over the pairs the worker sees
// rather than on every Compare's first.
func (ctx *cmpCtx) pairTimer() telemetry.Timer {
	if ctx.tel == nil {
		return telemetry.Timer{}
	}
	seq := ctx.pairSeq
	ctx.pairSeq++
	if seq&7 != 0 {
		return telemetry.Timer{}
	}
	return ctx.tel.StartTimer(telemetry.PairLatency)
}

// blockScore returns the alignment score of distinct block pair (ri, ti),
// computing the DP at most once per Compare. Equal-hash blocks
// short-circuit to the identity score — the same hash-means-equal-content
// assumption the hash-keyed alignment cache has always made.
func (ctx *cmpCtx) blockScore(ri, ti int32) int32 {
	idx := int(ri)*ctx.td + int(ti)
	if s := ctx.scores[idx]; s >= 0 {
		ctx.stats.cacheHits++
		return s
	}
	rb, tb := &ctx.ref.distinct[ri], &ctx.tgt.distinct[ti]
	var s int32
	if rb.hash == tb.hash {
		ctx.stats.cacheHits++ // identical content: self-alignment, no DP
		s = rb.ident
	} else {
		ctx.stats.cacheMisses++
		s = int32(ctx.dp.Score(rb.pk, tb.pk))
	}
	ctx.scores[idx] = s
	return s
}

// blockBound returns an upper bound on blockScore(ri, ti) without running
// the DP (linear profile merge, cached like the scores).
func (ctx *cmpCtx) blockBound(ri, ti int32) int32 {
	if ctx.bounds == nil {
		ctx.bounds = ctx.matrix(1)
	}
	idx := int(ri)*ctx.td + int(ti)
	if b := ctx.bounds[idx]; b >= 0 {
		return b
	}
	rb, tb := &ctx.ref.distinct[ri], &ctx.tgt.distinct[ti]
	var b int32
	if rb.hash == tb.hash {
		b = rb.ident
	} else {
		b = profileBound(rb.prof, tb.prof)
	}
	ctx.bounds[idx] = b
	return b
}

// blockRewriteBound returns an upper bound on the score of distinct block
// pair (ri, ti) after any rewrite of the target block: the alignment
// kernel with every same-kind pair at its full weight, cached like the
// scores. It respects instruction order, which the kind profile does not,
// so it lies between the post-rewrite score and blockBound.
func (ctx *cmpCtx) blockRewriteBound(ri, ti int32) int32 {
	if ctx.rwBounds == nil {
		ctx.rwBounds = ctx.matrix(2)
	}
	idx := int(ri)*ctx.td + int(ti)
	if b := ctx.rwBounds[idx]; b >= 0 {
		return b
	}
	rb, tb := &ctx.ref.distinct[ri], &ctx.tgt.distinct[ti]
	var b int32
	if rb.hash == tb.hash {
		b = rb.ident
	} else {
		b = int32(ctx.dp.Bound(rb.pk, tb.pk))
	}
	ctx.rwBounds[idx] = b
	return b
}

// pairScore is the blockwise alignment score of tracelet pair (ri, ti) —
// the Score of the full alignment, without any traceback.
func (ctx *cmpCtx) pairScore(ri, ti int) int {
	rids, tids := ctx.ref.blockIDs(ri), ctx.tgt.blockIDs(ti)
	s := 0
	for b := range rids {
		s += int(ctx.blockScore(rids[b], tids[b]))
	}
	return s
}

// foldBound is an upper bound on pairBound(ri, ti) from the blocks' folds
// (see fold), or -1 when a block pair has none to check: an equal-hash
// pair is bounded by its identity score, as blockBound does, and any
// other by foldMin, unless a block of it has no fold.
func (ctx *cmpCtx) foldBound(ri, ti int) int {
	rids, tids := ctx.ref.blockIDs(ri), ctx.tgt.blockIDs(ti)
	tids = tids[:len(rids)]
	var s int32
	for b, rid := range rids {
		rb, tb := &ctx.ref.distinct[rid], &ctx.tgt.distinct[tids[b]]
		switch {
		case rb.hash == tb.hash:
			s += rb.ident
		case (rb.fold[0]|tb.fold[0])&laneHigh != 0:
			return -1
		default:
			s += foldMin(rb.fold, tb.fold)
		}
	}
	return int(s)
}

// pairBound is a cheap upper bound on pairScore(ri, ti): no DP runs.
func (ctx *cmpCtx) pairBound(ri, ti int) int {
	rids, tids := ctx.ref.blockIDs(ri), ctx.tgt.blockIDs(ti)
	s := 0
	for b := range rids {
		s += int(ctx.blockBound(rids[b], tids[b]))
	}
	return s
}

// rewriteBound is an upper bound on the score rewritePair(ri, ti) can
// reach, tighter than pairBound.
func (ctx *cmpCtx) rewriteBound(ri, ti int) int {
	rids, tids := ctx.ref.blockIDs(ri), ctx.tgt.blockIDs(ti)
	s := 0
	for b := range rids {
		s += int(ctx.blockRewriteBound(rids[b], tids[b]))
	}
	return s
}

// packedBlocks appends the packed blocks of tracelet i of d to dst.
func packedBlocks(dst []*asm.Packed, d *Decomposed, i int) []*asm.Packed {
	for _, id := range d.blockIDs(i) {
		dst = append(dst, d.distinct[id].pk)
	}
	return dst
}

// alignPair computes the full blockwise alignment of tracelet pair
// (ri, ti), traceback included: the evidence Explain reports.
func (ctx *cmpCtx) alignPair(ri, ti int) align.Alignment {
	return ctx.dp.AlignBlocks(packedBlocks(nil, ctx.ref, ri), packedBlocks(nil, ctx.tgt, ti))
}

// rewritePair is the matcher's one rewrite-and-rescore step (paper
// Sections 4.3-4.4): trace the alignment of tracelet pair (ri, ti) back —
// deferred to here, since only a rewrite consumes the aligned pairs —
// rewrite the target toward the reference under the constraints the
// aligned pairs generate, and score the rewritten target against the
// reference again. It returns the normalized post-rewrite score; the
// rewritten blocks stay readable through ctx.rw.Block until the next call.
// A rewrite renames arguments and never adds or removes one, so the
// target's identity score is unchanged. RewriteLatency times the whole
// step, SolveLatency (inside the engine) the constraint solve alone.
func (ctx *cmpCtx) rewritePair(ri, ti int, norm align.Method) float64 {
	rt := ctx.tel.StartTimer(telemetry.RewriteLatency)
	if ctx.rwRef != ri {
		ctx.rblk = packedBlocks(ctx.rblk[:0], ctx.ref, ri)
		ctx.rw.SetRef(ctx.rblk)
		ctx.rwRef = ri
	}
	ctx.tblk = packedBlocks(ctx.tblk[:0], ctx.tgt, ti)
	ctx.pairs, ctx.ends = ctx.pairs[:0], ctx.ends[:0]
	for b, t := range ctx.tblk {
		_, ctx.pairs = ctx.dp.Align(ctx.rblk[b], t, ctx.pairs)
		ctx.ends = append(ctx.ends, len(ctx.pairs))
	}
	ctx.rw.Rewrite(ctx.tblk, ctx.pairs, ctx.ends)
	score := 0
	for b, r := range ctx.rblk {
		score += ctx.dp.Score(r, ctx.rw.Block(b))
	}
	n := align.Norm(score, int(ctx.ref.ident[ri]), int(ctx.tgt.ident[ti]), norm)
	rt.Stop()
	return n
}

// Compare computes the similarity of target tgt against reference ref
// (paper Algorithm 1: FunctionsMatchScore). It cannot be interrupted; use
// CompareCtx to bound the work with a context.
func (m *Matcher) Compare(ref, tgt *Decomposed) Result {
	res, _ := m.CompareCtx(context.Background(), ref, tgt)
	return res
}

// CompareCtx is Compare with cooperative cancellation: the pair loop
// polls cc every few iterations and aborts the comparison as soon as the
// context is done, returning the partial Result alongside cc's error
// (the Result is then a lower bound and must not be ranked). A context
// that can never be cancelled (context.Background()) adds no overhead
// and the Result is bit-identical to Compare's.
func (m *Matcher) CompareCtx(cc context.Context, ref, tgt *Decomposed) (Result, error) {
	ctx := ctxPool.Get().(*cmpCtx)
	defer ctx.release()
	return m.compare(cc, ctx, ref, tgt)
}

// compare is CompareCtx on the state of the worker that runs it.
func (m *Matcher) compare(cc context.Context, ctx *cmpCtx, ref, tgt *Decomposed) (Result, error) {
	res, _, err := m.compareTop(cc, ctx, ref, tgt, nil)
	return res, err
}

// compareTop is compare held to a search's floor (nil: none), reporting
// whether it stopped below it.
//
// The compare runs in two phases. Phase A takes every reference tracelet
// through the size, profile and score stages, and for one left unmatched
// checks its rewrite candidates' order-aware bounds up to the first
// feasible one. Phase B then resumes each such tracelet's rewrite loop
// there, in tracelet order. A tracelet's sequence of operations is the
// same whatever the floor, so a compare that runs to the end returns the
// same Result with a floor as without one. Against a floor, before each of
// phase B's tracelets the compare holds its score bound — direct and
// rewrite matches plus the tracelets still pending, over the total — to
// the floor, and stops when the bound is strictly below it: such a
// candidate scores below the k-th best of the search and is in no top-k
// answer. Its Result is then Truncated and a lower bound. Without a floor
// nothing is held and nothing stops.
func (m *Matcher) compareTop(cc context.Context, ctx *cmpCtx, ref, tgt *Decomposed, floor *Floor) (Result, bool, error) {
	ct := m.Opts.Tel.StartTimer(telemetry.CompareLatency)
	res := Result{Name: tgt.Name, RefTracelets: len(ref.Tracelets)}
	ctx.bind(ref, tgt, m.Opts.Tel)
	ctx.cancel = newCancelCheck(cc)
	if m.Opts.Trace != nil {
		ctx.span = m.Opts.Trace.Child("compare:" + tgt.Name)
	}
	if total := len(ref.Tracelets); total > 0 {
		ctx.readyRows(&m.Opts)
		for ri := 0; ri < total && ctx.cancelErr == nil; ri++ {
			tsp := ctx.traceletSpan(ri)
			size, profile := ctx.stats.prunedSize, ctx.stats.prunedProfile
			direct, cands := m.scanTracelet(ri, ctx, &res, tsp)
			if tsp != nil {
				tsp.Set("pairs_pruned_size", int64(ctx.stats.prunedSize-size))
				tsp.Set("pairs_pruned_profile", int64(ctx.stats.prunedProfile-profile))
				tsp.Set("pairs_pruned_rewrite_bound", 0)
			}
			cands = m.nextFeasible(ri, cands, ctx, &res, tsp) // none after a direct match
			if len(cands) == 0 {
				if direct {
					res.MatchedDirect++
				}
				ctx.endTracelet(tsp, direct)
				continue
			}
			ctx.pending = append(ctx.pending, pendingTracelet{ri: ri, from: len(ctx.stash), to: len(ctx.stash) + len(cands), span: tsp})
			ctx.stash = append(ctx.stash, cands...)
		}
		for i, p := range ctx.pending {
			// Phase A probed the context before this tracelet's first
			// feasible candidate, which phase B now rewrites: probe again.
			if err := ctx.cancel.now(); err != nil {
				ctx.cancelErr = err
				break
			}
			if floor != nil {
				ctx.floorChecked = true
				ctx.floorBound, ctx.floorAt = float64(res.Matched()+len(ctx.pending)-i)/float64(total), floor.Load()
				if ctx.floorBound < ctx.floorAt {
					ctx.cut, res.Truncated = true, true
					for _, q := range ctx.pending[i:] {
						q.span.Set("cut_by_floor", 1)
					}
					break
				}
			}
			matched := m.rewriteFrom(p.ri, ctx.stash[p.from:p.to], ctx, &res, p.span)
			if matched {
				res.MatchedRewrite++
			}
			ctx.endTracelet(p.span, matched)
		}
		if ctx.span != nil {
			for _, p := range ctx.pending {
				p.span.End() // those a cut or an abort left open
			}
		}
		res.SimilarityScore = float64(res.Matched()) / float64(total)
		res.IsMatch = res.SimilarityScore > m.Opts.Alpha
		if floor != nil && !ctx.floorChecked {
			ctx.floorChecked = true
			ctx.floorBound, ctx.floorAt = res.SimilarityScore, floor.Load()
		}
	}
	if ctx.cancelErr != nil {
		// Partial evaluation: the score is a lower bound over the
		// tracelets visited before the abort, never a rankable verdict.
		res.Truncated = true
	}
	m.finishCompare(&res, ctx, ct)
	return res, ctx.cut, ctx.cancelErr
}

// finishCompare flushes the local tally into the collector and closes the
// compare span with the decision summary.
func (m *Matcher) finishCompare(res *Result, ctx *cmpCtx, ct telemetry.Timer) {
	ct.Stop()
	tel, st := ctx.tel, &ctx.stats
	pruned := st.prunedSize + st.prunedProfile + st.prunedRewrite
	skipped := st.rwSkipped
	if m.Opts.UseRewrite {
		// A pair cut before the score DP was denied its rewrite as well.
		skipped += st.prunedSize + st.prunedProfile
	}
	res.PairsPruned = int(pruned)
	tel.Inc(telemetry.Compares)
	tel.Add(telemetry.PairsCompared, uint64(res.PairsCompared))
	tel.Add(telemetry.PairsPrunedBound, pruned)
	tel.Add(telemetry.PairsPrunedSize, st.prunedSize)
	tel.Add(telemetry.PairsPrunedProfile, st.prunedProfile)
	tel.Add(telemetry.PairsPrunedRewrite, st.prunedRewrite)
	tel.Add(telemetry.BlockCacheHits, st.cacheHits)
	tel.Add(telemetry.BlockCacheMisses, st.cacheMisses)
	tel.Add(telemetry.RewritesAttempted, st.rwAttempted)
	tel.Add(telemetry.RewritesSkipped, skipped)
	tel.Add(telemetry.RewritesSucceeded, st.rwSucceeded)
	if res.IsMatch {
		tel.Inc(telemetry.Matches)
	}
	if ctx.cut {
		tel.Inc(telemetry.CandidatesBelowFloor)
	}
	if sp := ctx.span; sp != nil {
		sp.Set("ref_tracelets", int64(res.RefTracelets))
		sp.Set("pairs_compared", int64(res.PairsCompared))
		sp.Set("pairs_pruned_bound", int64(pruned))
		sp.Set("pairs_pruned_size", int64(st.prunedSize))
		sp.Set("pairs_pruned_profile", int64(st.prunedProfile))
		sp.Set("pairs_pruned_rewrite_bound", int64(st.prunedRewrite))
		sp.Set("block_cache_hits", int64(st.cacheHits))
		sp.Set("block_cache_misses", int64(st.cacheMisses))
		sp.Set("rewrites_attempted", int64(st.rwAttempted))
		sp.Set("rewrites_skipped", int64(skipped))
		sp.Set("rewrites_succeeded", int64(st.rwSucceeded))
		sp.Set("matched_direct", int64(res.MatchedDirect))
		sp.Set("matched_rewrite", int64(res.MatchedRewrite))
		sp.Set("similarity_bp", int64(res.SimilarityScore*10000))
		if res.IsMatch {
			sp.Set("verdict_match", 1)
		} else {
			sp.Set("verdict_match", 0)
		}
		if ctx.floorChecked {
			// How close the candidate came to the answer of a top-k search:
			// its score bound when last held to the floor, and the floor.
			sp.Set("bound_bp", int64(ctx.floorBound*10000))
			sp.Set("floor_bp", int64(ctx.floorAt*10000))
			cut := int64(0)
			if ctx.cut {
				cut = 1
			}
			sp.Set("cut_by_floor", cut)
		}
		sp.End()
	}
}

// traceletSpan opens the decision-trail span of reference tracelet ri
// under the compare span, or returns nil when the compare is not traced.
func (ctx *cmpCtx) traceletSpan(ri int) *telemetry.Span {
	if ctx.span == nil {
		return nil
	}
	return ctx.span.Child("tracelet:" + strconv.Itoa(ri))
}

// endTracelet closes the span of a reference tracelet, marking one that was
// evaluated to the end without a match.
func (ctx *cmpCtx) endTracelet(tsp *telemetry.Span, matched bool) {
	if tsp == nil {
		return
	}
	if !matched && ctx.cancelErr == nil {
		tsp.Set("via_rewrite", -1)
	}
	tsp.End()
}

// readyRows readies the worker for the rows of the compare in hand: the
// row buffer is sized for the target's tracelets and, without the pruner,
// holds every one of them in order; with it, each row's size pass fills
// the buffer, and the pass's threshold table is readied here.
func (ctx *cmpCtx) readyRows(opts *Options) {
	n := len(ctx.tgt.ident)
	if ctx.tgt.K != ctx.ref.K {
		n = 0 // tracelets of different lengths are never paired
	}
	if cap(ctx.surv) < n {
		ctx.surv = make([]int32, n)
	}
	ctx.surv = ctx.surv[:n]
	if opts.Prune {
		ctx.sizeTable(opts.Beta, opts.Norm)
		return
	}
	for i := range ctx.surv {
		ctx.surv[i] = int32(i)
	}
}

// scanTracelet runs reference tracelet ri against every target tracelet
// through the size, profile and score stages, stopping at the first direct
// match. Without one it returns the pairs worth a rewrite attempt, best
// pre-rewrite score first — one stable sort, not repeated selection.
//
// Under Options.Prune a pair passes a cascade of upper bounds on its score,
// cheapest first, each cut at β: the size bound (sizeBound), the kind-profile
// stage, then the score itself, and for a pair worth a rewrite the
// order-aware rewrite bound before the rewrite (nextFeasible). Every bound
// dominates every later stage — size ≥ fold ≥ profile ≥ rewrite bound ≥
// post-rewrite score, and profile ≥ score — and Norm is monotone in the
// score, so a pair cut at any stage could have matched neither directly
// nor after a rewrite.
//
// The kind-profile stage checks the blocks' folds (foldBound) against the
// size pass's integer table first, and merges their profiles (pairBound)
// only for a pair the fold passes or cannot bound. The fold is never below
// the merge, so the stage cuts the pairs the merge alone cut.
//
// The size bound cuts most pairs, and it runs first over the whole row
// (sizePass): the later stages walk only its survivors, in target order,
// which is the order the pairs met them in before. What the row cost is
// read from positions (visited): the pairs up to the one the walk stopped
// at were visited, and those of them that are not survivors the size
// bound cut.
func (m *Matcher) scanTracelet(ri int, ctx *cmpCtx, res *Result, tsp *telemetry.Span) (bool, []rewriteCand) {
	opts := &m.Opts
	beta, norm := opts.Beta, opts.Norm
	rIdent, tIdents := int(ctx.ref.ident[ri]), ctx.tgt.ident
	row, surv := len(ctx.surv), ctx.surv
	if opts.Prune {
		if err := ctx.cancel.pollN(row); err != nil {
			ctx.cancelErr = err
			return false, nil
		}
		surv = ctx.sizePass(ri, norm)
	}
	cands := ctx.cands[:0]
	bestPre := 0.0
	polled := ctx.cancel.done != nil
	for j, t := range surv {
		ti := int(t)
		if polled {
			if err := ctx.cancel.poll(); err != nil {
				ctx.cancelErr = err
				ctx.visited(res, ti, j)
				return false, nil
			}
		}
		tIdent := int(tIdents[ti])
		if opts.Prune {
			x := rIdent + tIdent
			if norm == align.Containment {
				x = min(rIdent, tIdent)
			}
			if fb := ctx.foldBound(ri, ti); (fb >= 0 && fb <= int(ctx.need[x])) || align.Norm(ctx.pairBound(ri, ti), rIdent, tIdent, norm) <= beta {
				ctx.stats.prunedProfile++
				continue
			}
		}
		pt := ctx.pairTimer()
		pre := align.Norm(ctx.pairScore(ri, ti), rIdent, tIdent, norm)
		pt.Stop()
		if pre > bestPre {
			bestPre = pre
		}
		if pre > beta {
			if tsp != nil {
				tsp.Set("matched_ti", int64(ti))
				tsp.Set("score_bp", int64(pre*10000))
				tsp.Set("via_rewrite", 0)
			}
			ctx.visited(res, ti+1, j+1)
			return true, nil
		}
		if opts.UseRewrite {
			if pre >= opts.RewriteSkipBelow {
				cands = append(cands, rewriteCand{ti: ti, norm: pre})
			} else {
				ctx.stats.rwSkipped++
			}
		}
	}
	ctx.visited(res, row, len(surv))
	ctx.cands = cands // keep what the appends grew
	if tsp != nil {
		tsp.Set("best_pre_score_bp", int64(bestPre*10000))
		tsp.Set("rewrite_candidates", int64(len(cands)))
	}
	sortCands(cands)
	return false, cands
}

// visited accounts for a row walked up to its n-th pair, which was its m-th
// survivor: the n pairs were visited, and the size bound cut the n-m of
// them that did not survive the size pass.
func (ctx *cmpCtx) visited(res *Result, n, m int) {
	res.PairsCompared += n
	ctx.stats.prunedSize += uint64(n - m)
}

// nextFeasible takes rewrite candidates of reference tracelet ri to the
// rewrite stage in order and returns them from the first whose rewrite
// bound clears β on, nil when there is none.
func (m *Matcher) nextFeasible(ri int, cands []rewriteCand, ctx *cmpCtx, res *Result, tsp *telemetry.Span) []rewriteCand {
	opts := &m.Opts
	rIdent, tIdents := int(ctx.ref.ident[ri]), ctx.tgt.ident
	for i, c := range cands {
		// A rewrite attempt (alignment traceback + CSP solve) is the most
		// expensive unit of work in the matcher: probe the context before
		// every one, not just every few pairs.
		if err := ctx.cancel.now(); err != nil {
			ctx.cancelErr = err
			return nil
		}
		res.PairsRewritten++
		ctx.stats.rwAttempted++
		// Rewriting renames symbols within their class (registers to
		// registers, locals to locals) and never changes an instruction's
		// kind or its place in the block, so the post-rewrite score is at
		// most what the pair would score if every same-kind instruction pair
		// agreed in every argument. When even that cannot clear β the
		// traceback and the CSP solve are provably futile.
		if opts.Prune && align.Norm(ctx.rewriteBound(ri, c.ti), rIdent, int(tIdents[c.ti]), opts.Norm) <= opts.Beta {
			ctx.stats.prunedRewrite++
			tsp.Add("pairs_pruned_rewrite_bound", 1)
			continue
		}
		return cands[i:]
	}
	return nil
}

// rewriteFrom rewrites reference tracelet ri against its rewrite candidates
// until one matches: the first is feasible and already taken to the rewrite
// stage (nextFeasible), the rest go through it in turn.
func (m *Matcher) rewriteFrom(ri int, cands []rewriteCand, ctx *cmpCtx, res *Result, tsp *telemetry.Span) bool {
	for len(cands) > 0 {
		c := cands[0]
		if post := ctx.rewritePair(ri, c.ti, m.Opts.Norm); post > m.Opts.Beta {
			ctx.stats.rwSucceeded++
			if tsp != nil {
				tsp.Set("matched_ti", int64(c.ti))
				tsp.Set("score_bp", int64(post*10000))
				tsp.Set("via_rewrite", 1)
			}
			return true
		}
		cands = m.nextFeasible(ri, cands[1:], ctx, res, tsp)
	}
	return false
}

// sortCands orders rewrite candidates by descending pre-rewrite score,
// ties in target order.
func sortCands(cands []rewriteCand) {
	slices.SortStableFunc(cands, func(a, b rewriteCand) int {
		switch {
		case a.norm > b.norm:
			return -1
		case a.norm < b.norm:
			return 1
		}
		return 0
	})
}

// compareWorkers resolves the worker count for n targets: 0 means
// runtime.GOMAXPROCS(0), negatives clamp to 1 (serial), and the pool
// never exceeds the number of targets — a 1-target compare must not spin
// up a machine-wide pool.
func compareWorkers(workers, n int) int {
	switch {
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	case workers < 0:
		workers = 1
	}
	if workers > n {
		workers = n
	}
	return workers
}

// CompareEachCtx is the one compare pool: it compares the reference
// against target(0..n-1) on Opts.Workers goroutines and returns results
// in target order. target runs inside the workers, so a getter that
// decodes or decomposes lazily does that work in parallel too; it must be
// safe for concurrent calls, and a target it cannot produce (a stored
// function that turns out corrupt) fails the whole call with its error —
// a candidate is never dropped silently. Workers claim indices from a
// shared counter, in order, and stop at the first error, the getter's or
// the context's, which is returned; the result slice is then partial
// (untouched slots are zero Results) and must be discarded by ranking
// callers.
//
// With a floor, every Result compared in full is offered to it, and a
// compare whose score bound falls strictly below it stops before its
// remaining rewrites (see compareTop): cut[i] reports that Result i is such
// a lower bound and belongs to no answer the floor was made for. Without
// one, cut is nil and every Result is exact.
func (m *Matcher) CompareEachCtx(cc context.Context, ref *Decomposed, n int, target func(i int) (*Decomposed, error), floor *Floor) ([]Result, []bool, error) {
	if cc == nil {
		cc = context.Background()
	}
	out, cut := make([]Result, n), floor.marks(n)
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := compareWorkers(m.Opts.Workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := ctxPool.Get().(*cmpCtx)
			defer ctx.release()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				err := cc.Err()
				var tgt *Decomposed
				if err == nil {
					tgt, err = target(i)
				}
				if err == nil {
					var res Result
					var below bool
					if res, below, err = m.compareTop(cc, ctx, ref, tgt, floor); err == nil {
						out[i] = res
						if below {
							cut[i] = true
						} else if floor != nil {
							floor.Offer(res.SimilarityScore)
						}
						continue
					}
				}
				errOnce.Do(func() { firstErr = err })
				return
			}
		}()
	}
	wg.Wait()
	return out, cut, firstErr
}
