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
// block. On top of it sits a lossless score-bound pruner (Options.Prune):
// a pair whose best-possible normalized score cannot clear β — nor
// qualify for a rewrite attempt — skips the alignment DP entirely, with
// bit-identical Results. Full tracebacks are deferred until a rewrite
// attempt actually consumes the aligned pairs.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
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
	// Prune enables the lossless score-bound pruner: a tracelet pair runs
	// the alignment DP only if an upper bound on its score (from
	// precomputed per-block instruction-kind profiles) could clear Beta.
	// The bound holds for rewrite attempts too — rewriting renames symbols
	// within their class and never changes instruction kinds, so it cannot
	// lift a pair over a bound it already failed. Results are bit-identical
	// with and without pruning; only the work changes.
	Prune bool
	// PruneAlpha cuts a Compare short once the α verdict is decided: when
	// even matching every remaining reference tracelet cannot lift the
	// coverage above Alpha, the remaining tracelets are skipped. The
	// IsMatch verdict is preserved exactly, but SimilarityScore becomes a
	// lower bound (Result.Truncated is set), so ranked search over exact
	// scores should leave this off.
	PruneAlpha bool
	// DedupeQuery evaluates each distinct reference tracelet once and
	// multiplies the verdict across identical copies — one of the
	// search-engine optimizations the paper's prototype deferred
	// (Section 6.3). It never changes scores, only work.
	DedupeQuery bool
	// Workers bounds parallelism in CompareMany. 0 means
	// runtime.GOMAXPROCS(0); negative values are clamped to 1 (serial).
	Workers int

	// Tel, when non-nil, receives matcher telemetry: stage counters
	// (block-cache hits/misses, pairs pruned, rewrites
	// attempted/skipped/succeeded, dedupe savings) and latency histograms
	// (per compare, per tracelet pair, per rewrite attempt). A nil
	// collector disables instrumentation at negligible cost.
	Tel *telemetry.Collector
	// Trace, when non-nil, receives one child span per Compare call
	// carrying the match-decision trail (per-tracelet attributes). It is
	// a per-query object: set it on the Options of one search, not on a
	// long-lived default. Safe under CompareMany parallelism.
	Trace *telemetry.Span
}

// DefaultOptions returns the configuration the paper found best: k=3,
// β=0.8 (anywhere in the robust 0.7-0.9 plateau of Table 2), ratio
// normalization, rewriting enabled with the 50% skip optimization, and
// the lossless score-bound pruner on (it never changes Results).
func DefaultOptions() Options {
	return Options{
		K:                3,
		Beta:             0.8,
		Alpha:            0.5,
		Norm:             align.Ratio,
		UseRewrite:       true,
		RewriteSkipBelow: 0.5,
		Prune:            true,
	}
}

// blockInfo is one distinct basic-block body of a decomposition, with
// everything the matcher precomputes per block: a content hash, the
// identity (self-alignment) score, and the instruction-kind profile the
// score-bound pruner intersects.
type blockInfo struct {
	insts []asm.Inst
	hash  uint64
	ident int32
	prof  []kindCount
}

// Decomposed is a function decomposed into k-tracelets with the distinct
// basic-block bodies deduplicated and preprocessed (hash, identity score,
// kind profile) so that per-Compare state is two flat matrices instead of
// a hash map.
type Decomposed struct {
	Name      string
	K         int
	Tracelets []*tracelet.Tracelet
	NumBlocks int
	NumInsts  int

	distinct []blockInfo // deduplicated block bodies
	blockID  [][]int32   // per tracelet, per block: index into distinct
	ident    []int       // identity score per tracelet
}

// Decompose extracts and preprocesses the k-tracelets of a lifted function.
func Decompose(fn *prep.Function, k int) *Decomposed {
	ts := tracelet.Extract(fn.Graph, k)
	d := &Decomposed{
		Name:      fn.Name,
		K:         k,
		Tracelets: ts,
		NumBlocks: len(fn.Graph.Blocks),
		NumInsts:  fn.Graph.NumInsts(),
		blockID:   make([][]int32, len(ts)),
		ident:     make([]int, len(ts)),
	}
	// Tracelets share block slices heavily: resolve each shared slice once
	// by pointer identity, and each distinct content once by hash.
	type sliceID struct {
		first *asm.Inst
		n     int
	}
	byPtr := make(map[sliceID]int32)
	byHash := make(map[uint64]int32)
	for i, t := range ts {
		ids := make([]int32, len(t.Blocks))
		total := 0
		for j, blk := range t.Blocks {
			var sid sliceID
			if len(blk) > 0 {
				sid = sliceID{&blk[0], len(blk)}
			}
			id, ok := byPtr[sid]
			if !ok {
				h := hashInsts(blk)
				id, ok = byHash[h]
				if !ok {
					id = int32(len(d.distinct))
					d.distinct = append(d.distinct, blockInfo{
						insts: blk,
						hash:  h,
						ident: int32(align.IdentityScore(blk)),
						prof:  kindProfileOf(blk),
					})
					byHash[h] = id
				}
				byPtr[sid] = id
			}
			ids[j] = id
			total += int(d.distinct[id].ident)
		}
		d.blockID[i] = ids
		d.ident[i] = total
	}
	return d
}

// DistinctBlocks returns the deduplicated basic-block bodies of the
// decomposition (jump instructions already stripped). The slices are
// shared and must be treated as read-only; callers like the index feature
// prefilter use them to derive per-block features without re-walking the
// tracelets.
func (d *Decomposed) DistinctBlocks() [][]asm.Inst {
	out := make([][]asm.Inst, len(d.distinct))
	for i := range d.distinct {
		out[i] = d.distinct[i].insts
	}
	return out
}

// Fingerprint returns a stable 64-bit content hash of the decomposition:
// two functions with identical tracelet content (for the same k) collide,
// different content essentially never does. Result caches key on it.
func (d *Decomposed) Fingerprint() uint64 {
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mix(uint64(d.K))
	mix(uint64(d.NumBlocks))
	mix(uint64(d.NumInsts))
	for _, t := range d.Tracelets {
		mix(t.Hash())
	}
	return h
}

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

const offset64, prime64 = 14695981039346656037, 1099511628211

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime64 }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime64
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return (h ^ 0) * prime64
}

func fnvArg(h uint64, a asm.Arg) uint64 {
	h = fnvByte(h, byte(a.Kind))
	switch a.Kind {
	case asm.KindReg:
		return fnvU64(h, uint64(a.Reg))
	case asm.KindImm:
		return fnvU64(h, uint64(a.Imm))
	case asm.KindSym:
		return fnvString(fnvByte(h, byte(a.Cls)), a.Sym)
	}
	return h
}

// hashInsts content-hashes a block body by walking the instruction
// structure directly — no text rendering (the String-based hash was the
// hottest allocation site in Decompose).
func hashInsts(insts []asm.Inst) uint64 {
	h := uint64(offset64)
	for _, in := range insts {
		h = fnvString(h, in.Mnemonic)
		for _, op := range in.Ops {
			if op.IsMem() {
				h = fnvByte(h, '[')
				for _, t := range op.Mem {
					h = fnvByte(h, byte(t.Op))
					h = fnvArg(h, t.Arg)
				}
			} else {
				if op.Offset {
					h = fnvByte(h, '&')
				}
				h = fnvArg(h, op.Arg)
			}
			h = fnvByte(h, ',')
		}
		h = fnvByte(h, '\n')
	}
	return h
}

// kindHash hashes the SameKind equivalence class of an instruction: the
// mnemonic plus each operand's shape (direct/memory, the offset flag,
// memory-term operators, and argument types). asm.SameKind(a, b) implies
// kindHash(a) == kindHash(b); a hash collision can only merge two classes,
// which over-approximates — safe for an upper bound.
func kindHash(in asm.Inst) uint64 {
	h := fnvString(uint64(offset64), in.Mnemonic)
	for _, op := range in.Ops {
		if op.IsMem() {
			h = fnvByte(h, '[')
			for _, t := range op.Mem {
				h = fnvByte(h, byte(t.Op))
				h = fnvByte(h, byte(t.Arg.Kind))
				if t.Arg.Kind == asm.KindSym {
					h = fnvByte(h, byte(t.Arg.Cls))
				}
			}
		} else {
			if op.Offset {
				h = fnvByte(h, '&')
			}
			h = fnvByte(h, byte(op.Arg.Kind))
			if op.Arg.Kind == asm.KindSym {
				h = fnvByte(h, byte(op.Arg.Cls))
			}
		}
		h = fnvByte(h, ',')
	}
	return h
}

// kindCount is one entry of a block's instruction-kind profile: how many
// instructions of one SameKind class the block holds, and the identity
// weight (2 + #args, the maximum Sim of a pair within the class) each
// contributes. SameKind instructions have equal argument counts, so the
// weight is a class property.
type kindCount struct {
	hash   uint64
	weight int32
	count  int32
}

// kindProfileOf computes a block's kind profile, sorted by (hash, weight)
// so two profiles intersect with a linear merge.
func kindProfileOf(insts []asm.Inst) []kindCount {
	type key struct {
		hash   uint64
		weight int32
	}
	m := make(map[key]int32, len(insts))
	for _, in := range insts {
		m[key{kindHash(in), int32(2 + in.NumArgs())}]++
	}
	prof := make([]kindCount, 0, len(m))
	for k, c := range m {
		prof = append(prof, kindCount{hash: k.hash, weight: k.weight, count: c})
	}
	sort.Slice(prof, func(i, j int) bool {
		if prof[i].hash != prof[j].hash {
			return prof[i].hash < prof[j].hash
		}
		return prof[i].weight < prof[j].weight
	})
	return prof
}

// profileBound returns an upper bound on the alignment score of two
// blocks: an optimal alignment never takes a negative-Sim pair (skipping
// is free), a positive-Sim pair exists only between SameKind instructions,
// and such a pair scores at most the class weight. Each class therefore
// contributes at most min(count_r, count_t)·weight.
func profileBound(p, q []kindCount) int32 {
	var b int32
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		pi, qj := &p[i], &q[j]
		switch {
		case pi.hash < qj.hash || (pi.hash == qj.hash && pi.weight < qj.weight):
			i++
		case qj.hash < pi.hash || (pi.hash == qj.hash && qj.weight < pi.weight):
			j++
		default:
			c := pi.count
			if qj.count < c {
				c = qj.count
			}
			b += c * pi.weight
			i++
			j++
		}
	}
	return b
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
	PairsRewritten int
	PairsPruned    int // pairs skipped by the lossless score-bound pruner

	// Truncated reports that the comparison stopped early because the α
	// verdict was already decided (Options.PruneAlpha): IsMatch is exact,
	// but SimilarityScore is then only a lower bound.
	Truncated bool
}

// Matched returns the total number of matched reference tracelets.
func (r Result) Matched() int { return r.MatchedDirect + r.MatchedRewrite }

// Matcher compares decomposed functions.
type Matcher struct {
	Opts Options
}

// NewMatcher returns a matcher over the given options.
func NewMatcher(opts Options) *Matcher {
	if opts.K <= 0 {
		opts.K = 3
	}
	return &Matcher{Opts: opts}
}

// cmpStats tallies one Compare locally (no atomics in the inner loops);
// finishCompare flushes it to the collector in a handful of atomic adds.
type cmpStats struct {
	cacheHits   uint64
	cacheMisses uint64
	prunedBound uint64
	rwAttempted uint64
	rwSkipped   uint64
	rwSucceeded uint64
	dedupeSaved uint64
}

// i32Pool recycles the per-Compare score/bound matrices.
var i32Pool = sync.Pool{New: func() any { return new([]int32) }}

// getI32 returns a pooled length-n buffer filled with -1 ("unknown").
func getI32(n int) *[]int32 {
	p := i32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	} else {
		*p = (*p)[:n]
	}
	for i := range *p {
		(*p)[i] = -1
	}
	return p
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

// cmpCtx carries one Compare's working state through the tracelet loops:
// flat pooled score/bound matrices over the distinct-block cross product,
// lazily built full alignments (rewrite candidates only), the telemetry
// sink and the (optional) trace span.
type cmpCtx struct {
	ref, tgt             *Decomposed
	td                   int // matrix stride: len(tgt.distinct)
	scoresBuf, boundsBuf *[]int32
	scores, bounds       []int32 // rd×td; -1 = not yet computed
	full                 map[uint64]*align.Alignment

	cancel    cancelCheck
	cancelErr error // first context error observed; aborts the compare

	tel     *telemetry.Collector
	span    *telemetry.Span
	stats   cmpStats
	pairSeq uint64 // pairs seen; drives 1-in-8 pair-latency sampling
}

func newCmpCtx(ref, tgt *Decomposed, tel *telemetry.Collector) *cmpCtx {
	ctx := &cmpCtx{ref: ref, tgt: tgt, td: len(tgt.distinct), tel: tel}
	n := len(ref.distinct) * ctx.td
	ctx.scoresBuf = getI32(n)
	ctx.boundsBuf = getI32(n)
	ctx.scores, ctx.bounds = *ctx.scoresBuf, *ctx.boundsBuf
	return ctx
}

// release returns the pooled matrices; the ctx must not be used after.
func (ctx *cmpCtx) release() {
	i32Pool.Put(ctx.scoresBuf)
	i32Pool.Put(ctx.boundsBuf)
	ctx.scoresBuf, ctx.boundsBuf, ctx.scores, ctx.bounds = nil, nil, nil, nil
}

// pairTimer returns a running PairLatency timer for one pair in eight
// (the zero Timer otherwise). Timing every pair costs two clock reads on
// a path that is often just a cache lookup, which benchmarks showed at
// ~7% Compare overhead; uniform sampling keeps the histogram
// representative at ~1/8 of that cost.
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
		s = int32(align.Score(rb.insts, tb.insts))
	}
	ctx.scores[idx] = s
	return s
}

// blockBound returns an upper bound on blockScore(ri, ti) without running
// the DP (linear profile merge, cached like the scores).
func (ctx *cmpCtx) blockBound(ri, ti int32) int32 {
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

// pairScore is the blockwise alignment score of tracelet pair (ri, ti) —
// the Score of the full alignment, without any traceback.
func (ctx *cmpCtx) pairScore(ri, ti int) int {
	rids, tids := ctx.ref.blockID[ri], ctx.tgt.blockID[ti]
	s := 0
	for b := range rids {
		s += int(ctx.blockScore(rids[b], tids[b]))
	}
	return s
}

// pairBound is a cheap upper bound on pairScore(ri, ti): no DP runs.
func (ctx *cmpCtx) pairBound(ri, ti int) int {
	rids, tids := ctx.ref.blockID[ri], ctx.tgt.blockID[ti]
	s := 0
	for b := range rids {
		s += int(ctx.blockBound(rids[b], tids[b]))
	}
	return s
}

// fullBlock returns the traceback alignment of distinct block pair
// (ri, ti), computed lazily: only rewrite attempts (and Explain evidence)
// consume Pairs/Deleted/Inserted, so the scan path never pays for a
// traceback matrix.
func (ctx *cmpCtx) fullBlock(ri, ti int32) *align.Alignment {
	key := uint64(uint32(ri))<<32 | uint64(uint32(ti))
	if ba, ok := ctx.full[key]; ok {
		return ba
	}
	if ctx.full == nil {
		ctx.full = make(map[uint64]*align.Alignment)
	}
	rb, tb := &ctx.ref.distinct[ri], &ctx.tgt.distinct[ti]
	var a align.Alignment
	if rb.hash == tb.hash {
		// Identical content: the optimal alignment is the diagonal.
		a = align.Alignment{Score: int(rb.ident)}
		if n := len(rb.insts); n > 0 {
			a.Pairs = make([]align.Pair, n)
			for i := range a.Pairs {
				a.Pairs[i] = align.Pair{Ref: i, Tgt: i}
			}
		}
	} else {
		a = align.Align(rb.insts, tb.insts)
	}
	ctx.scores[int(ri)*ctx.td+int(ti)] = int32(a.Score)
	ctx.full[key] = &a
	return &a
}

// alignPair assembles the full blockwise alignment of tracelet pair
// (ri, ti) from per-block tracebacks, with the output slices preallocated
// to their known bounds (pairs+deleted partition the reference sequence,
// pairs+inserted the target's).
func (ctx *cmpCtx) alignPair(ri, ti int) align.Alignment {
	r, t := ctx.ref.Tracelets[ri], ctx.tgt.Tracelets[ti]
	rids, tids := ctx.ref.blockID[ri], ctx.tgt.blockID[ti]
	nR, nT := r.NumInsts(), t.NumInsts()
	minN := nR
	if nT < minN {
		minN = nT
	}
	var out align.Alignment
	if minN > 0 {
		out.Pairs = make([]align.Pair, 0, minN)
	}
	if nR > 0 {
		out.Deleted = make([]int, 0, nR)
	}
	if nT > 0 {
		out.Inserted = make([]int, 0, nT)
	}
	refOff, tgtOff := 0, 0
	for bi := range rids {
		ba := ctx.fullBlock(rids[bi], tids[bi])
		out.Score += ba.Score
		for _, p := range ba.Pairs {
			out.Pairs = append(out.Pairs, align.Pair{Ref: p.Ref + refOff, Tgt: p.Tgt + tgtOff})
		}
		for _, d := range ba.Deleted {
			out.Deleted = append(out.Deleted, d+refOff)
		}
		for _, ins := range ba.Inserted {
			out.Inserted = append(out.Inserted, ins+tgtOff)
		}
		refOff += len(r.Blocks[bi])
		tgtOff += len(t.Blocks[bi])
	}
	return out
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
	ct := m.Opts.Tel.StartTimer(telemetry.CompareLatency)
	res := Result{Name: tgt.Name, RefTracelets: len(ref.Tracelets)}
	ctx := newCmpCtx(ref, tgt, m.Opts.Tel)
	ctx.cancel = newCancelCheck(cc)
	if m.Opts.Trace != nil {
		ctx.span = m.Opts.Trace.Child("compare:" + tgt.Name)
	}
	if total := len(ref.Tracelets); total > 0 {
		// canStillMatch: with left reference tracelets not yet evaluated,
		// can the final coverage still clear α? The expression mirrors the
		// final verdict exactly, so the short-circuit is verdict-preserving.
		canStillMatch := func(left int) bool {
			return float64(res.Matched()+left)/float64(total) > m.Opts.Alpha
		}
		if m.Opts.DedupeQuery {
			// Identical reference tracelets match identically: evaluate one
			// representative per content group and multiply.
			groups := make(map[uint64][]int, total)
			order := make([]uint64, 0, total)
			for ri, r := range ref.Tracelets {
				h := r.Hash()
				if _, seen := groups[h]; !seen {
					order = append(order, h)
				}
				groups[h] = append(groups[h], ri)
			}
			left := total
			for _, h := range order {
				if ctx.cancelErr != nil {
					break
				}
				if m.Opts.PruneAlpha && !canStillMatch(left) {
					res.Truncated = true
					break
				}
				idx := groups[h]
				ri := idx[0]
				ctx.stats.dedupeSaved += uint64(len(idx) - 1)
				matched, viaRewrite := m.traceletMatch(ref, tgt, ri, ref.Tracelets[ri], ctx, &res)
				switch {
				case matched && viaRewrite:
					res.MatchedRewrite += len(idx)
				case matched:
					res.MatchedDirect += len(idx)
				}
				left -= len(idx)
			}
		} else {
			for ri, r := range ref.Tracelets {
				if ctx.cancelErr != nil {
					break
				}
				if m.Opts.PruneAlpha && !canStillMatch(total-ri) {
					res.Truncated = true
					break
				}
				matched, viaRewrite := m.traceletMatch(ref, tgt, ri, r, ctx, &res)
				switch {
				case matched && viaRewrite:
					res.MatchedRewrite++
				case matched:
					res.MatchedDirect++
				}
			}
		}
		res.SimilarityScore = float64(res.Matched()) / float64(total)
		res.IsMatch = res.SimilarityScore > m.Opts.Alpha
	}
	if ctx.cancelErr != nil {
		// Partial evaluation: the score is a lower bound over the
		// tracelets visited before the abort, never a rankable verdict.
		res.Truncated = true
	}
	m.finishCompare(&res, ctx, ct)
	return res, ctx.cancelErr
}

// finishCompare flushes the local tally into the collector, closes the
// compare span with the decision summary, and releases the pooled state.
func (m *Matcher) finishCompare(res *Result, ctx *cmpCtx, ct telemetry.Timer) {
	ct.Stop()
	tel, st := ctx.tel, &ctx.stats
	res.PairsPruned = int(st.prunedBound)
	tel.Inc(telemetry.Compares)
	tel.Add(telemetry.PairsCompared, uint64(res.PairsCompared))
	tel.Add(telemetry.PairsPrunedBound, st.prunedBound)
	tel.Add(telemetry.BlockCacheHits, st.cacheHits)
	tel.Add(telemetry.BlockCacheMisses, st.cacheMisses)
	tel.Add(telemetry.RewritesAttempted, st.rwAttempted)
	tel.Add(telemetry.RewritesSkipped, st.rwSkipped)
	tel.Add(telemetry.RewritesSucceeded, st.rwSucceeded)
	tel.Add(telemetry.DedupeSavedTracelets, st.dedupeSaved)
	if res.IsMatch {
		tel.Inc(telemetry.Matches)
	}
	if res.Truncated && ctx.cancelErr == nil {
		tel.Inc(telemetry.FuncsPrunedAlpha)
	}
	if sp := ctx.span; sp != nil {
		sp.Set("ref_tracelets", int64(res.RefTracelets))
		sp.Set("pairs_compared", int64(res.PairsCompared))
		sp.Set("pairs_pruned_bound", int64(st.prunedBound))
		sp.Set("block_cache_hits", int64(st.cacheHits))
		sp.Set("block_cache_misses", int64(st.cacheMisses))
		sp.Set("rewrites_attempted", int64(st.rwAttempted))
		sp.Set("rewrites_skipped", int64(st.rwSkipped))
		sp.Set("rewrites_succeeded", int64(st.rwSucceeded))
		sp.Set("matched_direct", int64(res.MatchedDirect))
		sp.Set("matched_rewrite", int64(res.MatchedRewrite))
		sp.Set("similarity_bp", int64(res.SimilarityScore*10000))
		if res.IsMatch {
			sp.Set("verdict_match", 1)
		} else {
			sp.Set("verdict_match", 0)
		}
		if res.Truncated {
			sp.Set("alpha_truncated", 1)
		}
		sp.End()
	}
	ctx.release()
}

// traceletMatch looks for any target tracelet matching reference tracelet
// ri. It returns (matched, matched-only-after-rewrite).
func (m *Matcher) traceletMatch(ref, tgt *Decomposed, ri int, r *tracelet.Tracelet,
	ctx *cmpCtx, res *Result) (bool, bool) {

	var tsp *telemetry.Span
	if ctx.span != nil {
		tsp = ctx.span.Child(fmt.Sprintf("tracelet:%d", ri))
		defer tsp.End()
	}
	rIdent := ref.ident[ri]
	type rewriteCand struct {
		ti   int
		norm float64
	}
	var cands []rewriteCand
	bestPre := 0.0
	for ti, t := range tgt.Tracelets {
		if err := ctx.cancel.poll(); err != nil {
			ctx.cancelErr = err
			return false, false
		}
		if t.K() != r.K() {
			continue
		}
		res.PairsCompared++
		if m.Opts.Prune {
			// Lossless skip: Norm is monotone in the score, so if even the
			// score bound cannot clear β — nor reach the rewrite-candidate
			// threshold — running the DP cannot change any outcome.
			maxNorm := align.Norm(ctx.pairBound(ri, ti), rIdent, tgt.ident[ti], m.Opts.Norm)
			if maxNorm <= m.Opts.Beta && (!m.Opts.UseRewrite || maxNorm < m.Opts.RewriteSkipBelow) {
				ctx.stats.prunedBound++
				if m.Opts.UseRewrite {
					ctx.stats.rwSkipped++
				}
				continue
			}
		}
		pt := ctx.pairTimer()
		score := ctx.pairScore(ri, ti)
		norm := align.Norm(score, rIdent, tgt.ident[ti], m.Opts.Norm)
		pt.Stop()
		if norm > bestPre {
			bestPre = norm
		}
		if norm > m.Opts.Beta {
			if tsp != nil {
				tsp.Set("matched_ti", int64(ti))
				tsp.Set("score_bp", int64(norm*10000))
				tsp.Set("via_rewrite", 0)
			}
			return true, false
		}
		if m.Opts.UseRewrite {
			if norm >= m.Opts.RewriteSkipBelow {
				cands = append(cands, rewriteCand{ti: ti, norm: norm})
			} else {
				ctx.stats.rwSkipped++
			}
		}
	}
	if tsp != nil {
		tsp.Set("best_pre_score_bp", int64(bestPre*10000))
		tsp.Set("rewrite_candidates", int64(len(cands)))
	}
	// No syntactic match: attempt rewrites on the plausible candidates,
	// best pre-score first — one stable sort, not repeated selection.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].norm > cands[j].norm })
	for _, c := range cands {
		// A rewrite attempt (alignment traceback + CSP solve) is the most
		// expensive unit of work in the matcher: probe the context before
		// every one, not just every few pairs.
		if err := ctx.cancel.now(); err != nil {
			ctx.cancelErr = err
			return false, false
		}
		t := tgt.Tracelets[c.ti]
		res.PairsRewritten++
		ctx.stats.rwAttempted++
		if m.Opts.Prune {
			// The score bound caps the rewrite outcome too: rewriting
			// renames symbols within their class (registers to registers,
			// locals to locals) and never changes an instruction's kind, so
			// the rewritten pair keeps the same kind profile and identity
			// scores. When even the bound cannot clear β the CSP solve is
			// provably futile — account the attempt (Results stay
			// bit-identical with exhaustive mode) but skip the work.
			maxNorm := align.Norm(ctx.pairBound(ri, c.ti), rIdent, tgt.ident[c.ti], m.Opts.Norm)
			if maxNorm <= m.Opts.Beta {
				ctx.stats.prunedBound++
				continue
			}
		}
		// The traceback is deferred to here: only an actual rewrite attempt
		// consumes the aligned pairs.
		al := ctx.alignPair(ri, c.ti)
		rt := ctx.tel.StartTimer(telemetry.RewriteLatency)
		rw := rewrite.RewriteT(r.Blocks, t.Blocks, al, ctx.tel)
		score := align.ScoreBlocks(r.Blocks, rw.Blocks)
		tIdent := align.IdentityScore(flatten(rw.Blocks))
		norm := align.Norm(score, rIdent, tIdent, m.Opts.Norm)
		rt.Stop()
		if norm > m.Opts.Beta {
			ctx.stats.rwSucceeded++
			if tsp != nil {
				tsp.Set("matched_ti", int64(c.ti))
				tsp.Set("score_bp", int64(norm*10000))
				tsp.Set("via_rewrite", 1)
			}
			return true, true
		}
	}
	if tsp != nil {
		tsp.Set("via_rewrite", -1) // unmatched
	}
	return false, false
}

func flatten(blocks [][]asm.Inst) []asm.Inst {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]asm.Inst, 0, n)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
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

// CompareMany compares the reference against every target in parallel and
// returns results in target order. Opts.Workers bounds the parallelism:
// 0 means runtime.GOMAXPROCS(0), negative values are clamped to 1.
func (m *Matcher) CompareMany(ref *Decomposed, targets []*Decomposed) []Result {
	out, _ := m.CompareManyCtx(context.Background(), ref, targets)
	return out
}

// CompareManyCtx is CompareEachCtx over a slice of targets.
func (m *Matcher) CompareManyCtx(cc context.Context, ref *Decomposed, targets []*Decomposed) ([]Result, error) {
	return m.CompareEachCtx(cc, ref, len(targets), func(i int) *Decomposed { return targets[i] })
}

// CompareEachCtx is the one compare pool: it compares the reference
// against target(0..n-1) on Opts.Workers goroutines and returns results
// in target order. target runs inside the workers, so a getter that
// decodes or decomposes lazily does that work in parallel too; it must be
// safe for concurrent calls. Workers claim indices from a shared counter
// and stop at the first context error, which is returned; the result
// slice is then partial (untouched slots are zero Results) and must be
// discarded by ranking callers.
func (m *Matcher) CompareEachCtx(cc context.Context, ref *Decomposed, n int, target func(i int) *Decomposed) ([]Result, error) {
	if cc == nil {
		cc = context.Background()
	}
	out := make([]Result, n)
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
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				err := cc.Err()
				if err == nil {
					var res Result
					if res, err = m.CompareCtx(cc, ref, target(i)); err == nil {
						out[i] = res
						continue
					}
				}
				errOnce.Do(func() { firstErr = err })
				return
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
