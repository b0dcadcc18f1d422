package core

import (
	"testing"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// pruneTestPairs returns the cross product of the shared test listings,
// decomposed — enough variety to exercise direct matches, rewrites, and
// clear mismatches.
func pruneTestPairs(t *testing.T, k int) []*Decomposed {
	t.Helper()
	return []*Decomposed{
		Decompose(liftListing(t, "a", srcA), k),
		Decompose(liftListing(t, "a2", srcARenamed), k),
		Decompose(liftListing(t, "b", srcB), k),
	}
}

// TestPruneBitIdentical: the score-bound pruner must be invisible in the
// output — the Verdict of every Result identical to exhaustive mode, over
// every pair of test functions, for both normalizations and with the
// rewrite engine on and off — and must never add work.
func TestPruneBitIdentical(t *testing.T) {
	ds := pruneTestPairs(t, 3)
	for _, norm := range []align.Method{align.Ratio, align.Containment} {
		for _, useRewrite := range []bool{true, false} {
			exact := DefaultOptions()
			exact.Prune = false
			exact.Norm = norm
			exact.UseRewrite = useRewrite
			pruned := exact
			pruned.Prune = true
			me, mp := NewMatcher(exact), NewMatcher(pruned)
			for _, ref := range ds {
				for _, tgt := range ds {
					want := me.Compare(ref, tgt)
					got := mp.Compare(ref, tgt)
					if got.Verdict() != want.Verdict() || got.PairsRewritten > want.PairsRewritten {
						t.Errorf("norm=%v rewrite=%v %s vs %s: pruned %+v != exhaustive %+v",
							norm, useRewrite, ref.Name, tgt.Name, got, want)
					}
				}
			}
		}
	}
}

// TestPairBoundSound: the profile-based bound must dominate the real
// alignment score for every tracelet pair — the exactness of the pruner
// rests on this inequality.
func TestPairBoundSound(t *testing.T) {
	ds := pruneTestPairs(t, 3)
	for _, ref := range ds {
		for _, tgt := range ds {
			ctx := newCmpCtx(ref, tgt, nil)
			for ri, r := range ref.Tracelets {
				for ti, tt := range tgt.Tracelets {
					if tt.K() != r.K() {
						continue
					}
					bound := ctx.pairBound(ri, ti)
					score := ctx.pairScore(ri, ti)
					if bound < score {
						t.Errorf("%s[%d] vs %s[%d]: bound %d < score %d",
							ref.Name, ri, tgt.Name, ti, bound, score)
					}
				}
			}
			ctx.release()
		}
	}
}

// campaignSample decomposes a small compiled campaign at k=3: real
// compiler output at three optimization levels, where the listings above
// are three hand-written functions.
func campaignSample(t testing.TB, funcs int) []*Decomposed {
	t.Helper()
	var ds []*Decomposed
	for _, fn := range campaignFuncs(t, funcs) {
		ds = append(ds, Decompose(fn, 3))
	}
	return ds
}

// campaignFuncs lifts the functions of the campaign campaignSample
// decomposes.
func campaignFuncs(t testing.TB, funcs int) []*prep.Function {
	t.Helper()
	var out []*prep.Function
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 29, Funcs: funcs, FuncsPerExe: 8, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			out = append(out, fns...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// postRewriteScore is the raw score of the pair the worker rewrote last:
// its reference blocks against the rewritten target blocks.
func postRewriteScore(ctx *cmpCtx) int {
	post := 0
	for b, rb := range ctx.rblk {
		post += ctx.dp.Score(rb, ctx.rw.Block(b))
	}
	return post
}

// TestRewriteBoundSound: for every rewrite the unpruned matcher would
// attempt, the order-aware bound must dominate the score the rewrite
// actually reaches — skipping a solve on it is only lossless under this
// inequality — and must not exceed the kind-profile bound it refines.
func TestRewriteBoundSound(t *testing.T) {
	opts := DefaultOptions()
	ds := append(pruneTestPairs(t, 3), campaignSample(t, 48)...)
	attempts, tighter := 0, 0
	for _, ref := range ds[:9] {
		for _, tgt := range ds {
			ctx := newCmpCtx(ref, tgt, nil)
			for ri, r := range ref.Tracelets {
				for ti, tt := range tgt.Tracelets {
					if tt.K() != r.K() {
						continue
					}
					pre := align.Norm(ctx.pairScore(ri, ti), int(ref.ident[ri]), int(tgt.ident[ti]), opts.Norm)
					if pre > opts.Beta || pre < opts.RewriteSkipBelow {
						continue
					}
					attempts++
					bound, loose := ctx.rewriteBound(ri, ti), ctx.pairBound(ri, ti)
					ctx.rewritePair(ri, ti, opts.Norm)
					post := postRewriteScore(ctx)
					if bound < post {
						t.Errorf("%s[%d] vs %s[%d]: rewrite bound %d < post-rewrite score %d",
							ref.Name, ri, tgt.Name, ti, bound, post)
					}
					if bound > loose {
						t.Errorf("%s[%d] vs %s[%d]: rewrite bound %d > profile bound %d",
							ref.Name, ri, tgt.Name, ti, bound, loose)
					}
					if bound < loose {
						tighter++
					}
				}
			}
			ctx.release()
		}
	}
	t.Logf("%d rewrite attempts, order-aware bound tighter than the profile bound on %d", attempts, tighter)
	if attempts == 0 || tighter == 0 {
		t.Error("the sample never exercised the order-aware bound")
	}
}

// srcJumps is a chain of blocks that are nothing but their jump: stripped,
// every body but the last is empty, so its first tracelet has identity
// score 0 and normalises to 0 against anything.
const srcJumps = `
	jmp j1
j1:
	jmp j2
j2:
	jmp j3
j3:
	retn
`

// TestSizeBoundSound: the cascade's inequality chain, on which skipping a
// pair at any stage rests, for every tracelet pair of the sample at k 1 to
// 4 — size bound ≥ folded bound ≥ profile bound ≥ rewrite bound ≥ score in
// raw scores and under both normalizations, and rewrite bound ≥
// post-rewrite score wherever the rewrite is run: every pair of the
// listings, and in the campaign every pair that scores a quarter or more,
// twice as wide a net as the matcher's. No block of the sample is denied
// its fold, so every pair has a folded bound to hold.
func TestSizeBoundSound(t *testing.T) {
	fns := []*prep.Function{liftListing(t, "a", srcA), liftListing(t, "a2", srcARenamed), liftListing(t, "b", srcB), liftListing(t, "jumps", srcJumps)}
	listings := len(fns)
	fns = append(fns, campaignFuncs(t, 48)...)
	for k := 1; k <= 4; k++ {
		ds := make([]*Decomposed, len(fns))
		for i, fn := range fns {
			ds[i] = Decompose(fn, k)
		}
		pairs, rewrites := 0, 0
		for r, ref := range ds[:listings+6] {
			for _, tgt := range ds {
				ctx := newCmpCtx(ref, tgt, nil)
				for ri := range ref.Tracelets {
					for ti := range tgt.Tracelets {
						pairs++
						rIdent, tIdent := int(ref.ident[ri]), int(tgt.ident[ti])
						size := sizeBound(ref.blockIdent[ri*k:(ri+1)*k], tgt.blockIdent[ti*k:])
						chain := []int{size, ctx.foldBound(ri, ti), ctx.pairBound(ri, ti), ctx.rewriteBound(ri, ti), ctx.pairScore(ri, ti)}
						if size > min(rIdent, tIdent) {
							t.Errorf("k=%d %s[%d] vs %s[%d]: size bound %d above the smaller identity score", k, ref.Name, ri, tgt.Name, ti, size)
						}
						if chain[1] < 0 {
							t.Fatalf("k=%d %s[%d] vs %s[%d]: a block has no fold", k, ref.Name, ri, tgt.Name, ti)
						}
						last := len(chain) - 1
						if r < listings || align.Norm(chain[last], rIdent, tIdent, align.Ratio) >= 0.25 {
							rewrites++
							ctx.rewritePair(ri, ti, align.Ratio)
							chain[last] = max(chain[last], postRewriteScore(ctx))
						}
						for i := 1; i < len(chain); i++ {
							for _, norm := range []align.Method{align.Ratio, align.Containment} {
								if hi, lo := align.Norm(chain[i-1], rIdent, tIdent, norm), align.Norm(chain[i], rIdent, tIdent, norm); chain[i-1] < chain[i] || hi < lo {
									t.Errorf("k=%d %s[%d] vs %s[%d]: size, fold, profile, rewrite bound, best score = %v: stage %d is below stage %d (%v: %v < %v)",
										k, ref.Name, ri, tgt.Name, ti, chain, i-1, i, norm, hi, lo)
								}
							}
						}
					}
				}
				ctx.release()
			}
		}
		t.Logf("k=%d: %d pairs, %d rewritten", k, pairs, rewrites)
		if rewrites == 0 {
			t.Errorf("k=%d: the sample exercised no rewrite", k)
		}
	}
}

// TestPruneVerdictMatrix: Options.Prune changes no Verdict and adds no
// work under any combination of the options the cascade reads — β at both
// ends of its range, RewriteSkipBelow at 0 (where every unmatched pair is a
// rewrite candidate, and a pair is cut by its bound all the same), above β
// and in between, the rewrite engine on and off, both normalizations —
// over compiled functions, the listings and a function whose tracelets are
// empty.
func TestPruneVerdictMatrix(t *testing.T) {
	ds := append(pruneTestPairs(t, 3), Decompose(liftListing(t, "jumps", srcJumps), 3))
	for i, d := range campaignSample(t, 8) {
		if i%3 == 0 { // a third of it, from every optimization level
			ds = append(ds, d)
		}
	}
	if j := ds[3]; len(j.Tracelets) == 0 || j.ident[0] != 0 {
		t.Fatalf("the jump chain has no empty tracelet: idents %v", j.ident)
	}
	for _, beta := range []float64{0, 0.5, 0.8, 1} {
		for _, skipBelow := range []float64{0, 0.5, 0.9} {
			for _, useRewrite := range []bool{true, false} {
				for _, norm := range []align.Method{align.Ratio, align.Containment} {
					exact := DefaultOptions()
					exact.Prune = false
					exact.Beta, exact.RewriteSkipBelow, exact.UseRewrite, exact.Norm = beta, skipBelow, useRewrite, norm
					pruned := exact
					pruned.Prune = true
					me, mp := NewMatcher(exact), NewMatcher(pruned)
					cut := 0
					for _, ref := range ds {
						for _, tgt := range ds {
							want, got := me.Compare(ref, tgt), mp.Compare(ref, tgt)
							if got.Verdict() != want.Verdict() || got.PairsRewritten > want.PairsRewritten {
								t.Fatalf("β=%v skip=%v rewrite=%v norm=%v %s vs %s: pruned %+v, exhaustive %+v",
									beta, skipBelow, useRewrite, norm, ref.Name, tgt.Name, got, want)
							}
							cut += got.PairsPruned
						}
					}
					if cut == 0 && beta > 0 {
						t.Errorf("β=%v skip=%v rewrite=%v norm=%v: the pruner cut no pair", beta, skipBelow, useRewrite, norm)
					}
				}
			}
		}
	}
}

// TestBlockBoundTightOnSelf: a block compared against itself must bound
// to exactly its identity score (the equal-hash fast path), under both
// bounds, and the full alignment of identical blocks must be the diagonal.
func TestBlockBoundTightOnSelf(t *testing.T) {
	d := Decompose(liftListing(t, "a", srcA), 3)
	ctx := newCmpCtx(d, d, nil)
	defer ctx.release()
	for i := range d.distinct {
		id := int32(i)
		if got, want := ctx.blockBound(id, id), d.distinct[i].ident; got != want {
			t.Errorf("block %d: self bound %d != ident %d", i, got, want)
		}
		if got, want := ctx.blockScore(id, id), d.distinct[i].ident; got != want {
			t.Errorf("block %d: self score %d != ident %d", i, got, want)
		}
		if got, want := ctx.blockRewriteBound(id, id), d.distinct[i].ident; got != want {
			t.Errorf("block %d: self rewrite bound %d != ident %d", i, got, want)
		}
		pk := d.distinct[i].pk
		score, pairs := ctx.dp.Align(pk, pk, nil)
		if score != int(d.distinct[i].ident) || len(pairs) != pk.Len() {
			t.Errorf("block %d: self alignment not identity: score %d, pairs %v", i, score, pairs)
		}
		for pi, p := range pairs {
			if p.Ref != pi || p.Tgt != pi {
				t.Errorf("block %d: self alignment leaves the diagonal: %v", i, pairs)
				break
			}
		}
		body := d.DistinctBlocks()[i]
		ref := align.Align(body, body)
		if score != ref.Score || len(pairs) != len(ref.Pairs) {
			t.Errorf("block %d: kernel on the packed block disagrees with Align", i)
		}
	}
}

// TestAlignPairMatchesAlignCached: the lazily assembled full pair
// alignment must agree with aligning the concatenated sequences blockwise
// the way the old cache did (same score, same per-block structure).
func TestAlignPairMatchesAlignCached(t *testing.T) {
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	ctx := newCmpCtx(ref, tgt, nil)
	defer ctx.release()
	for ri, r := range ref.Tracelets {
		for ti, tt := range tgt.Tracelets {
			if tt.K() != r.K() {
				continue
			}
			al := ctx.alignPair(ri, ti)
			if al.Score != ctx.pairScore(ri, ti) {
				t.Fatalf("pair (%d,%d): alignPair score %d != pairScore %d",
					ri, ti, al.Score, ctx.pairScore(ri, ti))
			}
			want := align.AlignBlocks(r.Blocks, tt.Blocks)
			if al.Score != want.Score {
				t.Errorf("pair (%d,%d): score %d != AlignBlocks %d", ri, ti, al.Score, want.Score)
			}
			if len(al.Pairs)+len(al.Deleted) != r.NumInsts() {
				t.Errorf("pair (%d,%d): pairs+deleted do not partition the reference", ri, ti)
			}
			if len(al.Pairs)+len(al.Inserted) != tt.NumInsts() {
				t.Errorf("pair (%d,%d): pairs+inserted do not partition the target", ri, ti)
			}
		}
	}
}

// hashInsts content-hashes a block body the way Decompose does.
func hashInsts(insts []asm.Inst) uint64 { return asm.Pack(insts).ContentHash() }

// TestHashInstsDiscriminates: the structural hash must separate the test
// listings' blocks while being stable for identical content.
func TestHashInstsDiscriminates(t *testing.T) {
	a := Decompose(liftListing(t, "a", srcA), 3)
	b := Decompose(liftListing(t, "b", srcB), 3)
	for i := range a.distinct {
		if a.distinct[i].hash != hashInsts(a.DistinctBlocks()[i]) {
			t.Fatalf("hash not deterministic for block %d", i)
		}
		for j := i + 1; j < len(a.distinct); j++ {
			if a.distinct[i].hash == a.distinct[j].hash {
				t.Errorf("distinct blocks %d and %d collide", i, j)
			}
		}
	}
	cross := 0
	for i := range a.distinct {
		for j := range b.distinct {
			if a.distinct[i].hash == b.distinct[j].hash {
				cross++
			}
		}
	}
	if cross > len(a.distinct) {
		t.Errorf("implausible cross-function hash collisions: %d", cross)
	}
}

// TestCompareWorkers: the pool must never exceed the target count.
func TestCompareWorkers(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 1, 1},    // GOMAXPROCS clamped to one target
		{-3, 8, 1},   // negative means serial
		{4, 2, 2},    // more workers than targets
		{2, 100, 2},  // explicit bound respected
		{5, 0, 0},    // nothing to do
		{0, 1000, 0}, // placeholder; patched below
	}
	cases[5].want = compareWorkers(0, 1000) // GOMAXPROCS-dependent, just bounded
	if cases[5].want < 1 || cases[5].want > 1000 {
		t.Errorf("compareWorkers(0, 1000) = %d out of range", cases[5].want)
	}
	for _, c := range cases[:5] {
		if got := compareWorkers(c.workers, c.n); got != c.want {
			t.Errorf("compareWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestDistinctBlocks: the exported view must cover every tracelet block's
// content exactly once.
func TestDistinctBlocks(t *testing.T) {
	d := Decompose(liftListing(t, "a", srcA), 3)
	blocks := d.DistinctBlocks()
	if len(blocks) != len(d.distinct) {
		t.Fatalf("DistinctBlocks len %d != %d", len(blocks), len(d.distinct))
	}
	seen := make(map[uint64]bool, len(blocks))
	for _, b := range blocks {
		seen[hashInsts(b)] = true
	}
	for _, t2 := range d.Tracelets {
		for _, blk := range t2.Blocks {
			if !seen[hashInsts(blk)] {
				t.Fatal("tracelet block missing from DistinctBlocks")
			}
		}
	}
}
