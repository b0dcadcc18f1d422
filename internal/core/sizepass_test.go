package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// onePassCompare is compare as it was before the size bound got a pass of
// its own, the oracle of TestSizePassParity: every target tracelet of a
// row goes through the whole cascade in turn, the size bound included, in
// floats. It returns the Result and, per reference tracelet, the pairs the
// size and the profile bound cut.
func (m *Matcher) onePassCompare(ctx *cmpCtx, ref, tgt *Decomposed) (Result, []int, []int) {
	res := Result{Name: tgt.Name, RefTracelets: len(ref.Tracelets)}
	ctx.bind(ref, tgt, nil)
	size, profile := make([]int, len(ref.Tracelets)), make([]int, len(ref.Tracelets))
	total := len(ref.Tracelets)
	if total == 0 {
		m.finishCompare(&res, ctx, telemetry.Timer{})
		return res, size, profile
	}
	for ri := 0; ri < total; ri++ {
		s0, p0 := ctx.stats.prunedSize, ctx.stats.prunedProfile
		direct, cands := m.onePassScan(ri, ctx, &res)
		size[ri], profile[ri] = int(ctx.stats.prunedSize-s0), int(ctx.stats.prunedProfile-p0)
		cands = m.nextFeasible(ri, cands, ctx, &res, nil)
		if len(cands) == 0 {
			if direct {
				res.MatchedDirect++
			}
			continue
		}
		ctx.pending = append(ctx.pending, pendingTracelet{ri: ri, from: len(ctx.stash), to: len(ctx.stash) + len(cands)})
		ctx.stash = append(ctx.stash, cands...)
	}
	for _, p := range ctx.pending {
		if m.rewriteFrom(p.ri, ctx.stash[p.from:p.to], ctx, &res, nil) {
			res.MatchedRewrite++
		}
	}
	res.SimilarityScore = float64(res.Matched()) / float64(total)
	res.IsMatch = res.SimilarityScore > m.Opts.Alpha
	m.finishCompare(&res, ctx, telemetry.Timer{})
	return res, size, profile
}

// onePassScan is scanTracelet as one pass over the row, the size bound
// normalised per pair.
func (m *Matcher) onePassScan(ri int, ctx *cmpCtx, res *Result) (bool, []rewriteCand) {
	opts := &m.Opts
	ref, tgt := ctx.ref, ctx.tgt
	k := ref.K
	rIdent, rSizes := int(ref.ident[ri]), ref.blockIdent[ri*k:(ri+1)*k]
	tIdents, tSizes := tgt.ident, tgt.blockIdent
	if tgt.K != k {
		tIdents = nil
	}
	cands := ctx.cands[:0]
	for ti, t := range tIdents {
		tIdent := int(t)
		if opts.Prune {
			if align.Norm(sizeBound(rSizes, tSizes[ti*k:]), rIdent, tIdent, opts.Norm) <= opts.Beta {
				ctx.stats.prunedSize++
				continue
			}
			if align.Norm(ctx.pairBound(ri, ti), rIdent, tIdent, opts.Norm) <= opts.Beta {
				ctx.stats.prunedProfile++
				continue
			}
		}
		pre := align.Norm(ctx.pairScore(ri, ti), rIdent, tIdent, opts.Norm)
		if pre > opts.Beta {
			res.PairsCompared += ti + 1
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
	res.PairsCompared += len(tIdents)
	ctx.cands = cands
	sortCands(cands)
	return false, cands
}

// TestSizePassParity: the compare, its size bound a pass of its own over
// each row, does exactly what the one-pass cascade did, off the default
// shape too — k from 1 to 4 (k = 3 takes the unrolled pass, the others the
// generic one), both normalizations, β at 0, 0.8 and 1, the pruner on (and
// off at 0.8, where every row walks all its targets): every Result field, every counter of cmpStats, and per reference
// tracelet the pairs_pruned_size and pairs_pruned_profile its span
// carries. The functions are the listings, the jump chain whose tracelets
// are empty, and a third of a compiled campaign, from every optimization
// level; each reference is also compared with a target of another k, which
// pairs nothing.
func TestSizePassParity(t *testing.T) {
	fns := []*prep.Function{liftListing(t, "a", srcA), liftListing(t, "a2", srcARenamed), liftListing(t, "b", srcB), liftListing(t, "jumps", srcJumps)}
	for i, fn := range campaignFuncs(t, 8) {
		if i%3 == 0 {
			fns = append(fns, fn)
		}
	}
	for k := 1; k <= 4; k++ {
		ds := make([]*Decomposed, len(fns))
		for i, fn := range fns {
			ds[i] = Decompose(fn, k)
		}
		other := Decompose(fns[0], k%4+1)
		for _, norm := range []align.Method{align.Ratio, align.Containment} {
			for _, beta := range []float64{0, 0.8, 1} {
				for _, prune := range []bool{true, false} {
					if !prune && beta != 0.8 {
						continue
					}
					opts := DefaultOptions()
					opts.K, opts.Norm, opts.Beta, opts.Prune = k, norm, beta, prune
					label := fmt.Sprintf("k=%d norm=%v β=%v prune=%v", k, norm, beta, prune)
					sizeCut := 0
					for _, ref := range ds {
						for _, tgt := range append(ds, other) {
							sizeCut += checkSizePassParity(t, label, opts, ref, tgt)
						}
					}
					if prune && beta > 0 && sizeCut == 0 {
						t.Errorf("%s: the size bound cut no pair", label)
					}
				}
			}
		}
	}
}

// checkSizePassParity holds one compare to the one-pass oracle and returns
// the pairs the size bound cut.
func checkSizePassParity(t *testing.T, label string, opts Options, ref, tgt *Decomposed) int {
	t.Helper()
	oracle := NewMatcher(opts)
	octx := ctxPool.Get().(*cmpCtx)
	want, wantSize, wantProfile := oracle.onePassCompare(octx, ref, tgt)
	wantStats := octx.stats
	octx.release()

	root := telemetry.StartSpan("parity")
	opts.Trace = root
	ctx := ctxPool.Get().(*cmpCtx)
	got, err := NewMatcher(opts).compare(context.Background(), ctx, ref, tgt)
	gotStats := ctx.stats
	ctx.release()
	if err != nil {
		t.Fatalf("%s %s vs %s: %v", label, ref.Name, tgt.Name, err)
	}
	if got != want || gotStats != wantStats {
		t.Fatalf("%s %s vs %s: two-pass %+v %+v, one-pass %+v %+v", label, ref.Name, tgt.Name, got, gotStats, want, wantStats)
	}
	tracelets := root.Children()[0].Children()
	if len(tracelets) != len(ref.Tracelets) {
		t.Fatalf("%s %s vs %s: %d tracelet spans, want %d", label, ref.Name, tgt.Name, len(tracelets), len(ref.Tracelets))
	}
	for ri, sp := range tracelets {
		if s, p := sp.Attr("pairs_pruned_size"), sp.Attr("pairs_pruned_profile"); s != int64(wantSize[ri]) || p != int64(wantProfile[ri]) {
			t.Fatalf("%s %s vs %s tracelet %d: pairs_pruned_size %d, pairs_pruned_profile %d, want %d, %d",
				label, ref.Name, tgt.Name, ri, s, p, wantSize[ri], wantProfile[ri])
		}
	}
	return int(gotStats.prunedSize)
}

// chainListing is a chain of n blocks, each a move and a jump to the
// next: n-k+1 k-tracelets.
func chainListing(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tmov eax, %d\n\tjmp c%d\nc%d:\n", i, i+1, i+1)
	}
	b.WriteString("\tretn\n")
	return b.String()
}

// TestSizePassCancelled: a compare whose context is done when it starts
// stops in the first row's size pass, before it visits a pair, and returns
// the context's error with a Truncated Result — for the unrolled pass
// (k=3, Ratio) and the generic one (k=2, Containment). The target has more
// tracelets than cancelCheckInterval, so the first row alone reaches a
// probe.
func TestSizePassCancelled(t *testing.T) {
	a, chain := liftListing(t, "a", srcA), liftListing(t, "chain", chainListing(2*cancelCheckInterval))
	for _, shape := range []struct {
		k    int
		norm align.Method
	}{{3, align.Ratio}, {2, align.Containment}} {
		ref, tgt := Decompose(a, shape.k), Decompose(chain, shape.k)
		if len(tgt.Tracelets) <= cancelCheckInterval {
			t.Fatalf("k=%d: the chain has %d tracelets, want more than %d", shape.k, len(tgt.Tracelets), cancelCheckInterval)
		}
		opts := DefaultOptions()
		opts.K, opts.Norm, opts.Tel = shape.k, shape.norm, telemetry.New()
		cc, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := NewMatcher(opts).CompareCtx(cc, ref, tgt)
		if err != context.Canceled {
			t.Fatalf("k=%d %v: err = %v, want context.Canceled", shape.k, shape.norm, err)
		}
		if !res.Truncated || res.PairsCompared != 0 || opts.Tel.Get(telemetry.PairsPrunedSize) != 0 || opts.Tel.Get(telemetry.BlockCacheMisses) != 0 {
			t.Errorf("k=%d %v: %+v after %d pairs cut by size and %d block alignments, want a Truncated Result and no pair visited",
				shape.k, shape.norm, res, opts.Tel.Get(telemetry.PairsPrunedSize), opts.Tel.Get(telemetry.BlockCacheMisses))
		}
	}
}
