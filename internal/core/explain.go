package core

import (
	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/telemetry"
)

// TraceletMatch explains one matched reference tracelet: which target
// tracelet it matched, at what normalized score, whether the rewrite
// engine was needed, and which instructions were inserted/deleted — the
// accountability output the paper argues for (Sections 1 and 4.3).
type TraceletMatch struct {
	RefIndex   int     // index into the reference decomposition
	TgtIndex   int     // index into the target decomposition
	RefBlocks  []int   // basic-block numbers in the reference function
	TgtBlocks  []int   // basic-block numbers in the target function
	Score      float64 // normalized score of the accepted match
	ViaRewrite bool
	// Inserted and Deleted are instruction indices (into the concatenated
	// tracelet sequences) that did not align: inserted exist only in the
	// target, deleted only in the reference.
	Inserted []int
	Deleted  []int
}

// Explain runs the comparison like Compare but records, for every matched
// reference tracelet, the accepted target tracelet and alignment detail.
// Like Compare it reports to Opts.Tel (cache hit/miss counts, rewrite
// attempted/skipped/succeeded) so callers can print a telemetry line next
// to the evidence; note the two-pass structure revisits pairs, so cache
// hit rates run higher than Compare's on the same input. Explain never
// prunes: its job is evidence, not throughput.
func (m *Matcher) Explain(ref, tgt *Decomposed) []TraceletMatch {
	var out []TraceletMatch
	ctx := newCmpCtx(ref, tgt, m.Opts.Tel)
	for ri, r := range ref.Tracelets {
		rIdent := int(ref.ident[ri])
		found := false
		// Pass 1: syntactic matches. Score-only scan; the traceback runs
		// just for the accepted pair's evidence.
		for ti, t := range tgt.Tracelets {
			if t.K() != r.K() {
				continue
			}
			norm := align.Norm(ctx.pairScore(ri, ti), rIdent, int(tgt.ident[ti]), m.Opts.Norm)
			if norm > m.Opts.Beta {
				al := ctx.alignPair(ri, ti)
				out = append(out, TraceletMatch{
					RefIndex: ri, TgtIndex: ti,
					RefBlocks: r.BlockIdx, TgtBlocks: t.BlockIdx,
					Score: norm, Inserted: al.Inserted, Deleted: al.Deleted,
				})
				found = true
				break
			}
		}
		if found || !m.Opts.UseRewrite {
			continue
		}
		// Pass 2: rewrite attempts in descending pre-score order, exactly
		// as Compare does.
		var cands []rewriteCand
		for ti, t := range tgt.Tracelets {
			if t.K() != r.K() {
				continue
			}
			norm := align.Norm(ctx.pairScore(ri, ti), rIdent, int(tgt.ident[ti]), m.Opts.Norm)
			if norm >= m.Opts.RewriteSkipBelow {
				cands = append(cands, rewriteCand{ti, norm})
			} else {
				ctx.stats.rwSkipped++
			}
		}
		sortCands(cands)
		for _, c := range cands {
			ctx.stats.rwAttempted++
			if norm := ctx.rewritePair(ri, c.ti, m.Opts.Norm); norm > m.Opts.Beta {
				ctx.stats.rwSucceeded++
				// The evidence is the alignment against the rewritten target.
				rewritten := make([]*asm.Packed, len(ctx.tblk))
				for b := range rewritten {
					rewritten[b] = ctx.rw.Block(b)
				}
				post := ctx.dp.AlignBlocks(ctx.rblk, rewritten)
				out = append(out, TraceletMatch{
					RefIndex: ri, TgtIndex: c.ti,
					RefBlocks: r.BlockIdx, TgtBlocks: tgt.Tracelets[c.ti].BlockIdx,
					Score: norm, ViaRewrite: true,
					Inserted: post.Inserted, Deleted: post.Deleted,
				})
				break
			}
		}
	}
	tel := ctx.tel
	tel.Add(telemetry.BlockCacheHits, ctx.stats.cacheHits)
	tel.Add(telemetry.BlockCacheMisses, ctx.stats.cacheMisses)
	tel.Add(telemetry.RewritesAttempted, ctx.stats.rwAttempted)
	tel.Add(telemetry.RewritesSkipped, ctx.stats.rwSkipped)
	tel.Add(telemetry.RewritesSucceeded, ctx.stats.rwSucceeded)
	ctx.release()
	return out
}

// BestScores returns, for every reference tracelet, the best normalized
// score achievable against any target tracelet: pre is without the
// rewrite engine, post is the best after rewriting every plausible
// candidate (pre-score >= RewriteSkipBelow). It lets callers evaluate any
// tracelet threshold β in one pass: a reference tracelet matches under β
// iff max(pre, post) > β. Like Explain, it never prunes.
func (m *Matcher) BestScores(ref, tgt *Decomposed) (pre, post []float64) {
	ct := m.Opts.Tel.StartTimer(telemetry.CompareLatency)
	pre = make([]float64, len(ref.Tracelets))
	post = make([]float64, len(ref.Tracelets))
	ctx := newCmpCtx(ref, tgt, m.Opts.Tel)
	pairs := uint64(0)
	for ri, r := range ref.Tracelets {
		rIdent := int(ref.ident[ri])
		for ti, t := range tgt.Tracelets {
			if t.K() != r.K() {
				continue
			}
			pairs++
			norm := align.Norm(ctx.pairScore(ri, ti), rIdent, int(tgt.ident[ti]), m.Opts.Norm)
			if norm > pre[ri] {
				pre[ri] = norm
			}
			if norm >= 0.999 {
				continue // already perfect; rewriting cannot help
			}
			if m.Opts.UseRewrite && norm >= m.Opts.RewriteSkipBelow {
				ctx.stats.rwAttempted++
				pnorm := ctx.rewritePair(ri, ti, m.Opts.Norm)
				if pnorm > norm {
					ctx.stats.rwSucceeded++ // rewriting improved the pair
				}
				if pnorm > post[ri] {
					post[ri] = pnorm
				}
			} else if m.Opts.UseRewrite {
				ctx.stats.rwSkipped++
			}
		}
		if pre[ri] > post[ri] {
			post[ri] = pre[ri]
		}
	}
	if tel := m.Opts.Tel; tel != nil {
		tel.Inc(telemetry.Compares)
		tel.Add(telemetry.PairsCompared, pairs)
		tel.Add(telemetry.BlockCacheHits, ctx.stats.cacheHits)
		tel.Add(telemetry.BlockCacheMisses, ctx.stats.cacheMisses)
		tel.Add(telemetry.RewritesAttempted, ctx.stats.rwAttempted)
		tel.Add(telemetry.RewritesSkipped, ctx.stats.rwSkipped)
		tel.Add(telemetry.RewritesSucceeded, ctx.stats.rwSucceeded)
	}
	ctx.release()
	ct.Stop()
	return pre, post
}
