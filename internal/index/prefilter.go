package index

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// The feature prefilter is the lossy first stage of two-stage search:
// every corpus function is summarized as a set of normalized per-block
// mnemonic-kind k-grams, an inverted index maps each feature to the
// functions carrying it, and a query is answered by ranking functions on
// shared-feature count and running the exact tracelet comparison only on
// the top C. Unlike the package ngram baseline (linear layout windows),
// the grams here are per basic block with block-local renaming, so block
// reordering does not shift them — only genuinely changed blocks lose
// features.

// prefilterGram is the per-block window size. 3 is small enough that a
// patched block still shares most grams with its original, large enough
// to carry ordering signal beyond a bag of mnemonics.
const prefilterGram = 3

// DefaultPrefilterCandidates is the candidate cap used when a caller
// enables the prefilter without choosing one.
const DefaultPrefilterCandidates = 50

// PrefilterMode selects the candidate-generation algorithm of the lossy
// first stage.
type PrefilterMode string

const (
	// ModeScan ranks the corpus by shared-feature count through the
	// inverted index — the default, and the recall baseline: it scans
	// the query's posting lists linearly.
	ModeScan PrefilterMode = "scan"
	// ModeLSH takes candidates from MinHash band-bucket collisions
	// ranked by estimated Jaccard — ~O(1) bucket probes per query
	// instead of a posting scan. When the corpus has no LSH signatures
	// (an index file without an LSHB section, and no features to hash),
	// searches fall back to ModeScan and count lsh_fallbacks.
	ModeLSH PrefilterMode = "lsh"
)

// ParsePrefilterMode maps the wire/flag spelling of a mode ("", "scan",
// "lsh") onto its PrefilterMode, reporting ok=false for anything else.
func ParsePrefilterMode(s string) (PrefilterMode, bool) {
	switch s {
	case "", string(ModeScan):
		return ModeScan, true
	case string(ModeLSH):
		return ModeLSH, true
	}
	return "", false
}

// PrefilterOptions selects the lossy candidate-ranking stage of a search.
// The zero value disables it (exact, exhaustive search).
type PrefilterOptions struct {
	// Enabled turns the prefilter on. Candidates > 0 implies Enabled.
	Enabled bool
	// Candidates caps how many top-ranked corpus functions proceed to the
	// exact comparison; <= 0 means DefaultPrefilterCandidates.
	Candidates int
	// Mode picks the candidate generator; the empty value means ModeScan.
	// Mode alone does not enable the prefilter — Enabled (or Candidates)
	// still governs whether the stage runs at all.
	Mode PrefilterMode
}

// cap returns the effective candidate cap, or 0 when disabled.
func (pf PrefilterOptions) cap() int {
	if !pf.Enabled && pf.Candidates <= 0 {
		return 0
	}
	if pf.Candidates <= 0 {
		return DefaultPrefilterCandidates
	}
	return pf.Candidates
}

// gramHasher computes block features without building a string: a
// block's instructions are rendered, normalized exactly as
// ngram.NormalizeInsts renders them, back to back into one buffer that is
// reused from block to block, each closed by the '|' that separates the
// tokens of a gram, and a gram's feature is FNV-1a over its window of that
// buffer. Registers become r0, r1, ... and symbols m0, m1, ... in order of
// first appearance within the block, immediates a fixed token, and a jump
// keeps only its mnemonic. The zero value is ready to use.
type gramHasher struct {
	buf  []byte
	ends []int       // ends[i]: offset just past instruction i's '|'
	reg  [256]uint16 // register -> 1 + its number in this block, 0: not met yet
	regs []asm.Reg   // the registers numbered in this block
	syms []symKey    // the symbols of this block, by number
}

// symKey is the identity normalization gives a non-register,
// non-immediate argument.
type symKey struct {
	cls asm.SymClass
	sym string
}

// features appends the block's features to dst: every
// prefilterGram-window of the normalized body, or one whole-block gram
// when the body is shorter than a window.
func (g *gramHasher) features(dst []uint64, body []asm.Inst) []uint64 {
	if len(body) == 0 {
		return dst
	}
	for _, r := range g.regs {
		g.reg[r] = 0
	}
	g.buf, g.ends, g.regs, g.syms = g.buf[:0], g.ends[:0], g.regs[:0], g.syms[:0]
	for i := range body {
		in := &body[i]
		g.buf = append(g.buf, in.Mnemonic...)
		if !in.IsJump() {
			g.buf = append(g.buf, ' ')
			for oi := range in.Ops {
				if oi > 0 {
					g.buf = append(g.buf, ',')
				}
				op := &in.Ops[oi]
				if !op.IsMem() {
					g.arg(&op.Arg)
					continue
				}
				g.buf = append(g.buf, '[')
				for ti := range op.Mem {
					g.buf = utf8.AppendRune(g.buf, rune(op.Mem[ti].Op))
					g.arg(&op.Mem[ti].Arg)
				}
				g.buf = append(g.buf, ']')
			}
		}
		g.buf = append(g.buf, '|')
		g.ends = append(g.ends, len(g.buf))
	}
	if len(body) < prefilterGram {
		return append(dst, fnv1a(g.buf))
	}
	start := 0
	for i := 0; i+prefilterGram <= len(body); i++ {
		dst = append(dst, fnv1a(g.buf[start:g.ends[i+prefilterGram-1]]))
		start = g.ends[i]
	}
	return dst
}

// arg renders one argument under the block's renaming.
func (g *gramHasher) arg(a *asm.Arg) {
	switch {
	case a.IsReg():
		if g.reg[a.Reg] == 0 {
			g.regs = append(g.regs, a.Reg)
			g.reg[a.Reg] = uint16(len(g.regs))
		}
		g.buf = strconv.AppendUint(append(g.buf, 'r'), uint64(g.reg[a.Reg]-1), 10)
	case a.IsImm():
		g.buf = append(g.buf, 'v')
	default:
		n := 0
		for n < len(g.syms) && (g.syms[n].cls != a.Cls || g.syms[n].sym != a.Sym) {
			n++
		}
		if n == len(g.syms) {
			g.syms = append(g.syms, symKey{a.Cls, a.Sym})
		}
		g.buf = strconv.AppendUint(append(g.buf, 'm'), uint64(n), 10)
	}
}

func fnv1a(b []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// dedupeSorted sorts fs and removes duplicates in place (a feature is a
// set member, not a count).
func dedupeSorted(fs []uint64) []uint64 {
	slices.Sort(fs)
	return slices.Compact(fs)
}

// FuncFeatures computes the feature set of a lifted corpus function:
// normalized per-block grams over the jump-stripped block bodies, sorted
// and deduplicated.
func FuncFeatures(fn *prep.Function) []uint64 {
	var g gramHasher
	return g.funcFeatures(fn)
}

// funcFeatures is FuncFeatures on a hasher the caller reuses from one
// function to the next: the set is the one allocation.
func (g *gramHasher) funcFeatures(fn *prep.Function) []uint64 {
	n := 0
	for _, b := range fn.Graph.Blocks {
		n += max(len(b.Insts)-prefilterGram+1, 1) // at most: the body may be an instruction shorter
	}
	fs := make([]uint64, 0, n)
	for _, b := range fn.Graph.Blocks {
		fs = g.features(fs, b.Body())
	}
	return dedupeSorted(fs)
}

// QueryFeatures computes the feature set of a decomposed query from its
// distinct tracelet blocks — the same jump-stripped bodies FuncFeatures
// sees on the corpus side.
func QueryFeatures(d *core.Decomposed) []uint64 {
	var g gramHasher
	var fs []uint64
	for _, blk := range d.DistinctBlocks() {
		fs = g.features(fs, blk)
	}
	return dedupeSorted(fs)
}

// featureIndex is the inverted index: feature -> ascending entry ids.
type featureIndex struct {
	n        int // number of entries indexed
	postings map[uint64][]int32
}

// buildFeatureIndex inverts the feature sets of n entries, feats(id)
// being entry id's.
func buildFeatureIndex(n int, feats func(id int) []uint64) *featureIndex {
	fi := &featureIndex{n: n, postings: make(map[uint64][]int32)}
	for id := range n {
		for _, f := range feats(id) {
			fi.postings[f] = append(fi.postings[f], int32(id))
		}
	}
	return fi
}

// Ranked is one prefilter-ranked corpus candidate: the entry id and how
// many features it shares with the query. Degraded-mode serving exposes
// this ranking directly (no exact comparison runs behind it).
type Ranked struct {
	ID     int32
	Shared int
}

// ranked scores every entry by shared-feature count with the query and
// returns the top limit in rank order (count descending, id ascending —
// fully deterministic). Entries sharing no feature are never returned.
// ctx is polled between posting-list merges; on cancellation the partial
// ranking is abandoned and nil is returned (callers check ctx.Err()).
func (fi *featureIndex) ranked(ctx context.Context, query []uint64, limit int) []Ranked {
	if fi == nil || limit <= 0 {
		return nil
	}
	counts := make([]int32, fi.n)
	for qi, f := range query {
		if qi&127 == 0 && ctx != nil && ctx.Err() != nil {
			return nil
		}
		for _, id := range fi.postings[f] {
			counts[id]++
		}
	}
	cands := make([]Ranked, 0, fi.n)
	for id := int32(0); id < int32(fi.n); id++ {
		if counts[id] > 0 {
			cands = append(cands, Ranked{ID: id, Shared: int(counts[id])})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].Shared > cands[j].Shared
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	return cands
}

// sortedIDs reduces a ranking to its entry ids in ascending order: the
// exact comparison should follow entry order for cache locality and
// stable telemetry, not rank order.
func sortedIDs(ranked []Ranked) []int32 {
	ids := make([]int32, len(ranked))
	for i, r := range ranked {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// featureIdx returns the inverted feature index over the store's feature
// sets, built on first use.
func (s *Snapshot) featureIdx() *featureIndex {
	s.fidxOnce.Do(func() { s.fidx = buildFeatureIndex(s.store.NumFuncs(), s.store.Features) })
	return s.fidx
}

// lshIdx returns the banded MinHash index, set up on first use, or nil
// when there are no signatures to serve from. This is the single
// LSH-availability check: the store's LSHB signatures — and its LSHT band
// table, else one sorted from them — are adopted. A file written without
// LSHB yields nil, rather than re-deriving signatures from a million
// mapped feature slices; a sealed database always has them, under
// minhash.Default.
func (s *Snapshot) lshIdx() *lshIndex {
	s.lshOnce.Do(func() { s.lsh = lshFromStore(s.store) })
	return s.lsh
}

// candidates is the lossy first stage: it ranks the corpus against the
// query with the given generator and returns the top limit entries in
// rank order, under a "prefilter" span. ModeLSH ranks by estimated
// Jaccard (Shared = matching signature positions out of k) from
// band-bucket collisions and, when the snapshot has no signatures,
// falls back to the ModeScan shared-feature ranking with a counted
// lsh_fallbacks event. A done ctx abandons the ranking and returns its
// error.
func (s *Snapshot) candidates(ctx context.Context, ref *core.Decomposed, limit int, mode PrefilterMode, tel *telemetry.Collector) ([]Ranked, error) {
	if s.err != nil {
		return nil, s.err
	}
	sp := telemetry.SpanFromContext(ctx).Child("prefilter")
	pt := tel.StartTimer(telemetry.PrefilterLatency)
	query := QueryFeatures(ref)
	var x *lshIndex
	if mode == ModeLSH {
		if x = s.lshIdx(); x == nil {
			tel.Inc(telemetry.LSHFallbacks)
		}
	}
	var ranked []Ranked
	if x != nil {
		tel.Inc(telemetry.LSHQueries)
		ranked = x.ranked(ctx, query, limit, tel)
		tel.Add(telemetry.LSHCandidates, uint64(len(ranked)))
		sp.Set("lsh", 1)
	} else {
		ranked = s.featureIdx().ranked(ctx, query, limit)
	}
	pt.Stop()
	sp.Set("candidates", int64(len(ranked)))
	sp.Set("cap", int64(limit))
	sp.End()
	if err := ctx.Err(); err != nil {
		noteCtxErr(tel, err)
		return nil, err
	}
	return ranked, nil
}
