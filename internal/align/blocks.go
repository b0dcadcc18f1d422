package align

import "repro/internal/asm"

// ScoreBlocks computes the tracelet similarity score blockwise: the
// instruction alignment is performed with respect to basic-block
// boundaries, so instructions from reference block i can only match
// instructions from target block i (the granularity optimization of paper
// Section 5.2). The tracelets must have the same number of blocks;
// otherwise the concatenated sequences are aligned as a whole.
func ScoreBlocks(ref, tgt [][]asm.Inst) int {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if len(ref) != len(tgt) {
		s.ref.Repack(ref...)
		s.tgt.Repack(tgt...)
		return s.Score(&s.ref, &s.tgt)
	}
	score := 0
	for b := range ref {
		s.ref.Repack(ref[b])
		s.tgt.Repack(tgt[b])
		score += s.Score(&s.ref, &s.tgt)
	}
	return score
}

// AlignBlocks computes a full blockwise alignment. Pair indices refer to
// the concatenated instruction sequences of each tracelet.
func AlignBlocks(ref, tgt [][]asm.Inst) Alignment {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	var out Alignment
	if len(ref) != len(tgt) {
		s.ref.Repack(ref...)
		s.tgt.Repack(tgt...)
		s.alignBlock(&out, &s.ref, &s.tgt, 0, 0)
		return out
	}
	refOff, tgtOff := 0, 0
	for b := range ref {
		s.ref.Repack(ref[b])
		s.tgt.Repack(tgt[b])
		s.alignBlock(&out, &s.ref, &s.tgt, refOff, tgtOff)
		refOff += len(ref[b])
		tgtOff += len(tgt[b])
	}
	return out
}
