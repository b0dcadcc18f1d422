// Package align implements tracelet alignment and scoring (paper
// Section 4.3, Algorithm 3): a longest-common-subsequence variation over
// whole assembly instructions, using the instruction similarity measure
//
//	Sim(c, c') = 2 + #{i : args(c)[i] = args(c')[i]}  if SameKind(c, c')
//	           = -1                                    otherwise
//
// Skipping an instruction (insertion or deletion) costs nothing, so the
// score is the sum of Sim over the chosen aligned pairs; a negative-Sim
// pair is never chosen. The package also provides the ratio and
// containment normalizations of the tracelet similarity score.
//
// There is one DP, Kernel, and it runs on packed sequences (asm.Packed):
// an instruction's kind is one hash compare (and one short byte compare
// when the hashes agree), its arguments are flat comparable values, and
// the rows are int32. Score, Align, ScoreBlocks and AlignBlocks over
// []asm.Inst repack their arguments into pooled memory and call it; the
// matcher packs every block once and calls the Kernel directly. Sim stays
// as the written definition, which the tests hold the Kernel to.
//
// Packing is about half of a Score call on tracelet-sized input, so code
// that aligns the same sequences repeatedly should Pack once and keep a
// Kernel.
package align

import (
	"sync"

	"repro/internal/asm"
)

// Sim is the instruction similarity measure of paper Section 4.3.
// Same-kind instructions have pairwise same-shape operands, so the
// positional argument comparison walks both operand lists in place.
func Sim(c, cp asm.Inst) int {
	if !asm.SameKind(c, cp) {
		return -1
	}
	score := 2
	for i := range c.Ops {
		o, p := &c.Ops[i], &cp.Ops[i]
		if !o.IsMem() {
			if o.Arg == p.Arg {
				score++
			}
			continue
		}
		for j := range o.Mem {
			if o.Mem[j].Arg == p.Mem[j].Arg {
				score++
			}
		}
	}
	return score
}

// IdentityScore is the similarity score of a sequence with itself: the sum
// of Sim(c, c) = 2 + len(args(c)) over its instructions.
func IdentityScore(insts []asm.Inst) int {
	s := 0
	for _, in := range insts {
		s += 2 + in.NumArgs()
	}
	return s
}

// Pair is one aligned instruction pair: indices into the reference and
// target sequences.
type Pair struct {
	Ref, Tgt int
}

// Alignment is the full output of the edit-distance computation: the
// score, the aligned pairs, and the unmatched (deleted from reference /
// inserted into target) instruction indices.
type Alignment struct {
	Score    int
	Pairs    []Pair
	Deleted  []int // reference instructions with no counterpart
	Inserted []int // target instructions with no counterpart
}

// scratch is what the []asm.Inst functions work out of: a Kernel and the
// packed forms of the two sequences in hand, repacked on every call into
// the same memory (without register masks, which aligning never reads).
type scratch struct {
	Kernel
	ref, tgt asm.Packed
}

// scratches recycles them; the matcher's workers own their Kernels.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// Score computes only the similarity score between a reference and target
// instruction sequence (CalcScore of paper Algorithm 3).
func Score(ref, tgt []asm.Inst) int {
	return ScoreBlocks([][]asm.Inst{ref}, [][]asm.Inst{tgt})
}

// Align computes the full alignment between a reference and a target
// instruction sequence, with traceback (AlignTracelets of paper
// Algorithm 1; the paper notes CalcScore and AlignTracelets perform the
// same computation).
func Align(ref, tgt []asm.Inst) Alignment {
	return AlignBlocks([][]asm.Inst{ref}, [][]asm.Inst{tgt})
}

// Method selects a normalization for tracelet similarity scores (paper
// Section 4.3).
type Method int

const (
	// Ratio considers the proportional size of unmatched instructions in
	// both tracelets: 2S / (RIdent + TIdent).
	Ratio Method = iota
	// Containment requires one tracelet to be contained in the other:
	// S / min(RIdent, TIdent).
	Containment
)

// String names the method.
func (m Method) String() string {
	if m == Containment {
		return "containment"
	}
	return "ratio"
}

// Norm normalizes a similarity score using the identity scores of the
// reference and target, returning a value in [0, 1] for non-degenerate
// inputs.
func Norm(s, rIdent, tIdent int, m Method) float64 {
	switch m {
	case Containment:
		min := rIdent
		if tIdent < min {
			min = tIdent
		}
		if min <= 0 {
			return 0
		}
		return float64(s) / float64(min)
	default:
		if rIdent+tIdent <= 0 {
			return 0
		}
		return float64(2*s) / float64(rIdent+tIdent)
	}
}
