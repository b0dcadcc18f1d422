package align

import (
	"testing"

	"repro/internal/asm"
)

// vocab is a small instruction alphabet the fuzzer indexes into: enough
// kinds to exercise SameKind boundaries, shared and disjoint operands.
var vocab = []asm.Inst{
	asm.MustParse("mov eax, ebx"),
	asm.MustParse("mov eax, ecx"),
	asm.MustParse("mov edx, ebx"),
	asm.MustParse("mov eax, [ebp+var_4]"),
	asm.MustParse("add eax, 1"),
	asm.MustParse("add eax, 2"),
	asm.MustParse("sub esp, 8"),
	asm.MustParse("cmp eax, ebx"),
	asm.MustParse("test eax, eax"),
	asm.MustParse("push ebp"),
	asm.MustParse("pop ebp"),
	asm.MustParse("imul eax, ebx"),
	asm.MustParse("lea eax, [ebx+4]"),
	asm.MustParse("xor eax, eax"),
	asm.MustParse("ret"),
	asm.MustParse("nop"),
	// Operand shapes: the offset flag, a scaled-index address, and the
	// same mnemonic with one, two and three operands.
	asm.MustParse("push offset aMsg"),
	asm.MustParse("push aMsg"),
	asm.MustParse("mov ebx, offset aMsg"),
	asm.MustParse("mov eax, [ebx+ecx*4+8]"),
	asm.MustParse("mov eax, [ebx+edx*4+8]"),
	asm.MustParse("mov eax, [ebx+ecx*4-8]"),
	asm.MustParse("imul eax"),
	asm.MustParse("imul eax, ebx, 4"),
	asm.MustParse("push 1"),
	// Two symbols of one name and different classes.
	asm.New("call", asm.SymOp(asm.SymFunc, "x")),
	asm.New("call", asm.SymOp(asm.SymData, "x")),
	asm.New("call", asm.SymOp(asm.SymFunc, "y")),
}

// instSeq maps fuzzer bytes to an instruction sequence, capped so the
// O(n·m) DP stays fast under the fuzzing engine.
func instSeq(data []byte) []asm.Inst {
	const maxLen = 64
	if len(data) > maxLen {
		data = data[:maxLen]
	}
	out := make([]asm.Inst, len(data))
	for i, b := range data {
		out[i] = vocab[int(b)%len(vocab)]
	}
	return out
}

// FuzzAlign throws arbitrary instruction sequences at the aligner — the
// packed kernel behind Score and Align — and checks it against the naive
// DP over Sim (score, pair stream, unaligned indices, full-weight bound)
// and its algebra: symmetry, the identity-score ceiling, agreement
// between the score-only and traceback paths, monotonicity of the pair
// indices, and normalization staying in [0, 1].
func FuzzAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 2, 3})
	f.Add([]byte{0, 4, 8, 12}, []byte{1, 5, 9, 13})
	f.Add([]byte{}, []byte{3, 3, 3})
	f.Add([]byte{14}, []byte{15})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0})

	f.Fuzz(func(t *testing.T, ra, ta []byte) {
		ref, tgt := instSeq(ra), instSeq(ta)
		rIdent, tIdent := IdentityScore(ref), IdentityScore(tgt)
		checkAgainstNaive(t, ref, tgt)

		s := Score(ref, tgt)
		if back := Score(tgt, ref); back != s {
			t.Fatalf("asymmetric: Score(ref,tgt)=%d, Score(tgt,ref)=%d", s, back)
		}
		if s < 0 {
			t.Fatalf("negative score %d", s)
		}
		if min := minIdent(rIdent, tIdent); s > min {
			t.Fatalf("score %d exceeds identity ceiling %d", s, min)
		}

		al := Align(ref, tgt)
		if al.Score != s {
			t.Fatalf("Align.Score=%d but Score=%d", al.Score, s)
		}
		sum, prevR, prevT := 0, -1, -1
		for _, p := range al.Pairs {
			if p.Ref <= prevR || p.Tgt <= prevT || p.Ref >= len(ref) || p.Tgt >= len(tgt) {
				t.Fatalf("bad pair stream %v", al.Pairs)
			}
			prevR, prevT = p.Ref, p.Tgt
			sum += Sim(ref[p.Ref], tgt[p.Tgt])
		}
		if sum != al.Score {
			t.Fatalf("pair sims total %d, Align.Score=%d", sum, al.Score)
		}
		if len(al.Pairs)+len(al.Deleted) != len(ref) || len(al.Pairs)+len(al.Inserted) != len(tgt) {
			t.Fatalf("alignment does not partition: %d pairs, %d deleted, %d inserted for %d/%d insts",
				len(al.Pairs), len(al.Deleted), len(al.Inserted), len(ref), len(tgt))
		}

		for _, m := range []Method{Ratio, Containment} {
			if n := Norm(s, rIdent, tIdent, m); n < 0 || n > 1 {
				t.Fatalf("%v normalization %v outside [0,1]", m, n)
			}
		}
	})
}

func minIdent(a, b int) int {
	if a < b {
		return a
	}
	return b
}
