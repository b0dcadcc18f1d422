package align

// This file implements the character-level textual diff the paper
// dismisses in Section 4.3 ("a textual diff might decompose an assembly
// instruction and match each decomposed part to a different instruction
// ... such as rorx edx,esi with inc rdi"). It exists as a straw-man
// baseline so the instruction-level alignment's advantage is testable.

import "repro/internal/asm"

// TextLCS returns the length of the longest common subsequence of the two
// strings' bytes.
func TextLCS(a, b string) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				cur[j] = prev[j+1] + 1
			} else {
				cur[j] = max(prev[j], cur[j+1])
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	return prev[0]
}

// TextSimilarity is the normalized character-LCS similarity of two
// instruction sequences rendered as text: 2*LCS / (len(a)+len(b)).
func TextSimilarity(a, b []asm.Inst) float64 {
	sa, sb := renderText(a), renderText(b)
	if len(sa)+len(sb) == 0 {
		return 0
	}
	return float64(2*TextLCS(sa, sb)) / float64(len(sa)+len(sb))
}

func renderText(insts []asm.Inst) string {
	out := ""
	for _, in := range insts {
		out += in.String() + "\n"
	}
	return out
}
