package align

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// naiveAlign is the alignment DP written directly over instructions and
// Sim, with no packing and no shortcut: the definition the packed Kernel
// is tested against. The traceback prefers pairing to deleting to
// inserting.
func naiveAlign(ref, tgt []asm.Inst) Alignment {
	n, m := len(ref), len(tgt)
	a := make([][]int, n+1)
	for i := range a {
		a[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			a[i][j] = max(a[i+1][j], a[i][j+1], Sim(ref[i], tgt[j])+a[i+1][j+1])
		}
	}
	out := Alignment{Score: a[0][0]}
	i, j := 0, 0
	for i < n && j < m {
		s := Sim(ref[i], tgt[j])
		switch {
		case s >= 0 && a[i][j] == s+a[i+1][j+1]:
			out.Pairs = append(out.Pairs, Pair{Ref: i, Tgt: j})
			i++
			j++
		case a[i][j] == a[i+1][j]:
			out.Deleted = append(out.Deleted, i)
			i++
		default:
			out.Inserted = append(out.Inserted, j)
			j++
		}
	}
	for ; i < n; i++ {
		out.Deleted = append(out.Deleted, i)
	}
	for ; j < m; j++ {
		out.Inserted = append(out.Inserted, j)
	}
	return out
}

// naiveBound is naiveAlign's score with every same-kind pair at its full
// weight: what Kernel.Bound computes.
func naiveBound(ref, tgt []asm.Inst) int {
	prev := make([]int, len(tgt)+1)
	for i := len(ref) - 1; i >= 0; i-- {
		cur := make([]int, len(tgt)+1)
		for j := len(tgt) - 1; j >= 0; j-- {
			cur[j] = max(prev[j], cur[j+1])
			if asm.SameKind(ref[i], tgt[j]) {
				cur[j] = max(cur[j], 2+ref[i].NumArgs()+prev[j+1])
			}
		}
		prev = cur
	}
	return prev[0]
}

// checkAgainstNaive requires the packed kernel, through the package's
// wrappers and directly, to reproduce the naive DP on (ref, tgt): score,
// pair stream, deleted and inserted indices, and the full-weight bound.
func checkAgainstNaive(t *testing.T, ref, tgt []asm.Inst) {
	t.Helper()
	want := naiveAlign(ref, tgt)
	if got := Score(ref, tgt); got != want.Score {
		t.Fatalf("Score = %d, naive DP = %d\nref %v\ntgt %v", got, want.Score, ref, tgt)
	}
	got := Align(ref, tgt)
	if got.Score != want.Score || !slices.Equal(got.Pairs, want.Pairs) ||
		!slices.Equal(got.Deleted, want.Deleted) || !slices.Equal(got.Inserted, want.Inserted) {
		t.Fatalf("Align = %+v, naive DP = %+v\nref %v\ntgt %v", got, want, ref, tgt)
	}
	var k Kernel
	bound := k.Bound(asm.Pack(ref), asm.Pack(tgt))
	if bound != naiveBound(ref, tgt) || bound < want.Score {
		t.Fatalf("Bound = %d, naive = %d, score = %d\nref %v\ntgt %v", bound, naiveBound(ref, tgt), want.Score, ref, tgt)
	}
}

// checkPackedSim requires PackedSim to equal Sim on every pair of insts.
func checkPackedSim(t *testing.T, insts []asm.Inst) {
	t.Helper()
	pk := asm.Pack(insts)
	for i := range insts {
		for j := range insts {
			if got, want := PackedSim(pk, i, pk, j), Sim(insts[i], insts[j]); got != want {
				t.Fatalf("PackedSim(%q, %q) = %d, Sim = %d", insts[i], insts[j], got, want)
			}
		}
	}
}

// TestPackedSimEqualsSim: on every pair of the fuzz vocabulary and of the
// distinct instructions of a compiled corpus sample, similarity on the
// packed form is Sim.
func TestPackedSimEqualsSim(t *testing.T) {
	checkPackedSim(t, vocab)
	seen := make(map[string]bool)
	var sample []asm.Inst
	var blocks [][]asm.Inst
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 7, Funcs: 48, FuncsPerExe: 16, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			if err != nil {
				return err
			}
			for _, fn := range fns {
				for _, b := range fn.Graph.Blocks {
					blocks = append(blocks, b.Body())
					for _, in := range b.Insts {
						if s := in.String(); !seen[s] && len(sample) < 600 {
							seen[s] = true
							sample = append(sample, in)
						}
					}
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) < 100 {
		t.Fatalf("corpus sample has only %d distinct instructions", len(sample))
	}
	checkPackedSim(t, sample)
	// And the kernel equals the naive DP on real block pairs: every block
	// against a few others.
	for i := range blocks {
		for _, j := range []int{i, (i + 1) % len(blocks), (i * 7) % len(blocks), (i*13 + 5) % len(blocks)} {
			checkAgainstNaive(t, blocks[i], blocks[j])
		}
	}
}
