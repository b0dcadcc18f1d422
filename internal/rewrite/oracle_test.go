package rewrite

import (
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
	"repro/internal/tracelet"
)

// oracleFunc is one function of the oracle corpus: its 3-tracelets, each
// with its blocks packed and its identity score.
type oracleFunc struct {
	insts  int
	ts     []*tracelet.Tracelet
	packed [][]*asm.Packed
	ident  []int
}

// oracleCorpus compiles the campaign the matcher's golden file
// (internal/core/testdata) was recorded on.
func oracleCorpus(t *testing.T) []oracleFunc {
	t.Helper()
	var fs []oracleFunc
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1811, Funcs: 192, FuncsPerExe: 16, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			if err != nil {
				return err
			}
			for _, fn := range fns {
				f := oracleFunc{insts: fn.NumInsts(), ts: tracelet.Extract(fn.Graph, 3)}
				for _, tr := range f.ts {
					var pk []*asm.Packed
					for _, b := range tr.Blocks {
						pk = append(pk, asm.Pack(b))
					}
					f.packed = append(f.packed, pk)
					f.ident = append(f.ident, align.IdentityScore(tr.Insts()))
				}
				fs = append(fs, f)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestEngineMatchesReference runs the typed engine and the string-based
// reference over every rewrite candidate the golden corpus produces — for
// each of the golden queries' tracelets without a syntactic match in a
// target, every target tracelet scoring between the rewrite threshold and
// β, the matcher's own selection without its stop at the first success —
// and requires the same rewritten instructions, conflict count, variable
// count and variable assignment.
func TestEngineMatchesReference(t *testing.T) {
	const skipBelow, beta = 0.5, 0.8 // core.DefaultOptions
	fs := oracleCorpus(t)
	var bySize []int
	for i := range fs {
		if len(fs[i].ts) > 0 {
			bySize = append(bySize, i)
		}
	}
	sort.SliceStable(bySize, func(a, b int) bool { return fs[bySize[a]].insts < fs[bySize[b]].insts })
	nq := 24
	if testing.Short() {
		nq = 6
	}
	var k align.Kernel
	candidates, conflicted, inserted := 0, 0, 0
	for qi := 0; qi < nq; qi++ {
		q := &fs[bySize[qi*(len(bySize)-1)/(nq-1)]]
		for fi := range fs {
			f := &fs[fi]
			for ri, r := range q.ts {
				var cands []int
				for ti := range f.ts {
					s := 0
					for b := range q.packed[ri] {
						s += k.Score(q.packed[ri][b], f.packed[ti][b])
					}
					norm := align.Norm(s, q.ident[ri], f.ident[ti], align.Ratio)
					if norm > beta {
						cands = nil
						break
					}
					if norm >= skipBelow {
						cands = append(cands, ti)
					}
				}
				for _, ti := range cands {
					tt := f.ts[ti]
					al := align.AlignBlocks(r.Blocks, tt.Blocks)
					got, want := Rewrite(r.Blocks, tt.Blocks, al), refRewrite(r.Blocks, tt.Blocks, al)
					candidates++
					if want.Conflicts > 0 {
						conflicted++
					}
					if len(al.Inserted) > 0 {
						inserted++
					}
					if got.Conflicts != want.Conflicts || got.NumVars != want.NumVars || !maps.Equal(got.VMap, want.VMap) ||
						!slices.Equal(texts(got.Blocks), texts(want.Blocks)) {
						t.Fatalf("query %d tracelet %d vs function %d tracelet %d:\nreference\n%s\ntarget\n%s\n got  %d conflicts %d vars %v\n%q\n want %d conflicts %d vars %v\n%q",
							qi, ri, fi, ti, r, tt, got.Conflicts, got.NumVars, got.VMap, texts(got.Blocks),
							want.Conflicts, want.NumVars, want.VMap, texts(want.Blocks))
					}
				}
			}
		}
	}
	t.Logf("%d candidates, %d with conflicts, %d with unaligned target instructions", candidates, conflicted, inserted)
	if candidates == 0 || conflicted == 0 || inserted == 0 {
		t.Error("the corpus did not exercise the solver's conflicts and the swap cache")
	}
}
