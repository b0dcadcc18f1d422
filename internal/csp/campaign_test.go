package csp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/csp"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// TestCandidateOrderOnCampaign: every problem the rewrite engine builds
// while comparing functions of a compiled campaign — unpruned, so every
// pair worth a rewrite is solved — gets the reference candidate order and
// the reference answer.
func TestCandidateOrderOnCampaign(t *testing.T) {
	var ds []*core.Decomposed
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1811, Funcs: 96, FuncsPerExe: 16, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			for _, fn := range fns {
				ds = append(ds, core.Decompose(fn, 3))
			}
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	solves := 0
	csp.SetSolveHook(func(p *csp.Problem, maxBacktracks int, out []int, conflicts int) {
		solves++
		if d := csp.CheckReference(p, maxBacktracks, out, conflicts); d != "" {
			t.Fatal(d)
		}
	})
	defer csp.SetSolveHook(nil)
	opts := core.DefaultOptions()
	opts.Prune = false
	m := core.NewMatcher(opts)
	for q := 0; q < len(ds); q += len(ds) / 8 {
		for _, tgt := range ds {
			m.Compare(ds[q], tgt)
		}
	}
	if solves < 1000 {
		t.Fatalf("the campaign compares solved %d problems; too few to show anything", solves)
	}
	t.Logf("%d problems of %d functions' compares held to the reference", solves, len(ds))
}
