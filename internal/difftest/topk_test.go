package difftest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// TestTopKParity runs the top-k invariant alone over every build of a few
// generated programs — the matrix of limits, minimum scores, candidate
// generators, worker counts and stores that tracy fuzz runs per program —
// short enough for the race detector.
func TestTopKParity(t *testing.T) {
	cfg := Config{Seed: 7}
	cfg.fillDefaults()
	for i := 0; i < 3; i++ {
		seed := cfg.progSeed(i)
		src := corpus.RandomFunc(FuncName, seed, corpus.GenConfig{Stmts: cfg.Stmts, Calls: true})
		db := index.New()
		var queries []*prep.Function
		for vi, v := range cfg.variants(seed) {
			img, err := tinyc.Build(src, tinyc.Config{Opt: v.opt, Seed: v.ctx})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.AddImage(fmt.Sprintf("v%d-%s", vi, v), img, nil); err != nil {
				t.Fatal(err)
			}
			if q := liftNamed(img, FuncName); q != nil && vi%3 == 0 {
				queries = append(queries, q)
			}
		}
		c := &checker{prog: i, seed: seed}
		c.topKParity(db, queries, core.DefaultOptions())
		for _, d := range c.divs {
			t.Error(d)
		}
		if c.checks == 0 {
			t.Fatal("no top-k check ran")
		}
	}
}
