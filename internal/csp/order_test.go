package csp

import (
	"math/rand"
	"testing"
)

// TestCandidateOrderMatchesReference: on random problems — domains of 0 to
// 6 values, binds inside and outside them, repeated binds, equalities, any
// budget — the candidate order built from the bound values is the order
// the per-value scan built, and Solve answers as it did.
func TestCandidateOrderMatchesReference(t *testing.T) {
	checked := 0
	SetSolveHook(func(p *Problem, maxBacktracks int, out []int, conflicts int) {
		checked++
		if d := CheckReference(p, maxBacktracks, out, conflicts); d != "" {
			t.Fatal(d)
		}
	})
	defer SetSolveHook(nil)
	rng := rand.New(rand.NewSource(25))
	var p Problem // reused: Reset must leave nothing behind
	for i := 0; i < 3000; i++ {
		p.Reset()
		nv := 1 + rng.Intn(8)
		for v := 0; v < nv; v++ {
			p.AddVar(rng.Intn(7))
		}
		for j := rng.Intn(12); j > 0; j-- {
			p.Bind(rng.Intn(nv), rng.Intn(9)-1)
		}
		for j := rng.Intn(10); j > 0; j-- {
			p.Eq(rng.Intn(nv), rng.Intn(nv))
		}
		p.Solve(1 + rng.Intn(50))
	}
	if checked != 3000 {
		t.Fatalf("the hook saw %d solves, want 3000", checked)
	}
}
