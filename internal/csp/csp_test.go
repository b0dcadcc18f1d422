package csp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

// Values of the three-letter domains the tests below share.
const (
	a = iota
	b
	c
	d
)

func TestAllSatisfiable(t *testing.T) {
	var p Problem
	x := p.AddVar(3)
	y := p.AddVar(3)
	p.Bind(x, b)
	p.Eq(x, y)
	got, conflicts := p.Solve(0)
	if conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", conflicts)
	}
	if got[x] != b || got[y] != b {
		t.Errorf("assignment = %v, want x=y=b", got)
	}
}

func TestConflictingBinds(t *testing.T) {
	var p Problem
	x := p.AddVar(2)
	p.Bind(x, a)
	p.Bind(x, a)
	p.Bind(x, b)
	got, conflicts := p.Solve(0)
	// Majority wins: x=a violates one constraint.
	if got[x] != a || conflicts != 1 {
		t.Errorf("got %v with %d conflicts, want x=a with 1", got, conflicts)
	}
}

func TestChainPropagation(t *testing.T) {
	// x=y, y=z, bind z=b: everything should become b.
	var p Problem
	x, y, z := p.AddVar(3), p.AddVar(3), p.AddVar(3)
	p.Eq(x, y)
	p.Eq(y, z)
	p.Bind(z, b)
	got, conflicts := p.Solve(0)
	if conflicts != 0 {
		t.Fatalf("conflicts = %d", conflicts)
	}
	if got[x] != b || got[y] != b || got[z] != b {
		t.Errorf("chain assignment = %v", got)
	}
}

func TestCrossPressure(t *testing.T) {
	// Two binds pull x apart; eq to y whose bind agrees with a breaks
	// the tie at minimum conflict.
	var p Problem
	x, y := p.AddVar(2), p.AddVar(2)
	p.Bind(x, a)
	p.Bind(x, b)
	p.Bind(y, a)
	p.Eq(x, y)
	got, conflicts := p.Solve(0)
	if got[x] != a || got[y] != a {
		t.Errorf("assignment = %v, want both a", got)
	}
	if conflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (the x=b bind)", conflicts)
	}
}

func TestEmptyDomain(t *testing.T) {
	var p Problem
	x := p.AddVar(0)
	p.Bind(x, d)
	got, conflicts := p.Solve(0)
	if got[x] != None {
		t.Errorf("empty-domain var should stay unassigned, got %v", got)
	}
	if conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", conflicts)
	}
}

func TestUnknownVarIgnored(t *testing.T) {
	var p Problem
	x := p.AddVar(1)
	p.Bind(7, a)  // no-op
	p.Eq(x, 7)    // no-op
	p.Eq(-1, x)   // no-op
	p.Eq(x, x)    // no-op
	p.Bind(-1, a) // no-op
	if p.NumConstraints() != 0 {
		t.Errorf("constraints on unknown vars should be dropped")
	}
	if p.NumVars() != 1 {
		t.Errorf("NumVars = %d, want 1", p.NumVars())
	}
}

func TestIndependentComponents(t *testing.T) {
	var p Problem
	a1, a2, b1 := p.AddVar(2), p.AddVar(2), p.AddVar(2)
	p.Eq(a1, a2)
	p.Bind(a1, a)
	p.Bind(b1, b)
	got, conflicts := p.Solve(0)
	if conflicts != 0 {
		t.Fatalf("conflicts = %d", conflicts)
	}
	if got[a1] != a || got[a2] != a || got[b1] != b {
		t.Errorf("assignment = %v", got)
	}
}

// TestAddVarDenseIDs: variables are numbered in declaration order, each
// keeps its own domain, and Reset starts the numbering over.
func TestAddVarDenseIDs(t *testing.T) {
	var p Problem
	x, y := p.AddVar(1), p.AddVar(2)
	if x != 0 || y != 1 {
		t.Fatalf("ids = %d, %d, want 0, 1", x, y)
	}
	p.Bind(x, b) // outside x's domain: unsatisfiable
	p.Bind(y, b)
	got, conflicts := p.Solve(0)
	if got[x] != a || got[y] != b || conflicts != 1 {
		t.Errorf("assignment = %v with %d conflicts, want [a b] with 1", got, conflicts)
	}
	p.Reset()
	if z := p.AddVar(3); z != 0 || p.NumVars() != 1 || p.NumConstraints() != 0 {
		t.Errorf("after Reset: id %d, %d vars, %d constraints", z, p.NumVars(), p.NumConstraints())
	}
}

func TestBudgetStillReturnsAnswer(t *testing.T) {
	// A large chain with a tiny budget must still return a full
	// assignment (the greedy bound) with reasonable conflicts.
	var p Problem
	n := 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar(4)
	}
	for i := 1; i < n; i++ {
		p.Eq(vars[i-1], vars[i])
	}
	p.Bind(vars[0], c)
	got, conflicts := p.Solve(1)
	if len(got) != n || slices.Contains(got, None) {
		t.Fatalf("assignment %v does not cover %d vars", got, n)
	}
	if conflicts > 1 {
		t.Errorf("greedy chain should reach <=1 conflicts, got %d", conflicts)
	}
}

// TestSolveTelemetry: a solve with a collector attached must record the
// invocation, its latency, and the backtracks consumed — and a starved
// budget must surface as a budget-exhausted event. A nil collector must
// not change results.
func TestSolveTelemetry(t *testing.T) {
	build := func() *Problem {
		p := new(Problem)
		vars := []int{p.AddVar(3), p.AddVar(3), p.AddVar(3), p.AddVar(3)}
		for i := 1; i < len(vars); i++ {
			p.Eq(vars[i-1], vars[i])
		}
		p.Bind(vars[0], a)
		p.Bind(vars[3], b) // unsatisfiable together with the chain: forces search
		return p
	}

	p := build()
	p.Tel = telemetry.New()
	got, conflicts := p.Solve(0)
	got = slices.Clone(got)
	if p.Tel.Get(telemetry.CSPSolves) != 1 {
		t.Errorf("csp_solves = %d, want 1", p.Tel.Get(telemetry.CSPSolves))
	}
	if p.Tel.Get(telemetry.CSPBacktracks) == 0 {
		t.Error("no backtracks recorded for a conflicted problem")
	}
	if p.Tel.Get(telemetry.CSPBudgetExhausted) != 0 {
		t.Error("default budget should not exhaust on 4 variables")
	}
	if p.Tel.Snapshot().Histograms["solve_latency"].Count != 1 {
		t.Error("solve latency not recorded")
	}

	// Same problem, nil collector: identical outcome.
	p2 := build()
	got2, conflicts2 := p2.Solve(0)
	if conflicts != conflicts2 || !slices.Equal(got, got2) {
		t.Errorf("telemetry changed the solve: %v/%d vs %v/%d",
			got, conflicts, got2, conflicts2)
	}

	// Starved budget: exhaustion must be counted.
	p3 := build()
	p3.Tel = telemetry.New()
	p3.Solve(1)
	if p3.Tel.Get(telemetry.CSPBudgetExhausted) == 0 {
		t.Error("budget of 1 should exhaust and be counted")
	}
}

// randomProblem declares a random problem on p and returns its
// constraints for independent evaluation.
func randomProblem(rng *rand.Rand, p *Problem) (binds, eqs [][2]int) {
	nv := 2 + rng.Intn(6)
	for i := 0; i < nv; i++ {
		p.AddVar(3)
	}
	for i := 0; i < rng.Intn(8); i++ {
		bd := [2]int{rng.Intn(nv), rng.Intn(3)}
		binds = append(binds, bd)
		p.Bind(bd[0], bd[1])
	}
	for i := 0; i < rng.Intn(8); i++ {
		e := [2]int{rng.Intn(nv), rng.Intn(nv)}
		if e[0] == e[1] {
			continue
		}
		eqs = append(eqs, e)
		p.Eq(e[0], e[1])
	}
	return binds, eqs
}

// violated evaluates an assignment against the constraints.
func violated(got []int, binds, eqs [][2]int) int {
	n := 0
	for _, bd := range binds {
		if got[bd[0]] != bd[1] {
			n++
		}
	}
	for _, e := range eqs {
		if got[e[0]] != got[e[1]] {
			n++
		}
	}
	return n
}

// TestQuickSolverSound: the returned conflict count is a valid evaluation
// of the returned assignment (recomputed independently), never exceeds
// the total constraint count, and — the budget being ample for problems
// this small — is the optimum an exhaustive enumeration finds.
func TestQuickSolverSound(t *testing.T) {
	f := func(seed int64) bool {
		var p Problem
		binds, eqs := randomProblem(rand.New(rand.NewSource(seed)), &p)
		got, conflicts := p.Solve(0)
		if actual := violated(got, binds, eqs); actual != conflicts {
			t.Logf("reported %d conflicts, actual %d (seed %d)", conflicts, actual, seed)
			return false
		}
		if conflicts > len(binds)+len(eqs) {
			t.Logf("conflicts exceed constraint count")
			return false
		}
		try, optimum := make([]int, p.NumVars()), len(binds)+len(eqs)
		var enum func(i int)
		enum = func(i int) {
			if i == len(try) {
				optimum = min(optimum, violated(try, binds, eqs))
				return
			}
			for _, v := range []int{a, b, c} {
				try[i] = v
				enum(i + 1)
			}
		}
		enum(0)
		if conflicts != optimum {
			t.Logf("solver found %d conflicts, optimum is %d (seed %d)", conflicts, optimum, seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAdversarialChainsBounded: long equality chains over large domains
// whose two ends are bound to different values cannot be satisfied, and
// proving the optimum would take far more than the budget. The solve must
// stop at the budget of each chain, return the greedy answer or better,
// and return the same answer every time.
func TestAdversarialChainsBounded(t *testing.T) {
	const chains, length, domSize = 3, 60, 50
	var binds, eqs [][2]int
	build := func(p *Problem) {
		binds, eqs = binds[:0], eqs[:0]
		for ch := 0; ch < chains; ch++ {
			first := p.NumVars()
			for i := 0; i < length; i++ {
				v := p.AddVar(domSize)
				if i > 0 {
					eqs = append(eqs, [2]int{v - 1, v})
				}
				// Contradictory binds along the chain: every fifth link
				// wants its own value.
				if i%5 == 0 {
					binds = append(binds, [2]int{v, (ch + i) % domSize}, [2]int{v, (ch + i + 1) % domSize})
				}
			}
			binds = append(binds, [2]int{first, 1}, [2]int{p.NumVars() - 1, 2})
		}
		for _, bd := range binds {
			p.Bind(bd[0], bd[1])
		}
		for _, e := range eqs {
			p.Eq(e[0], e[1])
		}
	}

	var p Problem
	p.Tel = telemetry.New()
	build(&p)
	got, conflicts := p.Solve(DefaultMaxBacktracks)
	first := slices.Clone(got)
	if bt := p.Tel.Get(telemetry.CSPBacktracks); bt > chains*DefaultMaxBacktracks {
		t.Errorf("%d backtracks, budget is %d per component", bt, DefaultMaxBacktracks)
	}
	if ex := p.Tel.Get(telemetry.CSPBudgetExhausted); ex != chains {
		t.Errorf("%d of %d chains exhausted their budget", ex, chains)
	}
	if actual := violated(got, binds, eqs); actual != conflicts {
		t.Errorf("reported %d conflicts, assignment has %d", conflicts, actual)
	}
	if slices.Contains(got, None) {
		t.Error("a variable with a non-empty domain was left unassigned")
	}

	// A budget of one backtrack leaves only the greedy answer.
	var greedy Problem
	build(&greedy)
	if _, gc := greedy.Solve(1); conflicts > gc {
		t.Errorf("full budget found %d conflicts, greedy alone %d", conflicts, gc)
	}

	// Deterministic: on a fresh Problem and on a reused one.
	for run := 0; run < 3; run++ {
		q := &p
		if run == 0 {
			q = new(Problem)
		}
		q.Reset()
		build(q)
		again, ac := q.Solve(DefaultMaxBacktracks)
		if ac != conflicts || !slices.Equal(again, first) {
			t.Fatalf("run %d: solve not deterministic: %d vs %d conflicts", run, ac, conflicts)
		}
	}
}
