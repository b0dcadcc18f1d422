// Package csp implements the small constraint solver used by the rewrite
// engine (paper Section 4.4): variables over finite domains, soft equality
// constraints (variable=value and variable=variable), and a bounded
// backtracking search that returns the assignment with the fewest
// violated constraints found within the backtrack budget.
//
// Every constraint is a droppable conjunct — the paper: "when solving the
// constraint we are willing to drop conjuncts if the full constraint is
// not satisfiable". The search is exact branch-and-bound when the budget
// suffices and best-effort otherwise, mirroring the paper's bound of 1000
// backtracking attempts.
//
// Variables are dense ints in declaration order, each over the values
// 0..n-1 of its own domain size n, which the caller gives meaning to. A
// Problem owns all the memory a solve needs and keeps it across Reset, so
// a caller that solves many problems in a row allocates nothing in the
// steady state.
//
// The answer is a function of the problem as declared, and nothing else:
// components are found in variable order following equalities in the
// order they were added, a component's variables are decided by
// decreasing constraint degree (ties in discovery order), a variable's
// values are tried by decreasing bind count (ties in value order), and
// the budget is spent one unit per completed value of a variable.
package csp

import (
	"slices"

	"repro/internal/telemetry"
)

// DefaultMaxBacktracks is the paper's backtracking bound.
const DefaultMaxBacktracks = 1000

// None is the value of a variable the solver left unassigned: its domain
// is empty.
const None = -1

// Problem is a set of variables and soft equality constraints.
type Problem struct {
	// Tel, when non-nil, receives solver telemetry: solve latency, the
	// backtracking steps consumed, and budget-exhaustion (timeout) events.
	Tel *telemetry.Collector

	doms  []int    // per variable its domain size: the values 0..n-1
	binds [][2]int // (variable, value), as added
	eqs   [][2]int // (variable, variable), as added

	// Everything below is rebuilt by Solve. The three tables are laid out
	// per variable v as tab[off[v]:off[v+1]].
	adjOff, adj   []int // equality neighbours, in the order added
	bindOff       []int // distinct bound values, ascending, with their counts ...
	bindVal       []int
	bindCnt       []int
	bindN, bindTo []int // ... how many are distinct, and the total
	candOff, cand []int // the domain in the order the search tries it
	keys          []int // the bind counts of one variable's candidates

	seen         []bool
	stack, order []int
	pos          []int // variable -> position in order
	assign, best []int // by position in order
	bestCost     int
	budget       int
	out          []int
}

// Reset empties the problem, keeping its memory.
func (p *Problem) Reset() {
	p.doms, p.binds, p.eqs = p.doms[:0], p.binds[:0], p.eqs[:0]
}

// AddVar declares a variable over the domain 0..n-1 and returns it; a
// variable with n <= 0 has an empty domain and is left unassigned.
func (p *Problem) AddVar(n int) int {
	p.doms = append(p.doms, max(n, 0))
	return len(p.doms) - 1
}

// NumVars returns the number of declared variables.
func (p *Problem) NumVars() int { return len(p.doms) }

func (p *Problem) declared(v int) bool { return v >= 0 && v < len(p.doms) }

// Bind adds a soft constraint v = value. A value outside v's domain is a
// constraint no assignment can satisfy. An undeclared v is ignored.
func (p *Problem) Bind(v, value int) {
	if p.declared(v) {
		p.binds = append(p.binds, [2]int{v, value})
	}
}

// Eq adds a soft constraint a = b between two distinct declared
// variables; anything else is ignored.
func (p *Problem) Eq(a, b int) {
	if p.declared(a) && p.declared(b) && a != b {
		p.eqs = append(p.eqs, [2]int{a, b})
	}
}

// NumConstraints returns the total number of soft constraints.
func (p *Problem) NumConstraints() int { return len(p.binds) + len(p.eqs) }

// grow returns s with length n, reusing its memory when it suffices. The
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Solve searches for an assignment minimizing violated constraints, with
// at most maxBacktracks backtracking steps (per connected component). It
// returns the best assignment found, indexed by variable with None for a
// variable left unassigned, and its number of violated constraints. The
// slice is the Problem's and is overwritten by the next Solve.
func (p *Problem) Solve(maxBacktracks int) ([]int, int) {
	if maxBacktracks <= 0 {
		maxBacktracks = DefaultMaxBacktracks
	}
	st := p.Tel.StartTimer(telemetry.SolveLatency)
	p.index()
	conflicts, backtracks, exhausted := p.solveIndexed(maxBacktracks)
	p.Tel.Inc(telemetry.CSPSolves)
	p.Tel.Add(telemetry.CSPBacktracks, uint64(backtracks))
	p.Tel.Add(telemetry.CSPBudgetExhausted, uint64(exhausted))
	st.Stop()
	if solveHook != nil {
		solveHook(p, maxBacktracks, p.out, conflicts)
	}
	return p.out, conflicts
}

// solveHook, when set, sees every problem Solve solved, with its budget and
// answer: how tests hold the problems a real workload builds to a
// reference. It is nil outside tests.
var solveHook func(p *Problem, maxBacktracks int, out []int, conflicts int)

// solveIndexed solves the indexed problem component by component into
// p.out, returning the violated constraints, the backtracks spent and the
// components that exhausted their budget.
func (p *Problem) solveIndexed(maxBacktracks int) (conflicts, backtracks, exhausted int) {
	nv := len(p.doms)
	p.out = grow(p.out, nv)
	p.seen = grow(p.seen, nv)
	clear(p.seen)
	for v := 0; v < nv; v++ {
		if p.seen[v] {
			continue
		}
		p.component(v)
		p.solveComponent(maxBacktracks)
		for i, u := range p.order {
			p.out[u] = p.best[i]
		}
		conflicts += p.bestCost
		backtracks += maxBacktracks - p.budget
		if p.budget <= 0 {
			exhausted++
		}
	}
	return conflicts, backtracks, exhausted
}

// index lays the constraints out per variable and fixes, once per solve,
// the order in which each variable's values will be tried.
func (p *Problem) index() {
	nv := len(p.doms)
	p.adjOff = grow(p.adjOff, nv+1)
	p.bindOff = grow(p.bindOff, nv+1)
	p.candOff = grow(p.candOff, nv+1)
	p.bindN = grow(p.bindN, nv)
	p.bindTo = grow(p.bindTo, nv)
	clear(p.adjOff)
	clear(p.bindOff)
	clear(p.bindN)
	clear(p.bindTo)

	// Neighbours: count, prefix-sum, then fill in the order the
	// equalities were added (the component walk depends on it).
	for _, e := range p.eqs {
		p.adjOff[e[0]+1]++
		p.adjOff[e[1]+1]++
	}
	for _, b := range p.binds {
		p.bindOff[b[0]+1]++
	}
	nc := 0
	for v := 0; v < nv; v++ {
		p.adjOff[v+1] += p.adjOff[v]
		p.bindOff[v+1] += p.bindOff[v]
		p.candOff[v] = nc
		nc += p.doms[v]
	}
	p.candOff[nv] = nc
	p.adj = grow(p.adj, 2*len(p.eqs))
	p.pos = grow(p.pos, nv) // borrowed as the per-variable fill cursor
	copy(p.pos, p.adjOff[:nv])
	for _, e := range p.eqs {
		p.adj[p.pos[e[0]]] = e[1]
		p.pos[e[0]]++
		p.adj[p.pos[e[1]]] = e[0]
		p.pos[e[1]]++
	}

	// Binds: each variable's distinct bound values, ascending, with their
	// counts.
	p.bindVal = grow(p.bindVal, len(p.binds))
	p.bindCnt = grow(p.bindCnt, len(p.binds))
	for _, b := range p.binds {
		v, val := b[0], b[1]
		p.bindTo[v]++
		at, end := p.bindOff[v], p.bindOff[v]+p.bindN[v]
		for at < end && p.bindVal[at] < val {
			at++
		}
		if at == end || p.bindVal[at] != val {
			copy(p.bindVal[at+1:end+1], p.bindVal[at:end])
			copy(p.bindCnt[at+1:end+1], p.bindCnt[at:end])
			p.bindVal[at], p.bindCnt[at] = val, 0
			p.bindN[v]++
		}
		p.bindCnt[at]++
	}

	// Candidates: the domain with the values some bind asks for first, by
	// decreasing bind count, and the rest in order after them. A variable is
	// bound to few values, so only those are sorted — taken in ascending
	// order, a stable insertion keeps tied counts in domain order — and the
	// rest is counted out around them.
	p.cand = grow(p.cand, nc)
	p.keys = grow(p.keys, len(p.binds))
	for v, n := range p.doms {
		c, k := p.cand[p.candOff[v]:p.candOff[v+1]], p.keys
		at := p.bindOff[v]
		vals, cnts := p.bindVal[at:at+p.bindN[v]], p.bindCnt[at:at+p.bindN[v]]
		m := 0
		for j, val := range vals {
			if val < 0 || val >= n {
				continue // a value outside the domain: no candidate
			}
			i := m
			for i > 0 && k[i-1] < cnts[j] {
				c[i], k[i] = c[i-1], k[i-1]
				i--
			}
			c[i], k[i] = val, cnts[j]
			m++
		}
		j := 0
		for j < len(vals) && vals[j] < 0 {
			j++
		}
		for val := 0; val < n; val++ {
			if j < len(vals) && vals[j] == val {
				j++
				continue
			}
			c[m] = val
			m++
		}
	}
}

// bindCount returns how many bind constraints want v = val.
func (p *Problem) bindCount(v, val int) int {
	at := p.bindOff[v]
	for end := at + p.bindN[v]; at < end; at++ {
		if p.bindVal[at] == val {
			return p.bindCnt[at]
		}
	}
	return 0
}

// component collects into p.order the connected component of v in the
// equality graph (bind constraints are unary and do not connect).
func (p *Problem) component(v int) {
	p.order = p.order[:0]
	p.stack = append(p.stack[:0], v)
	p.seen[v] = true
	for len(p.stack) > 0 {
		v := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.order = append(p.order, v)
		for _, u := range p.adj[p.adjOff[v]:p.adjOff[v+1]] {
			if !p.seen[u] {
				p.seen[u] = true
				p.stack = append(p.stack, u)
			}
		}
	}
}

// solveComponent solves the component in p.order, leaving the answer in
// p.best (by position in the reordered p.order), p.bestCost and p.budget.
func (p *Problem) solveComponent(maxBacktracks int) {
	// Order by decreasing constraint degree so that highly-constrained
	// variables are decided first.
	if len(p.order) > 1 {
		slices.SortStableFunc(p.order, func(a, b int) int { return p.degree(b) - p.degree(a) })
	}
	for i, v := range p.order {
		p.pos[v] = i
	}
	n := len(p.order)
	p.assign, p.best = grow(p.assign, n), grow(p.best, n)
	p.budget = maxBacktracks
	// Greedy first pass establishes an upper bound (and a guaranteed
	// answer if the budget runs out immediately).
	p.bestCost = 0
	for i := range p.order {
		bestVal, bestC := None, 1<<30
		for _, val := range p.candidates(i) {
			if c := p.assignCost(i, val); c < bestC {
				bestVal, bestC = val, c
			}
		}
		if bestVal == None { // empty domain
			bestC = p.assignCost(i, None)
		}
		p.assign[i] = bestVal
		p.bestCost += bestC
	}
	copy(p.best, p.assign)
	for i := range p.assign {
		p.assign[i] = None
	}
	p.search(0, 0)
}

// degree is the number of equalities on v plus the number of distinct
// values v is bound to.
func (p *Problem) degree(v int) int { return p.adjOff[v+1] - p.adjOff[v] + p.bindN[v] }

// candidates returns the values worth trying for position i.
func (p *Problem) candidates(i int) []int {
	v := p.order[i]
	return p.cand[p.candOff[v]:p.candOff[v+1]]
}

// assignCost counts the constraints violated by giving position i the
// value val, against bind constraints and already-assigned eq-neighbours.
func (p *Problem) assignCost(i, val int) int {
	v := p.order[i]
	cost := p.bindTo[v] - p.bindCount(v, val)
	for _, u := range p.adj[p.adjOff[v]:p.adjOff[v+1]] {
		j := p.pos[u]
		if j > i || p.assign[j] == None {
			continue
		}
		if p.assign[j] != val {
			cost++
		}
	}
	return cost
}

var noCandidate = []int{None}

func (p *Problem) search(i, cost int) bool {
	if cost >= p.bestCost {
		return p.budget > 0
	}
	if i == len(p.order) {
		p.bestCost = cost
		copy(p.best, p.assign)
		return p.budget > 0
	}
	cands := p.candidates(i)
	if len(cands) == 0 {
		cands = noCandidate
	}
	for _, val := range cands {
		p.assign[i] = val
		if !p.search(i+1, cost+p.assignCost(i, val)) {
			p.assign[i] = None
			return false
		}
		p.assign[i] = None
		p.budget--
		if p.budget <= 0 {
			return false
		}
	}
	return true
}
