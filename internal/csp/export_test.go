package csp

import (
	"fmt"
	"slices"
)

// SetSolveHook makes fn see every problem Solve solves, with its budget and
// answer; nil removes it.
func SetSolveHook(fn func(p *Problem, maxBacktracks int, out []int, conflicts int)) { solveHook = fn }

// referenceCands is the candidate order as index built it before it worked
// from the bound values: per variable its whole domain, stably sorted by
// decreasing bind count, a value's count found by scanning every bind.
func referenceCands(p *Problem) [][]int {
	out := make([][]int, len(p.doms))
	for v, n := range p.doms {
		count := func(val int) int {
			c := 0
			for _, b := range p.binds {
				if b[0] == v && b[1] == val {
					c++
				}
			}
			return c
		}
		var bound, rest []int
		for val := 0; val < n; val++ {
			if count(val) > 0 {
				bound = append(bound, val)
			} else {
				rest = append(rest, val)
			}
		}
		slices.SortStableFunc(bound, func(x, y int) int { return count(y) - count(x) })
		out[v] = append(bound, rest...)
	}
	return out
}

// CheckReference holds p, just solved to out with conflicts under the
// budget maxBacktracks, to the reference: every variable's candidate order
// must be referenceCands', and solving the same declarations with the
// reference order must give the same answer. It returns what differs, ""
// when nothing does.
func CheckReference(p *Problem, maxBacktracks int, out []int, conflicts int) string {
	ref := referenceCands(p)
	for v := range p.doms {
		if got := p.cand[p.candOff[v]:p.candOff[v+1]]; !slices.Equal(got, ref[v]) {
			return fmt.Sprintf("variable %d of %d: candidates %v, reference %v", v, len(p.doms), got, ref[v])
		}
	}
	var q Problem
	for _, n := range p.doms {
		q.AddVar(n)
	}
	for _, b := range p.binds {
		q.Bind(b[0], b[1])
	}
	for _, e := range p.eqs {
		q.Eq(e[0], e[1])
	}
	q.index()
	for v := range q.doms {
		copy(q.cand[q.candOff[v]:q.candOff[v+1]], ref[v])
	}
	if qc, _, _ := q.solveIndexed(maxBacktracks); qc != conflicts || !slices.Equal(q.out, out) {
		return fmt.Sprintf("answer %v with %d conflicts, reference %v with %d", out, conflicts, q.out, qc)
	}
	return ""
}
