package rewrite

// The rewrite engine and constraint solver as they stood before the packed
// compare core replaced them, kept verbatim (names prefixed, telemetry
// removed) as the reference the typed engine is tested against: variables
// named with fmt.Sprintf, string-valued domains, maps throughout. Nothing
// outside the tests may use them.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/align"
	"repro/internal/asm"
)

// refDomains collects, per symbol class, the values present in the reference
// tracelet: they are the assignment refDomains (paper: "our domain for the
// register assignment only contains registers found in the reference
// tracelet", and likewise for memory offsets and function names).
type refDomains struct {
	regs  []string
	imms  []string
	byCls map[asm.SymClass][]string
}

func refCollectDomains(refInsts []asm.Inst) *refDomains {
	d := &refDomains{byCls: make(map[asm.SymClass][]string)}
	seenReg := map[string]bool{}
	seenImm := map[string]bool{}
	seenSym := map[string]bool{}
	for _, in := range refInsts {
		for _, a := range in.Args() {
			switch {
			case a.IsReg():
				s := a.Reg.String()
				if !seenReg[s] {
					seenReg[s] = true
					d.regs = append(d.regs, s)
				}
			case a.IsImm():
				s := strconv.FormatInt(a.Imm, 10)
				if !seenImm[s] {
					seenImm[s] = true
					d.imms = append(d.imms, s)
				}
			case a.IsSym():
				key := fmt.Sprintf("%d:%s", a.Cls, a.Sym)
				if !seenSym[key] {
					seenSym[key] = true
					d.byCls[a.Cls] = append(d.byCls[a.Cls], a.Sym)
				}
			}
		}
	}
	return d
}

// refArgValue encodes an argument as a solver value string.
func refArgValue(a asm.Arg) string {
	switch {
	case a.IsReg():
		return a.Reg.String()
	case a.IsImm():
		return strconv.FormatInt(a.Imm, 10)
	default:
		return a.Sym
	}
}

// refRewrite is the string-based rewrite engine: paper Algorithm 4 over
// formatted variable names, maps and the string solver below.
func refRewrite(refBlocks, tgtBlocks [][]asm.Inst, al align.Alignment) Result {
	refInsts := slices.Concat(refBlocks...)
	tgtInsts := slices.Concat(tgtBlocks...)
	dom := refCollectDomains(refInsts)

	p := newRefProblem()
	nextVar := 0
	// occVar[tIdx][argPos] records the variable abstracting that argument
	// occurrence.
	occVar := make(map[int]map[int]string)
	// identVar maps a non-register symbol identity (class + name, or an
	// immediate value) to its single variable: memory layout and call
	// targets are swapped consistently, so a swap "is counted at most
	// once" over the whole tracelet.
	identVar := make(map[string]string)
	lastWrite := make(map[asm.Reg]string)

	domainOf := func(a asm.Arg) []string {
		switch {
		case a.IsReg():
			return dom.regs
		case a.IsImm():
			return dom.imms
		default:
			return dom.byCls[a.Cls]
		}
	}

	for _, pair := range al.Pairs {
		t := tgtInsts[pair.Tgt]
		r := refInsts[pair.Ref]
		targs, rargs := t.Args(), r.Args()
		if len(targs) != len(rargs) {
			continue // cannot happen for SameKind pairs; defensive
		}
		reads := t.Read()
		writes := t.Write()
		for i := range targs {
			st, sr := targs[i], rargs[i]
			var nv string
			if st.IsReg() {
				// Registers are flow-sensitive: a fresh variable per
				// occurrence, linked through lastWrite.
				nv = fmt.Sprintf("r%d", nextVar)
				nextVar++
				p.AddVar(nv, domainOf(st))
				if reads[st.Reg] && lastWrite[st.Reg] != "" {
					p.Eq(nv, lastWrite[st.Reg])
				} else if writes[st.Reg] {
					lastWrite[st.Reg] = nv
				}
			} else {
				// Symbols and immediates are layout properties: one
				// variable per identity.
				key := refIdentKey(st)
				var ok bool
				if nv, ok = identVar[key]; !ok {
					nv = fmt.Sprintf("s%d", nextVar)
					nextVar++
					identVar[key] = nv
					p.AddVar(nv, domainOf(st))
				}
			}
			// Cross-tracelet constraint: the abstracted argument should
			// equal the aligned reference argument.
			p.Bind(nv, refArgValue(sr))
			if occVar[pair.Tgt] == nil {
				occVar[pair.Tgt] = make(map[int]string)
			}
			occVar[pair.Tgt][i] = nv
		}
	}

	vmap, conflicts := p.Solve(refDefaultMaxBacktracks)

	// Swap cache for unaligned instructions: original argument value ->
	// last substituted value.
	swap := make(map[string]string)
	record := func(orig asm.Arg, v string) {
		if v != "" {
			swap[refIdentKey(orig)] = v
		}
	}

	out := make([][]asm.Inst, len(tgtBlocks))
	idx := 0
	aligned := make(map[int]bool, len(al.Pairs))
	for _, pair := range al.Pairs {
		aligned[pair.Tgt] = true
	}
	for bi, blk := range tgtBlocks {
		out[bi] = make([]asm.Inst, len(blk))
		for ii := range blk {
			in := blk[ii].Clone()
			if vars, ok := occVar[idx]; ok {
				args := in.Args()
				for pos, a := range args {
					if v, assigned := vmap[vars[pos]]; assigned {
						na, err := refDecodeValue(a, v)
						if err == nil {
							in.SetArg(pos, na)
							record(args[pos], v)
						}
					}
				}
			}
			out[bi][ii] = in
			idx++
		}
	}
	// Second pass: apply the swap cache to instructions that were not
	// aligned (the "deleted instructions" of the paper, i.e. inserted
	// target instructions).
	idx = 0
	for bi := range out {
		for ii := range out[bi] {
			if !aligned[idx] {
				in := &out[bi][ii]
				for pos, a := range in.Args() {
					if v, ok := swap[refIdentKey(a)]; ok {
						if na, err := refDecodeValue(a, v); err == nil {
							in.SetArg(pos, na)
						}
					}
				}
			}
			idx++
		}
	}
	return Result{Blocks: out, Conflicts: conflicts, NumVars: nextVar, VMap: vmap}
}

// refIdentKey keys an argument identity for the identVar/swap maps.
func refIdentKey(a asm.Arg) string {
	switch {
	case a.IsReg():
		return "r:" + a.Reg.String()
	case a.IsImm():
		return "i:" + strconv.FormatInt(a.Imm, 10)
	default:
		return fmt.Sprintf("s%d:%s", a.Cls, a.Sym)
	}
}

// refDecodeValue converts a solver value back into an argument of the same
// kind as the original.
func refDecodeValue(orig asm.Arg, v string) (asm.Arg, error) {
	switch {
	case orig.IsReg():
		r := asm.LookupReg(v)
		if r == asm.RegNone {
			return asm.Arg{}, fmt.Errorf("rewrite: bad register value %q", v)
		}
		return asm.RegArg(r), nil
	case orig.IsImm():
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return asm.Arg{}, fmt.Errorf("rewrite: bad immediate value %q", v)
		}
		return asm.ImmArg(n), nil
	default:
		return asm.SymArg(orig.Cls, v), nil
	}
}

// refDefaultMaxBacktracks is the paper's backtracking bound.
const refDefaultMaxBacktracks = 1000

// refProblem is a set of variables and soft equality constraints.
type refProblem struct {
	vars   []*refVariable
	varIdx map[string]int
	nBind  int // total bind constraints (for conflict accounting)

}

type refVariable struct {
	name   string
	domain []string
	binds  map[string]int // value -> how many bind constraints want it
	eqs    []int          // indices of variables this one must equal
}

// newRefProblem returns an empty problem.
func newRefProblem() *refProblem {
	return &refProblem{varIdx: make(map[string]int)}
}

// AddVar declares a refVariable with its domain. Declaring the same name
// twice keeps the first domain.
func (p *refProblem) AddVar(name string, domain []string) {
	if _, ok := p.varIdx[name]; ok {
		return
	}
	p.varIdx[name] = len(p.vars)
	p.vars = append(p.vars, &refVariable{
		name:   name,
		domain: domain,
		binds:  make(map[string]int),
	})
}

// HasVar reports whether the refVariable is declared.
func (p *refProblem) HasVar(name string) bool {
	_, ok := p.varIdx[name]
	return ok
}

// Bind adds a soft constraint var = value.
func (p *refProblem) Bind(name, value string) {
	i, ok := p.varIdx[name]
	if !ok {
		return
	}
	p.vars[i].binds[value]++
	p.nBind++
}

// Eq adds a soft constraint a = b between two variables.
func (p *refProblem) Eq(a, b string) {
	ia, oka := p.varIdx[a]
	ib, okb := p.varIdx[b]
	if !oka || !okb || ia == ib {
		return
	}
	p.vars[ia].eqs = append(p.vars[ia].eqs, ib)
	p.vars[ib].eqs = append(p.vars[ib].eqs, ia)
}

// NumConstraints returns the total number of soft constraints.
func (p *refProblem) NumConstraints() int {
	ne := 0
	for _, v := range p.vars {
		ne += len(v.eqs)
	}
	return p.nBind + ne/2
}

// Solve searches for an assignment minimizing violated constraints, with
// at most maxBacktracks backtracking steps (per connected component). It
// returns the best assignment found and its number of violated
// constraints.
func (p *refProblem) Solve(maxBacktracks int) (map[string]string, int) {
	if maxBacktracks <= 0 {
		maxBacktracks = refDefaultMaxBacktracks
	}
	out := make(map[string]string, len(p.vars))
	conflicts := 0
	for _, comp := range p.components() {
		c := p.solveComponent(comp, maxBacktracks)
		for i, vi := range c.order {
			if c.best[i] != "" {
				out[p.vars[vi].name] = c.best[i]
			}
		}
		conflicts += c.bestCost
	}
	return out, conflicts
}

// components splits variables into connected components of the
// equality-constraint graph; bind constraints are unary and do not
// connect.
func (p *refProblem) components() [][]int {
	seen := make([]bool, len(p.vars))
	var comps [][]int
	for i := range p.vars {
		if seen[i] {
			continue
		}
		var comp []int
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range p.vars[v].eqs {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

type refCompSolver struct {
	p        *refProblem
	order    []int       // refVariable indices (into p.vars), search order
	pos      map[int]int // refVariable index -> position in order
	assign   []string    // current values by position
	best     []string
	bestCost int
	budget   int
}

func (p *refProblem) solveComponent(comp []int, maxBacktracks int) *refCompSolver {
	// Order by decreasing constraint degree so that highly-constrained
	// variables are decided first.
	order := append([]int(nil), comp...)
	deg := func(vi int) int {
		v := p.vars[vi]
		return len(v.eqs) + len(v.binds)
	}
	sort.SliceStable(order, func(a, b int) bool { return deg(order[a]) > deg(order[b]) })

	c := &refCompSolver{
		p:      p,
		order:  order,
		pos:    make(map[int]int, len(order)),
		assign: make([]string, len(order)),
		budget: maxBacktracks,
	}
	for i, vi := range order {
		c.pos[vi] = i
	}
	// Greedy first pass establishes an upper bound (and a guaranteed
	// answer if the budget runs out immediately).
	cost := 0
	for i := range order {
		v, bestVal, bestC := c.p.vars[order[i]], "", 1<<30
		for _, val := range c.candidates(i) {
			cc := c.assignCost(i, val)
			if cc < bestC {
				bestVal, bestC = val, cc
			}
		}
		if bestVal == "" { // empty domain
			bestC = c.assignCost(i, "")
			_ = v
		}
		c.assign[i] = bestVal
		cost += bestC
	}
	c.best = append([]string(nil), c.assign...)
	c.bestCost = cost
	for i := range c.assign {
		c.assign[i] = ""
	}
	c.search(0, 0)
	return c
}

// candidates returns the values worth trying for position i: the domain
// ordered so that values demanded by bind constraints come first.
func (c *refCompSolver) candidates(i int) []string {
	v := c.p.vars[c.order[i]]
	vals := append([]string(nil), v.domain...)
	sort.SliceStable(vals, func(a, b int) bool {
		return v.binds[vals[a]] > v.binds[vals[b]]
	})
	return vals
}

// assignCost counts the constraints violated by giving position i the
// value val, against bind constraints and already-assigned eq-neighbours.
func (c *refCompSolver) assignCost(i int, val string) int {
	v := c.p.vars[c.order[i]]
	cost := 0
	for want, n := range v.binds {
		if want != val {
			cost += n
		}
	}
	for _, u := range v.eqs {
		j, ok := c.pos[u]
		if !ok || j > i || c.assign[j] == "" {
			continue
		}
		if c.assign[j] != val {
			cost++
		}
	}
	return cost
}

func (c *refCompSolver) search(i, cost int) bool {
	if cost >= c.bestCost {
		return c.budget > 0
	}
	if i == len(c.order) {
		c.bestCost = cost
		copy(c.best, c.assign)
		return c.budget > 0
	}
	cands := c.candidates(i)
	if len(cands) == 0 {
		cands = []string{""}
	}
	for _, val := range cands {
		c.assign[i] = val
		if !c.search(i+1, cost+c.assignCost(i, val)) {
			c.assign[i] = ""
			return false
		}
		c.assign[i] = ""
		c.budget--
		if c.budget <= 0 {
			return false
		}
	}
	return true
}
