// Package rewrite implements the rewrite engine of paper Section 4.4
// (Algorithm 4): given an aligned reference/target tracelet pair, every
// argument of the target is abstracted to a typed variable, in-tracelet
// dataflow constraints (through lastWrite) and cross-tracelet alignment
// constraints are generated, and a bounded backtracking constraint solver
// finds a minimal-conflict assignment that rewrites the target's
// registers, memory symbols, immediates and call targets toward the
// reference — undoing register allocation and memory layout decisions.
//
// Engine is the engine itself: it works on packed tracelets, its
// variables are dense ints, a variable's values are indices into the
// reference's per-class domain, and it owns every buffer it needs, so a
// matcher worker that keeps one Engine rewrites without allocating.
// Rewrite wraps it for callers that hold instructions and want
// instructions back.
package rewrite

import (
	"strconv"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/csp"
	"repro/internal/telemetry"
)

// MaxBacktracks is the solver bound used by the paper.
const MaxBacktracks = csp.DefaultMaxBacktracks

// domain is one assignment domain: the distinct values of one class found
// in the reference tracelet, in order of first appearance (paper: "our
// domain for the register assignment only contains registers found in the
// reference tracelet", and likewise for memory offsets and function
// names). A variable's solver values are indices into vals, whose symbols
// are named in the engine's table.
type domain struct {
	class uint32
	vals  []asm.PArg
}

// Classes: registers, immediates, and one per symbol class. Like the
// paper's rules, a value is only ever replaced by one of its own class.
const (
	classReg uint32 = iota
	classImm
	classSym // + SymClass
)

func classOf(a *asm.PArg) uint32 {
	switch a.Kind() {
	case asm.KindReg:
		return classReg
	case asm.KindImm:
		return classImm
	}
	return classSym + uint32(a.Cls())
}

// value returns what a stands for within its class, with the fields its
// kind does not select cleared: the form in which values are collected,
// compared and substituted. A symbol keeps its name where a has it.
func value(a *asm.PArg) asm.PArg {
	switch a.Kind() {
	case asm.KindReg:
		return asm.PackArg(asm.RegArg(a.Reg()), nil)
	case asm.KindImm:
		return asm.PackArg(asm.ImmArg(a.Imm), nil)
	}
	v := asm.PackArg(asm.SymArg(a.Cls(), ""), nil)
	v.Sym, v.SymH = a.Sym, a.SymH
	return v
}

// usable reports whether a solved value can be written into the target:
// a register must be one the package defines and a symbol must have a
// name.
func usable(v *asm.PArg) bool {
	switch v.Kind() {
	case asm.KindReg:
		return v.Reg().Valid()
	case asm.KindImm:
		return true
	}
	return v.SymH != 0
}

// Engine rewrites target tracelets toward one reference tracelet at a
// time: SetRef, then any number of Rewrite calls. The zero Engine is
// ready to use; an Engine must not be used from two goroutines at once.
type Engine struct {
	// Tel, when non-nil, receives the embedded solver's telemetry.
	Tel *telemetry.Collector

	// Reference side, fixed by SetRef.
	ref     []*asm.Packed
	doms    []domain
	refVal  []int // per reference argument: index of its value in its domain
	refBase []int // per reference block: where its arguments start in refVal

	// names holds every symbol name the engine keeps, copied out of the
	// tracelets' own tables: the reference's values first (refNames of
	// them), then the identities and the rewritten arguments of the target
	// in hand.
	names    asm.Names
	refNames int

	// One rewrite.
	prob      csp.Problem
	varDom    []int        // per variable: index into doms, -1 for a class the reference lacks
	idents    []ident      // symbols and immediates of the target met so far
	lastWrite [256]int32   // register -> 1 + variable of its last write
	swapReg   [256]int32   // register -> 1 + value it was last rewritten to
	occVar    []int32      // per target argument: its variable, or -1
	aligned   []bool       // per target instruction
	out       []asm.Packed // the rewritten target blocks
	outArgs   []asm.PArg
	assign    []int
}

// ident is one symbol or immediate of the target with the single variable
// that stands for it: memory layout and call targets are swapped
// consistently, so a swap "is counted at most once" over the whole
// tracelet.
type ident struct {
	val asm.PArg
	v   int32
}

// domainOf returns the index in e.doms of the domain of class, or -1.
func (e *Engine) domainOf(class uint32) int {
	for i := range e.doms {
		if e.doms[i].class == class {
			return i
		}
	}
	return -1
}

// SetRef makes ref the reference tracelet of the following Rewrite calls
// and collects its domains.
func (e *Engine) SetRef(ref []*asm.Packed) {
	e.ref = ref
	e.doms, e.refVal, e.refBase = e.doms[:0], e.refVal[:0], e.refBase[:0]
	e.names.Truncate(0)
	for _, blk := range ref {
		e.refBase = append(e.refBase, len(e.refVal))
		for k := range blk.Args {
			a := &blk.Args[k]
			if kind := a.Kind(); kind != asm.KindReg && kind != asm.KindImm && kind != asm.KindSym {
				e.refVal = append(e.refVal, csp.None)
				continue
			}
			di := e.domainOf(classOf(a))
			if di < 0 {
				di = len(e.doms)
				if di < cap(e.doms) {
					e.doms = e.doms[:di+1]
					e.doms[di].vals = e.doms[di].vals[:0]
				} else {
					e.doms = append(e.doms, domain{})
				}
				e.doms[di].class = classOf(a)
			}
			d, v := &e.doms[di], value(a)
			at := 0
			for at < len(d.vals) && !d.vals[at].Equal(&e.names, &v, blk.Names) {
				at++
			}
			if at == len(d.vals) {
				d.vals = append(d.vals, e.own(v, blk.Names))
			}
			e.refVal = append(e.refVal, at)
		}
	}
	e.refNames = e.names.Len()
}

// own returns v with its symbol name, which is in names, copied into the
// engine's table.
func (e *Engine) own(v asm.PArg, names *asm.Names) asm.PArg {
	if v.SymH != 0 {
		v.Sym = e.names.Copy(names, v.Sym)
	}
	return v
}

// Reset makes the engine let go of the tracelets it has seen — the
// reference and the rewritten target's blocks; the values it collected
// from either are copies and point nowhere — and keep its buffers. SetRef
// must precede the next Rewrite.
func (e *Engine) Reset() {
	e.ref = nil
	clear(e.out[:cap(e.out)])
}

// newVar declares a solver variable over the domain of class.
func (e *Engine) newVar(class uint32) int {
	di := e.domainOf(class)
	e.varDom = append(e.varDom, di)
	if di < 0 {
		return e.prob.AddVar(0)
	}
	return e.prob.AddVar(len(e.doms[di].vals))
}

// Rewrite rewrites the target tracelet tgt toward the reference using the
// instruction alignment given per block: block b's aligned pairs are
// pairs[ends[b-1]:ends[b]], with indices local to the block. It implements
// paper Algorithm 4 followed by the assignment application, including the
// swap cache applied to unaligned (inserted) target instructions, and
// returns the number of constraints the chosen assignment violates. The
// rewritten blocks are read back with Block.
func (e *Engine) Rewrite(tgt []*asm.Packed, pairs []align.Pair, ends []int) int {
	e.prob.Reset()
	e.prob.Tel = e.Tel
	e.varDom, e.idents, e.out = e.varDom[:0], e.idents[:0], e.out[:0]
	e.names.Truncate(e.refNames)
	e.lastWrite, e.swapReg = [256]int32{}, [256]int32{}
	nArgs, nInsts := 0, 0
	for _, blk := range tgt {
		nArgs += len(blk.Args)
		nInsts += blk.Len()
	}
	if cap(e.outArgs) < nArgs {
		e.outArgs, e.occVar = make([]asm.PArg, nArgs), make([]int32, nArgs)
	}
	if cap(e.aligned) < nInsts {
		e.aligned = make([]bool, nInsts)
	}
	occVar, aligned := e.occVar[:nArgs], e.aligned[:nInsts]
	for k := range occVar {
		occVar[k] = -1
	}
	clear(aligned)

	argBase, instBase, from := 0, 0, 0
	for b, t := range tgt {
		r := e.ref[b]
		for _, pair := range pairs[from:ends[b]] {
			aligned[instBase+pair.Tgt] = true
			if !r.SameKind(pair.Ref, t, pair.Tgt) {
				continue // no traceback pairs different kinds; defensive
			}
			rd, wr := t.Read[pair.Tgt], t.Write[pair.Tgt]
			rOff, tOff := int(r.Off[pair.Ref]), int(t.Off[pair.Tgt])
			for i := range t.Args[tOff:t.Off[pair.Tgt+1]] {
				st := &t.Args[tOff+i]
				var nv int
				if st.Kind() == asm.KindReg {
					// Registers are flow-sensitive: a fresh variable per
					// occurrence, linked through lastWrite.
					nv = e.newVar(classReg)
					reg, bit := st.Reg(), asm.RegBit(st.Reg())
					if rd&bit != 0 && e.lastWrite[reg] != 0 {
						e.prob.Eq(nv, int(e.lastWrite[reg]-1))
					} else if wr&bit != 0 {
						e.lastWrite[reg] = int32(nv + 1)
					}
				} else {
					// Symbols and immediates are layout properties: one
					// variable per identity.
					id := e.identOf(st, t.Names)
					if id == nil {
						nv = e.newVar(classOf(st))
						e.idents = append(e.idents, ident{val: e.own(value(st), t.Names), v: int32(nv)})
					} else {
						nv = int(id.v)
					}
				}
				// Cross-tracelet constraint: the abstracted argument should
				// equal the aligned reference argument.
				e.prob.Bind(nv, e.refVal[e.refBase[b]+rOff+i])
				occVar[argBase+tOff+i] = int32(nv)
			}
		}
		from = ends[b]
		argBase += len(t.Args)
		instBase += t.Len()
	}

	var conflicts int
	e.assign, conflicts = e.prob.Solve(MaxBacktracks)

	// Apply the assignment to a copy of the target's arguments, named in
	// the engine's table like the values that replace them. Aligned
	// instructions take their variables' values; a register's last
	// substitution is remembered for the second pass.
	outArgs := e.outArgs[:nArgs]
	argBase = 0
	for _, t := range tgt {
		args := outArgs[argBase : argBase+len(t.Args) : argBase+len(t.Args)]
		for k := range args {
			a := &t.Args[k]
			if v := occVar[argBase+k]; v >= 0 {
				if val := e.solved(int(v)); val != nil {
					if a.Kind() == asm.KindReg {
						e.swapReg[a.Reg()] = int32(e.assign[v] + 1)
					}
					args[k] = *val
					continue
				}
			}
			args[k] = e.own(*a, t.Names)
		}
		blk := *t
		blk.Args, blk.Names = args, &e.names
		e.out = append(e.out, blk)
		argBase += len(t.Args)
	}
	// Second pass: apply the swaps learned above to the instructions that
	// were not aligned (the "deleted instructions" of the paper, i.e.
	// inserted target instructions).
	regs := e.domainOf(classReg)
	instBase = 0
	for b, t := range tgt {
		args := e.out[b].Args
		for ii := 0; ii < t.Len(); ii++ {
			if aligned[instBase+ii] {
				continue
			}
			for k := int(t.Off[ii]); k < int(t.Off[ii+1]); k++ {
				a := &t.Args[k]
				var val *asm.PArg // usable: only such values are solved or remembered
				if a.Kind() == asm.KindReg {
					if sv := e.swapReg[a.Reg()]; sv != 0 {
						val = &e.doms[regs].vals[sv-1]
					}
				} else if id := e.identOf(a, t.Names); id != nil {
					val = e.solved(int(id.v))
				}
				if val != nil {
					args[k] = *val
				}
			}
		}
		instBase += t.Len()
	}
	return conflicts
}

// identOf returns the identity of symbol or immediate a, named in names,
// or nil if no aligned instruction has mentioned it yet. The identities of
// all classes share one list, so the class (a value's tag is its kind and
// class) is checked on its own before the value.
func (e *Engine) identOf(a *asm.PArg, names *asm.Names) *ident {
	v := value(a)
	for i := range e.idents {
		if id := &e.idents[i]; id.val.Tag == v.Tag && id.val.Equal(&e.names, &v, names) {
			return id
		}
	}
	return nil
}

// solved returns the value the solver gave variable v, or nil when it has
// none that can be written into the target.
func (e *Engine) solved(v int) *asm.PArg {
	if e.assign[v] < 0 {
		return nil
	}
	if val := &e.doms[e.varDom[v]].vals[e.assign[v]]; usable(val) {
		return val
	}
	return nil
}

// Block returns block b of the last rewritten target: the target's block
// with the substitutions applied to a copy of its arguments. It is valid
// until the next Rewrite.
func (e *Engine) Block(b int) *asm.Packed { return &e.out[b] }

// Result reports what the rewrite did.
type Result struct {
	Blocks    [][]asm.Inst      // the rewritten target tracelet
	Conflicts int               // violated constraints in the chosen assignment
	NumVars   int               // abstracted variables
	VMap      map[string]string // solved variable assignment
}

// Rewrite rewrites the target tracelet toward the reference using the
// instruction alignment al (whose pair indices refer to the concatenated
// instruction sequences) and renders the outcome as instructions and a
// named assignment: r<n> is the variable of a register occurrence, s<n>
// that of a symbol or immediate, n counting variables in order of
// creation. It packs its arguments and runs a fresh Engine, which is what
// explanations, experiments and tests want; the matcher drives an Engine
// directly.
func Rewrite(refBlocks, tgtBlocks [][]asm.Inst, al align.Alignment) Result {
	var e Engine
	tgt := asm.Pack(tgtBlocks...)
	e.SetRef([]*asm.Packed{asm.Pack(refBlocks...)})
	res := Result{VMap: make(map[string]string)}
	res.Conflicts = e.Rewrite([]*asm.Packed{tgt}, al.Pairs, []int{len(al.Pairs)})
	res.NumVars = e.prob.NumVars()
	for v, val := range e.assign {
		if val < 0 {
			continue
		}
		switch a := &e.doms[e.varDom[v]].vals[val]; {
		case a.Kind() == asm.KindReg:
			res.VMap["r"+strconv.Itoa(v)] = a.Reg().String()
		case a.Kind() == asm.KindImm:
			res.VMap["s"+strconv.Itoa(v)] = strconv.FormatInt(a.Imm, 10)
		case a.SymH != 0:
			res.VMap["s"+strconv.Itoa(v)] = string(e.names.At(a.Sym))
		}
	}
	args := e.Block(0).Args
	res.Blocks = make([][]asm.Inst, len(tgtBlocks))
	for bi, blk := range tgtBlocks {
		res.Blocks[bi] = make([]asm.Inst, len(blk))
		for ii := range blk {
			in := blk[ii].Clone()
			for oi := range in.Ops {
				if op := &in.Ops[oi]; !op.IsMem() {
					op.Arg, args = args[0].Arg(&e.names), args[1:]
				} else {
					for ti := range op.Mem {
						op.Mem[ti].Arg, args = args[0].Arg(&e.names), args[1:]
					}
				}
			}
			res.Blocks[bi][ii] = in
		}
	}
	return res
}
