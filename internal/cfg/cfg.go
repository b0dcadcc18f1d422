// Package cfg builds control-flow graphs of basic blocks from instruction
// sequences, in both decoded-binary form (jump targets are absolute
// addresses) and listing form (jump targets are labels).
//
// A basic block is a sequence of instructions with a single entry point and
// at most one exit jump at the end (paper Section 3).
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/x86"
)

// Block is one basic block.
type Block struct {
	Index int
	Addr  uint32     // address of the first instruction (0 in listing form)
	Insts []asm.Inst // including the terminating jump, if any
	Succs []int      // indices of successor blocks, in CFG order
}

// Body returns the block's instructions without the trailing jump — the
// StripJumps helper of paper Algorithm 2. Calls are kept: only jumps are
// control-flow artifacts of layout.
func (b *Block) Body() []asm.Inst {
	if n := len(b.Insts); n > 0 && b.Insts[n-1].IsJump() {
		return b.Insts[:n-1]
	}
	return b.Insts
}

// Graph is a function's control-flow graph.
type Graph struct {
	Name   string
	Blocks []*Block
	Entry  int
}

// NumInsts returns the total instruction count over all blocks.
func (g *Graph) NumInsts() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insts)
	}
	return n
}

// String renders the graph as a numbered block listing with successor
// arrows, for debugging and the disasm tool.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "block %d", b.Index)
		if b.Addr != 0 {
			fmt.Fprintf(&sb, " @ %#x", b.Addr)
		}
		if len(b.Succs) > 0 {
			fmt.Fprintf(&sb, " -> %v", b.Succs)
		}
		sb.WriteString(":\n")
		for _, in := range b.Insts {
			fmt.Fprintf(&sb, "\t%s\n", in)
		}
	}
	return sb.String()
}

// Dot renders the graph in Graphviz DOT syntax, with instruction listings
// as node labels.
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n\tnode [shape=box, fontname=\"monospace\"];\n", g.Name)
	for _, b := range g.Blocks {
		var lines []string
		for _, in := range b.Insts {
			lines = append(lines, in.String())
		}
		label := fmt.Sprintf("block %d\\l", b.Index) + strings.Join(lines, "\\l") + "\\l"
		fmt.Fprintf(&sb, "\tn%d [label=%q];\n", b.Index, label)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, "\tn%d -> n%d;\n", b.Index, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TableReader resolves an indirect-jump table: given the absolute address
// of a jump table, it returns the code addresses stored there (typically by
// reading .rodata until an entry leaves the function), or nil when the
// address is not a recognizable table.
type TableReader func(tableAddr uint32) []uint32

// Build constructs a CFG from decoded binary instructions. Jump targets are
// absolute-address immediates; targets outside the function are treated as
// having no local successor (tail jumps).
func Build(name string, dec []x86.Decoded) (*Graph, error) {
	return BuildWithTables(name, dec, nil)
}

// BuildWithTables is Build with jump-table recovery: an indirect jump of
// the form jmp [table+reg*4] consults readTable for its successor set, the
// way real-world disassemblers recover switch statements.
func BuildWithTables(name string, dec []x86.Decoded, readTable TableReader) (*Graph, error) {
	return BuildRun(name, x86.RunOf(dec), readTable)
}

// BuildRun is BuildWithTables over a decoded run, the form a sweep
// produces: the graph's blocks are slices of run.Insts, which the graph
// owns from here on — nothing is copied. Addresses must ascend, as they
// do in anything decoded from consecutive bytes.
func BuildRun(name string, run x86.Run, readTable TableReader) (*Graph, error) {
	if len(run.Insts) == 0 {
		return nil, fmt.Errorf("cfg: empty function %s", name)
	}
	addrs := run.Addrs
	for i := 1; i < len(addrs); i++ {
		if addrs[i] <= addrs[i-1] {
			return nil, fmt.Errorf("cfg: %s: instruction addresses do not ascend at %#x", name, addrs[i])
		}
	}
	indexOf := func(addr uint32) (int, bool) {
		i := sort.Search(len(addrs), func(i int) bool { return addrs[i] >= addr })
		return i, i < len(addrs) && addrs[i] == addr
	}
	targets := func(dst []int, i int) []int {
		in := &run.Insts[i]
		if len(in.Ops) != 1 {
			return dst
		}
		op := &in.Ops[0]
		if !op.IsMem() {
			if !op.Arg.IsImm() {
				return dst
			}
			if ti, ok := indexOf(uint32(op.Arg.Imm)); ok {
				dst = append(dst, ti)
			}
			return dst
		}
		// Indirect jump: recover [table+reg*4].
		if readTable == nil || in.Mnemonic != "jmp" {
			return dst
		}
		tbl, ok := jumpTableAddr(*op)
		if !ok {
			return dst
		}
		for _, addr := range readTable(tbl) {
			if ti, ok := indexOf(addr); ok {
				dst = append(dst, ti)
			}
		}
		return dst
	}
	return build(name, run.Insts, addrs, targets)
}

// jumpTableAddr recognizes the memory-operand shape of a jump table
// dispatch ([imm+reg*4]) and returns the table's base address.
func jumpTableAddr(op asm.Operand) (uint32, bool) {
	var base int64 = -1
	scaled := false
	terms := op.Mem
	for i := 0; i < len(terms); i++ {
		t := terms[i]
		if i+1 < len(terms) && terms[i+1].Op == asm.OpMul {
			if t.Arg.IsReg() && terms[i+1].Arg.IsImm() && terms[i+1].Arg.Imm == 4 {
				scaled = true
			}
			i++
			continue
		}
		if t.Arg.IsImm() && t.Op == asm.OpAdd {
			base = t.Arg.Imm
		}
	}
	if base < 0 || !scaled {
		return 0, false
	}
	return uint32(base), true
}

// BuildListing constructs a CFG from a parsed listing whose jump targets
// are label symbols resolved through labels (label name -> instruction
// index).
func BuildListing(name string, insts []asm.Inst, labels map[string]int) (*Graph, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("cfg: empty function %s", name)
	}
	targets := func(dst []int, i int) []int {
		in := &insts[i]
		if len(in.Ops) != 1 || in.Ops[0].IsMem() || !in.Ops[0].Arg.IsSym() {
			return dst
		}
		ti, ok := labels[in.Ops[0].Arg.Sym]
		if !ok || ti >= len(insts) {
			return dst
		}
		return append(dst, ti)
	}
	return build(name, insts, nil, targets)
}

// build cuts insts into basic blocks, which are slices of it. targets
// appends to dst the instruction indices jump i may transfer to.
func build(name string, insts []asm.Inst, addrs []uint32, targets func(dst []int, i int) []int) (*Graph, error) {
	n := len(insts)
	// blockOf[i] is first 1 for a leader, then the index of i's block.
	blockOf := make([]int32, n)
	blockOf[0] = 1
	var scratch []int
	for i := range insts {
		in := &insts[i]
		if !in.Terminates() {
			continue
		}
		if i+1 < n {
			blockOf[i+1] = 1
		}
		if in.IsJump() {
			scratch = targets(scratch[:0], i)
			for _, ti := range scratch {
				blockOf[ti] = 1
			}
		}
	}
	nb := 0
	for _, l := range blockOf {
		nb += int(l)
	}
	blocks := make([]Block, nb) // one array: a function's blocks live and die together
	g := &Graph{Name: name, Blocks: make([]*Block, nb)}
	bi, start := -1, 0
	for i := 1; i <= n; i++ {
		if i < n && blockOf[i] == 0 {
			continue
		}
		bi++
		b := &blocks[bi]
		b.Index, b.Insts = bi, insts[start:i:i]
		if addrs != nil {
			b.Addr = addrs[start]
		}
		g.Blocks[bi] = b
		for ; start < i; start++ {
			blockOf[start] = int32(bi)
		}
	}
	// Successors are carved from one array, so a function's edges are one
	// allocation: most blocks have at most two. (Should a jump table
	// outgrow it, append moves on to a new array and the blocks carved so
	// far keep the old one.)
	succs := make([]int, 0, 2*nb)
	end := 0
	for bi := range blocks {
		end += len(blocks[bi].Insts)
		first := len(succs)
		add := func(s int32) {
			for _, have := range succs[first:] {
				if have == int(s) {
					return
				}
			}
			succs = append(succs, int(s))
		}
		last := &insts[end-1]
		switch {
		case last.IsRet():
			// no successors
		case last.IsJump():
			scratch = targets(scratch[:0], end-1)
			for _, ti := range scratch {
				add(blockOf[ti])
			}
			if last.IsCondJump() && end < n {
				add(blockOf[end])
			}
		default:
			if end < n {
				add(blockOf[end])
			}
		}
		if k := len(succs); k > first {
			blocks[bi].Succs = succs[first:k:k]
		}
	}
	return g, nil
}

// AvgDegrees returns the average in-degree and out-degree over all blocks,
// the statistic reported alongside paper Table 1.
func (g *Graph) AvgDegrees() (in, out float64) {
	if len(g.Blocks) == 0 {
		return 0, 0
	}
	indeg := make([]int, len(g.Blocks))
	total := 0
	for _, b := range g.Blocks {
		total += len(b.Succs)
		for _, s := range b.Succs {
			indeg[s]++
		}
	}
	sumIn := 0
	for _, d := range indeg {
		sumIn += d
	}
	n := float64(len(g.Blocks))
	return float64(sumIn) / n, float64(total) / n
}
