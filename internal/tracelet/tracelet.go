// Package tracelet implements k-tracelet extraction (paper Section 4.2.1,
// Algorithm 2). A k-tracelet is an ordered tuple of k instruction
// sequences, one per basic block of a directed acyclic sub-path of the
// CFG, with all jump instructions stripped: a continuous, short, partial
// trace of an execution.
package tracelet

import (
	"hash/fnv"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
)

// Tracelet is one k-tracelet: k stripped basic-block bodies along a CFG
// path, plus the indices of the originating blocks (for accountability:
// reported matches can point back into the function).
type Tracelet struct {
	BlockIdx []int
	Blocks   [][]asm.Inst
}

// K returns the tracelet length in basic blocks.
func (t *Tracelet) K() int { return len(t.Blocks) }

// NumInsts returns the total number of instructions.
func (t *Tracelet) NumInsts() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b)
	}
	return n
}

// Insts returns the concatenated instruction sequence.
func (t *Tracelet) Insts() []asm.Inst {
	out := make([]asm.Inst, 0, t.NumInsts())
	for _, b := range t.Blocks {
		out = append(out, b...)
	}
	return out
}

// String renders the tracelet as assembly text with ';' between blocks.
func (t *Tracelet) String() string {
	var parts []string
	for _, b := range t.Blocks {
		var lines []string
		for _, in := range b {
			lines = append(lines, in.String())
		}
		parts = append(parts, strings.Join(lines, "\n"))
	}
	return strings.Join(parts, "\n;\n")
}

// Hash returns a content hash of the tracelet (used for caching and
// deduplicated indexing).
func (t *Tracelet) Hash() uint64 {
	h := fnv.New64a()
	for _, b := range t.Blocks {
		for _, in := range b {
			h.Write([]byte(in.String()))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

// Extract returns all k-tracelets of the graph (paper Algorithm 2): for
// every basic block, the Cartesian product of the block with all
// (k-1)-tracelets of its successors. Paths shorter than k are omitted, and
// paths never repeat a block (tracelets are acyclic sub-paths). The walk
// only records the paths, back to back in one array; the tracelets and
// their block tuples are then carved from one array each.
func Extract(g *cfg.Graph, k int) []*Tracelet {
	if k < 1 {
		return nil
	}
	// Campaign and real functions alike have between one and two
	// k-tracelets per block for small k.
	idx := make([]int, 0, 2*k*len(g.Blocks))
	path := make([]int, 0, k)
	onPath := make([]bool, len(g.Blocks))
	var walk func(bi, rem int)
	walk = func(bi, rem int) {
		path = append(path, bi)
		onPath[bi] = true
		if rem == 1 {
			idx = append(idx, path...)
		} else {
			for _, s := range g.Blocks[bi].Succs {
				if !onPath[s] {
					walk(s, rem-1)
				}
			}
		}
		onPath[bi] = false
		path = path[:len(path)-1]
	}
	for bi := range g.Blocks {
		walk(bi, k)
	}
	n := len(idx) / k
	if n == 0 {
		return nil
	}
	out := make([]*Tracelet, n)
	ts := make([]Tracelet, n)
	blocks := make([][]asm.Inst, n*k+len(g.Blocks))
	// A block is on many paths; strip its jump once.
	bodies := blocks[n*k:]
	for b, blk := range g.Blocks {
		bodies[b] = blk.Body()
	}
	for i := range ts {
		t := &ts[i]
		t.BlockIdx = idx[i*k : (i+1)*k : (i+1)*k]
		t.Blocks = blocks[i*k : (i+1)*k : (i+1)*k]
		for j, b := range t.BlockIdx {
			t.Blocks[j] = bodies[b]
		}
		out[i] = t
	}
	return out
}
