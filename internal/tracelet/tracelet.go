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
// reported matches can point back into the function). A tracelet of a
// function that is compared where it is stored (Index) carries the indices
// alone.
type Tracelet struct {
	BlockIdx []int
	Blocks   [][]asm.Inst
}

// K returns the tracelet length in basic blocks.
func (t *Tracelet) K() int { return len(t.BlockIdx) }

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

// Paths returns the block tuples of all k-tracelets of a graph of n blocks
// (paper Algorithm 2), back to back: for every basic block, the Cartesian
// product of the block with all (k-1)-tracelets of its successors. Paths
// shorter than k are omitted, and paths never repeat a block (tracelets
// are acyclic sub-paths). Every successor must be a block of the graph.
func Paths[S ~int | ~uint32](n, k int, succs func(b int) []S) []int {
	if k < 1 {
		return nil
	}
	// A depth-first walk with its own stack — path[d] is the block at depth
	// d, next[d] the successor of it to try next — which lives, like the
	// on-path marks, on the goroutine's stack for all but the longest
	// tracelets and the largest functions. It runs twice: once to count the
	// paths, so that the tuples are one allocation of the right size, and
	// once to record them.
	var stackBuf [2 * 8]int
	var markBuf [128]bool
	stack, onPath := stackBuf[:], markBuf[:]
	if 2*k > len(stackBuf) {
		stack = make([]int, 2*k)
	}
	if n > len(markBuf) {
		onPath = make([]bool, n)
	}
	path, next := stack[:k], stack[k:2*k]
	var idx []int
	for pass := 0; pass < 2; pass++ {
		found := 0
		for b := 0; b < n; b++ {
			d := 0
			path[0], next[0], onPath[b] = b, 0, true
			for d >= 0 {
				at := path[d]
				if d == k-1 {
					if found++; pass == 1 {
						idx = append(idx, path...)
					}
				} else if ss := succs(at); next[d] < len(ss) {
					s := int(ss[next[d]])
					next[d]++
					if !onPath[s] {
						d++
						path[d], next[d], onPath[s] = s, 0, true
					}
					continue
				}
				onPath[at] = false
				d--
			}
		}
		if found == 0 {
			return nil
		}
		if pass == 0 {
			idx = make([]int, 0, found*k)
		}
	}
	return idx
}

// Index carves the tracelets out of the block tuples Paths returned for k.
// They carry their BlockIdx, which alias paths, and no Blocks.
func Index(paths []int, k int) []*Tracelet {
	n := 0
	if k > 0 {
		n = len(paths) / k
	}
	if n == 0 {
		return nil
	}
	out := make([]*Tracelet, n)
	ts := make([]Tracelet, n)
	for i := range ts {
		ts[i].BlockIdx = paths[i*k : (i+1)*k : (i+1)*k]
		out[i] = &ts[i]
	}
	return out
}

// Extract returns all k-tracelets of the graph: the paths Paths finds, each
// with the bodies of its blocks.
func Extract(g *cfg.Graph, k int) []*Tracelet {
	ts := Index(Paths(len(g.Blocks), k, func(b int) []int { return g.Blocks[b].Succs }), k)
	if len(ts) == 0 {
		return nil
	}
	bodies := make([][]asm.Inst, len(g.Blocks))
	for b, blk := range g.Blocks {
		bodies[b] = blk.Body() // a block is on many paths; strip its jump once
	}
	WithBodies(ts, bodies)
	return ts
}

// WithBodies gives the tracelets Index carved their blocks' bodies, where
// bodies[b] is the body of block b. The tracelets' bodies are carved from
// one array.
func WithBodies(ts []*Tracelet, bodies [][]asm.Inst) {
	if len(ts) == 0 {
		return
	}
	k := ts[0].K()
	blocks := make([][]asm.Inst, len(ts)*k)
	for i, t := range ts {
		t.Blocks = blocks[i*k : (i+1)*k : (i+1)*k]
		for j, b := range t.BlockIdx {
			t.Blocks[j] = bodies[b]
		}
	}
}
