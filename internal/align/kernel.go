package align

import (
	"slices"

	"repro/internal/asm"
)

// Kernel is the alignment DP of the package — the only one — over packed
// instruction sequences, together with the row and matrix buffers it
// reuses from call to call. It comes in three variants that share one
// cell recurrence (fillRow): Score keeps two rolling rows, Bound does the
// same with every same-kind pair at its full weight, and Align fills the
// whole matrix and walks it back. The zero Kernel is ready to use; a
// Kernel must not be used from two goroutines at once.
type Kernel struct {
	rows []int32 // Score, Bound: two rows of m+1
	mat  []int32 // Align: (n+1)×(m+1), a[i][j] at mat[i*(m+1)+j]
}

// PackedSim is Sim on the packed form: Sim of the instructions that r[i]
// and t[j] were packed from.
func PackedSim(r *asm.Packed, i int, t *asm.Packed, j int) int {
	if !r.SameKind(i, t, j) {
		return -1
	}
	return 2 + int(equalArgs(r.Names, r.Args[r.Off[i]:r.Off[i+1]], t.Names, t.Args[t.Off[j]:]))
}

// equalArgs counts the positions at which ra and the same-length prefix
// of ta hold the same argument; rn and tn name their symbols.
func equalArgs(rn *asm.Names, ra []asm.PArg, tn *asm.Names, ta []asm.PArg) int32 {
	n := int32(0)
	ta = ta[:len(ra)]
	for k := range ra {
		if ra[k].Equal(rn, &ta[k], tn) {
			n++
		}
	}
	return n
}

// fillRow computes row i of the DP, cur[j] = best score aligning r[i:]
// with t[j:], from the row below it. A pair of different kinds scores -1
// and can never beat skipping (below[j] >= below[j+1]), so only same-kind
// cells look at the diagonal. With full set a same-kind pair scores its
// class weight 2 + #args whatever its arguments are.
func fillRow(r, t *asm.Packed, i int, below, cur []int32, full bool) {
	m := t.Len()
	kh, ks := r.KindH[i], r.Kind(i)
	ra := r.Args[r.Off[i]:r.Off[i+1]]
	tk, toff := t.KindH[:m], t.Off[:m]
	below, cur = below[:m+1], cur[:m+1]
	cur[m] = 0
	// right is cur[j+1] and diag is below[j+1], carried in registers.
	right, diag := int32(0), below[m]
	for j := m - 1; j >= 0; j-- {
		down := below[j]
		best := max(down, right)
		if tk[j] == kh && string(t.Kind(j)) == string(ks) {
			s := int32(2 + len(ra))
			if !full {
				s = 2 + equalArgs(r.Names, ra, t.Names, t.Args[toff[j]:])
			}
			best = max(best, s+diag)
		}
		cur[j] = best
		right, diag = best, down
	}
}

// rolling runs the DP over two rolling rows and returns a[0][0].
func (k *Kernel) rolling(r, t *asm.Packed, full bool) int {
	n, m := r.Len(), t.Len()
	if n == 0 || m == 0 {
		return 0
	}
	if cap(k.rows) < 2*(m+1) {
		k.rows = make([]int32, 2*(m+1))
	}
	below, cur := k.rows[:m+1], k.rows[m+1:2*(m+1)]
	clear(below)
	for i := n - 1; i >= 0; i-- {
		fillRow(r, t, i, below, cur, full)
		below, cur = cur, below
	}
	return int(below[0])
}

// Score computes the similarity score of the two sequences (CalcScore of
// paper Algorithm 3).
func (k *Kernel) Score(r, t *asm.Packed) int { return k.rolling(r, t, false) }

// Bound computes the score the two sequences would have if every pair of
// same-kind instructions agreed in every argument. Renaming arguments
// never changes an instruction's kind, so this bounds Score(r, t') from
// above for every t' that is t with arguments renamed — in particular for
// every rewrite of t — while still respecting instruction order.
func (k *Kernel) Bound(r, t *asm.Packed) int { return k.rolling(r, t, true) }

// Align computes the score of the two sequences and appends the aligned
// pairs, in order, to pairs. The traceback prefers pairing to deleting to
// inserting, which fixes the pair stream the rewrite engine consumes.
func (k *Kernel) Align(r, t *asm.Packed, pairs []Pair) (int, []Pair) {
	n, m := r.Len(), t.Len()
	w := m + 1
	if cap(k.mat) < (n+1)*w {
		k.mat = make([]int32, (n+1)*w)
	}
	a := k.mat[:(n+1)*w]
	clear(a[n*w:])
	for i := n - 1; i >= 0; i-- {
		fillRow(r, t, i, a[(i+1)*w:(i+2)*w], a[i*w:(i+1)*w], false)
	}
	i, j := 0, 0
	for i < n && j < m {
		s := int32(PackedSim(r, i, t, j))
		switch {
		case s >= 0 && a[i*w+j] == s+a[(i+1)*w+j+1]:
			pairs = append(pairs, Pair{Ref: i, Tgt: j})
			i++
			j++
		case a[i*w+j] == a[(i+1)*w+j]:
			i++ // r[i] has no counterpart
		default:
			j++ // t[j] has no counterpart
		}
	}
	return int(a[0]), pairs
}

// AlignBlocks computes the full blockwise alignment of two tracelets of
// equally many blocks, with pair, deleted and inserted indices referring
// to the concatenated instruction sequences.
func (k *Kernel) AlignBlocks(r, t []*asm.Packed) Alignment {
	var out Alignment
	refOff, tgtOff := 0, 0
	for b := range r {
		k.alignBlock(&out, r[b], t[b], refOff, tgtOff)
		refOff += r[b].Len()
		tgtOff += t[b].Len()
	}
	return out
}

// alignBlock aligns one block pair and adds the outcome to out, with the
// indices shifted by where the blocks start in their tracelets.
func (k *Kernel) alignBlock(out *Alignment, r, t *asm.Packed, refOff, tgtOff int) {
	// One growth each, not one per doubling: what the block can add is known.
	out.Pairs = slices.Grow(out.Pairs, min(r.Len(), t.Len()))
	out.Deleted = slices.Grow(out.Deleted, r.Len())
	out.Inserted = slices.Grow(out.Inserted, t.Len())
	var s int
	from := len(out.Pairs)
	s, out.Pairs = k.Align(r, t, out.Pairs)
	out.Score += s
	// Pairs, deleted and inserted partition both sequences, so the
	// unpaired indices are the gaps of the pair stream.
	i, j := 0, 0
	for pi := from; pi <= len(out.Pairs); pi++ {
		pr, pt := r.Len(), t.Len()
		if pi < len(out.Pairs) {
			p := &out.Pairs[pi]
			pr, pt = p.Ref, p.Tgt
			p.Ref, p.Tgt = pr+refOff, pt+tgtOff
		}
		for ; i < pr; i++ {
			out.Deleted = append(out.Deleted, i+refOff)
		}
		for ; j < pt; j++ {
			out.Inserted = append(out.Inserted, j+tgtOff)
		}
		i, j = pr+1, pt+1
	}
}
