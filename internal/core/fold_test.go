package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/asm"
)

// TestFoldProfileRefuses: foldProfile folds a well-formed profile and
// refuses, one rule at a time, every profile whose fold would not bound
// what the profile bound does.
func TestFoldProfileRefuses(t *testing.T) {
	ok := []asm.KindCount{{Hash: 1, Weight: 2, Count: 3}, {Hash: 2, Weight: 3, Count: 1}} // lanes 1 and 2, identity 9
	if f := foldProfile(ok, 9); f != (fold{6<<8 | 3<<16, 0}) {
		t.Fatalf("fold of %v = %#x, want lane 1 at 6 and lane 2 at 3", ok, f)
	}
	if f := foldProfile(nil, 0); f != (fold{}) {
		t.Fatalf("fold of an empty block = %#x, want all lanes 0", f)
	}
	for _, c := range []struct {
		name  string
		prof  []asm.KindCount
		ident int32
	}{
		{"70 identical instructions", []asm.KindCount{{Hash: 1, Weight: 2, Count: 70}}, 140},
		{"two classes past 7 bits in one lane", []asm.KindCount{{Hash: 1, Weight: 2, Count: 40}, {Hash: 17, Weight: 3, Count: 16}}, 128},
		{"count × weight past int32", []asm.KindCount{{Hash: 1, Weight: 1 << 12, Count: 1 << 20}}, 0},
		{"count 0", append(slices.Clone(ok), asm.KindCount{Hash: 5, Weight: 2, Count: 0}), 9},
		{"count below 0", []asm.KindCount{{Hash: 1, Weight: 2, Count: 4}, {Hash: 2, Weight: 3, Count: 1}, {Hash: 3, Weight: 2, Count: -1}}, 9},
		{"weight 1", []asm.KindCount{{Hash: 1, Weight: 2, Count: 3}, {Hash: 2, Weight: 1, Count: 3}}, 9},
		{"weight 0", append(slices.Clone(ok), asm.KindCount{Hash: 5, Weight: 0, Count: 5}), 9},
		{"entries above the identity score", ok, 8},
		{"entries below the identity score", ok, 10},
	} {
		if f := foldProfile(c.prof, c.ident); f != noFold {
			t.Errorf("%s: fold %#x, want noFold", c.name, f)
		}
	}
}

// TestFoldFallback: a block foldProfile refuses leaves every tracelet pair
// it is in to the profile merge (foldBound -1), and a pair of blocks with
// one hash is bounded by the identity score, as blockBound does, however
// their stored profiles differ — so the compare cuts exactly the pairs the
// merge alone cut (TestSizePassParity's one-pass oracle), at k 1 to 3,
// under both normalizations, and no folded bound is below the profile
// bound. The overflowing block is lifted, the others are a stored block's
// profile crafted as a file could carry it.
func TestFoldFallback(t *testing.T) {
	nops := liftListing(t, "nops", "\tmov eax, 1\n\tcmp eax, 2\n\tjz l1\n"+strings.Repeat("\tnop\n", 70)+"l1:\n\tmov ebx, 2\n\tretn\n")
	for k := 1; k <= 3; k++ {
		ref := Decompose(liftListing(t, "a", srcA), k)
		d := Decompose(nops, k)
		if !slices.ContainsFunc(d.distinct, func(bi blockInfo) bool { return bi.fold == noFold }) {
			t.Fatalf("k=%d: the block of 70 nops has a fold", k)
		}
		checkFoldFallback(t, fmt.Sprintf("k=%d 70 nops", k), ref, d, true)

		// b is a block of srcA's with two or more kind classes.
		b := slices.IndexFunc(ref.blocks, func(blk asm.Block) bool { return len(blk.Prof) >= 2 })
		prof, hash := ref.blocks[b].Prof, ref.blocks[b].Hash
		ident := int32(2*ref.blocks[b].Len() + len(ref.blocks[b].Args))
		bumped := slices.Clone(prof)
		bumped[0].Count++
		// One class of the whole identity score, in a lane none of prof's is.
		lanes := map[uint]bool{}
		for _, kc := range prof {
			lanes[foldLane(kc.Hash)] = true
		}
		other := uint64(0)
		for lanes[foldLane(other)] {
			other++
		}
		for _, c := range []struct {
			name string
			prof []asm.KindCount
			hash uint64 // the crafted block's hash: ^hash (none of srcA's) or hash
		}{
			{"count 0", append(slices.Clone(prof), asm.KindCount{Hash: other, Weight: 2, Count: 0}), ^hash},
			{"count below 0", append(bumped, asm.KindCount{Hash: bumped[0].Hash, Weight: bumped[0].Weight, Count: -1}), ^hash},
			{"weight 0", append(slices.Clone(prof), asm.KindCount{Hash: other, Weight: 0, Count: 5}), ^hash},
			{"entries not the identity score", bumped, ^hash},
			{"equal hashes, other profile", []asm.KindCount{{Hash: other, Weight: ident, Count: 1}}, hash},
		} {
			blocks := slices.Clone(ref.blocks)
			blocks[b].Prof, blocks[b].Hash = c.prof, c.hash
			tgt := DecomposeBlocks("crafted", blocks, ref.NumInsts, k, nil)
			label := fmt.Sprintf("k=%d %s", k, c.name)
			isB := func(bi blockInfo) bool { return bi.at == int32(b) }
			at, refAt := slices.IndexFunc(tgt.distinct, isB), slices.IndexFunc(ref.distinct, isB)
			if at < 0 || refAt < 0 {
				t.Fatalf("%s: the crafted block is in no tracelet", label)
			}
			crafted := tgt.distinct[at].fold
			if c.hash == hash {
				// The two profiles fold apart, so only the hash rule keeps
				// the folded bound at the merge's.
				if m := foldMin(ref.distinct[refAt].fold, crafted); crafted == noFold || m >= ident {
					t.Fatalf("%s: fold %#x bounds the pair to %d by itself, want a fold below identity %d", label, crafted, m, ident)
				}
			} else if crafted != noFold {
				t.Fatalf("%s: the crafted block has fold %#x, want noFold", label, crafted)
			}
			checkFoldFallback(t, label, ref, tgt, c.hash != hash)
		}
	}
}

// checkFoldFallback holds the compare of ref against tgt, and of tgt
// against ref, to the one-pass oracle, and every folded bound to the
// profile bound. With refused, a pair with a block of tgt that has no fold
// must have no folded bound.
func checkFoldFallback(t *testing.T, label string, ref, tgt *Decomposed, refused bool) {
	t.Helper()
	for _, norm := range []align.Method{align.Ratio, align.Containment} {
		opts := DefaultOptions()
		opts.K, opts.Norm = ref.K, norm
		checkSizePassParity(t, label, opts, ref, tgt)
		checkSizePassParity(t, label, opts, tgt, ref)
	}
	ctx := newCmpCtx(ref, tgt, nil)
	defer ctx.release()
	fallbacks := 0
	for ri := range ref.Tracelets {
		for ti := range tgt.Tracelets {
			fb, pb := ctx.foldBound(ri, ti), ctx.pairBound(ri, ti)
			noFolds := false
			for _, id := range tgt.blockIDs(ti) {
				noFolds = noFolds || tgt.distinct[id].fold == noFold
			}
			switch {
			case refused && noFolds && fb != -1:
				t.Fatalf("%s %d vs %d: folded bound %d over a block without a fold, want -1", label, ri, ti, fb)
			case fb == -1:
				fallbacks++
			case fb < pb:
				t.Fatalf("%s %d vs %d: folded bound %d below the profile bound %d", label, ri, ti, fb, pb)
			}
		}
	}
	if refused && fallbacks == 0 {
		t.Fatalf("%s: no pair fell back to the profile merge", label)
	}
}

// fuzzProfile reads a kind profile from b, ten bytes an entry — the hash's
// low and high byte, the weight and the count as little-endian int32s —
// and returns it with its identity score: what its entries add up to,
// moved by delta.
func fuzzProfile(b []byte, delta int8) ([]asm.KindCount, int32) {
	var prof []asm.KindCount
	sum := int64(delta)
	for ; len(b) >= 10; b = b[10:] {
		kc := asm.KindCount{
			Hash:   uint64(b[0]) | uint64(b[1])<<56,
			Weight: int32(binary.LittleEndian.Uint32(b[2:])),
			Count:  int32(binary.LittleEndian.Uint32(b[6:])),
		}
		prof = append(prof, kc)
		sum += int64(kc.Count) * int64(kc.Weight)
	}
	return prof, int32(sum)
}

// fuzzEntries writes a profile as fuzzProfile reads it.
func fuzzEntries(prof ...asm.KindCount) []byte {
	var b []byte
	for _, kc := range prof {
		b = append(b, byte(kc.Hash), byte(kc.Hash>>56))
		b = binary.LittleEndian.AppendUint32(b, uint32(kc.Weight))
		b = binary.LittleEndian.AppendUint32(b, uint32(kc.Count))
	}
	return b
}

// scalarLanes is the fold of prof lane by lane, without foldProfile's word
// packing: the lanes, and whether one of foldProfile's rules refuses it.
func scalarLanes(prof []asm.KindCount, ident int32) ([16]int64, bool) {
	var lanes [16]int64
	var sum int64
	refused := false
	for _, kc := range prof {
		w := int64(kc.Count) * int64(kc.Weight)
		refused = refused || kc.Count < 1 || kc.Weight < 2
		lanes[foldLane(kc.Hash)] += w
		sum += w
	}
	for _, l := range lanes {
		refused = refused || l > laneMax
	}
	return lanes, refused || sum != int64(ident)
}

// FuzzFoldBound: on random profile pairs — negative, zero and overflowing
// entries and identity scores their entries miss included — foldProfile
// refuses exactly the profiles a rule refuses and otherwise packs the
// scalar lanes; where both folds exist, foldMin is at least profileBound
// and at most the smaller identity score. And foldMin of any two words of
// 7-bit lanes is the sum of their lane-wise minima.
func FuzzFoldBound(f *testing.F) {
	ok := asm.KindCount{Hash: 1, Weight: 3, Count: 2}
	for _, seed := range []struct {
		p, q   []asm.KindCount
		dp, dq int8
	}{
		{[]asm.KindCount{ok, {Hash: 2 | 7<<56, Weight: 2, Count: 5}}, []asm.KindCount{ok, {Hash: 18, Weight: 4, Count: 1}}, 0, 0},
		{[]asm.KindCount{{Hash: 1, Weight: 2, Count: 70}}, []asm.KindCount{ok}, 0, 0},
		{[]asm.KindCount{ok, {Hash: 5, Weight: 2, Count: 0}}, []asm.KindCount{ok}, 0, 0},
		{[]asm.KindCount{{Hash: 1, Weight: 3, Count: 3}, {Hash: 1, Weight: 3, Count: -1}}, []asm.KindCount{ok}, 0, 0},
		{[]asm.KindCount{{Hash: 1, Weight: 1, Count: 6}}, []asm.KindCount{ok}, 0, 0},
		{[]asm.KindCount{ok}, []asm.KindCount{ok}, 1, -1},
		{[]asm.KindCount{{Hash: 1, Weight: 1 << 12, Count: 1 << 20}}, []asm.KindCount{ok}, 0, 0},
		{[]asm.KindCount{{Hash: 1, Weight: 2, Count: 40}, {Hash: 17, Weight: 3, Count: 16}}, []asm.KindCount{{Hash: 17, Weight: 3, Count: 40}}, 0, 0},
	} {
		f.Add(fuzzEntries(seed.p...), fuzzEntries(seed.q...), seed.dp, seed.dq, uint64(0x7f00017f), uint64(3), uint64(0x0100007f), uint64(0x7f7f7f7f7f7f7f7f))
	}
	f.Fuzz(func(t *testing.T, pb, qb []byte, dp, dq int8, a0, a1, b0, b1 uint64) {
		p, pIdent := fuzzProfile(pb, dp)
		q, qIdent := fuzzProfile(qb, dq)
		fp, fq := foldProfile(p, pIdent), foldProfile(q, qIdent)
		for _, c := range []struct {
			prof  []asm.KindCount
			ident int32
			f     fold
		}{{p, pIdent, fp}, {q, qIdent, fq}} {
			lanes, refused := scalarLanes(c.prof, c.ident)
			if refused != (c.f == noFold) {
				t.Fatalf("%v identity %d: fold %#x, rules refuse it: %v", c.prof, c.ident, c.f, refused)
			}
			if refused {
				continue
			}
			for l, v := range lanes {
				if got := c.f[l/8] >> (8 * (l % 8)) & 0xff; got != uint64(v) {
					t.Fatalf("%v: lane %d holds %d, want %d", c.prof, l, got, v)
				}
			}
		}
		if fp != noFold && fq != noFold {
			got := foldMin(fp, fq)
			if pbound := profileBound(p, q); got < pbound {
				t.Fatalf("%v vs %v: folded bound %d below the profile bound %d", p, q, got, pbound)
			}
			if got > min(pIdent, qIdent) {
				t.Fatalf("%v vs %v: folded bound %d above the identity scores %d, %d", p, q, got, pIdent, qIdent)
			}
		}
		const lanes7 = 0x7f7f7f7f7f7f7f7f
		a, b := fold{a0 & lanes7, a1 & lanes7}, fold{b0 & lanes7, b1 & lanes7}
		want := int32(0)
		for l := 0; l < 16; l++ {
			want += int32(min(a[l/8]>>(8*(l%8))&0xff, b[l/8]>>(8*(l%8))&0xff))
		}
		if got := foldMin(a, b); got != want {
			t.Fatalf("foldMin(%#x, %#x) = %d, want %d", a, b, got, want)
		}
	})
}
