package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
	"repro/internal/tracelet"
)

// decomposeAllocCeiling is the 19 allocations the costliest function of
// the campaign corpus takes to be packed and decomposed.
const decomposeAllocCeiling = 19

// decomposeReference is Decompose as it was before blocks were packed out
// of shared arrays: every distinct block packed and profiled on its own,
// shared slices resolved by pointer and distinct contents by hash through
// two maps. It is the oracle Decompose must equal field for field.
func decomposeReference(fn *prep.Function, k int) *Decomposed {
	ts := tracelet.Extract(fn.Graph, k)
	d := &Decomposed{
		Name:      fn.Name,
		K:         k,
		Tracelets: ts,
		NumBlocks: len(fn.Graph.Blocks),
		NumInsts:  fn.Graph.NumInsts(),
		ident:     make([]int32, len(ts)),
	}
	fp := asm.Mix(asm.Mix(asm.Mix(asm.HashSeed, uint64(d.K)), uint64(d.NumBlocks)), uint64(d.NumInsts))
	type sliceID struct {
		first *asm.Inst
		n     int
	}
	byPtr := make(map[sliceID]int32)
	byHash := make(map[uint64]int32)
	for i, t := range ts {
		var total int32
		for j, blk := range t.Blocks {
			var sid sliceID
			if len(blk) > 0 {
				sid = sliceID{&blk[0], len(blk)}
			}
			id, ok := byPtr[sid]
			if !ok {
				pk := asm.Pack(blk)
				h := pk.ContentHash()
				id, ok = byHash[h]
				if !ok {
					id = int32(len(d.distinct))
					d.distinct = append(d.distinct, blockInfo{
						pk:    pk,
						hash:  h,
						ident: int32(2*pk.Len() + len(pk.Args)),
						prof:  pk.KindProfile(make([]asm.KindCount, pk.Len())),
						at:    int32(t.BlockIdx[j]),
					})
					byHash[h] = id
				}
				byPtr[sid] = id
			}
			d.blockID = append(d.blockID, id)
			total += d.distinct[id].ident
			fp = asm.Mix(fp, d.distinct[id].hash)
		}
		d.ident[i] = total
		d.maxIdent = max(d.maxIdent, total)
	}
	d.fingerprint = fp
	return d
}

// sameDecomposed reports how two decompositions differ, nil when they hold
// the same thing: counts, tracelet paths, the distinct blocks in the same
// order with equal packed columns, hashes, identity scores and kind
// profiles, the block ids, the tracelet identity scores and the
// fingerprint. Symbols are compared by name: in which table and where a
// name sits is the one thing two packings of a block may differ in.
func sameDecomposed(got, want *Decomposed) error {
	if got.Name != want.Name || got.K != want.K || got.NumBlocks != want.NumBlocks || got.NumInsts != want.NumInsts {
		return fmt.Errorf("header %s k=%d %d blocks %d insts, want %s k=%d %d blocks %d insts",
			got.Name, got.K, got.NumBlocks, got.NumInsts, want.Name, want.K, want.NumBlocks, want.NumInsts)
	}
	if got.fingerprint != want.fingerprint {
		return fmt.Errorf("fingerprint %#x, want %#x", got.fingerprint, want.fingerprint)
	}
	if len(got.Tracelets) != len(want.Tracelets) {
		return fmt.Errorf("%d tracelets, want %d", len(got.Tracelets), len(want.Tracelets))
	}
	for i := range got.Tracelets {
		if !slices.Equal(got.Tracelets[i].BlockIdx, want.Tracelets[i].BlockIdx) {
			return fmt.Errorf("tracelet %d walks blocks %v, want %v", i, got.Tracelets[i].BlockIdx, want.Tracelets[i].BlockIdx)
		}
	}
	if !slices.Equal(got.blockID, want.blockID) || !slices.Equal(got.ident, want.ident) || got.maxIdent != want.maxIdent {
		return fmt.Errorf("block ids or identity scores differ")
	}
	if len(got.distinct) != len(want.distinct) {
		return fmt.Errorf("%d distinct blocks, want %d", len(got.distinct), len(want.distinct))
	}
	for i := range got.distinct {
		g, w := &got.distinct[i], &want.distinct[i]
		if g.hash != w.hash || g.ident != w.ident || g.at != w.at || !slices.Equal(g.prof, w.prof) {
			return fmt.Errorf("distinct block %d: hash, identity score, kind profile or graph block differs", i)
		}
		if !g.pk.Same(w.pk) {
			return fmt.Errorf("distinct block %d: a packed column differs", i)
		}
	}
	return nil
}

// TestDecomposeAllocs: decomposing a function of a campaign corpus costs a
// bounded number of allocations, whatever its size, and yields exactly the
// reference decomposition — tracelets, distinct blocks in the same order
// with the same packed forms, hashes and kind profiles, identity scores
// and fingerprint.
func TestDecomposeAllocs(t *testing.T) {
	var fns []*prep.Function
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 29, Funcs: 96, FuncsPerExe: 8, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			lifted, err := prep.LiftImage(e.Image)
			fns = append(fns, lifted...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	fns = append(fns, liftListing(t, "a", srcA), liftListing(t, "b", srcB))
	worst := 0.0
	for _, fn := range fns {
		for _, k := range []int{1, 3, 64} { // 64: longer than any path, no tracelets
			got, want := Decompose(fn, k), decomposeReference(fn, k)
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s k=%d: fingerprint %#x, reference %#x", fn.Name, k, got.Fingerprint(), want.Fingerprint())
			}
			if err := sameDecomposed(got, want); err != nil {
				t.Fatalf("%s k=%d: decomposition differs from the reference: %v", fn.Name, k, err)
			}
			for _, tr := range got.Tracelets {
				for j, bi := range tr.BlockIdx {
					body := fn.Graph.Blocks[bi].Body()
					if len(tr.Blocks[j]) != len(body) || (len(body) > 0 && &tr.Blocks[j][0] != &body[0]) {
						t.Fatalf("%s k=%d: tracelet block %d is not the body of graph block %d", fn.Name, k, j, bi)
					}
				}
			}
		}
		worst = max(worst, testing.AllocsPerRun(5, func() { Decompose(fn, 3) }))
	}
	if worst > decomposeAllocCeiling {
		t.Errorf("Decompose allocates up to %v objects per function, ceiling %d", worst, decomposeAllocCeiling)
	}
	t.Logf("%d functions, at most %v allocations per decomposition", len(fns), worst)
}
