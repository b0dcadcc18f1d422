package core

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
	"repro/internal/tracelet"
)

// decomposeAllocCeiling is a quarter of the 134 allocations a function of
// the campaign corpus cost to decompose while every tracelet and every
// distinct block's packed form and kind profile was allocated on its own.
const decomposeAllocCeiling = 33

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
		blockID:   make([][]int32, len(ts)),
		ident:     make([]int, len(ts)),
	}
	fp := mix(mix(mix(offset64, uint64(d.K)), uint64(d.NumBlocks)), uint64(d.NumInsts))
	type sliceID struct {
		first *asm.Inst
		n     int
	}
	byPtr := make(map[sliceID]int32)
	byHash := make(map[uint64]int32)
	for i, t := range ts {
		d.blockID[i] = make([]int32, len(t.Blocks))
		total := 0
		for j, blk := range t.Blocks {
			var sid sliceID
			if len(blk) > 0 {
				sid = sliceID{&blk[0], len(blk)}
			}
			id, ok := byPtr[sid]
			if !ok {
				pk := asm.Pack(blk)
				h := hashPacked(pk)
				id, ok = byHash[h]
				if !ok {
					id = int32(len(d.distinct))
					d.distinct = append(d.distinct, blockInfo{
						insts: blk,
						pk:    pk,
						hash:  h,
						ident: int32(2*pk.Len() + len(pk.Args)),
						prof:  kindProfileOf(pk, make([]kindCount, pk.Len())),
					})
					byHash[h] = id
				}
				byPtr[sid] = id
			}
			d.blockID[i][j] = id
			total += int(d.distinct[id].ident)
			fp = mix(fp, d.distinct[id].hash)
		}
		d.ident[i] = total
	}
	d.fingerprint = fp
	return d
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
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: decomposition differs from the reference", fn.Name, k)
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
