package idxfile

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// decodeAllocCeiling is the 10 allocations a function of the campaign
// corpus costs to decode, measured alike with and without -race, plus two
// of slack: a change that allocates per block, operand list, memory
// operand or successor list (129 when each was allocated on its own)
// fails it.
const decodeAllocCeiling = 12

// TestDecodeFuncAllocs: decoding a function of a campaign corpus costs a
// fixed handful of allocations, whatever its size, and yields exactly the
// function that was written, field for field — block addresses,
// successors, the entry block, every block's trailing jump, which PACK
// keeps in the block's jump slot, and nil where the lifter left nil. The
// lifter produces no operand the packed form would lose.
func TestDecodeFuncAllocs(t *testing.T) {
	b := NewBuilder()
	var want []*prep.Function
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 5, Funcs: 96, FuncsPerExe: 16, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fns, err := prep.LiftImage(e.Image)
			for _, fn := range fns {
				for _, blk := range fn.Graph.Blocks {
					for k := range blk.Insts {
						if err := blk.Insts[k].Packable(); err != nil {
							t.Errorf("%s/%s: %v", e.Name, fn.Name, err)
						}
					}
				}
				b.Add(e.Name, fn, e.Truth[fn.Addr], nil)
				want = append(want, fn)
			}
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	worst, jumps := 0.0, 0
	for i, w := range want {
		got := mustDecode(t, f, i)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("function %d (%s) decoded differently from what was written", i, w.Name)
		}
		for _, blk := range got.Graph.Blocks {
			jumps += len(blk.Insts) - len(blk.Body())
		}
		worst = max(worst, testing.AllocsPerRun(5, func() { f.DecodeFunc(i) }))
	}
	if worst > decodeAllocCeiling {
		t.Errorf("DecodeFunc allocates up to %v objects per function, ceiling %d", worst, decodeAllocCeiling)
	}
	if jumps == 0 {
		t.Error("the corpus has no block ending in a jump")
	}
	t.Logf("%d functions, %d jumps, at most %v allocations per decode", len(want), jumps, worst)
}
