package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// campaignFile compiles a campaign corpus and stores its functions: the
// lifted functions and the file that holds them.
func campaignFile(t testing.TB, seed int64, funcs int) ([]*prep.Function, *idxfile.File) {
	t.Helper()
	var fns []*prep.Function
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: seed, Funcs: funcs, FuncsPerExe: 8, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			lifted, err := prep.LiftImage(e.Image)
			fns = append(fns, lifted...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	return fns, storedFile(t, fns...)
}

// storedFile writes the functions as an index file and parses that back.
func storedFile(t testing.TB, fns ...*prep.Function) *idxfile.File {
	t.Helper()
	b := idxfile.NewBuilder()
	for _, fn := range fns {
		b.Add("exe", fn, "", nil)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := idxfile.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// viewOf decomposes function i of f where it is stored.
func viewOf(t testing.TB, f *idxfile.File, i, k int, src Source) *Decomposed {
	t.Helper()
	pf, err := f.PackedFunc(i)
	if err != nil {
		t.Fatal(err)
	}
	return DecomposeBlocks(pf.Name, pf.Blocks, pf.NumInsts, k, src)
}

// fnSource hands a view the function it was stored from.
type fnSource struct{ fn *prep.Function }

func (s fnSource) Decode() (*prep.Function, error) { return s.fn, nil }

// TestPackParity: for every function of a campaign corpus and a tracelet
// size of 1, 3 and one longer than any path, the decomposition built from
// the file's packed blocks is the one Decompose builds from the decoded
// function and the one the reference builds — distinct blocks in the same
// order with the same packed columns, hashes and profiles, block ids,
// identity scores, fingerprint — holds no instruction, hands out the
// function's bodies when asked, and compares to the same Result from
// either side.
func TestPackParity(t *testing.T) {
	fns, f := campaignFile(t, 29, 96)
	m := NewMatcher(DefaultOptions())
	var first [2]*Decomposed
	for i, lifted := range fns {
		fn, err := f.DecodeFunc(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fn, lifted) {
			t.Fatalf("%s decodes differently from what was written", lifted.Name)
		}
		for _, k := range []int{1, 3, 64} {
			view, heap := viewOf(t, f, i, k, fnSource{fn}), Decompose(fn, k)
			if err := sameDecomposed(view, heap); err != nil {
				t.Fatalf("%s k=%d: the view differs from Decompose: %v", fn.Name, k, err)
			}
			if err := sameDecomposed(view, decomposeReference(fn, k)); err != nil {
				t.Fatalf("%s k=%d: the view differs from the reference: %v", fn.Name, k, err)
			}
			for _, tr := range view.Tracelets {
				if tr.Blocks != nil {
					t.Fatalf("%s k=%d: a view's tracelet carries instructions", fn.Name, k)
				}
			}
			if !reflect.DeepEqual(view.DistinctBlocks(), heap.DistinctBlocks()) {
				t.Fatalf("%s k=%d: the view hands out other bodies than Decompose", fn.Name, k)
			}
			if k != 3 {
				continue
			}
			if first[0] == nil {
				first = [2]*Decomposed{view, heap}
			}
			want := m.Compare(first[1], heap)
			for _, pair := range [][2]*Decomposed{{first[0], view}, {first[0], heap}, {first[1], view}} {
				if got := m.Compare(pair[0], pair[1]); got != want {
					t.Fatalf("%s: a view compares to %+v, the heap decompositions to %+v", fn.Name, got, want)
				}
			}
		}
	}
}
