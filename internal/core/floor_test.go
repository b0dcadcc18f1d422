package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestFloorIsKthBest: offered from several goroutines at once, a floor
// only rises and ends at max(minScore, the k-th best score offered) — on
// scores drawn from a coarse grid, so the k-th is often tied.
func TestFloorIsKthBest(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		k, minScore := rng.Intn(12), []float64{0, 0.3, 0.9}[rng.Intn(3)]
		scores := make([]float64, rng.Intn(60))
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) / 7
		}
		f := NewFloor(k, minScore)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				last := f.Load()
				for i := w; i < len(scores); i += 4 {
					f.Offer(scores[i])
					if now := f.Load(); now < last {
						t.Errorf("round %d: the floor fell from %v to %v", round, last, now)
					} else {
						last = now
					}
				}
			}(w)
		}
		wg.Wait()
		want := minScore
		if sorted := slices.Clone(scores); k > 0 && len(sorted) >= k {
			slices.Sort(sorted)
			want = max(minScore, sorted[len(sorted)-k])
		}
		if got := f.Load(); got != want {
			t.Fatalf("round %d: k=%d minScore=%v over %v: floor %v, want %v", round, k, minScore, scores, got, want)
		}
	}
}

// TestFloorTieComparedInFull: held to a floor equal to its own final score
// a compare is never cut and returns the unheld Result, every field
// included — the bound is never below the final score, and a bound equal
// to the floor is a possible tie. One notch above that score, a compare
// that still had rewrites to run when its bound reached the floor is cut.
func TestFloorTieComparedInFull(t *testing.T) {
	fns, _ := campaignFile(t, 37, 64)
	ds := make([]*Decomposed, len(fns))
	for i, fn := range fns {
		ds[i] = Decompose(fn, 3)
	}
	m := NewMatcher(DefaultOptions())
	ctx := ctxPool.Get().(*cmpCtx)
	defer ctx.release()
	ties, cuts := 0, 0
	for q := 0; q < len(ds); q += 4 {
		for _, tgt := range ds {
			want, _ := m.compare(context.Background(), ctx, ds[q], tgt)
			got, cut, _ := m.compareTop(context.Background(), ctx, ds[q], tgt, NewFloor(0, want.SimilarityScore))
			if cut || got != want {
				t.Fatalf("%s vs %s held to its own score %v: cut=%v %+v, unheld %+v", ds[q].Name, tgt.Name, want.SimilarityScore, cut, got, want)
			}
			if len(ctx.pending) > 0 && ctx.floorBound == ctx.floorAt {
				ties++
			}
			above := math.Nextafter(want.SimilarityScore, 2)
			if _, cut, _ := m.compareTop(context.Background(), ctx, ds[q], tgt, NewFloor(0, above)); cut {
				cuts++
			} else if len(ctx.pending) > 0 && ctx.floorBound < above {
				t.Fatalf("%s vs %s: bound %v below the floor %v, not cut", ds[q].Name, tgt.Name, ctx.floorBound, above)
			}
		}
	}
	if ties == 0 || cuts == 0 {
		t.Fatalf("%d compares met their floor with a bound equal to it and %d were cut above it; the test shows nothing", ties, cuts)
	}
}
