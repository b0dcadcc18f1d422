package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Floor is the score a candidate must be able to reach to matter to a
// search that keeps the best k hits scoring at least minScore: the larger
// of minScore and the k-th best score among the candidates compared in
// full so far. It only rises. A candidate whose score is bounded strictly
// below it can be in no such answer — the k-th best score of the whole
// search is at least the floor, and equal scores are ordered by name — so
// a compare that holds such a bound may stop (see CompareEachCtx). One
// Floor belongs to one search; it is safe for concurrent use by the
// search's workers, and reading it is one atomic load.
type Floor struct {
	bits atomic.Uint64 // math.Float64bits of the current floor

	mu   sync.Mutex
	k    int
	best []float64 // the best k scores offered, ascending
}

// NewFloor returns the floor of a search for the best k hits (k <= 0: all
// of them) scoring at least minScore.
func NewFloor(k int, minScore float64) *Floor {
	f := &Floor{k: k}
	f.bits.Store(math.Float64bits(minScore))
	return f
}

// marks returns the cut flags of n candidates compared against f, nil
// without a floor. Set once, the slice is captured by value by the compare
// workers, so a search without a floor allocates nothing for it.
func (f *Floor) marks(n int) []bool {
	if f == nil {
		return nil
	}
	return make([]bool, n)
}

// Load returns the current floor.
func (f *Floor) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Offer records the final score of a candidate compared in full. A score
// below the current floor changes nothing: it cannot be among the k best,
// and the floor is at least minScore.
func (f *Floor) Offer(score float64) {
	if f.k <= 0 || score < f.Load() {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, _ := slices.BinarySearch(f.best, score)
	switch {
	case len(f.best) < f.k:
		f.best = slices.Insert(f.best, i, score)
	case i > 0: // drop the lowest of the k
		copy(f.best, f.best[1:i])
		f.best[i-1] = score
	default:
		return
	}
	if len(f.best) == f.k && f.best[0] > f.Load() {
		f.bits.Store(math.Float64bits(f.best[0]))
	}
}
