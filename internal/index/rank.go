package index

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/prep"
)

// hitCmp is the canonical result order: similarity score descending,
// ties broken by executable then function name so rankings are
// deterministic across runs, shards and processes.
func hitCmp(a, b Hit) int {
	if c := cmp.Compare(b.Result.SimilarityScore, a.Result.SimilarityScore); c != 0 {
		return c
	}
	if c := strings.Compare(a.Entry.Exe, b.Entry.Exe); c != 0 {
		return c
	}
	return strings.Compare(a.Entry.Name, b.Entry.Name)
}

// SortHits orders hits in the canonical result order (see hitCmp), hits it
// does not tell apart staying in input order. The snapshot engine, the
// fleet coordinator's merge and the tests' serial reference all rank with
// it, which is what makes their outputs comparable hit for hit.
func SortHits(hits []Hit) { slices.SortStableFunc(hits, hitCmp) }

// TopK filters sorted-or-unsorted hits down to the ones worth returning:
// hits scoring below minScore are dropped, the rest are put in canonical
// order, and at most limit survive (limit <= 0 keeps all). The input
// slice is not modified.
func TopK(hits []Hit, limit int, minScore float64) []Hit {
	kept := make([]Hit, 0, len(hits))
	for _, h := range hits {
		if h.Result.SimilarityScore >= minScore {
			kept = append(kept, h)
		}
	}
	SortHits(kept)
	if limit > 0 && len(kept) > limit {
		kept = kept[:limit]
	}
	return kept
}

// SerialSearch is the reference implementation every parity test ranks
// against: one matcher on one goroutine compares the query against every
// entry, decomposed from scratch, then applies the canonical sort. It
// shares no worker pool, decomposition slot, candidate code or floor with
// Snapshot.Search, the engine behind every other search.
func SerialSearch(entries []*Entry, query *prep.Function, opts core.Options) []Hit {
	m := core.NewMatcher(opts)
	ref := core.Decompose(query, m.Opts.K)
	hits := make([]Hit, len(entries))
	for i, e := range entries {
		fn, _ := e.Decode()
		hits[i] = Hit{Entry: e, Result: m.Compare(ref, core.Decompose(fn, m.Opts.K))}
	}
	SortHits(hits)
	return hits
}
