package index

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry"
)

// TestSearchCtxCancelled: a pre-cancelled context aborts every search
// path (the DB's view exhaustive and prefiltered, a sharded snapshot by
// function and prefiltered by reference, prefilter-rank) with
// context.Canceled and nil hits, and the abort is counted in telemetry.
func TestSearchCtxCancelled(t *testing.T) {
	db, _ := buildTestDB(t)
	tel := telemetry.New()
	db.Tel = tel
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 3)
	ref := core.Decompose(query, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	paths := []struct {
		name string
		snap *Snapshot
		q    Query
	}{
		{"db", db.View(), Query{Func: query, Opts: core.DefaultOptions()}},
		{"db-prefilter", db.View(), Query{Func: query, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Enabled: true}}},
		{"snapshot", snap, Query{Func: query, Opts: core.DefaultOptions()}},
		{"snapshot-prefilter", snap, Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Enabled: true}}},
	}
	for _, p := range paths {
		a, err := p.snap.Search(ctx, p.q)
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", p.name, err)
		}
		if a.Hits != nil {
			t.Errorf("%s: cancelled search returned %d hits, want nil", p.name, len(a.Hits))
		}
	}
	if _, err := snap.PrefilterRankWith(ctx, ref, 10, ModeScan); err != context.Canceled {
		t.Errorf("PrefilterRankWith: err = %v, want context.Canceled", err)
	}
	if n := tel.Snapshot().Counters["searches_cancelled"]; n < uint64(len(paths)) {
		t.Errorf("searches_cancelled = %d, want >= %d", n, len(paths))
	}
}

// TestSearchCtxDeadline: an already-expired deadline yields
// context.DeadlineExceeded and bumps searches_deadline (not
// searches_cancelled).
func TestSearchCtxDeadline(t *testing.T) {
	db, _ := buildTestDB(t)
	tel := telemetry.New()
	db.Tel = tel
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 2)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := snap.Search(ctx, Query{Func: query, Opts: core.DefaultOptions()}); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	s := tel.Snapshot()
	if s.Counters["searches_deadline"] == 0 {
		t.Error("searches_deadline not counted")
	}
	if s.Counters["searches_cancelled"] != 0 {
		t.Errorf("searches_cancelled = %d, want 0", s.Counters["searches_cancelled"])
	}
}

// TestSearchCtxBackgroundIdentical: a context that is never cancelled —
// background, cancellable, or with a distant deadline — leaves the search
// hit-for-hit identical to the serial reference, on the DB's view and on
// a 3-shard snapshot, queried by function and by its decomposition.
func TestSearchCtxBackgroundIdentical(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	ref := core.Decompose(query, 3)
	want := SerialSearch(db.Entries, query, core.DefaultOptions())

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	distant, cancelDistant := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancelDistant()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", live}, {"deadline", distant}} {
		for _, s := range []struct {
			name string
			snap *Snapshot
		}{{"db", db.View()}, {"snapshot", BuildSnapshot(db, []int{3}, 3)}} {
			for _, q := range []struct {
				name string
				q    Query
			}{{"func", Query{Func: query, Opts: core.DefaultOptions()}}, {"ref", Query{Ref: ref, Opts: core.DefaultOptions()}}} {
				a, err := s.snap.Search(c.ctx, q.q)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.name, s.name, q.name, err)
				}
				sameHits(t, c.name+"/"+s.name+"/"+q.name, a.Hits, want)
			}
		}
	}
}

// TestSearchCtxMidflightCancel:cancelling while the search is running
// makes it return promptly with a context error instead of finishing
// the full corpus scan.
func TestSearchCtxMidflightCancel(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 2)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	// The corpus is small, so the search may legitimately finish before
	// the cancel lands; both outcomes are fine — what must not happen is
	// a hang or a non-context error.
	a, err := snap.Search(ctx, Query{Func: query, Opts: core.DefaultOptions()})
	if err != nil && err != context.Canceled {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if err != nil && a.Hits != nil {
		t.Error("errored search also returned hits")
	}
}

// TestPrefilterRankDeterministic: PrefilterRankWith is deterministic and
// ranks the query's own entry at a plausible position (it shares all of
// its features with itself).
func TestPrefilterRankDeterministic(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 2)
	ref := core.Decompose(query, 3)

	a, err := snap.PrefilterRankWith(context.Background(), ref, 10, ModeScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.PrefilterRankWith(context.Background(), ref, 10, ModeScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no ranked candidates for an in-corpus query")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic rank lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic rank at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Shared > a[i-1].Shared {
			t.Fatalf("rank order violated at %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
}
