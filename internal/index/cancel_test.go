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
// path (DB exhaustive, DB prefiltered, snapshot sharded, snapshot
// prefiltered, prefilter-rank) with context.Canceled and nil hits, and
// the abort is counted in telemetry.
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
		run  func() ([]Hit, error)
	}{
		{"db", func() ([]Hit, error) {
			return db.SearchCtx(ctx, query, core.DefaultOptions(), PrefilterOptions{})
		}},
		{"db-prefilter", func() ([]Hit, error) {
			return db.SearchCtx(ctx, query, core.DefaultOptions(), PrefilterOptions{Enabled: true})
		}},
		{"snapshot", func() ([]Hit, error) {
			return snap.SearchCtx(ctx, query, core.DefaultOptions())
		}},
		{"snapshot-prefilter", func() ([]Hit, error) {
			return snap.SearchDecomposedCtx(ctx, ref, core.DefaultOptions(), PrefilterOptions{Enabled: true})
		}},
	}
	for _, p := range paths {
		hits, err := p.run()
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", p.name, err)
		}
		if hits != nil {
			t.Errorf("%s: cancelled search returned %d hits, want nil", p.name, len(hits))
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
	if _, err := snap.SearchCtx(ctx, query, core.DefaultOptions()); err != context.DeadlineExceeded {
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

// TestSearchCtxBackgroundIdentical: the context-aware entry points with
// a background context are hit-for-hit identical to the serial
// reference, on the DB and on the snapshot.
func TestSearchCtxBackgroundIdentical(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 3)

	want := SerialSearch(db.Entries, query, core.DefaultOptions())
	got, err := snap.SearchCtx(context.Background(), query, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "snapshot", got, want)
	got, err = db.SearchCtx(context.Background(), query, core.DefaultOptions(), PrefilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "db", got, want)
}

// TestSearchCtxMidflightCancel: cancelling while the search is running
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
	hits, err := snap.SearchCtx(ctx, query, core.DefaultOptions())
	if err != nil && err != context.Canceled {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if err != nil && hits != nil {
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
