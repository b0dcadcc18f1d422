package index

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minhash"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// topQueries returns the decompositions of n functions of db spread over
// its entries.
func topQueries(tb testing.TB, db *DB, n int) []*core.Decomposed {
	tb.Helper()
	ds, err := db.Decomposed(3)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*core.Decomposed
	for i := 0; len(out) < n && i < len(ds); i += max(len(ds)/n, 1) {
		if len(ds[i].Tracelets) > 0 {
			out = append(out, ds[i])
		}
	}
	return out
}

// checkTopParity holds a search of snap with a limit and a minimum score
// to its oracle, TopK of the full search, for every limit and minimum score
// of the matrix: the same hits in the same order, every Result field
// included, and every candidate counted.
func checkTopParity(t *testing.T, label string, snap *Snapshot, ref *core.Decomposed, pf PrefilterOptions) {
	t.Helper()
	q := Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: pf}
	all := mustSearch(t, snap, q)
	for _, limit := range []int{1, 3, 10, 100, snap.Len() + 1} {
		for _, minScore := range []float64{0, 0.3, 0.9} {
			q.Limit, q.MinScore = limit, minScore
			got, err := snap.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s %s limit=%d min=%v", label, ref.Name, limit, minScore)
			if got.Candidates != len(all) {
				t.Errorf("%s: %d candidates, the full search %d", at, got.Candidates, len(all))
			}
			sameHits(t, at, got.Hits, TopK(all, limit, minScore))
		}
	}
}

// TestSearchTopMatchesTopK: the top-k engine answers what TopK of the full
// search answers, on heap snapshots and on views of an index file, for
// exhaustive, scan and lsh candidates, at 1, 2 and 4 workers — and the
// floor does cut candidates on the way.
func TestSearchTopMatchesTopK(t *testing.T) {
	mem := campaignDB(t, 192)
	packed, err := Load(bytes.NewReader(savedLSH(t, mem, minhash.Default)))
	if err != nil {
		t.Fatal(err)
	}
	refs := topQueries(t, mem, 4)
	cap := mem.Len() / 2
	tel := telemetry.New()
	for _, store := range []struct {
		name string
		db   *DB
	}{{"heap", mem}, {"pack", packed}} {
		for _, workers := range []int{1, 2, 4} {
			snap := BuildSnapshot(store.db, []int{3}, workers)
			snap.Tel = tel
			for _, ref := range refs {
				for _, pf := range []PrefilterOptions{{}, {Enabled: true, Candidates: cap}, {Candidates: cap, Mode: ModeLSH}} {
					checkTopParity(t, fmt.Sprintf("%s workers=%d %q", store.name, workers, pf.Mode), snap, ref, pf)
				}
			}
		}
	}
	if tel.Get(telemetry.CandidatesBelowFloor) == 0 {
		t.Error("no candidate was cut by a floor; the matrix shows nothing of it")
	}
}

// TestSearchTopTies: identical bodies in differently named executables
// score the same, so at a limit inside such a run of equal scores the name
// tiebreak decides which of them the answer keeps — and a candidate whose
// bound equals the floor must be compared in full, not cut.
func TestSearchTopTies(t *testing.T) {
	var imgs []corpus.Executable
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 13, Funcs: 96, FuncsPerExe: 16, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { imgs = append(imgs, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The first three images again under names that sort after and before
	// their own, added so that entry order is not name order.
	db := New()
	for i, e := range imgs {
		names := []string{e.Name}
		if i < 3 {
			names = append(names, "z-"+e.Name, "m-"+e.Name, "a-"+e.Name)
		}
		for _, name := range names {
			if err := db.AddImage(name, e.Image, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := BuildSnapshot(db, []int{3}, 2)
	ties := 0
	for _, ref := range topQueries(t, db, 16) {
		for _, pf := range []PrefilterOptions{{}, {Candidates: db.Len() / 2, Mode: ModeLSH}} {
			all := mustSearch(t, snap, Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: pf})
			// A limit that ends on the first hit of each run of equal scores,
			// so the run's names decide what the answer keeps.
			for limit := 1; limit < len(all); limit++ {
				score := all[limit-1].Result.SimilarityScore
				if all[limit].Result.SimilarityScore != score || limit > 1 && all[limit-2].Result.SimilarityScore == score {
					continue
				}
				ties++
				got := mustSearch(t, snap, Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: pf, Limit: limit})
				sameHits(t, fmt.Sprintf("%s %q limit=%d", ref.Name, pf.Mode, limit), got, TopK(all, limit, 0))
			}
		}
	}
	if ties == 0 {
		t.Fatal("no limit fell inside a run of equal scores")
	}
}

// countdownCtx is a context cancelled at its n-th Err call: a cancel that
// lands at a chosen point of a search, deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	switch left := c.left.Add(-1); {
	case left == 0:
		close(c.done)
		return context.Canceled
	case left < 0:
		return context.Canceled
	}
	return nil
}

// TestSearchTopCancel: a top-k search cancelled anywhere — in candidate
// generation, between compares, inside one — returns the context's error
// and no hits, never a partial top-k.
func TestSearchTopCancel(t *testing.T) {
	db := campaignDB(t, 96)
	snap := BuildSnapshot(db, []int{3}, 2)
	ref := topQueries(t, db, 4)[3]
	pf := PrefilterOptions{Candidates: 40, Mode: ModeLSH}
	// How many Err calls a whole search makes.
	const never = 1 << 40
	q := Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: pf, Limit: 10}
	probe := newCountdownCtx(never)
	if _, err := snap.Search(probe, q); err != nil {
		t.Fatal(err)
	}
	calls := never - probe.left.Load()
	for n := int64(1); n <= calls; n += max(calls/16, 1) {
		a, err := snap.Search(newCountdownCtx(n), q)
		if err != context.Canceled || a.Hits != nil {
			t.Errorf("cancelled at Err call %d of %d: %d hits, err %v; want none and context.Canceled", n, calls, len(a.Hits), err)
		}
	}

	// Inside a compare: at every probe of the compare core, between phase A
	// and phase B included, on one worker. No constraint solve may follow
	// the probe that sees the cancel, and none of a search that runs to the
	// end may go unprobed: at most one solve between two probes.
	q.Opts.Workers, q.Opts.Tel = 1, telemetry.New()
	whole := newProbeCtx(never, q.Opts.Tel)
	if _, err := snap.Search(whole, q); err != nil {
		t.Fatal(err)
	}
	solves := append(whole.solves, q.Opts.Tel.Get(telemetry.CSPSolves))
	for i := 1; i < len(solves); i++ {
		if d := solves[i] - solves[i-1]; d > 1 {
			t.Fatalf("%d constraint solves between probes %d and %d; want at most 1", d, i-1, i)
		}
	}
	if solves[len(solves)-1] == solves[0] {
		t.Fatal("the search solved nothing: no rewrite to hold to the probes")
	}
	probes := int64(len(whole.solves))
	for n := int64(1); n <= probes; n += max(probes/64, 1) {
		q.Opts.Tel = telemetry.New()
		c := newProbeCtx(n, q.Opts.Tel)
		a, err := snap.Search(c, q)
		if err != context.Canceled || a.Hits != nil {
			t.Errorf("cancelled at probe %d of %d: %d hits, err %v; want none and context.Canceled", n, probes, len(a.Hits), err)
		}
		if after := q.Opts.Tel.Get(telemetry.CSPSolves) - c.solves[n-1]; after != 0 {
			t.Errorf("cancelled at probe %d of %d: %d constraint solves after it", n, probes, after)
		}
	}
}

// probeCtx makes every cancellation probe of a search visible: its Done
// channel is closed from the start, so each probe reaches Err, which
// records the constraint solves so far and reports nil until its n-th
// call, context.Canceled from then on.
type probeCtx struct {
	context.Context
	left   int64
	tel    *telemetry.Collector
	solves []uint64
	done   chan struct{}
}

func newProbeCtx(n int64, tel *telemetry.Collector) *probeCtx {
	c := &probeCtx{Context: context.Background(), left: n, tel: tel, done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *probeCtx) Done() <-chan struct{} { return c.done }

// Err is called from one goroutine at a time: the search's candidate stage
// and its one compare worker.
func (c *probeCtx) Err() error {
	c.solves = append(c.solves, c.tel.Get(telemetry.CSPSolves))
	if c.left--; c.left <= 0 {
		return context.Canceled
	}
	return nil
}
