package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/prep"
)

// rewriteCandidate returns a tracelet pair of (ref, tgt) the matcher would
// attempt a rewrite on.
func rewriteCandidate(t *testing.T, ctx *cmpCtx, opts Options) (int, int) {
	t.Helper()
	for ri := range ctx.ref.Tracelets {
		for ti := range ctx.tgt.Tracelets {
			n := align.Norm(ctx.pairScore(ri, ti), int(ctx.ref.ident[ri]), int(ctx.tgt.ident[ti]), opts.Norm)
			if n >= opts.RewriteSkipBelow && n <= opts.Beta {
				return ri, ti
			}
		}
	}
	t.Fatal("no rewrite candidate in the test pair")
	return 0, 0
}

// TestRewriteAttemptAllocatesNothing: on a warm worker one whole
// rewrite-and-rescore step — reference domains, tracebacks, constraint
// generation, solve, substitution, re-score — allocates no object. Every
// buffer it needs belongs to the worker.
func TestRewriteAttemptAllocatesNothing(t *testing.T) {
	opts := DefaultOptions()
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "a2", srcARenamed), 3)
	ctx := newCmpCtx(ref, tgt, nil)
	defer ctx.release()
	ri, ti := rewriteCandidate(t, ctx, opts)
	attempt := func() {
		ctx.rwRef = -1 // a new reference tracelet every time: SetRef is part of the step
		ctx.rewritePair(ri, ti, opts.Norm)
	}
	attempt()
	if allocs := testing.AllocsPerRun(200, attempt); allocs != 0 {
		t.Errorf("a warm rewrite attempt allocates %v objects, want 0", allocs)
	}
}

// TestCompareAllocationsBounded: on the BenchmarkCompare pairs a warm
// worker compares without allocating, however many tracelet pairs, DPs
// and rewrites the comparison takes (the string-based core allocated
// ~1000 objects on the matching pair), and Matcher.Compare, which borrows
// its worker from a pool, allocates at most what a cold worker needs to
// grow its buffers once — a constant of the worker, not of the pair.
func TestCompareAllocationsBounded(t *testing.T) {
	const coldWorker = 40
	ref := Decompose(liftListing(t, "a", srcA), 3)
	for _, tc := range []struct {
		name string
		src  string
	}{{"match", srcARenamed}, {"miss", srcB}} {
		tgt := Decompose(liftListing(t, tc.name, tc.src), 3)
		for _, prune := range []bool{true, false} {
			opts := DefaultOptions()
			opts.Prune = prune
			m := NewMatcher(opts)
			want := m.Compare(ref, tgt)

			ctx := ctxPool.Get().(*cmpCtx)
			warm := func() {
				if res, _ := m.compare(context.Background(), ctx, ref, tgt); res != want {
					t.Fatalf("%s prune=%v: %+v, want %+v", tc.name, prune, res, want)
				}
			}
			warm()
			if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
				t.Errorf("%s prune=%v: a warm worker allocates %v objects per compare, want 0", tc.name, prune, allocs)
			}
			ctx.release()

			if allocs := testing.AllocsPerRun(50, func() { m.Compare(ref, tgt) }); allocs > coldWorker {
				t.Errorf("%s prune=%v: Compare allocates %v objects, more than a cold worker's %d", tc.name, prune, allocs, coldWorker)
			}
		}
	}
}

// TestParkedWorkerHoldsNoDecomposition: a worker back in the pool keeps its
// buffers and nothing of the functions it compared. The packed blocks of
// a target that went through scoring, rewriting and an explanation must be
// collectable at the first collection after the target is dropped — while
// the pool still holds the worker. They are one array (their columns a few
// more, or the file's), so a pointer kept to any block keeps the array
// alive, and for a view of a file that array is also what keeps the file
// mapped.
func TestParkedWorkerHoldsNoDecomposition(t *testing.T) {
	a, a2 := liftListing(t, "a", srcA), liftListing(t, "a2", srcARenamed)
	f := storedFile(t, a, a2)
	for name, decompose := range map[string]func(i int) *Decomposed{
		"heap": func(i int) *Decomposed { return Decompose([]*prep.Function{a, a2}[i], 3) },
		"view": func(i int) *Decomposed { return viewOf(t, f, i, 3, nil) },
	} {
		ref := decompose(0)
		var freed atomic.Bool
		func() {
			tgt := decompose(1)
			runtime.SetFinalizer(&tgt.blocks[0], func(*asm.Block) { freed.Store(true) })
			m := NewMatcher(DefaultOptions())
			if res := m.Compare(ref, tgt); res.MatchedRewrite == 0 {
				t.Fatalf("%s: the pair exercised no rewrite: %+v", name, res)
			}
			m.Explain(ref, tgt)
		}()
		runtime.GC()
		for wait := 0; !freed.Load() && wait < 200; wait++ {
			time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
		}
		if !freed.Load() {
			t.Errorf("%s: the target's packed blocks are still reachable after it was dropped", name)
		}
		runtime.KeepAlive(ref)
	}
	runtime.KeepAlive(f)
}
