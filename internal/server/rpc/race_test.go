package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestFailoverRaceFirstLegWins(t *testing.T) {
	var launched [2]atomic.Bool
	v, out := FailoverRace(context.Background(), 0, nil,
		func(context.Context) (int, error) { launched[0].Store(true); return 7, nil },
		func(context.Context) (int, error) { launched[1].Store(true); return 8, nil },
	)
	if v != 7 || out.Winner != 0 || out.Failovers != 0 || out.HedgeWon {
		t.Fatalf("clean first-leg win: v=%d outcome=%+v", v, out)
	}
	if launched[1].Load() {
		t.Error("reserve leg launched despite a healthy first leg")
	}
}

func TestFailoverRaceFailsOver(t *testing.T) {
	boom := errors.New("boom")
	v, out := FailoverRace(context.Background(), 0, nil,
		func(context.Context) (string, error) { return "", boom },
		func(context.Context) (string, error) { return "ok", nil },
	)
	if v != "ok" || out.Winner != 1 || out.Failovers != 1 || out.HedgeWon {
		t.Fatalf("failover win: v=%q outcome=%+v", v, out)
	}
	if !errors.Is(out.Errs[0], boom) {
		t.Errorf("leg 0 error not reported: %v", out.Errs)
	}
}

func TestFailoverRaceHedgeWins(t *testing.T) {
	hedges := 0
	var primaryMarked, hedgeMarked atomic.Bool
	slow := func(ctx context.Context) (string, error) {
		primaryMarked.Store(isHedgeLeg(ctx))
		select {
		case <-time.After(5 * time.Second):
			return "slow", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	t0 := time.Now()
	v, out := FailoverRace(context.Background(), 10*time.Millisecond, func() { hedges++ },
		slow,
		func(ctx context.Context) (string, error) { hedgeMarked.Store(isHedgeLeg(ctx)); return "hedged", nil },
	)
	if v != "hedged" || out.Winner != 1 || !out.HedgeWon {
		t.Fatalf("hedged win: v=%q outcome=%+v", v, out)
	}
	if primaryMarked.Load() || !hedgeMarked.Load() {
		t.Errorf("hedge marks: primary %v, timer-launched leg %v; want false, true",
			primaryMarked.Load(), hedgeMarked.Load())
	}
	if out.Failovers != 0 {
		t.Errorf("hedge win counted %d failovers, want 0 (the slow leg never failed)", out.Failovers)
	}
	if hedges != 1 {
		t.Errorf("onHedge called %d times, want 1", hedges)
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("hedged race took %v: it waited out the slow leg", took)
	}
}

func TestFailoverRaceHedgesAtMostOnce(t *testing.T) {
	// Three reserve legs, all slow: the hedge timer may launch only ONE
	// extra leg, so exactly two legs run.
	var launches atomic.Int32
	slow := func(ctx context.Context) (int, error) {
		launches.Add(1)
		<-ctx.Done()
		return 0, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, out := FailoverRace(ctx, 5*time.Millisecond, nil, slow, slow, slow, slow)
	if out.Winner != -1 {
		t.Fatalf("all-slow race found a winner: %+v", out)
	}
	if n := launches.Load(); n != 2 {
		t.Fatalf("%d legs launched, want 2 (primary + one hedge)", n)
	}
}

func TestFailoverRaceAllFail(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	_, out := FailoverRace(context.Background(), 0, nil,
		func(context.Context) (int, error) { return 0, e1 },
		func(context.Context) (int, error) { return 0, e2 },
	)
	if out.Winner != -1 {
		t.Fatalf("all-failed race claims winner %d", out.Winner)
	}
	if !errors.Is(out.Errs[0], e1) || !errors.Is(out.Errs[1], e2) {
		t.Errorf("per-leg errors wrong: %v", out.Errs)
	}
}

func TestFailoverRaceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	t0 := time.Now()
	_, out := FailoverRace(ctx, 0, nil,
		func(ctx context.Context) (int, error) { <-ctx.Done(); return 0, ctx.Err() },
	)
	if out.Winner != -1 {
		t.Fatalf("cancelled race claims winner %d", out.Winner)
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("cancelled race returned after %v", took)
	}
}

func TestFailoverRaceNoLegs(t *testing.T) {
	v, out := FailoverRace[int](context.Background(), 0, nil)
	if v != 0 || out.Winner != -1 {
		t.Fatalf("empty race: v=%d outcome=%+v", v, out)
	}
}
