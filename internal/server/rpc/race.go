package rpc

import (
	"context"
	"time"
)

// FailoverRace drives an ordered list of interchangeable legs — the
// coordinator's scatter legs to the replicas of one shard — to a single
// answer. Leg 0 launches immediately; every further leg is held in
// reserve and launched either when the newest in-flight leg fails
// (failover) or, when hedge is positive, when the race has gone
// unanswered for hedge (a hedged second leg racing a slow-but-alive
// primary). The first success wins and cancels the rest; at most one
// leg is ever launched by the timer, so a healthy fleet pays for at
// most one duplicate request per race. Every launch goes to the next
// distinct leg, so a dead replica costs the failover latency and a slow
// one costs the hedge delay — never the caller's whole deadline.
//
// It is the transport's one hedge. The leg the timer launches runs under
// a context marked as a hedge, and every Conn round trip made under it
// says so: X-Tracy-Hedge on the wire, AttemptRecord.Hedge in Stats.

// hedgeLegKey marks the context of the leg FailoverRace's timer launched.
type hedgeLegKey struct{}

// isHedgeLeg reports whether ctx belongs to a hedge leg.
func isHedgeLeg(ctx context.Context) bool {
	return ctx.Value(hedgeLegKey{}) != nil
}

// RaceOutcome reports how a FailoverRace ended.
type RaceOutcome struct {
	// Winner is the index of the winning leg, -1 when every launched
	// leg failed (or the context ended first).
	Winner int
	// HedgeWon marks a winner that was launched by the hedge timer
	// rather than by a preceding failure.
	HedgeWon bool
	// Failovers counts legs that had already failed when the winner
	// answered (0 on a clean first-leg win).
	Failovers int
	// Errs holds each leg's failure, indexed like legs. nil entries are
	// legs that won, were cancelled by the win, or never launched.
	Errs []error
}

// FailoverRace races legs as described above. onHedge, when non-nil,
// is called once if the hedge timer launches a leg (counter hook).
// When ctx ends before any leg succeeds, the zero value is returned
// with Winner -1 and whatever failures had landed by then.
func FailoverRace[T any](ctx context.Context, hedge time.Duration, onHedge func(), legs ...func(context.Context) (T, error)) (T, RaceOutcome) {
	var zero T
	out := RaceOutcome{Winner: -1, Errs: make([]error, len(legs))}
	if len(legs) == 0 {
		return zero, out
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		i   int
		v   T
		err error
	}
	ch := make(chan result, len(legs)) // buffered: losers never block
	launched := 0
	byHedge := make([]bool, len(legs))
	launch := func(hedged bool) {
		i := launched
		launched++
		byHedge[i] = hedged
		lctx := rctx
		if hedged {
			lctx = context.WithValue(rctx, hedgeLegKey{}, true)
		}
		go func() {
			v, err := legs[i](lctx)
			ch <- result{i, v, err}
		}()
	}
	launch(false)
	inFlight := 1

	// The timer is armed only while a reserve leg exists and no hedge
	// has been launched yet.
	var timer *time.Timer
	var timerC <-chan time.Time
	hedgedOnce := false
	arm := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
		if hedge > 0 && !hedgedOnce && launched < len(legs) {
			timer = time.NewTimer(hedge)
			timerC = timer.C
		}
	}
	arm()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil {
				out.Winner = r.i
				out.HedgeWon = byHedge[r.i]
				for _, e := range out.Errs {
					if e != nil {
						out.Failovers++
					}
				}
				return r.v, out
			}
			out.Errs[r.i] = r.err
			if ctx.Err() == nil && launched < len(legs) {
				launch(false)
				inFlight++
				arm() // a fresh leg gets a fresh hedge window
			} else if inFlight == 0 {
				return zero, out
			}
		case <-timerC:
			timerC = nil
			if launched < len(legs) {
				hedgedOnce = true
				if onHedge != nil {
					onHedge()
				}
				launch(true)
				inFlight++
			}
		case <-ctx.Done():
			return zero, out
		}
	}
}
