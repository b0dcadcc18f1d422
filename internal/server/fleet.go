package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/server/rpc"
	"repro/internal/telemetry"
)

// Coordinator mode: the corpus is hash-sharded (index.ShardOf) into N
// disjoint TRACYIDX slices, each served by a REPLICA GROUP of ordinary
// worker servers, and this process scatter-gathers them. A query is
// resolved to a lifted function exactly once — an uploaded image is
// lifted here, a by-reference query is fetched from the group that owns
// it — then broadcast to every shard as a QueryGob request with a
// per-shard deadline. Within a shard the coordinator talks to ONE
// healthy replica, failing over to a sibling on error and optionally
// racing a hedged second leg after Config.ShardHedge, so a dead or slow
// replica costs latency, not coverage: answers only become partial
// (degraded:true) when an entire replica group is down. Each shard
// answers its local top-K; because every corpus function lives on
// exactly one shard and the replicas of a shard serve identical slices,
// re-ranking the concatenated partials with the canonical comparator
// (index.TopK) reproduces the single-process answer bit for bit.
//
// Membership is actively health-gated: a background prober loop marks a
// replica down on its first transport error or a run of consecutive
// failures, re-probes it with exponential backoff, and readmits it only
// after a healthz probe proves it reachable AND serving an index
// (generation > 0). Replicas of one shard are expected to serve the
// same index generation; the group's serving generation is the majority
// among live replicas (ties to the newest), and stragglers are flagged
// skewed in fleet healthz and deprioritized by replica selection.
// Partial answers are never cached. Intra-fleet RPC rides the same
// retry transport (internal/server/rpc) the Go client uses, plus one
// breaker per replica.

// defaultShardTimeout bounds one shard RPC: long enough for an
// exhaustive scan of a fair shard slice, short enough that one wedged
// worker cannot pin a query to the full request deadline.
const defaultShardTimeout = 10 * time.Second

// fleetProbeTimeout bounds a single healthz probe.
const fleetProbeTimeout = 2 * time.Second

// defaultProbeInterval is how often the background prober refreshes an
// up replica's health view when Config.ProbeInterval is zero.
const defaultProbeInterval = time.Second

// probeBackoffBase/Max shape the re-probe schedule of a down replica:
// the first probe fires immediately (a transport blip should cost
// milliseconds, not a TTL), then the gap doubles up to the cap.
const (
	probeBackoffBase = 250 * time.Millisecond
	probeBackoffMax  = 10 * time.Second
)

// defaultDownAfter is how many consecutive non-transport failures mark
// a replica down. Transport errors (connection refused/reset) mark it
// down on the first: the process is gone, and waiting a threshold only
// burns shard timeouts.
const defaultDownAfter = 3

// replica is one worker process: a member of a shard's replica group,
// with its own connection, breaker, and membership state.
type replica struct {
	shard int    // owning shard group (fleet list order)
	idx   int    // replica index within the group
	addr  string // worker base URL
	conn  *rpc.Conn
	// probeConn is the health-probe path: no retries, no breaker, so a
	// probe measures the worker itself, not the circuit's mood.
	probeConn *rpc.Conn

	mu        sync.Mutex
	up        bool
	fails     int    // consecutive failures (scatter legs + probes)
	lastErr   string // last failure, "" while healthy
	downSince time.Time
	nextProbe time.Time     // earliest next readmission probe (down only)
	backoff   time.Duration // current readmission backoff
	hr        HealthResponse
	probedAt  time.Time // last successful probe (zero: never)
}

// shardGroup is the replica set serving one corpus shard.
type shardGroup struct {
	id       int
	replicas []*replica
	cursor   atomic.Uint64 // round-robin rotation over healthy replicas
}

// fleetBackend implements SearchBackend by scatter-gather over shard
// replica groups.
type fleetBackend struct {
	s          *Server
	groups     []*shardGroup
	all        []*replica    // flattened, fleet order
	hedge      time.Duration // 0: no hedged scatter legs
	probeEvery time.Duration

	primed  atomic.Bool // a full sweep has completed at least once
	sweepMu sync.Mutex  // serializes full sweeps

	stop      chan struct{}
	nudge     chan struct{} // wakes the prober for an immediate pass
	done      chan struct{}
	closeOnce sync.Once
}

// parseFleetGroups splits Config.Fleet entries into replica groups: one
// entry per shard, replicas separated by "|"
// (e.g. "http://a1|http://a2"). Entries without "|" are single-replica
// groups, so PR 9 fleet specs keep working unchanged.
func parseFleetGroups(fleet []string) [][]string {
	var groups [][]string
	for _, entry := range fleet {
		var g []string
		for _, addr := range strings.Split(entry, "|") {
			if addr = strings.TrimRight(strings.TrimSpace(addr), "/"); addr != "" {
				g = append(g, addr)
			}
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

func newFleetBackend(s *Server) *fleetBackend {
	probeEvery := s.cfg.ProbeInterval
	if probeEvery <= 0 {
		probeEvery = defaultProbeInterval
	}
	f := &fleetBackend{
		s:          s,
		hedge:      s.cfg.ShardHedge,
		probeEvery: probeEvery,
		stop:       make(chan struct{}),
		nudge:      make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	for gi, addrs := range parseFleetGroups(s.cfg.Fleet) {
		g := &shardGroup{id: gi}
		for ri, addr := range addrs {
			r := &replica{
				shard: gi,
				idx:   ri,
				addr:  addr,
				up:    true, // optimistic until the first probe says otherwise
				conn: &rpc.Conn{
					BaseURL: addr,
					Retry:   rpc.DefaultRetryPolicy(),
					Breaker: &rpc.Breaker{Threshold: 5, Cooldown: time.Second},
				},
				probeConn: &rpc.Conn{BaseURL: addr},
			}
			g.replicas = append(g.replicas, r)
			f.all = append(f.all, r)
		}
		f.groups = append(f.groups, g)
	}
	go f.proberLoop()
	return f
}

// Close stops the background prober. Idempotent.
func (f *fleetBackend) Close() error {
	f.closeOnce.Do(func() { close(f.stop) })
	<-f.done
	return nil
}

// ---- membership -----------------------------------------------------

// membershipFailure reports whether err is evidence against the
// replica's health. Saturation (429) means alive-and-shedding, 4xx
// means the request was wrong, chaos-injected errors are the
// coordinator's own test harness, and a context end means the caller
// gave up — none of those should move the membership state machine.
func membershipFailure(err error) bool {
	if err == nil || errors.Is(err, rpc.ErrSaturated) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, context.Canceled) {
		return false
	}
	var ae *rpc.APIError
	if errors.As(err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests {
		return false
	}
	return true
}

// noteFailure feeds one failed replica interaction into the membership
// state machine: consecutive failures accumulate, and the replica goes
// down immediately on a transport error (the process is unreachable —
// waiting out a threshold just wastes shard timeouts on every query) or
// after downAfter consecutive failures of any kind. A down-mark
// schedules an immediate readmission probe.
func (f *fleetBackend) noteFailure(r *replica, err error) {
	now := time.Now()
	var te *rpc.TransportError
	transport := errors.As(err, &te)
	r.mu.Lock()
	r.fails++
	r.lastErr = err.Error()
	wentDown := false
	if r.up && (transport || r.fails >= defaultDownAfter) {
		r.up = false
		r.downSince = now
		r.backoff = probeBackoffBase
		r.nextProbe = now // first readmission probe fires immediately
		wentDown = true
	}
	r.mu.Unlock()
	if wentDown {
		f.s.tel.Inc(telemetry.FleetReplicaDown)
		f.nudgeProber()
	}
}

// noteSuccess records a healthy interaction. A down replica that
// somehow answered a real request is NOT readmitted here — readmission
// is gated on a healthz + generation probe — but its probe is pulled
// forward so the gate opens within milliseconds.
func (f *fleetBackend) noteSuccess(r *replica) {
	r.mu.Lock()
	r.fails = 0
	r.lastErr = ""
	wasDown := !r.up
	if wasDown {
		r.nextProbe = time.Now()
	}
	r.mu.Unlock()
	if wasDown {
		f.nudgeProber()
	}
}

// observe routes one replica interaction's outcome into the membership
// state machine, ignoring outcomes that say nothing about the worker.
func (f *fleetBackend) observe(ctx context.Context, r *replica, err error) {
	if err == nil {
		f.noteSuccess(r)
		return
	}
	if ctx.Err() != nil || !membershipFailure(err) {
		return
	}
	f.noteFailure(r, err)
}

func (f *fleetBackend) nudgeProber() {
	select {
	case f.nudge <- struct{}{}:
	default:
	}
}

// proberLoop is the active membership prober: an initial full sweep
// primes the fleet view, then up replicas are refreshed every
// probeEvery and down replicas are re-probed on their backoff schedule.
// A nudge (scatter failure, recovered replica) triggers an immediate
// pass, so a worker that dies right after a probe is marked down by its
// first failed query, not discovered a TTL later.
func (f *fleetBackend) proberLoop() {
	defer close(f.done)
	f.sweep(context.Background())
	tick := f.probeEvery / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probePass(false)
		case <-f.nudge:
			f.probePass(false)
		}
	}
}

// probePass probes every replica that is due: up replicas older than
// probeEvery, down replicas past their backoff. forced probes everyone.
func (f *fleetBackend) probePass(forced bool) {
	now := time.Now()
	var due []*replica
	for _, r := range f.all {
		r.mu.Lock()
		switch {
		case forced:
			due = append(due, r)
		case r.up && now.Sub(r.probedAt) >= f.probeEvery:
			due = append(due, r)
		case !r.up && !now.Before(r.nextProbe):
			due = append(due, r)
		}
		r.mu.Unlock()
	}
	if len(due) == 0 {
		return
	}
	each(len(due), func(i int) { f.probeOne(due[i]) })
	f.publishInfo()
}

// each runs f(0), ..., f(n-1) concurrently and returns when all have.
func each(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// probeOne runs one healthz probe and applies its verdict: failure
// feeds the down-marking machinery; success refreshes the health view
// and readmits a down replica — but only when the worker is actually
// serving an index (generation > 0), so a half-booted process cannot
// rejoin and answer empty.
func (f *fleetBackend) probeOne(r *replica) {
	pctx, cancel := context.WithTimeout(context.Background(), fleetProbeTimeout)
	defer cancel()
	var h HealthResponse
	err := r.probeConn.Do(pctx, http.MethodGet, "/v1/healthz", nil, &h)
	now := time.Now()
	if err != nil {
		r.mu.Lock()
		wasDown := !r.up
		r.mu.Unlock()
		f.noteFailure(r, err)
		if wasDown {
			r.mu.Lock()
			r.backoff *= 2
			if r.backoff > probeBackoffMax {
				r.backoff = probeBackoffMax
			}
			if r.backoff <= 0 {
				r.backoff = probeBackoffBase
			}
			r.nextProbe = now.Add(r.backoff)
			r.mu.Unlock()
		}
		return
	}
	readmitted := false
	r.mu.Lock()
	r.probedAt = now
	r.hr = h
	if r.up {
		r.fails = 0
		r.lastErr = ""
	} else if h.Generation > 0 {
		r.up = true
		r.fails = 0
		r.lastErr = ""
		r.downSince = time.Time{}
		readmitted = true
	} else {
		// Reachable but serving nothing: stay gated, keep probing.
		r.lastErr = "reachable but no index loaded (generation 0)"
		r.backoff = probeBackoffBase
		r.nextProbe = now.Add(r.backoff)
	}
	r.mu.Unlock()
	if readmitted {
		f.s.tel.Inc(telemetry.FleetReadmits)
		// The probe proved the worker healthy; reset its query breaker
		// so the first real request is not eaten by a stale open circuit.
		r.conn.Breaker.Record(nil)
	}
}

// sweep forces a probe of every replica (healthz fan-out semantics:
// the aggregated health view must reflect the fleet as of now).
func (f *fleetBackend) sweep(ctx context.Context) {
	f.sweepMu.Lock()
	defer f.sweepMu.Unlock()
	f.probePass(true)
	f.primed.Store(true)
}

// ---- fleet view -----------------------------------------------------

// replicaState is a locked snapshot of one replica's membership state.
type replicaState struct {
	up        bool
	lastErr   string
	gen       uint64
	hr        HealthResponse
	nextProbe time.Time
	downSince time.Time
}

func (r *replica) state() replicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return replicaState{
		up:        r.up,
		lastErr:   r.lastErr,
		gen:       r.hr.Generation,
		hr:        r.hr,
		nextProbe: r.nextProbe,
		downSince: r.downSince,
	}
}

// servingGen picks the group's serving generation: the majority
// generation among up replicas (ties to the newest — a reload moves
// forward). With no replica up, the last-known generations vote, so an
// outage never shifts the fleet cache generation.
func servingGen(states []replicaState) uint64 {
	votes := map[uint64]int{}
	for _, st := range states {
		if st.up {
			votes[st.gen]++
		}
	}
	if len(votes) == 0 {
		for _, st := range states {
			votes[st.gen]++
		}
	}
	var gen uint64
	best := -1
	for g, n := range votes {
		if n > best || (n == best && g > gen) {
			best, gen = n, g
		}
	}
	return gen
}

// groupView is one pass over a group's replicas: each one's locked
// state, how many are up, and the group's serving generation.
type groupView struct {
	states []replicaState
	live   int
	gen    uint64
}

func (g *shardGroup) walk() groupView {
	v := groupView{states: make([]replicaState, len(g.replicas))}
	for i, r := range g.replicas {
		v.states[i] = r.state()
		if v.states[i].up {
			v.live++
		}
	}
	v.gen = servingGen(v.states)
	return v
}

// view assembles the aggregated fleet HealthResponse from the current
// membership state: one Fleet entry per replica, per-group serving
// generations, skew flags, and the combined status.
func (f *fleetBackend) view() *HealthResponse {
	agg := &HealthResponse{Mode: "coordinator", Shards: len(f.groups), Replicas: len(f.all)}
	liveReplicas, liveGroups, impaired := 0, 0, false
	hash := fnv.New64a()
	var buf [8]byte
	for _, g := range f.groups {
		gv := g.walk()
		var serving *replicaState
		for i := range gv.states {
			st := &gv.states[i]
			r := g.replicas[i]
			sh := ShardHealth{Shard: g.id, Replica: r.idx, Addr: r.addr, Generation: st.gen}
			if st.up {
				sh.Status = st.hr.Status
				sh.Functions = st.hr.Functions
				sh.IndexFormat = st.hr.IndexFormat
				sh.IndexMapped = st.hr.IndexMapped
				if st.gen != gv.gen {
					sh.Skewed = true
					impaired = true
				} else if serving == nil {
					serving = st
				}
			} else {
				sh.Status = "unreachable"
				sh.Error = st.lastErr
				if d := time.Until(st.nextProbe); d > 0 {
					sh.NextProbeMS = float64(d.Nanoseconds()) / 1e6
				}
				impaired = true
			}
			agg.Fleet = append(agg.Fleet, sh)
		}
		liveReplicas += gv.live
		if gv.live > 0 {
			liveGroups++
		}
		if serving != nil {
			agg.Functions += serving.hr.Functions
			if len(agg.Ks) == 0 {
				agg.Ks = serving.hr.Ks
			}
			if agg.LoadedAt.IsZero() || serving.hr.LoadedAt.After(agg.LoadedAt) {
				agg.LoadedAt = serving.hr.LoadedAt
			}
			if liveGroups == 1 {
				agg.IndexFormat = serving.hr.IndexFormat
				agg.IndexMapped = serving.hr.IndexMapped
			}
		}
		// The fleet generation folds every group's serving generation
		// (and membership shape): any worker reload changes it, flushing
		// stale cache entries; a mere outage does not.
		for _, r := range g.replicas {
			_, _ = hash.Write([]byte(r.addr))
			_, _ = hash.Write([]byte{0})
		}
		binary.LittleEndian.PutUint64(buf[:], gv.gen)
		_, _ = hash.Write(buf[:])
	}
	switch {
	case liveReplicas == 0:
		agg.Status = "down"
	case impaired:
		agg.Status = "degraded"
	default:
		agg.Status = "ok"
	}
	agg.Generation = hash.Sum64()
	return agg
}

// publishInfo exports the fleet_shard_info and fleet_replica_info
// families, one series per group and per replica (value constant 1,
// identity in the labels): /metrics cardinality stays bounded by fleet
// size while the hot fleet counters stay label-free.
func (f *fleetBackend) publishInfo() {
	for _, g := range f.groups {
		gv := g.walk()
		for i, st := range gv.states {
			r := g.replicas[i]
			status := "unreachable"
			if st.up {
				status = st.hr.Status
				if st.gen != gv.gen {
					status = "skewed"
				}
			}
			f.s.tel.SetInfo("fleet_replica_info", fmt.Sprintf("%d/%d", g.id, r.idx), map[string]string{
				"shard":      strconv.Itoa(g.id),
				"replica":    strconv.Itoa(r.idx),
				"addr":       r.addr,
				"status":     status,
				"generation": strconv.FormatUint(st.gen, 10),
				"format":     strconv.Itoa(st.hr.IndexFormat),
				"mapped":     strconv.FormatBool(st.hr.IndexMapped),
			})
		}
		gstatus := "down"
		switch {
		case gv.live == len(g.replicas):
			gstatus = "ok"
		case gv.live > 0:
			gstatus = "degraded"
		}
		f.s.tel.SetInfo("fleet_shard_info", strconv.Itoa(g.id), map[string]string{
			"shard":      strconv.Itoa(g.id),
			"status":     gstatus,
			"generation": strconv.FormatUint(gv.gen, 10),
			"replicas":   strconv.Itoa(len(g.replicas)),
			"live":       strconv.Itoa(gv.live),
		})
	}
}

// generation returns the fleet cache generation from the membership
// view, forcing one synchronous sweep before the first query so cache
// keys never see the unprimed zero state.
func (f *fleetBackend) generation(ctx context.Context) uint64 {
	if !f.primed.Load() {
		f.sweep(ctx)
	}
	return f.view().Generation
}

func (f *fleetBackend) Health(ctx context.Context) *HealthResponse {
	f.sweep(ctx)
	return f.view()
}

// ---- replica selection and group calls ------------------------------

// groupOrder is the failover order for one scatter leg: up replicas at
// the serving generation first (rotated round-robin so load spreads),
// then up-but-skewed stragglers, and — only when nothing is up — the
// single most-probable down replica as a last-resort best effort
// (its breaker fast-fails if it is truly gone).
func (f *fleetBackend) groupOrder(g *shardGroup) []*replica {
	gv := g.walk()
	var primary, skewed []*replica
	best := -1 // the down replica probed next
	for i, st := range gv.states {
		switch {
		case st.up && st.gen == gv.gen:
			primary = append(primary, g.replicas[i])
		case st.up:
			skewed = append(skewed, g.replicas[i])
		case best < 0 || st.nextProbe.Before(gv.states[best].nextProbe):
			best = i
		}
	}
	if n := len(primary); n > 1 {
		rot := int((g.cursor.Add(1) - 1) % uint64(n))
		primary = append(primary[rot:], primary[:rot]...)
	}
	order := append(primary, skewed...)
	if len(order) == 0 && best >= 0 {
		order = append(order, g.replicas[best])
	}
	return order
}

// groupCall answers call from one shard group under the failover/hedge
// race: the preferred replica first, siblings on failure, an optional
// hedged leg after hedge. Membership feedback is applied to every leg's
// outcome. When no replica answers, the group's failure is returned
// instead of a value.
func groupCall[T any](f *fleetBackend, ctx context.Context, g *shardGroup, hedge time.Duration,
	call func(context.Context, *replica) (T, error)) (T, *groupError) {
	order := f.groupOrder(g)
	legs := make([]func(context.Context) (T, error), len(order))
	for i, r := range order {
		legs[i] = func(lctx context.Context) (T, error) {
			v, err := call(lctx, r)
			f.observe(lctx, r, err)
			return v, err
		}
	}
	onHedge := func() { f.s.tel.Inc(telemetry.FleetHedges) }
	v, out := rpc.FailoverRace(ctx, hedge, onHedge, legs...)
	if out.Winner < 0 {
		ge := &groupError{shard: g.id}
		for i, err := range out.Errs {
			if err == nil {
				continue
			}
			r := order[i]
			ge.legs = append(ge.legs, ReplicaError{Shard: r.shard, Replica: r.idx, Addr: r.addr, Error: err.Error()})
			if ge.apiErr == nil {
				errors.As(err, &ge.apiErr)
			}
		}
		return v, ge
	}
	if out.Failovers > 0 {
		f.s.tel.Inc(telemetry.FleetFailovers)
	}
	if out.HedgeWon {
		f.s.tel.Inc(telemetry.FleetHedgesWon)
	}
	return v, nil
}

// groupError is a shard group none of whose replicas answered: the
// failure of every leg the race launched, in leg order, and the first
// of them that was a worker's API error.
type groupError struct {
	shard  int
	legs   []ReplicaError
	apiErr *rpc.APIError
}

// Error renders the per-replica failures for degraded reasons and the
// 502 message.
func (e *groupError) Error() string {
	if len(e.legs) == 0 {
		return "no replica answered"
	}
	parts := make([]string, len(e.legs))
	for i, l := range e.legs {
		parts[i] = fmt.Sprintf("replica %d (%s): %s", l.Replica, l.Addr, l.Error)
	}
	return strings.Join(parts, "; ")
}

// leg runs one RPC against one replica under the shard deadline.
func leg[T any](ctx context.Context, r *replica, method, path string, body any) (*T, error) {
	ctx, cancel := context.WithTimeout(ctx, defaultShardTimeout)
	defer cancel()
	var v T
	if err := r.conn.Do(ctx, method, path, body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// ---- wire helpers ---------------------------------------------------

// encodeQueryGob turns a resolved query function into the fleet wire
// form (base64 gob).
func encodeQueryGob(fn *prep.Function) (string, []byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fn); err != nil {
		return "", nil, err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), buf.Bytes(), nil
}

// decodeQueryGob is the worker-side inverse; the decoded function is
// structurally validated before anything runs on it.
func decodeQueryGob(s string) (*prep.Function, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bad base64 query_gob: %v", err)
	}
	var fn prep.Function
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&fn); err != nil {
		return nil, fmt.Errorf("bad query_gob: %v", err)
	}
	if err := index.ValidateFunction(&fn); err != nil {
		return nil, fmt.Errorf("bad query_gob: %v", err)
	}
	return &fn, nil
}

// lookupFunction resolves a by-reference query by broadcasting the
// fleet function lookup to every replica; exactly one group owns the
// entry, so the first success wins and cancels the rest (replicas of
// the owning group answer identically — redundancy is free coverage
// here, not wasted work).
func (f *fleetBackend) lookupFunction(ctx context.Context, exe, name string) (*prep.Function, error) {
	ctx, cancel := context.WithTimeout(ctx, defaultShardTimeout)
	defer cancel()
	path := "/v1/fleet/function?" + url.Values{"exe": {exe}, "name": {name}}.Encode()
	type res struct {
		fn  *prep.Function
		err error
	}
	ch := make(chan res, len(f.all))
	for _, r := range f.all {
		go func(r *replica) {
			var fr FleetFunctionResponse
			err := r.conn.Do(ctx, http.MethodGet, path, nil, &fr)
			f.observe(ctx, r, err)
			if err != nil {
				ch <- res{err: err}
				return
			}
			fn, err := decodeQueryGob(fr.FunctionGob)
			if err != nil {
				err = errf(http.StatusBadGateway, "shard %d replica %d returned %v", r.shard, r.idx, err)
			}
			ch <- res{fn: fn, err: err}
		}(r)
	}
	var firstErr, non404 error
	for range f.all {
		r := <-ch
		if r.err == nil {
			return r.fn, nil
		}
		if firstErr == nil {
			firstErr = r.err
		}
		var apiErr *rpc.APIError
		if !(errors.As(r.err, &apiErr) && apiErr.Status == http.StatusNotFound) && non404 == nil {
			non404 = r.err
		}
	}
	// 404 is only trustworthy when every replica could actually answer:
	// with part of the fleet unreachable the entry may live on a dead
	// worker, and "not indexed" would be a lie.
	if non404 == nil {
		return nil, errf(http.StatusNotFound, "no indexed function %s/%s", exe, name)
	}
	return nil, errf(http.StatusBadGateway, "fleet: resolving %s/%s: %v", exe, name, non404)
}

// begin pins the fleet cache generation: it folds every group's serving
// generation, so any worker reload invalidates coordinator-side entries
// while a mere replica outage does not.
func (f *fleetBackend) begin(ctx context.Context, p *searchPlan) error {
	f.s.tel.Inc(telemetry.FleetSearches)
	p.gen = f.generation(ctx)
	return nil
}

func (f *fleetBackend) lookup(ctx context.Context, p *searchPlan, exe, name string) error {
	fn, err := f.lookupFunction(ctx, exe, name)
	if err != nil {
		return err
	}
	return f.adopt(p, fn)
}

// adopt re-expresses the query as the QueryGob every shard is sent; the
// content key fingerprints those bytes: same function, same answer.
func (f *fleetBackend) adopt(p *searchPlan, fn *prep.Function) error {
	qgob, raw, err := encodeQueryGob(fn)
	if err != nil {
		return errf(http.StatusInternalServerError, "encoding query: %v", err)
	}
	hash := fnv.New64a()
	_, _ = hash.Write(raw)
	p.gob, p.fp = qgob, hash.Sum64()
	p.hdr = queryHeader{name: fn.Name, blocks: fn.NumBlocks(), insts: fn.NumInsts()}
	return nil
}

// searchReplica runs one scatter leg against one replica, firing the
// chaos points FaultShard, "shard<i>" and "shard<i>r<j>" first.
func (f *fleetBackend) searchReplica(ctx context.Context, r *replica, req *SearchRequest) (*SearchResponse, error) {
	if err := f.s.faults.Fire(ctx, FaultShard); err != nil {
		return nil, err
	}
	if err := f.s.faults.Fire(ctx, fmt.Sprintf("%s%d", FaultShard, r.shard)); err != nil {
		return nil, err
	}
	if err := f.s.faults.Fire(ctx, fmt.Sprintf("%s%dr%d", FaultShard, r.shard, r.idx)); err != nil {
		return nil, err
	}
	st := f.s.tel.StartTimer(telemetry.FleetShardLatency)
	defer st.Stop()
	return leg[SearchResponse](ctx, r, http.MethodPost, "/v1/search", req)
}

// fleetReplicaErrors assembles the structured per-replica error detail
// for the all-shards-failed 502, plus a Retry-After derived from the
// prober's next readmission probe (the earliest moment the fleet's
// answer could change).
func (f *fleetBackend) fleetReplicaErrors(failed []*groupError) ([]ReplicaError, time.Duration) {
	now := time.Now()
	var out []ReplicaError
	retryAfter := time.Duration(0)
	haveProbe := false
	for _, ge := range failed {
		out = append(out, ge.legs...)
		// Replicas the race never reached (down-gated siblings) still
		// explain the failure: report their last known error.
		g := f.groups[ge.shard]
		for i, st := range g.walk().states {
			r := g.replicas[i]
			reached := slices.ContainsFunc(ge.legs, func(l ReplicaError) bool { return l.Replica == r.idx })
			if reached || (st.up && st.lastErr == "") {
				continue
			}
			re := ReplicaError{Shard: r.shard, Replica: r.idx, Addr: r.addr, Error: st.lastErr}
			if !st.up {
				if d := st.nextProbe.Sub(now); d > 0 {
					re.NextProbeMS = float64(d.Nanoseconds()) / 1e6
					if !haveProbe || d < retryAfter {
						retryAfter, haveProbe = d, true
					}
				} else {
					haveProbe = true // probe imminent: retry soon
				}
			}
			out = append(out, re)
		}
	}
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	return out, retryAfter
}

// search scatters the resolved query to every shard — each tuning knob
// forwarded as given, with the coordinator's resolved limit so shards
// return exactly the partial the merge needs — and merges the partials.
func (f *fleetBackend) search(ctx context.Context, p *searchPlan, req *SearchRequest) (*SearchResponse, bool, error) {
	sp := telemetry.SpanFromContext(ctx)
	shardReq := &SearchRequest{
		QueryGob:      p.gob,
		K:             req.K,
		Limit:         p.limit,
		MinScore:      req.MinScore,
		Prefilter:     req.Prefilter,
		Candidates:    req.Candidates,
		PrefilterMode: req.PrefilterMode,
		TimeoutMS:     req.TimeoutMS,
	}

	// Scatter: every shard group races under its own deadline, each leg
	// picking a healthy replica with failover/hedging inside the group.
	ssp := sp.Child("scatter")
	results := make([]*SearchResponse, len(f.groups))
	errs := make([]*groupError, len(f.groups))
	each(len(f.groups), func(i int) {
		results[i], errs[i] = groupCall(f, ctx, f.groups[i], f.hedge, func(lctx context.Context, r *replica) (*SearchResponse, error) {
			return f.searchReplica(lctx, r, shardReq)
		})
	})
	ssp.End()

	// Gather: concatenate the partials and re-rank under the canonical
	// comparator. Disjoint shards make this bit-identical to the
	// single-snapshot answer when every shard group reports in.
	msp := sp.Child("merge")
	mt := f.s.tel.StartTimer(telemetry.FleetMergeLatency)
	var merged []index.Hit
	var failed []string
	var down []*groupError
	var firstAPIErr *rpc.APIError
	resp := &SearchResponse{K: p.k}
	shardDegraded := false
	for i, r := range results {
		if ge := errs[i]; ge != nil {
			f.s.tel.Inc(telemetry.FleetShardErrors)
			failed = append(failed, fmt.Sprintf("shard %d: %v", ge.shard, ge))
			down = append(down, ge)
			if firstAPIErr == nil {
				firstAPIErr = ge.apiErr
			}
			continue
		}
		resp.K = r.K
		resp.Candidates += r.Candidates
		resp.Prefiltered = resp.Prefiltered || r.Prefiltered
		if r.PrefilterMode != "" {
			resp.PrefilterMode = r.PrefilterMode
		}
		shardDegraded = shardDegraded || r.Degraded
		for _, h := range r.Hits {
			merged = append(merged, index.Hit{
				Entry:  &index.Entry{Exe: h.Exe, Name: h.Name, Addr: h.Addr},
				Result: coreResult(h),
			})
		}
	}
	if len(failed) == len(f.groups) {
		mt.Stop()
		msp.End()
		// Nothing answered. When every shard rejected the request itself
		// (a 4xx — bad k, unknown prefilter mode), relay that verdict;
		// otherwise the fleet is the problem: answer 502 with the
		// per-replica failure detail and a Retry-After derived from the
		// prober's next readmission probe.
		if firstAPIErr != nil && firstAPIErr.Status >= 400 && firstAPIErr.Status < 500 &&
			firstAPIErr.Status != http.StatusTooManyRequests {
			return nil, false, errf(firstAPIErr.Status, "%s", firstAPIErr.Msg)
		}
		he := errf(http.StatusBadGateway, "fleet: all %d shards failed: %s",
			len(f.groups), strings.Join(failed, "; "))
		he.fleet, he.retryAfter = f.fleetReplicaErrors(down)
		return nil, false, he
	}
	top := index.TopK(merged, p.limit, p.minScore)
	resp.Hits = make([]Hit, len(top))
	for i, h := range top {
		resp.Hits[i] = wireHit(h)
	}
	mt.Stop()
	msp.End()
	if len(failed) > 0 {
		f.s.tel.Inc(telemetry.FleetPartials)
		sp.Set("degraded", 1)
		resp.Degraded = true
		resp.DegradedReason = fmt.Sprintf("partial fleet answer: %d/%d shards failed (%s)",
			len(failed), len(f.groups), strings.Join(failed, "; "))
	} else if shardDegraded {
		resp.Degraded = true
		resp.DegradedReason = "one or more shards answered degraded"
	}
	// Only a full-fleet, full-quality answer is cacheable.
	return resp, !resp.Degraded, nil
}

func (f *fleetBackend) Functions(ctx context.Context, exe string, limit int) (*FunctionsResponse, error) {
	path := "/v1/functions"
	q := url.Values{}
	if exe != "" {
		q.Set("exe", exe)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	results := make([]*FunctionsResponse, len(f.groups))
	errs := make([]*groupError, len(f.groups))
	each(len(f.groups), func(i int) {
		results[i], errs[i] = groupCall(f, ctx, f.groups[i], 0, func(lctx context.Context, r *replica) (*FunctionsResponse, error) {
			return leg[FunctionsResponse](lctx, r, http.MethodGet, path, nil)
		})
	})
	// Same degradation contract as search: merge the surviving shard
	// groups and say so, fail only when nobody answers.
	out := &FunctionsResponse{}
	var firstErr error
	live := 0
	for i, r := range results {
		if ge := errs[i]; ge != nil {
			f.s.tel.Inc(telemetry.FleetShardErrors)
			if firstErr == nil {
				firstErr = errf(http.StatusBadGateway, "fleet: shard %d: %v", ge.shard, ge)
			}
			out.Degraded = true
			continue
		}
		live++
		out.Total += r.Total
		out.Functions = append(out.Functions, r.Functions...)
	}
	if live == 0 {
		return nil, firstErr
	}
	sort.Slice(out.Functions, func(i, j int) bool {
		if out.Functions[i].Exe != out.Functions[j].Exe {
			return out.Functions[i].Exe < out.Functions[j].Exe
		}
		return out.Functions[i].Name < out.Functions[j].Name
	})
	if limit > 0 && len(out.Functions) > limit {
		out.Functions = out.Functions[:limit]
	}
	return out, nil
}

func (f *fleetBackend) Reload(ctx context.Context) (*ReloadResponse, error) {
	t0 := time.Now()
	// Reload stays strict across the whole fleet — every replica of
	// every group must swap, or generations skew by our own hand.
	results := make([]*ReloadResponse, len(f.all))
	errs := make([]error, len(f.all))
	each(len(f.all), func(i int) {
		results[i], errs[i] = leg[ReloadResponse](ctx, f.all[i], http.MethodPost, "/v1/reload", nil)
		f.observe(ctx, f.all[i], errs[i])
	})
	out := &ReloadResponse{}
	seenGroup := map[int]bool{}
	var mixedFormat, mixedMapped bool
	for k, r := range f.all {
		if errs[k] != nil {
			return nil, errf(http.StatusConflict, "fleet reload: shard %d replica %d: %v", r.shard, r.idx, errs[k])
		}
		res := results[k]
		if k == 0 {
			out.Format, out.Mapped = res.Format, res.Mapped
		}
		mixedFormat = mixedFormat || res.Format != out.Format
		mixedMapped = mixedMapped || res.Mapped != out.Mapped
		if !seenGroup[r.shard] {
			seenGroup[r.shard] = true
			out.Functions += res.Functions
		}
	}
	// No one value describes replicas that differ.
	if mixedFormat {
		out.Format = 0
	}
	if mixedMapped {
		out.Mapped = false
	}
	f.s.tel.Inc(telemetry.ServerReloads)
	f.sweep(ctx) // fresh membership + generations after the swap
	out.Generation = f.view().Generation
	f.s.cache.purge()
	out.TookMS = msSince(t0)
	return out, nil
}

// coreResult reconstructs the wire hit's core.Result for re-ranking.
func coreResult(h Hit) (r core.Result) {
	r.SimilarityScore = h.Score
	r.IsMatch = h.IsMatch
	r.MatchedRewrite = h.MatchedRewrite
	r.MatchedDirect = h.Matched - h.MatchedRewrite
	r.RefTracelets = h.RefTracelets
	return r
}
