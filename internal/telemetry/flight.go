package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The flight recorder answers "why was THIS request slow" after the
// fact: a fixed-size, heap-bounded ring that retains the N slowest
// requests and the N most recent errored/cancelled requests, each with
// its full span tree, served as JSON at /debug/requests. Because the
// span trees are retained by reference, a recorded request costs only
// the spans the request already allocated plus one RequestRecord — the
// memory bound is MaxSlow+MaxErrors record slots, not per-traffic.

// RequestRecord is one retained request: identity, outcome, flags and
// the root span tree (per-stage children included).
type RequestRecord struct {
	TraceID string    `json:"trace_id"`
	Method  string    `json:"method"`
	Path    string    `json:"path"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"dur_ms"`
	Status  int       `json:"status"`
	Error   string    `json:"error,omitempty"`

	Attempt int  `json:"attempt,omitempty"` // client retry attempt (0 = first)
	Hedge   bool `json:"hedge,omitempty"`   // request was a coordinator's hedged scatter leg

	Cached    bool `json:"cached,omitempty"`
	Degraded  bool `json:"degraded,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	Slow      bool `json:"slow,omitempty"` // over the slow-query threshold

	Span *Span `json:"span,omitempty"`
}

// FlightRecorder retains the slowest and the most recently failed
// requests. The zero value is unusable; use NewFlightRecorder. A nil
// *FlightRecorder no-ops on every method, the usual "off" value.
type FlightRecorder struct {
	mu       sync.Mutex
	maxSlow  int
	maxErr   int
	slowest  []*RequestRecord // sorted by DurMS descending, capped at maxSlow
	errored  []*RequestRecord // ring, most recent last, capped at maxErr
	errNext  int
	errFull  bool
	recorded uint64
}

// Default flight-recorder shape: enough to debug an incident, small
// enough to forget about.
const (
	DefaultFlightSlow   = 32
	DefaultFlightErrors = 32
)

// NewFlightRecorder returns a recorder keeping the maxSlow slowest and
// the maxErrors most recent errored requests (<= 0 selects the
// defaults).
func NewFlightRecorder(maxSlow, maxErrors int) *FlightRecorder {
	if maxSlow <= 0 {
		maxSlow = DefaultFlightSlow
	}
	if maxErrors <= 0 {
		maxErrors = DefaultFlightErrors
	}
	return &FlightRecorder{
		maxSlow: maxSlow,
		maxErr:  maxErrors,
		errored: make([]*RequestRecord, maxErrors),
	}
}

// Record offers one finished request to the recorder. Errored requests
// (status >= 400, which includes 499 cancellations and 5xx) enter the
// recent-error ring; every request competes for a slowest slot. The
// record is retained by reference — callers must not mutate it after.
func (f *FlightRecorder) Record(rec *RequestRecord) {
	if f == nil || rec == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recorded++
	if rec.Status >= 400 {
		f.errored[f.errNext] = rec
		f.errNext++
		if f.errNext == f.maxErr {
			f.errNext = 0
			f.errFull = true
		}
	}
	if len(f.slowest) < f.maxSlow {
		f.slowest = append(f.slowest, rec)
		f.sortSlowestLocked()
		return
	}
	if rec.DurMS <= f.slowest[len(f.slowest)-1].DurMS {
		return
	}
	f.slowest[len(f.slowest)-1] = rec
	f.sortSlowestLocked()
}

func (f *FlightRecorder) sortSlowestLocked() {
	sort.SliceStable(f.slowest, func(i, j int) bool {
		return f.slowest[i].DurMS > f.slowest[j].DurMS
	})
}

// FlightSnapshot is the JSON shape of /debug/requests.
type FlightSnapshot struct {
	Recorded uint64           `json:"recorded"` // total requests offered
	Slowest  []*RequestRecord `json:"slowest"`
	Errored  []*RequestRecord `json:"errored"` // most recent first
}

// Snapshot copies the recorder's current retained set.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FlightSnapshot{
		Recorded: f.recorded,
		Slowest:  append([]*RequestRecord(nil), f.slowest...),
	}
	n := f.errNext
	if f.errFull {
		n = f.maxErr
	}
	// Emit most recent first: walk backwards from errNext.
	for i := 0; i < n; i++ {
		idx := f.errNext - 1 - i
		if idx < 0 {
			idx += f.maxErr
		}
		s.Errored = append(s.Errored, f.errored[idx])
	}
	return s
}

// ServeHTTP renders the snapshot as indented JSON (/debug/requests).
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(f.Snapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(append(b, '\n'))
}
