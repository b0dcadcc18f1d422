package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestAccessLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, 10, time.Hour) // 1-in-10, nothing is "slow"
	logged := 0
	for i := 0; i < 40; i++ {
		if l.Log(rec("t", 1, 200)) {
			logged++
		}
	}
	if logged != 4 {
		t.Fatalf("logged %d of 40 at sample=10, want 4", logged)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("%d lines written, want 4", lines)
	}
	var line struct {
		Sampled bool `json:"sampled"`
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(first), &line); err != nil || !line.Sampled {
		t.Fatalf("sampled OK line must carry sampled:true (err %v, line %s)", err, first)
	}
}

func TestAccessLoggerMeritAlwaysLogs(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, 1000000, time.Hour)
	if !l.Log(rec("terr", 1, 500)) {
		t.Fatal("error request was dropped by sampling")
	}
	slow := rec("tslow", 1, 200)
	slow.Slow = true
	if !l.Log(slow) {
		t.Fatal("slow request was dropped by sampling")
	}
	if l.Log(rec("tok", 1, 200)) {
		t.Fatal("plain request logged despite 1-in-1000000 sampling")
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var parsed struct {
			Sampled bool `json:"sampled"`
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatalf("unparseable access line %q: %v", line, err)
		}
		if parsed.Sampled {
			t.Fatalf("merit-logged line marked sampled: %s", line)
		}
	}
}

func TestAccessLoggerLineShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLogger(&buf, 1, time.Second)
	root := StartTraceSpan("request", "")
	root.Child("decode").End()
	q := root.Child("query:0")
	q.Child("prefilter").End()
	q.End()
	root.End()
	r := rec(root.TraceID(), 12.5, 200)
	r.Span = root
	r.Cached = true
	if !l.Log(r) {
		t.Fatal("sample=1 must log everything")
	}
	var line struct {
		TraceID string             `json:"trace_id"`
		Status  int                `json:"status"`
		DurMS   float64            `json:"dur_ms"`
		Cached  bool               `json:"cached"`
		Stages  map[string]float64 `json:"stages_ms"`
		TS      string             `json:"ts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("bad line: %v\n%s", err, buf.String())
	}
	if line.TraceID != root.TraceID() || line.Status != 200 || line.DurMS != 12.5 || !line.Cached {
		t.Fatalf("line fields wrong: %+v", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, line.TS); err != nil {
		t.Fatalf("ts %q is not RFC3339Nano: %v", line.TS, err)
	}
	for _, stage := range []string{"decode", "query:0", "query:0.prefilter"} {
		if _, ok := line.Stages[stage]; !ok {
			t.Errorf("stages_ms missing %q (have %v)", stage, line.Stages)
		}
	}
}

func TestAccessLoggerNil(t *testing.T) {
	var l *AccessLogger
	if l.Log(rec("t", 1, 500)) {
		t.Fatal("nil logger logged")
	}
	if NewAccessLogger(nil, 1, 0) != nil {
		t.Fatal("nil writer must yield the nil logger")
	}
}

func TestStageTimings(t *testing.T) {
	if StageTimings(nil) != nil {
		t.Fatal("nil span must map to nil")
	}
	root := StartSpan("request")
	if StageTimings(root) != nil {
		t.Fatal("childless span must map to nil")
	}
	root.Child("compare").End()
	root.Child("compare").End() // repeated stages accumulate
	st := StageTimings(root)
	if len(st) != 1 || st["compare"] <= 0 {
		t.Fatalf("stage timings %v", st)
	}
}
