package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of a Collector, with no
// dependency on any client library. Counters become
// tracy_<name>_total; each log-scale latency histogram becomes a
// standard Prometheus histogram tracy_<name>_seconds with cumulative
// _bucket{le="..."} series (bucket bounds converted from the internal
// power-of-two nanosecond bounds to seconds), _sum and _count. Bucket
// boundaries are emitted in full on every scrape — stable boundaries
// are what make rate() and histogram_quantile() work across scrapes.

// promNamespace prefixes every exposed metric name.
const promNamespace = "tracy"

// promBucketBounds is the fixed bucket-boundary list in seconds,
// precomputed once: BucketUpperNS(i)/1e9 for every bucket but the last
// (which is +Inf).
var promBucketBounds = func() []string {
	out := make([]string, numBuckets-1)
	for i := 0; i < numBuckets-1; i++ {
		out[i] = formatPromFloat(float64(BucketUpperNS(i)) / 1e9)
	}
	return out
}()

// formatPromLabels renders a label set as {k="v",...} with exposition
// escaping, keys sorted; empty input renders as no label braces at all.
func formatPromLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(esc.Replace(labels[k]))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatPromFloat renders a float the exposition format accepts,
// trimming the noise off exact values (0.000128 not 1.28e-04).
func formatPromFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the collector's current state in Prometheus
// text exposition format, rendered from one Snapshot — the state /statsz
// serves. A nil collector writes every metric at zero. The output is
// deterministic: metrics are sorted by name.
func (c *Collector) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	snap := c.Snapshot()

	uptime := 0.0
	if c != nil {
		uptime = snap.TakenAt.Sub(c.start).Seconds()
	}
	fmt.Fprintf(bw, "# HELP %s_uptime_seconds Time since the collector started or was reset.\n", promNamespace)
	fmt.Fprintf(bw, "# TYPE %s_uptime_seconds gauge\n", promNamespace)
	fmt.Fprintf(bw, "%s_uptime_seconds %s\n", promNamespace, formatPromFloat(uptime))

	// Info gauges: identity as labels, value constantly 1; one header
	// per family, one sample per series.
	for _, f := range c.infoFamilies() {
		full := promNamespace + "_" + f.name
		fmt.Fprintf(bw, "# HELP %s Identity of the %s.\n", full, strings.ReplaceAll(strings.TrimSuffix(f.name, "_info"), "_", " "))
		fmt.Fprintf(bw, "# TYPE %s gauge\n", full)
		for _, labels := range f.series {
			fmt.Fprintf(bw, "%s%s 1\n", full, formatPromLabels(labels))
		}
	}

	// Counters, sorted by exposition name.
	for _, name := range sortedNames(counterNames[:]) {
		full := promNamespace + "_" + name + "_total"
		fmt.Fprintf(bw, "# HELP %s Cumulative count of %s events.\n", full, strings.ReplaceAll(name, "_", " "))
		fmt.Fprintf(bw, "# TYPE %s counter\n", full)
		fmt.Fprintf(bw, "%s %d\n", full, snap.Counters[name])
	}

	// Histograms, sorted by exposition name, as cumulative buckets over
	// the snapshot's non-empty ones.
	for _, name := range sortedNames(histNames[:]) {
		hs := snap.Histograms[name]
		base := strings.TrimSuffix(name, "_latency")
		full := promNamespace + "_" + base + "_latency_seconds"
		fmt.Fprintf(bw, "# HELP %s Latency distribution of %s.\n", full, strings.ReplaceAll(base, "_", " "))
		fmt.Fprintf(bw, "# TYPE %s histogram\n", full)
		var cum uint64
		next := hs.Buckets
		for b := 0; b < numBuckets-1; b++ {
			if len(next) > 0 && next[0].UpperNS == BucketUpperNS(b) {
				cum += next[0].Count
				next = next[1:]
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", full, promBucketBounds[b], cum)
		}
		for _, b := range next { // the catch-all bucket
			cum += b.Count
		}
		// The +Inf bucket equals _count by definition; use the histogram's
		// own count so the invariant holds even mid-Observe.
		count := max(hs.Count, cum)
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", full, count)
		fmt.Fprintf(bw, "%s_sum %s\n", full, formatPromFloat(float64(hs.SumNS)/1e9))
		fmt.Fprintf(bw, "%s_count %d\n", full, count)
	}
	return bw.Flush()
}

// sortedNames returns a sorted copy of a metric name table.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// PrometheusHandler serves WritePrometheus with the exposition content
// type.
func PrometheusHandler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WritePrometheus(w)
	})
}

// ValidateExposition checks data against the Prometheus text exposition
// grammar: metric-name and label syntax, parseable sample values,
// HELP/TYPE comment shape, TYPE-before-samples ordering, and histogram
// completeness (_bucket series must come with _sum, _count and a +Inf
// bucket whose value equals _count). It is the gate the observability
// smoke test and CI run /metrics output through. Returns nil for valid
// input; the first violation otherwise, prefixed with its line number.
func ValidateExposition(data []byte) error {
	typeOf := make(map[string]string)    // metric family -> declared type
	sampled := make(map[string]bool)     // families that already emitted samples
	bucketInf := make(map[string]uint64) // histogram family -> +Inf bucket value
	bucketCnt := make(map[string]uint64) // histogram family -> _count value
	hasSum := make(map[string]bool)
	lines := strings.Split(string(data), "\n")
	seenSample := false
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, rest, ok := cutComment(line)
			if !ok {
				continue // bare comment: legal, ignored
			}
			name, arg, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return fmt.Errorf("line %d: bad metric name %q in %s comment", lineNo, name, kind)
			}
			if kind == "TYPE" {
				switch arg {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, arg, name)
				}
				if sampled[name] {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				if _, dup := typeOf[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				typeOf[name] = arg
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		seenSample = true
		family := histFamily(name, typeOf)
		sampled[family] = true
		if typeOf[family] == "histogram" {
			v := uint64(value)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le, ok := labels["le"]; ok {
					if le == "+Inf" {
						bucketInf[family] = v
					}
				} else {
					return fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, name)
				}
			case strings.HasSuffix(name, "_count"):
				bucketCnt[family] = v
			case strings.HasSuffix(name, "_sum"):
				hasSum[family] = true
			}
		}
	}
	if !seenSample {
		return fmt.Errorf("no samples in exposition")
	}
	for fam, typ := range typeOf {
		if typ != "histogram" || !sampled[fam] {
			continue
		}
		inf, okInf := bucketInf[fam]
		cnt, okCnt := bucketCnt[fam]
		if !okInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", fam)
		}
		if !okCnt {
			return fmt.Errorf("histogram %s has no _count", fam)
		}
		if !hasSum[fam] {
			return fmt.Errorf("histogram %s has no _sum", fam)
		}
		if inf != cnt {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", fam, inf, cnt)
		}
	}
	return nil
}

// cutComment splits "# HELP name ..." / "# TYPE name ..." comments;
// ok is false for any other comment.
func cutComment(line string) (kind, rest string, ok bool) {
	rest, ok = strings.CutPrefix(line, "# HELP ")
	if ok {
		return "HELP", rest, true
	}
	rest, ok = strings.CutPrefix(line, "# TYPE ")
	if ok {
		return "TYPE", rest, true
	}
	return "", "", false
}

// histFamily maps a histogram series name (_bucket/_sum/_count suffix)
// back to its declared family name; other names map to themselves.
func histFamily(name string, typeOf map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typeOf[base] == "histogram" || typeOf[base] == "summary" {
				return base
			}
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s[0] == ':' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("sample %q has no value", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[i+1 : end]
		rest = strings.TrimPrefix(rest[end+1:], " ")
		for _, pair := range splitLabels(body) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return "", nil, 0, fmt.Errorf("bad label pair %q", pair)
			}
			if !validLabelName(k) {
				return "", nil, 0, fmt.Errorf("bad label name %q", k)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("label value %q not quoted", v)
			}
			labels[k] = v[1 : len(v)-1]
		}
	} else {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q needs value [timestamp]", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// splitLabels splits a label-set body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, strings.TrimSpace(body[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(body[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}
