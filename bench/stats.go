package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), which is what the benchmark driver uses
// for its spread check, so -repeat reports the number the driver will
// see. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the single declaration of workload and metric
// names, units, directions and regression bounds. The program reads it
// instead of repeating it, so a metric it emits under an undeclared name
// is a bug it reports itself.
type spec struct {
	dir       string // directory BENCHMARK.json was found in (the repo root)
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (run.sh runs from the repo root, go test from bench/).
func loadSpec() (*spec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		sp := &spec{dir: dir}
		if err := json.Unmarshal(data, sp); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return sp, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is one pass's output: every metric the spec declares for that
// pass, initialised to 0, so a layer a workload never enters reads 0
// rather than being absent.
type metrics map[string]value

func newMetrics(decl []metricSpec) metrics {
	m := make(metrics, len(decl))
	for _, d := range decl {
		m[d.Name] = value{Unit: d.Unit}
	}
	return m
}

// set records v under a declared name; an undeclared name is a harness
// bug, not an input error.
func (m metrics) set(name string, v float64) {
	d, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	m[name] = value{Value: v, Unit: d.Unit}
}
