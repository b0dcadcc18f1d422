package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// series collects one end-to-end metric's values over the untraced runs
// of a workload.
func series(runs []run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spreadOf is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median. It needs two values.
func spreadOf(xs []float64) (float64, bool) {
	if len(xs) < 2 {
		return 0, false
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2), true
}

// printRepeat prints, for each end-to-end metric of a repeated workload,
// median, quartiles and spread against the metric's bound.
func printRepeat(sp *spec, workload string, runs []run) {
	for _, d := range sp.EndToEnd {
		xs := series(runs, workload, d.Name)
		s, ok := spreadOf(xs)
		if !ok {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		mark := "steady"
		if s > d.Bound/3 {
			mark = "wide" // the benchmark aims for a third of the bound
		}
		fmt.Printf("%s %s n=%d median %.6g q1 %.6g q3 %.6g spread %.4f bound %.2f %s\n",
			workload, d.Name, len(xs), q2, q1, q3, s, d.Bound, mark)
	}
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians, how much worse B is than A as a share of A, the bound, and a
// verdict: worse (beyond the bound), unresolved (either side's spread is
// wider than the bound, so the runs cannot tell) or ok.
func compareFiles(sp *spec, pathA, pathB string) error {
	load := func(path string) ([]run, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return f.Runs, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	for _, w := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			xa, xb := series(a, w.Name, d.Name), series(b, w.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			sa, okA := spreadOf(xa)
			sb, okB := spreadOf(xb)
			switch {
			case (okA && sa > d.Bound) || (okB && sb > d.Bound):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			}
			fmt.Printf("%s %s A %.6g B %.6g %s worse-by %+.4f bound %.2f %s\n",
				w.Name, d.Name, ma, mb, d.Unit, worse, d.Bound, verdict)
		}
	}
	return nil
}
