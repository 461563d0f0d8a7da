package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one BENCHMARK.json end-to-end entry.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

func loadRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

type cmpRow struct {
	workload, metric string
	a, b             float64 // medians
	change           float64 // B vs A, relative to A, positive = worse
	verdict          string
}

// compareRecords compares untraced records B against A per (workload,
// end-to-end metric). Host metrics compare medians against the metric's
// bound and are unresolved when either side's quartile spread exceeds
// it, unless every B run beats every A run. Exact metrics compare the
// runs of every seed both sides measured and must be identical; any
// difference counts at once. Records from different host fingerprints
// are refused.
func compareRecords(a, b []record, bounds map[string]bound) ([]cmpRow, error) {
	all := append(append([]record(nil), a...), b...)
	if len(all) == 0 {
		return nil, fmt.Errorf("no records")
	}
	for _, r := range all[1:] {
		if r.Host != all[0].Host {
			return nil, fmt.Errorf("host fingerprints differ: %+v vs %+v", all[0].Host, r.Host)
		}
	}
	group := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ga, gb := group(a), group(b)
	var names []string
	for wl := range ga {
		if _, ok := gb[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	var rows []cmpRow
	for _, wl := range names {
		for _, d := range endToEnd {
			bd := bounds[d.name] // unlisted exact metrics: bound 0
			rows = append(rows, compareMetric(wl, d, bd.Bound, ga[wl], gb[wl]))
		}
	}
	return rows, nil
}

func compareMetric(wl string, d metricDef, bnd float64, ra, rb []record) cmpRow {
	vals := func(rs []record) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[d.name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	xa, xb := vals(ra), vals(rb)
	row := cmpRow{workload: wl, metric: d.name, a: median(xa), b: median(xb)}
	// worseBy is the signed relative change of v against base (positive =
	// worse in the metric's direction).
	worseBy := func(base, v float64) float64 {
		if base == 0 {
			if v == base {
				return 0
			}
			base = 1
		}
		if d.better == "higher" {
			return (base - v) / math.Abs(base)
		}
		return (v - base) / math.Abs(base)
	}
	row.change = worseBy(row.a, row.b)
	if len(xa) == 0 || len(xb) == 0 {
		row.verdict = unresolved
		return row
	}
	if d.exact {
		row.verdict = exactVerdict(d, ra, rb, worseBy)
		if row.verdict != "" {
			return row
		}
	}
	spread := max(quartileSpread(xa), quartileSpread(xb))
	switch {
	case allBetter(xa, xb, d.better):
		row.verdict = better
	case spread > bnd:
		row.verdict = unresolved
	case row.change > bnd:
		row.verdict = worse
	case row.change < -bnd:
		row.verdict = better
	default:
		row.verdict = same
	}
	return row
}

// exactVerdict pairs the runs of each seed both sides measured: any
// worsening is worse, otherwise any improvement is better, otherwise
// same. It returns "" when no seed is shared.
func exactVerdict(d metricDef, ra, rb []record, worseBy func(base, v float64) float64) string {
	bySeed := map[uint64]float64{}
	for _, r := range ra {
		if v, ok := r.Metrics[d.name]; ok {
			bySeed[r.Seed] = v.Value
		}
	}
	shared, improved := 0, false
	for _, r := range rb {
		va, ok := bySeed[r.Seed]
		vb, okb := r.Metrics[d.name]
		if !ok || !okb {
			continue
		}
		shared++
		switch c := worseBy(va, vb.Value); {
		case c > 0:
			return worse
		case c < 0:
			improved = true
		}
	}
	switch {
	case shared == 0:
		return ""
	case improved:
		return better
	}
	return same
}

// allBetter reports whether every B value beats every A value.
func allBetter(xa, xb []float64, dir string) bool {
	for _, a := range xa {
		for _, b := range xb {
			if (dir == "higher" && b <= a) || (dir == "lower" && b >= a) {
				return false
			}
		}
	}
	return true
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method); 0 for fewer
// than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func runCompare(benchPath, pathA, pathB string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	a, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rows, err := compareRecords(a, b, bounds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: refusing to compare:", err)
		return 2
	}
	anyWorse := false
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %8s  %s\n", "workload", "metric", "A median", "B median", "worse by", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %+7.2f%%  %s\n", r.workload, r.metric, r.a, r.b, 100*r.change, r.verdict)
		anyWorse = anyWorse || r.verdict == worse
	}
	if anyWorse {
		return 1
	}
	return 0
}
