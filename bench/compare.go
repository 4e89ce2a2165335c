package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// resultSet is one side of a comparison: each end-to-end metric's values
// by workload, from the untraced passes of its result files, and the
// simulated digests every pass reported, by workload and seed.
type resultSet struct {
	values  map[string]map[string][]float64
	digests map[string]map[string]bool
}

func loadSet(list string) (*resultSet, error) {
	rs := &resultSet{values: make(map[string]map[string][]float64), digests: make(map[string]map[string]bool)}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range f.Passes {
			key := fmt.Sprintf("%s seed %d", p.Workload, p.Seed)
			if rs.digests[key] == nil {
				rs.digests[key] = make(map[string]bool)
			}
			rs.digests[key][p.Digest] = true
			if p.Trace {
				continue
			}
			if rs.values[p.Workload] == nil {
				rs.values[p.Workload] = make(map[string][]float64)
			}
			for name, m := range p.Metrics {
				rs.values[p.Workload][name] = append(rs.values[p.Workload][name], m.Value)
			}
		}
	}
	return rs, nil
}

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// verdict judges set b against base set a on metric d. The change is how
// much worse b's median is than a's, and the spread the wider of the two
// sets' interquartile ranges, both as a share of a's median (in the
// metric's own unit when the bound is absolute). A spread wider than the
// bound leaves the comparison unresolved, unless every b run is better
// than every a run. With a zero bound the metric is deterministic: any
// spread is unresolved and any change counts.
func verdict(d metricDef, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = mb - ma
	if d.Higher {
		change = -change
	}
	spread := math.Max(iqr(a), iqr(b))
	if !d.Abs && ma != 0 {
		change /= math.Abs(ma)
		spread /= math.Abs(ma)
	}
	switch {
	case spread > d.Bound:
		if allBetter(d, a, b) {
			return change, verdictImproved
		}
		return change, verdictUnresolved
	case change > d.Bound:
		return change, verdictRegressed
	case -change > d.Bound:
		return change, verdictImproved
	}
	return change, verdictOK
}

func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if d.Higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runCompare prints, for every workload and end-to-end metric both sets
// measured, each set's median and quartiles and the verdict against the
// metric's bound, then whether every pass of a workload and seed reported
// the same simulated digest. It fails when a metric regressed or a digest
// differs.
func runCompare(listA, listB string, stdout, stderr io.Writer) int {
	a, err := loadSet(listA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(listB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-15s %-27s %-9s %-32s %-32s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[w.name][d.Name], b.values[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, v := verdict(d, va, vb)
			if v == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(stdout, "%-15s %-27s %-9s %-32s %-32s %9s %7s  %s\n",
				w.name, d.Name, d.Unit, summary(va), summary(vb), share(d, change), share(d, d.Bound), v)
		}
	}
	keys := make(map[string]bool)
	for k := range a.digests {
		keys[k] = true
	}
	for k := range b.digests {
		keys[k] = true
	}
	sortedKeys := make([]string, 0, len(keys))
	for k := range keys {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	for _, k := range sortedKeys {
		var all []string
		for d := range a.digests[k] {
			all = append(all, d)
		}
		for d := range b.digests[k] {
			if !a.digests[k][d] {
				all = append(all, d)
			}
		}
		sort.Strings(all)
		if len(all) == 1 {
			fmt.Fprintf(stdout, "sim_digest %-28s identical in every pass: %s\n", k, all[0])
			continue
		}
		status = 1
		fmt.Fprintf(stdout, "sim_digest %-28s DIFFERS across passes: %s\n", k, strings.Join(all, " "))
	}
	return status
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}

// share renders a change or bound: a percentage for relative bounds, the
// metric's own unit for absolute ones.
func share(d metricDef, x float64) string {
	if d.Abs {
		return fmt.Sprintf("%+.3g", x)
	}
	return fmt.Sprintf("%+.2f%%", 100*x)
}
