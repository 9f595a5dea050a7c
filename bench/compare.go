package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json the comparison reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (benchDef, error) {
	var def benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// Verdicts of a comparison of B (the change) against A (the parent).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictIdentical  = "identical"
	verdictNoChange   = "no change shown"
)

// comparison is one metric's two samples summarized.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// compareSamples judges b against a for a metric with the given direction.
// Runs pair up in order. B is better when it wins at least nine tenths of
// the pairs (ties count for neither) and its median improves on A's by
// more than A's interquartile range, or when every B run beats every A
// run. With a bound, B is worse when its median is worse than A's by more
// than bound times A's median; when either side's interquartile range
// exceeds that share of its median the comparison is unresolved instead.
// Without a bound (per-layer metrics) worse mirrors better.
func compareSamples(a, b []float64, higherBetter bool, bound float64, bounded bool) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.pairs = min(len(a), len(b))
	if c.pairs == 0 {
		c.verdict = verdictUnresolved
		return c
	}
	beats := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	losses := 0
	for i := 0; i < c.pairs; i++ {
		switch {
		case beats(b[i], a[i]):
			c.wins++
		case beats(a[i], b[i]):
			losses++
		}
	}
	gain := c.medB - c.medA
	if !higherBetter {
		gain = -gain
	}
	iqrA := c.q3A - c.q1A
	minA, maxA := extremes(a)
	minB, maxB := extremes(b)
	allBetter, allWorse := minB > maxA, maxB < minA
	if !higherBetter {
		allBetter, allWorse = maxB < minA, minB > maxA
	}
	switch {
	case minA == maxA && minB == maxB && minA == minB:
		c.verdict = verdictIdentical
	case allBetter || (gain > iqrA && c.wins*10 >= 9*c.pairs):
		c.verdict = verdictBetter
	case !bounded && (allWorse || (-gain > iqrA && losses*10 >= 9*c.pairs)):
		c.verdict = verdictWorse
	case !bounded:
		c.verdict = verdictNoChange
	case spread(c.q1A, c.q3A, c.medA) > bound || spread(c.q1B, c.q3B, c.medB) > bound:
		c.verdict = verdictUnresolved
	case -gain > bound*math.Abs(c.medA):
		c.verdict = verdictWorse
	default:
		c.verdict = verdictWithin
	}
	return c
}

// spread is the interquartile range as a share of the median.
func spread(q1, q3, med float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

func extremes(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, the pairs B won and the verdict. End-to-end metrics come from
// untraced runs and per-layer metrics from traced ones. It exits 1 when an
// end-to-end metric is worse or unresolved, when B failed more operations
// than A, or when the exact simulated counts of one seed differ.
func runCompare(defPath, aPath, bPath string, stdout, stderr io.Writer) int {
	def, err := readBenchDef(defPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	as, err := readReports(aPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bs, err := readReports(bPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var names []string
	seen := map[string]bool{}
	for _, rep := range append(append([]report(nil), as...), bs...) {
		if !seen[rep.Workload] {
			seen[rep.Workload] = true
			names = append(names, rep.Workload)
		}
	}
	bad := false
	fmt.Fprintf(stdout, "A = %s, B = %s\n", aPath, bPath)
	fmt.Fprintf(stdout, "%-14s %-34s %-34s %-34s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	row := func(wl, name string, c comparison, note string) {
		fmt.Fprintf(stdout, "%-14s %-34s %-34s %-34s %7s  %s%s\n", wl, name,
			fmt.Sprintf("%.6g [%.6g, %.6g]", c.medA, c.q1A, c.q3A),
			fmt.Sprintf("%.6g [%.6g, %.6g]", c.medB, c.q1B, c.q3B),
			fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict, note)
	}
	for _, wl := range names {
		ua, ta := pick(as, wl, false), pick(as, wl, true)
		ub, tb := pick(bs, wl, false), pick(bs, wl, true)
		fa, fb := failures(ua, ta), failures(ub, tb)
		verdict := "ok"
		if fb > fa {
			verdict, bad = verdictWorse, true
		}
		fmt.Fprintf(stdout, "%-14s %-34s %-34s %-34s %7s  %s\n", wl, "failed operations",
			fmt.Sprint(fa), fmt.Sprint(fb), "", verdict)
		if msg := countMismatch(append(ua, ta...), append(ub, tb...)); msg != "" {
			bad = true
			fmt.Fprintf(stdout, "%-14s %-34s %s\n", wl, "exact counts", msg)
		}
		if len(ua) > 0 || len(ub) > 0 {
			for _, m := range def.EndToEnd {
				c := compareSamples(values(ua, m.Name, false), values(ub, m.Name, false), m.Better == "higher", m.Bound, true)
				if c.verdict == verdictWorse || c.verdict == verdictUnresolved {
					bad = true
				}
				row(wl, m.Name, c, fmt.Sprintf(" (bound %.0f%%)", 100*m.Bound))
			}
		}
		if len(ta) > 0 || len(tb) > 0 {
			for _, m := range def.PerLayer {
				c := compareSamples(values(ta, m.Name, true), values(tb, m.Name, true), m.Better == "higher", 0, false)
				row(wl, m.Name, c, "")
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// pick returns one workload's runs of one mode, in file order.
func pick(reps []report, wl string, traced bool) []report {
	var out []report
	for _, r := range reps {
		if r.Workload == wl && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func failures(sets ...[]report) int {
	n := 0
	for _, reps := range sets {
		for _, r := range reps {
			n += r.Failed
		}
	}
	return n
}

// values collects a metric across runs: end-to-end values from EndToEnd,
// per-layer ones from Metrics.
func values(reps []report, name string, perLayer bool) []float64 {
	var out []float64
	for _, r := range reps {
		src := r.EndToEnd
		if perLayer {
			src = r.Metrics
		}
		if m, ok := src[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// countMismatch compares the exact simulated counts of runs that share a
// seed, on either side and across sides; it returns "" when every such
// pair agrees.
func countMismatch(a, b []report) string {
	first := map[uint64]report{}
	pairs := 0
	var diffs []string
	for _, r := range append(append([]report(nil), a...), b...) {
		if len(r.Counts) == 0 {
			continue
		}
		f, ok := first[r.Seed]
		if !ok {
			first[r.Seed] = r
			continue
		}
		pairs++
		keys := make([]string, 0, len(r.Counts))
		for k := range r.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if f.Counts[k] != r.Counts[k] {
				diffs = append(diffs, fmt.Sprintf("seed %d %s: %d vs %d", r.Seed, k, f.Counts[k], r.Counts[k]))
			}
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("differ in %d places over %d same-seed pairs: %v", len(diffs), pairs, diffs)
}
