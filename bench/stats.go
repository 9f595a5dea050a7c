package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads computed
// here match a spread computed from the same values with that function.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailCandidates are the percentiles the tail rule chooses from.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// samplesBeyond is how many of n samples lie above the p-th percentile's
// rank.
func samplesBeyond(n int, p float64) int {
	// The epsilon keeps float rounding (10000*99.9/100 = 9990.000000000002)
	// from costing a sample.
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// ruleTail returns the highest candidate percentile with at least ten of n
// samples beyond it, the tail a timing should be reported at; ok is false
// when not even the median has ten samples beyond it.
func ruleTail(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if samplesBeyond(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// usage is the process's CPU time and peak resident set.
type usage struct {
	cpu     time.Duration // user + system
	peakRSS int64         // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in kilobytes.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), peakRSS: int64(ru.Maxrss) * 1024}
}
