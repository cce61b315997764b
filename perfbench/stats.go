package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// groupedMedian is the median of integer-valued data, interpolated inside
// the median's unit-wide class [v-0.5, v+0.5): with F values below v and f
// equal to it, the median is v - 0.5 + (n/2 - F)/f. Per-window latencies
// are whole simulated milliseconds, and an eager window's p50 is only 3 to
// 6 of them, so the plain median jumps by 20-33% when a few windows move
// across a step; the interpolated median moves with them smoothly and stays
// as robust to outlying windows. One value is its own grouped median; 0
// for an empty slice.
func groupedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := float64(len(s)) / 2
	for lo := 0; lo < len(s); {
		hi := lo
		for hi < len(s) && s[hi] == s[lo] {
			hi++
		}
		if float64(hi) >= half {
			return s[lo] - 0.5 + (half-float64(lo))/float64(hi-lo)
		}
		lo = hi
	}
	return s[len(s)-1] // unreachable: the last class always reaches half
}

// geomean is the geometric mean of xs; 0 when xs is empty or any value is
// not positive, so a family with a zero member never reads as healthy.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// simMsToUs converts simulated milliseconds into real microseconds at
// nsPerSimMs real nanoseconds per simulated millisecond.
func simMsToUs(simMs, nsPerSimMs float64) float64 { return simMs * nsPerSimMs / 1e3 }

// interval is a half-open [start, end) stretch of benchmark time in ns.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of [start, end) that the
// union of its children covers. Children may overlap each other (parallel
// workers) and may stick out of the parent; only covered parent time is
// subtracted, and each instant is subtracted once.
func selfTime(start, end int64, children []interval) int64 {
	if end <= start {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, start), min(c.end, end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start > curE:
			covered += curE - curS
			curS, curE = c.start, c.end
		case c.end > curE:
			curE = c.end
		}
	}
	if open {
		covered += curE - curS
	}
	return end - start - covered
}
