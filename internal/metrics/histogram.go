package metrics

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed histogram of non-negative int64 values in the
// spirit of HDR histograms: each power-of-two octave is split into 16
// sub-buckets, giving ~6% relative precision while keeping recording a few
// shifts and an add. It backs both the latency quantiles and the
// progressiveness curves without per-match allocation.
type Histogram struct {
	counts [64 * subBuckets]int64
	total  int64
	maxV   int64
}

const subBuckets = 16

// bucketMask keeps bucket indices provably inside the counts array;
// bucketOf never exceeds it, so masking changes no index.
const bucketMask = len(Histogram{}.counts) - 1

// bucketOf maps a value to its bucket index. Every per-match recording
// loop calls it, so it must stay inlinable.
//
//iawj:inline
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v) // exact buckets for tiny values
	}
	// Position of the highest set bit, branch-free via math/bits (the
	// hardware LZCNT/CLZ instruction on amd64/arm64): Record sits on the
	// match path of every algorithm, so this beats a shift loop that costs
	// up to 63 iterations for small values.
	u := uint64(v)
	msb := 63 - bits.LeadingZeros64(u)
	sub := (u >> (uint(msb) - 4)) & (subBuckets - 1)
	return (msb-3)*subBuckets + int(sub)
}

// bucketLow returns a representative (lower-bound) value for bucket i,
// inverse of bucketOf up to bucket granularity.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	msb := i/subBuckets + 3
	sub := i % subBuckets
	return (1 << uint(msb)) | int64(sub)<<(uint(msb)-4)
}

// Record adds n observations of value v (negative values clamp to 0).
func (h *Histogram) Record(v, n int64) {
	if n <= 0 {
		return
	}
	h.add(max(v, 0), n)
}

// add is Record for v >= 0 and n > 0, small enough to inline into the
// once-per-block settling of the match recorders.
func (h *Histogram) add(v, n int64) {
	h.counts[bucketOf(v)&bucketMask] += n
	h.total += n
	if v > h.maxV {
		h.maxV = v
	}
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.maxV }

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.maxV > h.maxV {
		h.maxV = o.maxV
	}
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1): the
// smallest recorded value v such that at least ceil(q*total) observations
// are <= v. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketLow(i)
			if v > h.maxV {
				v = h.maxV
			}
			return v
		}
	}
	return h.maxV
}

// CumulativePoint is one sample of a cumulative distribution: by value V,
// Frac of all observations had occurred.
type CumulativePoint struct {
	V    int64
	Frac float64
}

// CDF returns the non-empty cumulative distribution points, used for the
// progressiveness curves (cumulative percent of matches over elapsed time).
func (h *Histogram) CDF() []CumulativePoint {
	if h.total == 0 {
		return nil
	}
	var out []CumulativePoint
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		v := bucketLow(i)
		if v > h.maxV {
			v = h.maxV
		}
		out = append(out, CumulativePoint{V: v, Frac: float64(cum) / float64(h.total)})
	}
	return out
}

// ValueAtFrac returns the smallest recorded value by which at least frac of
// observations had occurred — e.g. the time to deliver the first 50% of
// matches (Section 5.2's progressiveness comparison).
func (h *Histogram) ValueAtFrac(frac float64) int64 {
	return h.Quantile(frac)
}
