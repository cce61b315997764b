// Package sortmerge provides the sorting and merging kernels of the
// sort-based join algorithms (MWay, MPass, PMJ).
//
// The paper's implementations use AVX-256 sorting networks and bitonic
// merge kernels (the avxsort routines of the Balkesen et al. benchmark).
// Go with only the standard library has no SIMD intrinsics, so the
// "vectorized" path is substituted with an LSD radix sort plus a
// branch-free merge — like the AVX kernels, both trade comparisons for
// predictable, bandwidth-bound data movement, preserving the experiment's
// contrast (Figure 21: cheaper sort, slightly cheaper merge) rather than
// absolute hardware speedups. The scalar path is a conventional
// comparison-based merge sort.
package sortmerge

import (
	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// tupleBytes is the logical size of a tuple for cache-simulation addresses.
const tupleBytes = 16

// SortByKey sorts rel by join key in place (ascending). With simd set the
// vectorized-substitute radix sort is used; otherwise a scalar merge sort.
// tr may be nil; when set, the sort's memory traffic feeds the cache
// simulator using base as this array's logical address.
func SortByKey(rel []tuple.Tuple, simd bool, tr cachesim.Tracer, base uint64) {
	if len(rel) < 2 {
		return
	}
	if simd {
		radixSort(rel, tr, base)
	} else {
		scalarSort(rel, tr, base)
	}
}

// keyRank maps an int32 key to a uint32 preserving signed order. Runs per
// comparison in every sort and merge loop; must stay inlinable
// (LINTING.md §inlinegate).
//
//iawj:inline
func keyRank(k int32) uint32 { return uint32(k) ^ 0x80000000 }

// KeyRank exposes the order-preserving key mapping so callers can compute
// range boundaries consistent with SortByKey's ordering.
func KeyRank(k int32) uint32 { return keyRank(k) }

// radixSort is the vectorized-path substitute: four 8-bit LSD passes over
// the key, ping-ponging between rel and a temporary buffer.
func radixSort(rel []tuple.Tuple, tr cachesim.Tracer, base uint64) {
	n := len(rel)
	tmp := make([]tuple.Tuple, n)
	src, dst := rel, tmp
	srcBase, dstBase := base, base+uint64(n)*tupleBytes
	var counts [256]int
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range src {
			counts[(keyRank(src[i].Key)>>shift)&0xff]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := range src {
			b := (keyRank(src[i].Key) >> shift) & 0xff
			dst[counts[b]] = src[i]
			if tr != nil {
				tr.Access(srcBase + uint64(i)*tupleBytes)
				tr.Access(dstBase + uint64(counts[b])*tupleBytes)
			}
			counts[b]++
		}
		if tr != nil {
			tr.Op(uint64(n) * 2)
		}
		src, dst = dst, src
		srcBase, dstBase = dstBase, srcBase
	}
	// 4 passes: result landed back in rel (even number of swaps).
	if &src[0] != &rel[0] {
		copy(rel, src)
	}
}

// scalarSort is a conventional top-down merge sort with a branchy merge.
func scalarSort(rel []tuple.Tuple, tr cachesim.Tracer, base uint64) {
	tmp := make([]tuple.Tuple, len(rel))
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo < 24 {
			insertionSort(rel[lo:hi], tr, base+uint64(lo)*tupleBytes)
			return
		}
		mid := (lo + hi) / 2
		rec(lo, mid)
		rec(mid, hi)
		copy(tmp[lo:hi], rel[lo:hi])
		i, j := lo, mid
		for k := lo; k < hi; k++ {
			if tr != nil {
				tr.Access(base + uint64(k)*tupleBytes)
				tr.Op(3)
			}
			if i < mid && (j >= hi || keyRank(tmp[i].Key) <= keyRank(tmp[j].Key)) {
				rel[k] = tmp[i]
				i++
			} else {
				rel[k] = tmp[j]
				j++
			}
		}
	}
	rec(0, len(rel))
}

func insertionSort(a []tuple.Tuple, tr cachesim.Tracer, base uint64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && keyRank(a[j].Key) > keyRank(x.Key) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
		if tr != nil {
			tr.Access(base + uint64(i)*tupleBytes)
			tr.Op(uint64(i-j) + 1)
		}
	}
}

// Merge merges two key-sorted runs into out (which must have capacity for
// both). With simd the branch-free selection variant is used.
func Merge(a, b, out []tuple.Tuple, simd bool) []tuple.Tuple {
	out = out[:0]
	i, j := 0, 0
	if simd {
		// Branch-free core loop: select via arithmetic on the
		// comparison result, mimicking bitonic-merge data movement.
		for i < len(a) && j < len(b) {
			ka, kb := keyRank(a[i].Key), keyRank(b[j].Key)
			takeA := 0
			if ka <= kb {
				takeA = 1
			}
			if takeA == 1 {
				out = append(out, a[i])
			} else {
				out = append(out, b[j])
			}
			i += takeA
			j += 1 - takeA
		}
	} else {
		for i < len(a) && j < len(b) {
			if keyRank(a[i].Key) <= keyRank(b[j].Key) {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MultiwayMerge merges k key-sorted runs in a single pass using a loser
// tree-style selection (MWay's shuffling/merging phase). Empty runs are
// skipped.
func MultiwayMerge(runs []tuple.Relation, simd bool) []tuple.Tuple {
	live := make([][]tuple.Tuple, 0, len(runs))
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		out := make([]tuple.Tuple, len(live[0]))
		copy(out, live[0])
		return out
	}
	out := make([]tuple.Tuple, 0, total)
	// Simple binary-heap k-way merge; k is small (== thread count).
	type head struct {
		run int
		pos int
	}
	heap := make([]head, len(live))
	for i := range live {
		heap[i] = head{run: i}
	}
	key := func(h head) uint32 { return keyRank(live[h.run][h.pos].Key) }
	less := func(x, y head) bool { return key(x) < key(y) }
	// heapify
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(heap[l], heap[m]) {
				m = l
			}
			if r < n && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for n > 0 {
		h := heap[0]
		out = append(out, live[h.run][h.pos])
		h.pos++
		if h.pos < len(live[h.run]) {
			heap[0] = h
		} else {
			n--
			heap[0] = heap[n]
		}
		down(0, n)
	}
	return out
}

// TwoWayMergePasses merges runs with successive pairwise merges, MPass's
// multi-iteration strategy that scales better than a single wide multi-way
// merge for large inputs.
func TwoWayMergePasses(runs []tuple.Relation, simd bool) []tuple.Tuple {
	live := make([][]tuple.Tuple, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	merged := false
	for len(live) > 1 {
		merged = true
		next := make([][]tuple.Tuple, 0, (len(live)+1)/2)
		for i := 0; i+1 < len(live); i += 2 {
			out := make([]tuple.Tuple, 0, len(live[i])+len(live[i+1]))
			next = append(next, Merge(live[i], live[i+1], out, simd))
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	if !merged {
		// Single original run: return a copy so callers own the result.
		out := make([]tuple.Tuple, len(live[0]))
		copy(out, live[0])
		return out
	}
	return live[0]
}

// JoinEmit receives every matching pair found by MergeJoin.
type JoinEmit func(r, s tuple.Tuple)

// MergeJoin performs a single-pass merge join over two key-sorted inputs,
// expanding duplicate-key runs as a nested loop over the run pair (the
// behaviour whose cache friendliness under high duplication Section 5.4
// highlights). It returns the number of matches. emit may be nil to count
// only. tr may be nil. It is MergeJoinRuns with the run pairs expanded
// into single pairs, r outer and s inner.
func MergeJoin(r, s []tuple.Tuple, emit JoinEmit, tr cachesim.Tracer, baseR, baseS uint64) int64 {
	if emit == nil {
		return MergeJoinRuns(r, s, nil, tr, baseR, baseS)
	}
	return MergeJoinRuns(r, s, func(rs, ss []tuple.Tuple) {
		for _, a := range rs {
			for _, b := range ss {
				emit(a, b)
			}
		}
	}, tr, baseR, baseS)
}

// MergeJoinRuns is the merge join over two key-sorted inputs. Instead of
// single pairs it hands run each matching duplicate-key run pair: every
// tuple of rs matches every tuple of ss, and successive calls cover
// ascending keys. It returns the number of matches. run may be nil to
// count only. tr may be nil.
//
//iawj:hotpath
func MergeJoinRuns(r, s []tuple.Tuple, run func(rs, ss []tuple.Tuple), tr cachesim.Tracer, baseR, baseS uint64) int64 {
	var matches int64
	i, j := 0, 0
scan:
	for i < len(r) && j < len(s) {
		if i < 0 || j < 0 {
			// Unreachable: both cursors only ever advance. Restated because
			// the prover loses the lower bound through the run-expansion
			// phis, and the loads below need it (LINTING.md §BCE).
			break
		}
		kr, ks := keyRank(r[i].Key), keyRank(s[j].Key)
		if tr != nil {
			tr.Access(baseR + uint64(i)*tupleBytes)
			tr.Access(baseS + uint64(j)*tupleBytes)
			tr.Op(2)
		}
		switch {
		case kr < ks:
			i++
		case kr > ks:
			j++
		default:
			// Find the duplicate run on both sides.
			i2 := i
			for i2 < len(r) && r[i2].Key == r[i].Key {
				i2++
			}
			j2 := j
			for j2 < len(s) && s[j2].Key == s[j].Key {
				j2++
			}
			matches += int64(i2-i) * int64(j2-j)
			if i2 > len(r) || j2 > len(s) || i2 < i || j2 < j {
				// Unreachable: the scans start at the cursors and stop at
				// the lengths. Restated because the prover loses both
				// bounds through the scan phis, and the run slices below
				// need them.
				break scan
			}
			if run != nil {
				//lint:allow hotpathalloc one indirect call per run pair, not per match: the callee expands the rectangle
				run(r[i:i2], s[j:j2])
			}
			if tr != nil {
				tr.Op(uint64(i2-i) * uint64(j2-j))
				// Sequential revisits of the run: one access per line's
				// worth of tuples approximates the cache reuse benefit.
				for a := i; a < i2; a += 4 {
					tr.Access(baseR + uint64(a)*tupleBytes)
				}
				for b := j; b < j2; b += 4 {
					tr.Access(baseS + uint64(b)*tupleBytes)
				}
			}
			i, j = i2, j2
		}
	}
	return matches
}

// Sorted reports whether rel is sorted by key (test helper shared by
// packages).
func Sorted(rel []tuple.Tuple) bool {
	for i := 1; i < len(rel); i++ {
		if keyRank(rel[i].Key) < keyRank(rel[i-1].Key) {
			return false
		}
	}
	return true
}
