// Package metrics implements the measurement harness of the study: the
// three performance metrics of Section 4.1 (throughput, quantile worst-case
// latency, progressiveness), the six-phase execution-time breakdown of
// Section 5.3, and the memory-consumption timeline of Figure 19b.
//
// Every worker thread owns a ThreadMetrics with no shared state on the hot
// path; the Collector merges them when the run finishes. Matches are
// recorded into log-bucketed histograms, so runs producing hundreds of
// millions of matches need constant memory.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// Phase identifies one of the six execution phases of the breakdown.
type Phase int

// The phases of Section 5.3: wait for input arrival, partition workloads
// among threads, build hash tables or sort tuples, merge sorted runs,
// probe/match, and everything else.
const (
	PhaseWait Phase = iota
	PhasePartition
	PhaseBuildSort
	PhaseMerge
	PhaseProbe
	PhaseOther
	numPhases
)

var phaseNames = [numPhases]string{"wait", "partition", "build/sort", "merge", "probe", "others"}

// String names the phase as in Figure 7.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "?"
	}
	return phaseNames[p]
}

// Phases lists all phases in display order.
func Phases() []Phase {
	return []Phase{PhaseWait, PhasePartition, PhaseBuildSort, PhaseMerge, PhaseProbe, PhaseOther}
}

// ThreadMetrics accumulates one worker's timings and matches. It must only
// be used by its owning goroutine.
type ThreadMetrics struct {
	phaseNs   [numPhases]int64
	cur       Phase
	curActive bool
	curStart  time.Time

	matches     int64
	latency     Histogram // latency in simulated ms
	progress    Histogram // match emission time in simulated ms
	lastMatchMs int64

	_ [8]int64 // pad to keep adjacent workers off one cache line
}

// Begin switches the worker into phase p, closing the previous phase.
func (t *ThreadMetrics) Begin(p Phase) {
	now := time.Now()
	if t.curActive {
		t.phaseNs[t.cur] += now.Sub(t.curStart).Nanoseconds()
	}
	t.cur = p
	t.curStart = now
	t.curActive = true
}

// End closes the current phase.
func (t *ThreadMetrics) End() {
	if t.curActive {
		t.phaseNs[t.cur] += time.Since(t.curStart).Nanoseconds()
		t.curActive = false
	}
}

// AddPhaseNs credits d nanoseconds to phase p directly; used when a worker
// measures a batch itself rather than via Begin/End.
func (t *ThreadMetrics) AddPhaseNs(p Phase, d int64) { t.phaseNs[p] += d }

// Matches records n join matches generated at simulated time nowMs whose
// last corresponding input arrived at lastInputMs. Latency follows the
// paper: emission time minus the larger input arrival timestamp.
func (t *ThreadMetrics) Matches(n int64, nowMs, lastInputMs int64) {
	if n <= 0 {
		return
	}
	t.matches += n
	lat := nowMs - lastInputMs
	if lat < 0 {
		lat = 0
	}
	t.latency.Record(lat, n)
	t.progress.Record(nowMs, n)
	if nowMs > t.lastMatchMs {
		t.lastMatchMs = nowMs
	}
}

// MatchPairs records the len(ps)/2 matches held as consecutive (r, s)
// pairs in ps (either orientation; a trailing odd tuple is ignored), all
// emitted at nowMs. It is the block form of calling Matches(1, nowMs,
// max(r.TS, s.TS)) once per pair and leaves the same state.
//
//iawj:hotpath
func (t *ThreadMetrics) MatchPairs(ps []tuple.Tuple, nowMs int64) {
	counts := &t.latency.counts
	minLast := int64(math.MaxInt64)
	var n int64
	for ; len(ps) >= 2; ps = ps[2:] {
		last := max(ps[0].TS, ps[1].TS)
		minLast = min(minLast, last)
		counts[bucketOf(max(nowMs-last, 0))&bucketMask]++
		n++
	}
	t.settle(n, nowMs, minLast)
}

// MatchRect records the len(rs)·len(ss) matches of one duplicate-key run
// pair, every r in rs against every s in ss, all emitted at nowMs. It
// leaves the same state as MatchPairs over the expanded pairs.
//
//iawj:hotpath
func (t *ThreadMetrics) MatchRect(rs, ss []tuple.Tuple, nowMs int64) {
	counts := &t.latency.counts
	minLast := int64(math.MaxInt64)
	for _, r := range rs {
		for _, s := range ss {
			last := max(r.TS, s.TS)
			minLast = min(minLast, last)
			counts[bucketOf(max(nowMs-last, 0))&bucketMask]++
		}
	}
	t.settle(int64(len(rs))*int64(len(ss)), nowMs, minLast)
}

// settle books the per-block totals of n matches emitted at nowMs whose
// latency counts are already in the histogram: the match and latency
// totals, the latency max (from the smallest last input), the progress
// histogram and the last match time.
func (t *ThreadMetrics) settle(n, nowMs, minLast int64) {
	if n <= 0 {
		return
	}
	t.matches += n
	t.latency.total += n
	if lat := max(nowMs-minLast, 0); lat > t.latency.maxV {
		t.latency.maxV = lat
	}
	t.progress.add(max(nowMs, 0), n)
	if nowMs > t.lastMatchMs {
		t.lastMatchMs = nowMs
	}
}

// MatchCount returns the matches recorded so far.
func (t *ThreadMetrics) MatchCount() int64 { return t.matches }

// Collector owns the per-thread metrics of one run plus run-wide state.
type Collector struct {
	threads []ThreadMetrics

	memCur  atomic.Int64
	memPeak atomic.Int64

	// memMu serializes the sampler; pad it off the line of the atomics
	// the worker threads hammer.
	_          [24]byte
	memMu      sync.Mutex
	memSamples []MemSample
}

// MemSample is one point of the memory-over-time curve (Figure 19b).
type MemSample struct {
	Ms    int64
	Bytes int64
}

// NewCollector prepares metrics for n worker threads.
func NewCollector(n int) *Collector {
	if n < 1 {
		n = 1
	}
	return &Collector{threads: make([]ThreadMetrics, n)}
}

// T returns the metrics handle of worker tid.
func (c *Collector) T(tid int) *ThreadMetrics { return &c.threads[tid] }

// Threads returns the number of worker slots.
func (c *Collector) Threads() int { return len(c.threads) }

// MemAdd adjusts the logical memory footprint by delta bytes and keeps the
// peak. Safe for concurrent use.
func (c *Collector) MemAdd(delta int64) {
	v := c.memCur.Add(delta)
	for {
		p := c.memPeak.Load()
		if v <= p || c.memPeak.CompareAndSwap(p, v) {
			return
		}
	}
}

// MemSampleNow appends a (time, bytes) sample for the consumption curve.
func (c *Collector) MemSampleNow(nowMs int64) {
	b := c.memCur.Load()
	c.memMu.Lock()
	c.memSamples = append(c.memSamples, MemSample{Ms: nowMs, Bytes: b})
	c.memMu.Unlock()
}

// Result is the merged outcome of one experiment run.
type Result struct {
	Algorithm string
	Threads   int
	Inputs    int64
	Matches   int64

	// WindowID / WindowStartMs / WindowEndMs identify the source window
	// when the run is one window of a windowed sweep (stream.go); all
	// zero for single-window joins. The journal's window records carry
	// them downstream.
	WindowID      int
	WindowStartMs int64
	WindowEndMs   int64

	// LastMatchMs is the simulated timestamp of the final match; the
	// paper's throughput definition divides total inputs by it.
	LastMatchMs int64
	// ThroughputTPM is inputs per simulated millisecond.
	ThroughputTPM float64
	// LatencyP95Ms is the 95th-percentile worst-case processing latency.
	LatencyP95Ms int64
	// LatencyP50Ms / LatencyP99Ms / LatencyMaxMs complete the latency
	// picture.
	LatencyP50Ms int64
	LatencyP99Ms int64
	LatencyMaxMs int64
	// Progress is the cumulative-percent-of-matches curve.
	Progress []CumulativePoint
	// PhaseNs sums each phase's time across threads.
	PhaseNs [6]int64
	// WallNs is the end-to-end run time in real nanoseconds.
	WallNs int64
	// CPUUtil is busy (non-wait) thread time over threads × wall time.
	CPUUtil float64
	// MemPeakBytes and MemCurve describe logical memory consumption.
	MemPeakBytes int64
	MemCurve     []MemSample
}

// Snapshot merges all thread metrics into a Result. inputs is |R|+|S|.
func (c *Collector) Snapshot(algorithm string, inputs int64, wallNs int64) Result {
	var lat, prog Histogram
	res := Result{
		Algorithm: algorithm,
		Threads:   len(c.threads),
		Inputs:    inputs,
		WallNs:    wallNs,
	}
	var busy int64
	for i := range c.threads {
		t := &c.threads[i]
		t.End()
		res.Matches += t.matches
		if t.lastMatchMs > res.LastMatchMs {
			res.LastMatchMs = t.lastMatchMs
		}
		lat.Merge(&t.latency)
		prog.Merge(&t.progress)
		for p := 0; p < int(numPhases); p++ {
			res.PhaseNs[p] += t.phaseNs[p]
			if Phase(p) != PhaseWait {
				busy += t.phaseNs[p]
			}
		}
	}
	if res.LastMatchMs > 0 {
		res.ThroughputTPM = float64(inputs) / float64(res.LastMatchMs)
	} else if res.Matches > 0 {
		// All matches landed within the first millisecond.
		res.ThroughputTPM = float64(inputs)
	}
	res.LatencyP95Ms = lat.Quantile(0.95)
	res.LatencyP50Ms = lat.Quantile(0.50)
	res.LatencyP99Ms = lat.Quantile(0.99)
	res.LatencyMaxMs = lat.Max()
	res.Progress = prog.CDF()
	if wallNs > 0 && len(c.threads) > 0 {
		res.CPUUtil = float64(busy) / (float64(wallNs) * float64(len(c.threads)))
		if res.CPUUtil > 1 {
			res.CPUUtil = 1
		}
	}
	res.MemPeakBytes = c.memPeak.Load()
	c.memMu.Lock()
	res.MemCurve = append([]MemSample(nil), c.memSamples...)
	c.memMu.Unlock()
	return res
}

// TimeToFrac returns the simulated time by which frac of all matches had
// been delivered (e.g. 0.5 for the "first 50% of matches" comparisons).
func (r *Result) TimeToFrac(frac float64) int64 {
	for _, p := range r.Progress {
		if p.Frac >= frac {
			return p.V
		}
	}
	if n := len(r.Progress); n > 0 {
		return r.Progress[n-1].V
	}
	return 0
}
