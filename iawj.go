// Package iawj is a Go reproduction of "Parallelizing Intra-Window Join on
// Multicores: An Experimental Study" (SIGMOD 2021).
//
// The intra-window join (IaWJ) joins two input streams over a single
// window. This package exposes the study's eight algorithms behind one
// API — four lazy relational joins (NPJ, PRJ, MWAY, MPASS) and four eager
// stream joins (SHJ/PMJ crossed with the JM/JB distribution schemes) —
// together with the paper's workload generators, performance metrics
// (throughput, quantile latency, progressiveness), and the Figure 4
// decision tree for choosing an algorithm.
//
// Quick start:
//
//	w := iawj.Micro(iawj.MicroConfig{RateR: 1600, RateS: 1600, WindowMs: 1000})
//	res, err := iawj.Join(w.R, w.S, iawj.Config{Algorithm: "SHJ_JM", Threads: 4})
//
// See examples/ for complete programs.
package iawj

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/lazy"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Tuple is one stream element {ts, key, payload}; see Definition 1.
type Tuple = tuple.Tuple

// Relation is a chronologically ordered list of tuples from one stream.
type Relation = tuple.Relation

// JoinResult is one output tuple; see Definition 2.
type JoinResult = tuple.JoinResult

// Result carries the merged metrics of one run: match count, throughput,
// latency quantiles, the progressiveness curve, the six-phase breakdown,
// and the memory timeline.
type Result = metrics.Result

// Config selects and tunes an algorithm for Join.
type Config struct {
	// Algorithm names one of Algorithms(): NPJ, PRJ, MWAY, MPASS,
	// SHJ_JM, SHJ_JB, PMJ_JM, PMJ_JB (or HANDSHAKE for the baseline).
	Algorithm string
	// Threads is the worker count; 0 uses GOMAXPROCS. Values above
	// MaxThreads are rejected with ErrTooManyThreads.
	Threads int
	// WindowMs is the window length w; 0 derives it from the inputs.
	WindowMs int64
	// NsPerSimMs scales simulated time (real nanoseconds per simulated
	// millisecond); 0 selects the default compression. Ignored with
	// AtRest.
	NsPerSimMs float64
	// AtRest disables arrival simulation: the whole input is available
	// instantly (static datasets).
	AtRest bool

	// Algorithm knobs of Section 5.5.
	RadixBits         int     // PRJ #r (default 10)
	SortStepFrac      float64 // PMJ δ (default 0.2)
	GroupSize         int     // JB g (default 1)
	PhysicalPartition bool    // eager value-vs-pointer passing
	SIMD              bool    // vectorized-substitute sort kernels
	BatchSize         int     // eager pull batch (default 64)
	SpillDir          string  // PMJ disk-spill directory ("" = in-memory runs)

	// Objective guides the ADAPTIVE dispatcher (see AdaptiveName); it is
	// ignored by the concrete algorithms.
	Objective Objective

	// Emit receives materialized join results; nil counts matches only.
	// Emit may be called concurrently from worker goroutines.
	Emit func(JoinResult)

	// Tracer feeds a cache simulation during profile runs; use
	// NewCacheSim. Profile runs should use Threads: 1.
	Tracer Tracer

	// Trace records per-worker phase spans into the recorder (see
	// NewTraceRecorder and OBSERVABILITY.md); nil disables tracing at
	// zero cost.
	Trace *TraceRecorder

	// Pool recycles per-window kernel state (hash tables, partitioner
	// scratch, match buffers) across joins sharing the pool. Create one
	// with NewStatePool and reuse it across the windows of a stream;
	// steady-state windows then run with zero kernel allocations
	// (PERFORMANCE.md). Nil allocates fresh state per join.
	Pool *StatePool

	// WrapClock, when non-nil, wraps the run's virtual time source
	// before any worker reads it. The conformance harness uses it to
	// inject deterministic schedule perturbation (clock.Perturb); see
	// TESTING.md. Most callers leave it nil.
	WrapClock func(ClockSource) ClockSource

	// Journal, when non-nil, receives the per-window run ledger: the
	// JoinWindowed* drivers append one iawj-journal/v2 window record per
	// completed window (OBSERVABILITY.md). Single-window Join calls
	// ignore it — their callers write run records directly.
	Journal *JournalWriter

	// Window tags this run with its windowed-sweep identity; the
	// JoinWindowed* drivers set it per window, other callers leave it
	// zero. The tag is stamped into Result.WindowID/WindowStartMs/
	// WindowEndMs.
	Window WindowTag
}

// MaxThreads is the largest Config.Threads a join accepts.
const MaxThreads = core.MaxThreads

// ErrTooManyThreads is returned, wrapped, by Join and the JoinWindowed*
// drivers when Config.Threads exceeds MaxThreads; match it with
// errors.Is.
var ErrTooManyThreads = core.ErrTooManyThreads

// WindowTag identifies the source window of a windowed-sweep run; see
// Config.Window.
type WindowTag = core.WindowTag

// JournalWriter appends iawj-journal/v2 JSONL records; see
// NewJournalWriter, Config.Journal, and OBSERVABILITY.md.
type JournalWriter = trace.JournalWriter

// NewJournalWriter wraps w in a concurrency-safe journal writer; each
// record is one JSON line.
func NewJournalWriter(w io.Writer) *JournalWriter { return trace.NewJournalWriter(w) }

// ClockSource is the virtual time source algorithms run against; see
// internal/clock and Config.WrapClock.
type ClockSource = clock.Source

// StatePool is the reusable per-window kernel state arena; see
// NewStatePool and PERFORMANCE.md. A StatePool is safe for concurrent use
// by the workers of one join and by concurrent joins.
type StatePool = pool.Pool

// NewStatePool returns an empty state pool for Config.Pool.
func NewStatePool() *StatePool { return pool.New() }

// TraceRecorder is the per-worker phase-span recorder; see NewTraceRecorder.
type TraceRecorder = trace.Recorder

// NewTraceRecorder prepares a span recorder for up to workers threads with
// spansPerWorker ring slots each (<= 0 selects the default capacity). Pass
// it as Config.Trace, then export with trace.WriteChrome or inspect
// Snapshot directly.
func NewTraceRecorder(workers, spansPerWorker int) *TraceRecorder {
	return trace.NewRecorder(workers, spansPerWorker)
}

// Tracer is the cache-simulation hook; see NewCacheSim.
type Tracer = cachesim.Tracer

// NewCacheSim returns a simulated three-level cache hierarchy shaped like
// the paper's evaluation platform, usable as Config.Tracer.
func NewCacheSim() *cachesim.Hierarchy {
	return cachesim.New(cachesim.DefaultConfig())
}

// NewAlgorithm instantiates a studied algorithm by its paper name.
func NewAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case "NPJ":
		return lazy.NPJ{}, nil
	case "NPJ_LF":
		// Ablation variant: CAS-based shared table instead of latches.
		return lazy.NPJ{LockFree: true}, nil
	case "PRJ":
		return lazy.PRJ{}, nil
	case "MWAY", "MWay":
		return lazy.MWay{}, nil
	case "MPASS", "MPass":
		return lazy.MPass{}, nil
	case "SHJ_JM":
		return eager.SHJ{JB: false}, nil
	case "SHJ_JB":
		return eager.SHJ{JB: true}, nil
	case "PMJ_JM":
		return eager.PMJ{JB: false}, nil
	case "PMJ_JB":
		return eager.PMJ{JB: true}, nil
	case "HANDSHAKE":
		return eager.Handshake{}, nil
	}
	return nil, fmt.Errorf("iawj: unknown algorithm %q (want one of %v)", name, Algorithms())
}

// Algorithms lists the eight studied algorithms in the paper's Table 2
// order.
func Algorithms() []string {
	return []string{"NPJ", "PRJ", "MWAY", "MPASS", "SHJ_JM", "SHJ_JB", "PMJ_JM", "PMJ_JB"}
}

// LazyAlgorithms lists the lazy subset.
func LazyAlgorithms() []string { return []string{"NPJ", "PRJ", "MWAY", "MPASS"} }

// EagerAlgorithms lists the eager subset.
func EagerAlgorithms() []string { return []string{"SHJ_JM", "SHJ_JB", "PMJ_JM", "PMJ_JB"} }

// Join runs the configured intra-window join over one window of r and s
// and returns the merged metrics. With Algorithm set to AdaptiveName the
// workload is profiled first and the decision tree picks the concrete
// algorithm (reported in Result.Algorithm).
func Join(r, s Relation, cfg Config) (Result, error) {
	if cfg.Algorithm == AdaptiveName {
		cfg.Algorithm, _ = resolveAdaptive(r, s, cfg)
	}
	alg, err := NewAlgorithm(cfg.Algorithm)
	if err != nil {
		return Result{}, err
	}
	windowMs := cfg.WindowMs
	if windowMs <= 0 && !cfg.AtRest {
		windowMs = r.MaxTS()
		if m := s.MaxTS(); m > windowMs {
			windowMs = m
		}
	}
	return core.Run(alg, r, s, windowMs, core.RunConfig{
		Threads:    cfg.Threads,
		NsPerSimMs: cfg.NsPerSimMs,
		AtRest:     cfg.AtRest,
		Knobs: core.Knobs{
			RadixBits:         cfg.RadixBits,
			SortStepFrac:      cfg.SortStepFrac,
			GroupSize:         cfg.GroupSize,
			PhysicalPartition: cfg.PhysicalPartition,
			SIMD:              cfg.SIMD,
			BatchSize:         cfg.BatchSize,
			SpillDir:          cfg.SpillDir,
		},
		Tracer:    cfg.Tracer,
		Trace:     cfg.Trace,
		Emit:      cfg.Emit,
		Pool:      cfg.Pool,
		WrapClock: cfg.WrapClock,
		Window:    cfg.Window,
	})
}

// ExpectedMatches computes the exact number of intra-window join matches
// by key-frequency multiplication — the ground truth the test suite checks
// every algorithm against.
func ExpectedMatches(r, s Relation) int64 {
	freq := make(map[int32]int64, len(r))
	for _, t := range r {
		freq[t.Key]++
	}
	var total int64
	for _, t := range s {
		total += freq[t.Key]
	}
	return total
}

// CollectResults is a convenience Emit sink that materializes all join
// results; use only when the expected match count is manageable.
type CollectResults struct {
	mu  chan struct{}
	out []JoinResult
}

// NewCollectResults returns an empty concurrent-safe result collector.
func NewCollectResults() *CollectResults {
	c := &CollectResults{mu: make(chan struct{}, 1)}
	c.mu <- struct{}{}
	return c
}

// Emit implements the Config.Emit contract.
func (c *CollectResults) Emit(jr JoinResult) {
	<-c.mu
	c.out = append(c.out, jr)
	c.mu <- struct{}{}
}

// Results returns the collected join output sorted by (key, ts) for
// deterministic comparison.
func (c *CollectResults) Results() []JoinResult {
	<-c.mu
	out := append([]JoinResult(nil), c.out...)
	c.mu <- struct{}{}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].PayloadR != out[j].PayloadR {
			return out[i].PayloadR < out[j].PayloadR
		}
		return out[i].PayloadS < out[j].PayloadS
	})
	return out
}
