// Package core is the heart of the study's benchmark framework: the
// execution context shared by all eight intra-window-join algorithms, the
// runner that drives a join over a simulated window, and the decision tree
// distilled from the evaluation (Figure 4).
//
// The paper's primary contribution is not a new join but the framework
// that puts lazy relational joins and eager stream joins on equal footing:
// one tuple model, one arrival simulation, one metrics harness. This
// package provides exactly that.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cachesim"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Approach classifies an algorithm's execution approach (Section 3).
type Approach int

// Lazy algorithms buffer the window then join; eager algorithms join
// aggressively on arrival.
const (
	Lazy Approach = iota
	Eager
)

func (a Approach) String() string {
	if a == Lazy {
		return "lazy"
	}
	return "eager"
}

// JoinMethod classifies the join method design aspect.
type JoinMethod int

// Hash- or sort-based matching.
const (
	HashJoin JoinMethod = iota
	SortJoin
)

func (m JoinMethod) String() string {
	if m == HashJoin {
		return "hash"
	}
	return "sort"
}

// Knobs carries the per-algorithm tuning parameters studied in Section 5.5.
type Knobs struct {
	// RadixBits is PRJ's #r (Figure 18). Zero selects the default (10,
	// the experimentally determined sweet spot on the paper's machine);
	// values above MaxRadixBits are rejected.
	RadixBits int
	// SortStepFrac is PMJ's δ as a fraction of the expected input per
	// stream (Figure 15). Zero selects the default 0.2 (20%).
	SortStepFrac float64
	// GroupSize is the JB scheme's g (Figure 16). Zero selects 1
	// (strict hash partitioning); g == Threads degenerates to JM.
	GroupSize int
	// PhysicalPartition makes the eager distribution pass tuple values
	// instead of pointers (Figure 17).
	PhysicalPartition bool
	// SIMD toggles the vectorized-substitute sort kernels (Figure 21).
	SIMD bool
	// BatchSize bounds how many tuples an eager worker pulls from one
	// stream before re-checking the other; default 64, values above
	// MaxBatchSize are rejected.
	BatchSize int
	// SpillDir, when non-empty, makes PMJ write sealed runs to disk in
	// this directory and re-read them during the merge phase — the
	// original disk-based PMJ behaviour.
	SpillDir string
}

func (k *Knobs) defaults() {
	if k.RadixBits <= 0 {
		k.RadixBits = 10
	}
	if k.SortStepFrac <= 0 {
		k.SortStepFrac = 0.2
	}
	if k.GroupSize <= 0 {
		k.GroupSize = 1
	}
	if k.BatchSize <= 0 {
		k.BatchSize = 64
	}
}

// WindowTag identifies the source window of a run inside a windowed
// sweep. The zero value means "not a windowed run" (or the first window
// starting at 0 — disambiguated by the driver that sets it).
type WindowTag struct {
	ID      int
	StartMs int64
	EndMs   int64
}

// ExecContext is everything an algorithm needs for one run.
type ExecContext struct {
	R, S     tuple.Relation
	WindowMs int64
	Threads  int
	// Window tags a windowed-sweep run with its window identity; the
	// per-window journal ledger and span analytics attribute through it.
	Window WindowTag
	Clock  clock.Source
	M      *metrics.Collector
	Knobs  Knobs
	// Tracer, when non-nil, feeds the cache simulator; profile runs are
	// single-threaded so the trace is deterministic.
	Tracer cachesim.Tracer
	// Trace, when non-nil, records per-worker phase spans (OBSERVABILITY.md)
	// through each worker's PhaseClock. Disabled tracing is free: the
	// clock holds a nil span handle whose methods are no-ops, so a
	// transition allocates nothing either way.
	Trace *trace.Recorder
	// Emit materializes join outputs; nil counts only (the paper
	// measures the join process, not downstream consumption). Emit may
	// be called concurrently from worker goroutines.
	Emit func(tuple.JoinResult)
	// Pool recycles per-window kernel state (hash tables, partitioner
	// scratch, match buffers) across windows; nil disables pooling, and
	// every pool method accepts the nil receiver, so algorithms call it
	// unconditionally (see internal/pool and PERFORMANCE.md).
	Pool *pool.Pool
}

// NowMs returns the current simulated time.
func (ctx *ExecContext) NowMs() int64 { return ctx.Clock.NowMs() }

// Avail reports whether a tuple with timestamp ts has arrived.
func (ctx *ExecContext) Avail(ts int64) bool { return ctx.Clock.Avail(ts) }

// WaitWindow blocks until the window has fully arrived, crediting the
// elapsed time to the wait phase of the worker's phase clock pc. Lazy
// algorithms call this before processing; the wait stretch stays open
// until their next Begin closes it. For data at rest it returns
// immediately and opens no phase.
func (ctx *ExecContext) WaitWindow(pc *PhaseClock) {
	if ctx.Clock.AtRest() {
		return
	}
	last := ctx.R.MaxTS()
	if s := ctx.S.MaxTS(); s > last {
		last = s
	}
	if ctx.WindowMs > last {
		last = ctx.WindowMs
	}
	pc.Begin(metrics.PhaseWait)
	for !ctx.Clock.Avail(last) {
		time.Sleep(50 * time.Microsecond)
	}
}

// Chunk returns the [lo, hi) bounds of thread tid's equisized portion of n
// items, the workload division used by the lazy algorithms.
//
//iawj:inline
func Chunk(n, threads, tid int) (lo, hi int) {
	lo = tid * n / threads
	hi = (tid + 1) * n / threads
	return lo, hi
}

// Algorithm is one of the eight studied intra-window-join algorithms.
type Algorithm interface {
	// Name is the paper's identifier, e.g. "NPJ" or "SHJ_JM".
	Name() string
	// Approach reports lazy or eager execution.
	Approach() Approach
	// Method reports hash- or sort-based matching.
	Method() JoinMethod
	// Run executes the join to completion.
	Run(ctx *ExecContext) error
}

// RunConfig configures one benchmark run.
type RunConfig struct {
	Threads int
	// NsPerSimMs scales simulated time: real nanoseconds per simulated
	// millisecond. Zero keeps the default compression (50µs per
	// simulated ms); use 1e6 for real time.
	NsPerSimMs float64
	// AtRest disables arrival simulation: all tuples are instantly
	// available (static datasets).
	AtRest bool
	Knobs  Knobs
	Tracer cachesim.Tracer
	// Trace records per-worker phase spans into the given recorder; the
	// run is tagged with the algorithm name via StartRun.
	Trace *trace.Recorder
	Emit  func(tuple.JoinResult)
	// Pool recycles per-window kernel state across runs; nil allocates
	// fresh state per run (the pre-pool behaviour).
	Pool *pool.Pool
	// Window tags the run with its windowed-sweep identity; stamped into
	// the Result so journal window records can be written downstream.
	Window WindowTag
	// WrapClock, when non-nil, wraps the run's time source before any
	// worker sees it. The conformance harness injects clock.Perturb here
	// to vary arrival schedules and goroutine interleavings without
	// touching algorithm code (see internal/oracle and TESTING.md).
	WrapClock func(clock.Source) clock.Source
}

// DefaultNsPerSimMs compresses one simulated millisecond into 50µs of real
// time so that a one-second window replays in 50ms of wall time.
const DefaultNsPerSimMs = 50e3

// ErrNoAlgorithm is returned by Run when alg is nil.
var ErrNoAlgorithm = errors.New("core: nil algorithm")

// ErrUnsortedInput is returned by Run for streaming inputs that are not
// time ordered: arrival gating walks each stream once in timestamp order,
// so an unsorted stream would silently hold back every tuple behind a
// late-timestamped one.
var ErrUnsortedInput = errors.New("core: streaming input is not time ordered")

// MaxThreads caps the worker count of one run. It is far above the core
// count of any single host the study targets, and it keeps the per-thread
// set-up, which for PRJ grows with the square of the thread count, to a
// fraction of a second: a 5-tuple join at 10000 threads took seconds.
const MaxThreads = 1024

// ErrTooManyThreads is returned for a worker count above MaxThreads.
var ErrTooManyThreads = errors.New("core: too many threads")

// CheckThreads rejects a worker count above MaxThreads; zero or less
// means GOMAXPROCS and passes.
func CheckThreads(n int) error {
	if n > MaxThreads {
		return fmt.Errorf("%w: %d exceeds the cap of %d", ErrTooManyThreads, n, MaxThreads)
	}
	return nil
}

// MaxRadixBits caps Knobs.RadixBits at the top of the Figure 18 sweep.
// PRJ's fan-out is 1<<RadixBits and every partitioner keeps per-partition
// state, so the fan-out grows memory exponentially; at 64 bits it wraps
// to 0 and partitioning indexes an empty histogram.
const MaxRadixBits = 18

// MaxBatchSize caps Knobs.BatchSize. Every eager worker preallocates its
// pull and match buffers at this size (four batches of 16-byte tuples,
// 1 MiB per worker at the cap), 256 times the default batch.
const MaxBatchSize = 1 << 14

// ErrKnobOutOfRange is returned for a Knobs value above its cap.
var ErrKnobOutOfRange = errors.New("core: knob out of range")

// Check rejects knob values above their caps. Zero and negative values
// select the defaults and pass.
func (k Knobs) Check() error {
	if k.RadixBits > MaxRadixBits {
		return fmt.Errorf("%w: RadixBits %d exceeds the cap of %d", ErrKnobOutOfRange, k.RadixBits, MaxRadixBits)
	}
	if k.BatchSize > MaxBatchSize {
		return fmt.Errorf("%w: BatchSize %d exceeds the cap of %d", ErrKnobOutOfRange, k.BatchSize, MaxBatchSize)
	}
	return nil
}

// Run executes alg over one window of r and s and returns the merged
// metrics.
func Run(alg Algorithm, r, s tuple.Relation, windowMs int64, cfg RunConfig) (metrics.Result, error) {
	if alg == nil {
		return metrics.Result{}, ErrNoAlgorithm
	}
	if err := CheckThreads(cfg.Threads); err != nil {
		return metrics.Result{}, err
	}
	if err := cfg.Knobs.Check(); err != nil {
		return metrics.Result{}, err
	}
	if !cfg.AtRest && (!r.SortedByTS() || !s.SortedByTS()) {
		return metrics.Result{}, ErrUnsortedInput
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	knobs := cfg.Knobs
	knobs.defaults()
	ns := cfg.NsPerSimMs
	if ns <= 0 {
		ns = DefaultNsPerSimMs
	}
	var src clock.Source
	if cfg.AtRest {
		// Static data ticks at the same compressed rate so latency and
		// throughput units stay comparable with streaming runs, and
		// short static joins still resolve to more than a tick or two.
		src = clock.NewStatic(ns)
	} else {
		src = clock.NewScaled(ns)
	}
	if cfg.WrapClock != nil {
		src = cfg.WrapClock(src)
	}
	if cfg.Trace != nil {
		cfg.Trace.StartRun(alg.Name())
	}
	ctx := &ExecContext{
		R:        r,
		S:        s,
		WindowMs: windowMs,
		Threads:  threads,
		Window:   cfg.Window,
		Clock:    src,
		M:        metrics.NewCollector(threads),
		Knobs:    knobs,
		Tracer:   cfg.Tracer,
		Trace:    cfg.Trace,
		Emit:     cfg.Emit,
		Pool:     cfg.Pool,
	}
	sw := clock.StartStopwatch()
	if err := alg.Run(ctx); err != nil {
		return metrics.Result{}, fmt.Errorf("core: %s: %w", alg.Name(), err)
	}
	wall := sw.ElapsedNs()
	res := ctx.M.Snapshot(alg.Name(), int64(len(r)+len(s)), wall)
	res.WindowID = cfg.Window.ID
	res.WindowStartMs = cfg.Window.StartMs
	res.WindowEndMs = cfg.Window.EndMs
	return res, nil
}
