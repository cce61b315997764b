// Package trace is the observability substrate of the reproduction: a
// low-overhead, per-worker phase-span recorder that makes the paper's
// per-phase execution-time breakdown (Figures 6-8) visible at the level of
// individual workers over time. Where internal/metrics answers "how long
// did each phase take in total", trace answers "when was worker 3 in the
// merge phase, and for how long" — the view that exposes skew-induced
// stragglers and barrier stalls.
//
// Design constraints, in priority order:
//
//   - Disabled tracing costs nothing on the hot path: every recording
//     entry point is a nil-receiver method, so call sites need no branch
//     and a disabled run performs zero allocations per span (enforced by a
//     testing.AllocsPerRun test).
//   - Enabled tracing allocates only at Recorder construction: each worker
//     owns a fixed-capacity ring of spans, recording is a struct store
//     plus one atomic publish, and overflow drops spans (counted) rather
//     than growing.
//   - Live readers (the /metrics endpoint) may snapshot a recorder while
//     workers are still publishing: the atomic count is the publication
//     point, so a reader sees a consistent prefix of each worker's spans.
//
// Exports: WriteChrome renders the spans as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), JournalWriter appends
// machine-readable JSONL run summaries, and Registry serves Prometheus
// text-format counters. See OBSERVABILITY.md for the span model and
// schema.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// Span is one contiguous stretch of time a worker spent in one phase of
// one algorithm run. StartNs is relative to the recorder's start.
type Span struct {
	TID     int32
	Phase   int32
	Alg     int32 // index into Recorder.Algorithms()
	StartNs int64
	DurNs   int64
	Tuples  int64
}

// PhaseName names a span's phase using the metrics vocabulary, so traces
// and the Figure 7 breakdown agree on terminology.
func (s Span) PhaseName() string { return metrics.Phase(s.Phase).String() }

// DefaultSpansPerWorker bounds each worker's ring when the caller passes a
// non-positive capacity: 16Ki spans x 48 bytes = 768 KiB per worker,
// enough for every lazy run and for minutes of eager batch spans.
const DefaultSpansPerWorker = 1 << 14

// Recorder owns the per-worker rings of one or more runs. Construct one
// per process (or per benchmark sweep); StartRun tags subsequent spans
// with the algorithm name.
type Recorder struct {
	sw      clock.Stopwatch
	workers []Worker

	mu     sync.Mutex
	algs   []string
	curAlg atomic.Int32
}

// NewRecorder prepares rings for up to workers threads, spansPerWorker
// spans each (non-positive selects DefaultSpansPerWorker). All allocation
// happens here; recording never allocates.
func NewRecorder(workers, spansPerWorker int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if spansPerWorker <= 0 {
		spansPerWorker = DefaultSpansPerWorker
	}
	r := &Recorder{
		sw:      clock.StartStopwatch(),
		workers: make([]Worker, workers),
		algs:    []string{"?"},
	}
	for i := range r.workers {
		w := &r.workers[i]
		w.rec = r
		w.tid = int32(i)
		w.spans = make([]Span, spansPerWorker)
	}
	return r
}

// StartRun registers an algorithm name and tags all spans recorded from
// now on with it. Safe to call between runs while no worker is recording.
func (r *Recorder) StartRun(alg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	idx := -1
	for i, a := range r.algs {
		if a == alg {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = len(r.algs)
		r.algs = append(r.algs, alg)
	}
	r.mu.Unlock()
	r.curAlg.Store(int32(idx))
}

// Algorithms returns the registered run names; Span.Alg indexes into it.
func (r *Recorder) Algorithms() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.algs...)
}

// AlgName resolves a span's algorithm index; out-of-range yields "?".
func (r *Recorder) AlgName(i int32) string {
	if r == nil {
		return "?"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || int(i) >= len(r.algs) {
		return "?"
	}
	return r.algs[i]
}

// T returns worker tid's recording handle, or nil when tid is out of
// range — nil is a valid, inert handle, so callers need no bounds check.
func (r *Recorder) T(tid int) *Worker {
	if r == nil || tid < 0 || tid >= len(r.workers) {
		return nil
	}
	return &r.workers[tid]
}

// Workers returns the number of worker slots.
func (r *Recorder) Workers() int {
	if r == nil {
		return 0
	}
	return len(r.workers)
}

// NowNs is the recorder's time base: nanoseconds since construction.
func (r *Recorder) NowNs() int64 {
	if r == nil {
		return 0
	}
	return r.sw.ElapsedNs()
}

// Stopwatch returns the recorder's time base as a stopwatch whose
// ElapsedNs equals NowNs, so a phase clock can stamp spans with one clock
// read. A nil recorder has no time base and returns a stopwatch started
// now.
func (r *Recorder) Stopwatch() clock.Stopwatch {
	if r == nil {
		return clock.StartStopwatch()
	}
	return r.sw
}

// Dropped sums the spans lost to full rings across workers.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.workers {
		n += r.workers[i].dropped.Load()
	}
	return n
}

// SpanCount sums the published spans across workers.
func (r *Recorder) SpanCount() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.workers {
		n += r.workers[i].n.Load()
	}
	return n
}

// Snapshot returns every published span, merged across workers and sorted
// by start time. Safe to call while workers are still recording: each
// worker contributes the consistent prefix it has published so far.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.workers {
		w := &r.workers[i]
		n := int(w.n.Load())
		out = append(out, w.spans[:n]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// Worker is one thread's recording handle. All methods are nil-safe and
// allocation-free; a Worker must only be written by its owning goroutine
// (reads via Recorder.Snapshot may be concurrent).
type Worker struct {
	rec     *Recorder
	tid     int32
	spans   []Span
	n       atomic.Int64 // published span count: the single publish point
	dropped atomic.Int64

	_ [9]int64 // pad to 128 bytes: adjacent workers in Recorder.workers stay on distinct cache lines
}

// NowNs exposes the recorder time base for explicitly measured spans
// (Record); a nil worker reports 0, which Record then ignores.
func (w *Worker) NowNs() int64 {
	if w == nil {
		return 0
	}
	return w.rec.NowNs()
}

// Record publishes one measured span: phase p starting at startNs (in the
// recorder time base) lasting durNs, covering tuples inputs. It is the
// only publish path: the run's phase clock (core.PhaseClock) hands every
// closed stretch here, and ingest replays time their send segments
// against NowNs.
func (w *Worker) Record(p int, startNs, durNs, tuples int64) {
	if w == nil {
		return
	}
	i := w.n.Load()
	if int(i) >= len(w.spans) {
		w.dropped.Add(1)
		return
	}
	w.spans[i] = Span{
		TID:     w.tid,
		Phase:   int32(p),
		Alg:     w.rec.curAlg.Load(),
		StartNs: startNs,
		DurNs:   durNs,
		Tuples:  tuples,
	}
	w.n.Store(i + 1) // the one atomic publish per span
}
