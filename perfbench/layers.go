package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	iawj "repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// traceRingSpans sizes each worker's span ring in the traced passes, so
// that a whole JoinWindowed call (200 windows of eager batch spans) fits
// without drops.
const traceRingSpans = 1 << 19

// usedPhases are the phases (besides the arrival wait) each algorithm
// records into Result.PhaseNs; the breakdown reports exactly these. PMJ
// records "others" only when it spills runs to disk, which the benchmark
// does not configure.
var usedPhases = map[string][]metrics.Phase{
	"NPJ":    {metrics.PhaseBuildSort, metrics.PhaseProbe, metrics.PhaseOther},
	"PRJ":    {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseProbe, metrics.PhaseOther},
	"MWAY":   {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseMerge, metrics.PhaseProbe, metrics.PhaseOther},
	"MPASS":  {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseMerge, metrics.PhaseProbe, metrics.PhaseOther},
	"SHJ_JM": {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseProbe},
	"SHJ_JB": {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseProbe},
	"PMJ_JM": {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseMerge, metrics.PhaseProbe},
	"PMJ_JB": {metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseMerge, metrics.PhaseProbe},
}

// phaseName is a phase's metric-name form ("build/sort" -> "build_sort").
func phaseName(p metrics.Phase) string { return strings.ReplaceAll(p.String(), "/", "_") }

// algTrace collects one algorithm's traced-run figures, one entry per
// round unless noted.
type algTrace struct {
	wall2, wallTraced, wall1 []float64 // ns: untraced, traced, one thread
	phaseNs                  [6][]float64
	stallNs, busyNs          float64   // summed over traced windows
	imbalance                []float64 // per traced window
}

// tracedRun is the --trace 1 run. Each round joins every algorithm three
// times: untraced on two threads (phase breakdown, GC, arrival tail),
// traced on two threads (worker spans via Config.Trace), and untraced on
// one thread (scaling). Whole rounds repeat within budgetNs; then the
// benchmark calls each layer's public functions directly on the same
// inputs. None of these passes feeds the end-to-end metrics. Like the
// timed run, every join starts on a freshly collected heap.
func (w *workload) tracedRun(budgetNs int64, setups []setupTimes, log *spanLog, parent int, t *tally) metricSet {
	algs := iawj.Algorithms()
	traces := map[string]*algTrace{}
	for _, alg := range algs {
		traces[alg] = &algTrace{}
	}
	var gcAlloc, gcCycles, gcPause, tails []float64
	rs := newRounds(budgetNs)
	for round := 0; rs.next(); round++ {
		rid := log.begin(fmt.Sprintf("round.%d", round), parent)
		var alloc, cycles, pause uint64
		for _, alg := range algs {
			a := traces[alg]
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			id := log.begin("join.t2."+alg, rid)
			o := w.join(w.config(alg, benchThreads))
			log.end(id)
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			cycles += uint64(after.NumGC - before.NumGC)
			pause += after.PauseTotalNs - before.PauseTotalNs
			t.add(alg, o)
			a.wall2 = append(a.wall2, float64(o.wallNs))
			var phases [6]int64
			for i := range o.results {
				r := &o.results[i]
				for p := range phases {
					phases[p] += r.PhaseNs[p]
				}
				arrivalNs := float64(r.WindowEndMs-r.WindowStartMs) * nsPerSimMs
				tails = append(tails, (float64(r.WallNs)-arrivalNs)/1e6)
			}
			for p := range phases {
				a.phaseNs[p] = append(a.phaseNs[p], float64(phases[p])/float64(w.inputs()))
			}

			runtime.GC()
			o = w.joinTraced(alg, a, log, rid)
			t.add(alg, o)
			a.wallTraced = append(a.wallTraced, float64(o.wallNs))

			runtime.GC()
			id = log.begin("join.t1."+alg, rid)
			o = w.join(w.config(alg, 1))
			log.end(id)
			t.add(alg, o)
			a.wall1 = append(a.wall1, float64(o.wallNs))
		}
		log.end(rid)
		gcAlloc = append(gcAlloc, float64(alloc)/float64(int64(len(algs))*w.inputs()))
		gcCycles = append(gcCycles, float64(cycles))
		gcPause = append(gcPause, float64(pause))
	}

	m := metricSet{}
	var traced, untraced float64
	for _, alg := range algs {
		a := traces[alg]
		for _, p := range usedPhases[alg] {
			m.put("phase."+phaseName(p)+"."+alg, median(a.phaseNs[p]), "ns/input")
		}
		m.put("phase.wait."+alg, median(a.phaseNs[metrics.PhaseWait]), "ns/input")
		stall := 0.0
		if a.stallNs+a.busyNs > 0 {
			stall = a.stallNs / (a.stallNs + a.busyNs)
		}
		m.put("trace.barrier_stall_frac."+alg, stall, "ratio")
		m.put("trace.imbalance."+alg, median(a.imbalance), "ratio")
		ratios := make([]float64, len(a.wall1))
		for i := range a.wall1 {
			ratios[i] = a.wall1[i] / a.wall2[i]
		}
		m.put("scaling.t2_over_t1."+alg, median(ratios), "ratio")
		traced += sum(a.wallTraced)
		untraced += sum(a.wall2)
	}
	m.put("trace.overhead_frac", traced/untraced-1, "ratio")
	m.put("gc.alloc_bytes_per_tuple", median(gcAlloc), "B/tuple")
	m.put("gc.cycles", median(gcCycles), "count")
	m.put("gc.pause_ns", median(gcPause), "ns")
	m.put("clock.tail_ms", median(tails), "ms")

	var gen, compile, ref, calib []float64
	for _, s := range setups {
		gen, compile = append(gen, s.generate), append(compile, s.compile)
		ref, calib = append(ref, s.reference), append(calib, s.calibrate)
	}
	m.put("gen.generate_s", median(gen), "s")
	m.put("workloadspec.compile_s", median(compile), "s")
	m.put("oracle.reference_s", median(ref), "s")
	m.put("pool.calibrate_s", median(calib), "s")

	var matches int64
	for _, c := range w.want {
		matches += max(c, 0)
	}
	m.put("matches_per_input", float64(matches)/float64(w.inputs()), "matches/input")

	lid := log.begin("layers", parent)
	w.replayLayers(m, log, lid)
	log.end(lid)
	return m
}

// joinTraced is a two-thread join with Config.Trace on. The benchmark
// marks each window's start through Config.WrapClock, which the program
// calls once per window before the window's workers start; the program's
// worker spans are then re-based onto the span log, filed under their
// window, and analyzed window by window.
func (w *workload) joinTraced(alg string, a *algTrace, log *spanLog, parent int) outcome {
	rec := trace.NewRecorder(benchThreads, traceRingSpans)
	var starts []int64
	cfg := w.config(alg, benchThreads)
	cfg.Trace = rec
	cfg.WrapClock = func(src iawj.ClockSource) iawj.ClockSource {
		starts = append(starts, log.now())
		return src
	}
	offset := log.now() - rec.NowNs()
	id := log.begin("join.traced."+alg, parent)
	o := w.join(cfg)
	log.end(id)
	if o.failed > 0 || len(starts) != len(o.results) {
		return o
	}
	if d := rec.Dropped(); d > 0 {
		logf("%s: the trace ring dropped %d spans; balance figures cover the rest", alg, d)
	}

	// Worker spans are filed under the window they started in. The span
	// log keeps one span per worker and window, from its first to its
	// last recorded instant: eager runs record a span per batch, far too
	// many to write out, and the phase split is in Result.PhaseNs.
	byWindow := make([][]trace.Span, len(starts))
	extents := make([][benchThreads]interval, len(starts))
	for _, s := range rec.Snapshot() {
		at := offset + s.StartNs
		k := max(sort.Search(len(starts), func(i int) bool { return starts[i] > at })-1, 0)
		if e := &extents[k][s.TID%benchThreads]; e.end == 0 {
			*e = interval{at, at + s.DurNs}
		} else {
			e.start, e.end = min(e.start, at), max(e.end, at+s.DurNs)
		}
		if metrics.Phase(s.Phase) != metrics.PhaseWait {
			byWindow[k] = append(byWindow[k], s)
		}
	}
	for k, st := range starts {
		wid := log.add("window", id, st, st+o.results[k].WallNs)
		for tid, e := range extents[k] {
			if e.end > 0 {
				log.add(fmt.Sprintf("worker.%d", tid), wid, e.start, e.end)
			}
		}
	}
	for _, spans := range byWindow {
		an := trace.Analyze(spans, rec.AlgName, 0)
		for _, ps := range an.Phases {
			a.stallNs += float64(ps.BarrierStallNs)
			a.busyNs += float64(ps.TotalNs)
		}
		for _, as := range an.Algorithms {
			if as.TotalNs > 0 {
				a.imbalance = append(a.imbalance, float64(as.CriticalNs)*benchThreads/float64(as.TotalNs))
			}
		}
	}
	return o
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
