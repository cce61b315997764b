package main

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/sortmerge"
	"repro/internal/tuple"
	"repro/internal/window"
)

// The layer replays call each module's public functions from the
// benchmark on the workload's own window inputs, so a per-layer figure
// moves only when that layer's code does. Each replay repeats over all
// windows until minReplayNs has passed (at least once) and reports time
// per unit of work; only the calls themselves are timed.

const (
	minReplayNs = 150e6
	// replayRadixBits is PRJ's default fan-out.
	replayRadixBits = 10
	// probeChunk is how many probes one ProbeBatch call takes; the
	// kernels' own match buffers are sized around it.
	probeChunk = 1024
	// maxReplayPairs caps the match pairs kept for the accounting
	// replays (16 MiB of pairs).
	maxReplayPairs = 1 << 19
	// poolOpsPerWindow batches the sub-microsecond pool get/put pairs so
	// one repetition is not dwarfed by its own span.
	poolOpsPerWindow = 100
)

// replayer times one layer call per window.
type replayer struct {
	log    *spanLog
	parent int
}

// repeat runs pass over all windows until minReplayNs has passed,
// recording one span per repetition, and returns the timed ns and the
// units of work pass reported, both summed over repetitions.
func (rp replayer) repeat(name string, pass func() (ns, units int64)) (int64, int64) {
	var ns, units int64
	sw := clock.StartStopwatch()
	for rep := 0; rep == 0 || sw.ElapsedNs() < minReplayNs; rep++ {
		id := rp.log.begin(name, rp.parent)
		n, u := pass()
		rp.log.end(id)
		ns += n
		units += u
	}
	return ns, units
}

// per is ns per unit, 0 when no work was done.
func per(ns, units int64) float64 {
	if units == 0 {
		return 0
	}
	return float64(ns) / float64(units)
}

// timeIt returns f's wall time in ns.
func timeIt(f func()) int64 {
	sw := clock.StartStopwatch()
	f()
	return sw.ElapsedNs()
}

// replayLayers adds every replayed layer metric to m.
func (w *workload) replayLayers(m metricSet, log *spanLog, parent int) {
	rp := replayer{log, parent}
	p := w.pool

	m.put("radix.partition_ns", per(rp.repeat("radix.PartitionHashed", func() (ns, n int64) {
		pr := p.Partitioner()
		for _, pt := range w.parts {
			ns += timeIt(func() { pr.PartitionHashed(pt.r, replayRadixBits, nil, 0) })
			ns += timeIt(func() { pr.PartitionHashed(pt.s, replayRadixBits, nil, 0) })
			n += int64(len(pt.r) + len(pt.s))
		}
		p.PutPartitioner(pr)
		return ns, n
	})), "ns/tuple")

	m.put("radix.partition_build_ns", per(rp.repeat("radix.PartitionBuild", func() (ns, n int64) {
		pr := p.Partitioner()
		newTable := func(n int) *hashtable.Table { return p.Table(n, replayRadixBits) }
		for _, pt := range w.parts {
			var tabs []*hashtable.Table
			ns += timeIt(func() { tabs = pr.PartitionBuild(pt.r, replayRadixBits, newTable) })
			n += int64(len(pt.r))
			for _, t := range tabs {
				p.PutTable(t)
			}
		}
		p.PutPartitioner(pr)
		return ns, n
	})), "ns/tuple")

	// Hash tables over each window's R, kept for the probe replays.
	tabs := make([]*hashtable.Table, len(w.parts))
	var chained, size int64
	m.put("hashtable.build_ns", per(rp.repeat("hashtable.Table.InsertBatch", func() (ns, n int64) {
		for i, pt := range w.parts {
			p.PutTable(tabs[i])
			tabs[i] = p.Table(len(pt.r), 0)
			ns += timeIt(func() { tabs[i].InsertBatch(pt.r) })
			n += int64(len(pt.r))
		}
		return ns, n
	})), "ns/tuple")
	for _, t := range tabs {
		chained += t.Chained()
		size += t.Size()
	}
	m.put("hashtable.chain_ratio", float64(chained)/float64(max(size, 1)), "ratio")

	m.put("hashtable.shared_build_ns", per(rp.repeat("hashtable.Shared.InsertBatch", func() (ns, n int64) {
		for _, pt := range w.parts {
			sh := p.Shared(len(pt.r))
			ns += timeIt(func() { sharedInsert(sh, pt.r, benchThreads) })
			n += int64(len(pt.r))
			p.PutShared(sh)
		}
		return ns, n
	})), "ns/tuple")

	var pairs []tuple.Tuple // (stored R, probe S) pairs for the accounting replays
	m.put("hashtable.probe_ns", per(rp.repeat("hashtable.Table.ProbeBatch", func() (ns, n int64) {
		dst := make([]tuple.Tuple, 0, 2*probeChunk)
		for i, pt := range w.parts {
			for lo := 0; lo < len(pt.s); lo += probeChunk {
				chunk := pt.s[lo:min(lo+probeChunk, len(pt.s))]
				ns += timeIt(func() { dst, _ = tabs[i].ProbeBatch(chunk, dst[:0]) })
				if len(pairs) < 2*maxReplayPairs {
					pairs = append(pairs, dst[:min(len(dst), 2*maxReplayPairs-len(pairs))]...)
				}
			}
			n += int64(len(pt.s))
		}
		return ns, n
	})), "ns/probe")

	m.put("hashtable.probecount_ns", per(rp.repeat("hashtable.Table.ProbeBatchCount", func() (ns, n int64) {
		for i, pt := range w.parts {
			ns += timeIt(func() { _ = tabs[i].ProbeBatchCount(pt.s) })
			n += int64(len(pt.s))
		}
		return ns, n
	})), "ns/probe")
	for _, t := range tabs {
		p.PutTable(t)
	}

	m.put("core.sink_match_ns", per(rp.repeat("core.Sink.Match", func() (int64, int64) {
		ctx := &core.ExecContext{Clock: clock.NewStatic(nsPerSimMs), M: metrics.NewCollector(1)}
		k := core.NewSink(ctx, 0)
		return timeIt(func() {
			for i := 0; i+1 < len(pairs); i += 2 {
				k.Match(pairs[i], pairs[i+1])
			}
		}), int64(len(pairs) / 2)
	})), "ns/match")

	m.put("metrics.record_ns", per(rp.repeat("metrics.ThreadMetrics.Matches", func() (int64, int64) {
		tm := metrics.NewCollector(1).T(0)
		nowMs := clock.NewStatic(nsPerSimMs).NowMs()
		return timeIt(func() {
			for i := 0; i+1 < len(pairs); i += 2 {
				tm.Matches(1, nowMs, max(pairs[i].TS, pairs[i+1].TS))
			}
		}), int64(len(pairs) / 2)
	})), "ns/match")

	w.replaySort(m, rp)

	m.put("window.assign_ns", per(rp.repeat("window.AssignPair", func() (int64, int64) {
		spec := w.spec
		if !w.windowed {
			// At rest the whole input is one window.
			spec = window.Spec{Kind: window.Tumbling, LengthMs: max(w.r.MaxTS(), w.s.MaxTS()) + 1}
		}
		var err error
		ns := timeIt(func() { _, err = window.AssignPair(w.r, w.s, spec) })
		if err != nil {
			logf("window.AssignPair: %v", err)
		}
		return ns, w.inputs()
	})), "ns/tuple")

	m.put("pool.table_get_put_ns", per(rp.repeat("pool.Table+PutTable", func() (ns, n int64) {
		for _, pt := range w.parts {
			ns += timeIt(func() {
				for k := 0; k < poolOpsPerWindow; k++ {
					p.PutTable(p.Table(len(pt.r), 0))
				}
			})
			n += poolOpsPerWindow
		}
		return ns, n
	})), "ns/op")
}

// replaySort times the sort-merge kernels: sorting each window's inputs,
// merging one sorted run per worker both ways, and the merge join.
func (w *workload) replaySort(m metricSet, rp replayer) {
	sorted := make([]part, len(w.parts))
	m.put("sortmerge.sort_ns", per(rp.repeat("sortmerge.SortByKey", func() (ns, n int64) {
		for i, pt := range w.parts {
			r, s := pt.r.Clone(), pt.s.Clone()
			ns += timeIt(func() {
				sortmerge.SortByKey(r, true, nil, 0)
				sortmerge.SortByKey(s, true, nil, 1)
			})
			n += int64(len(r) + len(s))
			sorted[i] = part{r, s}
		}
		return ns, n
	})), "ns/tuple")

	runs := make([][]tuple.Relation, len(w.parts))
	for i, pt := range w.parts {
		for t := 0; t < benchThreads; t++ {
			lo, hi := core.Chunk(len(pt.r), benchThreads, t)
			run := pt.r[lo:hi].Clone()
			sortmerge.SortByKey(run, true, nil, 0)
			runs[i] = append(runs[i], run)
		}
	}
	merge := func(f func([]tuple.Relation, bool) []tuple.Tuple) func() (int64, int64) {
		return func() (ns, n int64) {
			for i, pt := range w.parts {
				ns += timeIt(func() { f(runs[i], true) })
				n += int64(len(pt.r))
			}
			return ns, n
		}
	}
	m.put("sortmerge.multiway_merge_ns", per(rp.repeat("sortmerge.MultiwayMerge", merge(sortmerge.MultiwayMerge))), "ns/tuple")
	m.put("sortmerge.twoway_merge_ns", per(rp.repeat("sortmerge.TwoWayMergePasses", merge(sortmerge.TwoWayMergePasses))), "ns/tuple")

	m.put("sortmerge.mergejoin_ns", per(rp.repeat("sortmerge.MergeJoin", func() (ns, n int64) {
		var matched int64
		emit := func(r, s tuple.Tuple) { matched++ }
		for _, pt := range sorted {
			ns += timeIt(func() { sortmerge.MergeJoin(pt.r, pt.s, emit, nil, 0, 0) })
		}
		return ns, matched
	})), "ns/match")
}

// sharedInsert fills sh from rel with workers goroutines, each inserting
// its equisized chunk, as NPJ's build does.
func sharedInsert(sh *hashtable.Shared, rel tuple.Relation, workers int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		lo, hi := core.Chunk(len(rel), workers, t)
		go func() {
			defer wg.Done()
			sh.InsertBatch(rel[lo:hi])
		}()
	}
	wg.Wait()
}
