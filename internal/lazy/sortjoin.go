package lazy

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sortmerge"
	"repro/internal/tuple"
)

// MWay is the Multi-Way Sort Merge Join: inputs are physically partitioned
// and distributed across threads, each local partition is sorted with the
// vectorized kernels, locally sorted runs are combined with a single
// multi-way merge, and matching runs as a single-pass merge join per key
// range.
type MWay struct{}

// Name implements core.Algorithm.
func (MWay) Name() string { return "MWAY" }

// Approach implements core.Algorithm.
func (MWay) Approach() core.Approach { return core.Lazy }

// Method implements core.Algorithm.
func (MWay) Method() core.JoinMethod { return core.SortJoin }

// Run implements core.Algorithm.
func (MWay) Run(ctx *core.ExecContext) error { return runSortJoin(ctx, true) }

// MPass is the Multi-Pass Sort Merge Join: identical to MWay except that
// locally sorted runs are combined by successive two-way merges over
// multiple iterations, which scales better with increasing input sizes
// than a single wide multi-way merge.
type MPass struct{}

// Name implements core.Algorithm.
func (MPass) Name() string { return "MPASS" }

// Approach implements core.Algorithm.
func (MPass) Approach() core.Approach { return core.Lazy }

// Method implements core.Algorithm.
func (MPass) Method() core.JoinMethod { return core.SortJoin }

// Run implements core.Algorithm.
func (MPass) Run(ctx *core.ExecContext) error { return runSortJoin(ctx, false) }

// runSortJoin is the shared sort-join skeleton: partition (physical chunk
// copies), sort (per-thread, SIMD-substitute optional), merge (multi-way
// for MWay, successive two-way passes for MPass, parallel across key
// ranges), and a final parallel merge join. The physical chunk copies —
// the sort joins' dominant per-window allocation — come from the window
// pool when one is attached and are recycled once all workers finish.
func runSortJoin(ctx *core.ExecContext, multiway bool) error {
	tcount := ctx.Threads
	runsR := make([]tuple.Relation, tcount)
	runsS := make([]tuple.Relation, tcount)
	mergedR := make([]tuple.Relation, tcount)
	mergedS := make([]tuple.Relation, tcount)
	var splitters []uint32
	var splitOnce sync.Once

	var barrier sync.WaitGroup
	barrier.Add(tcount)

	parallel(tcount, func(tid int) {
		tw := ctx.TraceWorker(tid)
		ctx.WaitWindow(tid)

		// Partition: take a physical copy of the equisized chunk so
		// sorting leaves caller data intact (the physical partitioning
		// step of MWay/MPass).
		ctx.Begin(tid, metrics.PhasePartition)
		lo, hi := core.Chunk(len(ctx.R), tcount, tid)
		runsR[tid] = ctx.Pool.Tuples(hi - lo)[:hi-lo]
		copy(runsR[tid], ctx.R[lo:hi])
		lo, hi = core.Chunk(len(ctx.S), tcount, tid)
		runsS[tid] = ctx.Pool.Tuples(hi - lo)[:hi-lo]
		copy(runsS[tid], ctx.S[lo:hi])
		tw.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		ctx.M.MemAdd(int64(len(runsR[tid])+len(runsS[tid])) * 16)

		// Sort the local runs.
		ctx.Begin(tid, metrics.PhaseBuildSort)
		tw.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		sortmerge.SortByKey(runsR[tid], ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<32)
		sortmerge.SortByKey(runsS[tid], ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<32|1<<31)
		ctx.Begin(tid, metrics.PhaseOther)
		barrier.Done()
		barrier.Wait()
		splitOnce.Do(func() { splitters = computeSplitters(runsR, runsS, tcount) })

		// Merge this thread's key range across all runs.
		ctx.Begin(tid, metrics.PhaseMerge)
		sliceR := rangeSlices(runsR, splitters, tid)
		sliceS := rangeSlices(runsS, splitters, tid)
		if multiway {
			mergedR[tid] = sortmerge.MultiwayMerge(sliceR, ctx.Knobs.SIMD)
			mergedS[tid] = sortmerge.MultiwayMerge(sliceS, ctx.Knobs.SIMD)
		} else {
			mergedR[tid] = sortmerge.TwoWayMergePasses(sliceR, ctx.Knobs.SIMD)
			mergedS[tid] = sortmerge.TwoWayMergePasses(sliceS, ctx.Knobs.SIMD)
		}
		tw.AddTuples(int64(len(mergedR[tid]) + len(mergedS[tid])))
		ctx.M.MemAdd(int64(len(mergedR[tid])+len(mergedS[tid])) * 16)

		// Match the aligned key range with a single-pass merge join.
		ctx.Begin(tid, metrics.PhaseProbe)
		tw.AddTuples(int64(len(mergedR[tid]) + len(mergedS[tid])))
		k := core.NewSink(ctx, tid)
		sortmerge.MergeJoinRuns(mergedR[tid], mergedS[tid], k.MatchRun, ctx.Tracer, uint64(tid)<<33, uint64(tid)<<33|1<<32)
		ctx.EndPhase(tid)
	})
	// Merged ranges may alias the runs, so the run buffers are recycled
	// only after every worker has finished matching.
	for tid := 0; tid < tcount; tid++ {
		ctx.Pool.PutTuples(runsR[tid])
		ctx.Pool.PutTuples(runsS[tid])
	}
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}

// computeSplitters samples the sorted runs and returns tcount-1 key-rank
// splitters defining the per-thread key ranges. Every thread derives the
// same splitters deterministically.
func computeSplitters(runsR, runsS []tuple.Relation, tcount int) []uint32 {
	const perRun = 64
	var sample []uint32
	collect := func(runs []tuple.Relation) {
		for _, run := range runs {
			if len(run) == 0 {
				continue
			}
			step := len(run)/perRun + 1
			for i := 0; i < len(run); i += step {
				sample = append(sample, sortmerge.KeyRank(run[i].Key))
			}
		}
	}
	collect(runsR)
	collect(runsS)
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	splitters := make([]uint32, tcount-1)
	for i := 1; i < tcount; i++ {
		if len(sample) == 0 {
			splitters[i-1] = ^uint32(0)
			continue
		}
		splitters[i-1] = sample[i*len(sample)/tcount]
	}
	return splitters
}

// rangeSlices extracts from every sorted run the slice belonging to thread
// tid's key range [splitters[tid-1], splitters[tid]).
func rangeSlices(runs []tuple.Relation, splitters []uint32, tid int) []tuple.Relation {
	out := make([]tuple.Relation, 0, len(runs))
	for _, run := range runs {
		lo := 0
		if tid > 0 {
			lo = lowerBound(run, splitters[tid-1])
		}
		hi := len(run)
		if tid < len(splitters) {
			hi = lowerBound(run, splitters[tid])
		}
		if lo < hi {
			out = append(out, run[lo:hi])
		}
	}
	return out
}

// lowerBound returns the first index whose key rank is >= rank.
func lowerBound(run tuple.Relation, rank uint32) int {
	return sort.Search(len(run), func(i int) bool {
		return sortmerge.KeyRank(run[i].Key) >= rank
	})
}
