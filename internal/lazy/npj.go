package lazy

import (
	"sync"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// NPJ is the No-Partitioning Join: a parallel canonical hash join. All
// threads populate one shared hash table with their equisized portions of
// R, synchronize on a barrier, then concurrently probe with their portions
// of S. The shared table's per-bucket latches exhibit the access conflicts
// the paper measures under high key duplication, and its footprint beyond
// L3 drives NPJ's memory-bound profile (Section 5.6).
//
// Build and probe run through the batched kernel APIs (InsertBatch /
// ProbeBatch): one call per worker chunk instead of one per tuple, and no
// per-probe emit closure. With a window-state pool attached
// (core.RunConfig.Pool) the shared table and the per-worker match buffers
// are recycled across windows, so steady-state windows build and probe
// with zero allocations (PERFORMANCE.md).
//
// LockFree switches the build phase to a CAS-based chain table — an
// ablation of the shared-table synchronization design choice.
type NPJ struct {
	LockFree bool
}

// sharedTable abstracts over the latched and lock-free build tables.
type sharedTable interface {
	InsertBatch([]tuple.Tuple)
	ProbeBatch(probes, dst []tuple.Tuple) ([]tuple.Tuple, int)
	MemBytes() int64
}

// Name implements core.Algorithm.
func (a NPJ) Name() string {
	if a.LockFree {
		return "NPJ_LF"
	}
	return "NPJ"
}

// Approach implements core.Algorithm.
func (NPJ) Approach() core.Approach { return core.Lazy }

// Method implements core.Algorithm.
func (NPJ) Method() core.JoinMethod { return core.HashJoin }

// Run implements core.Algorithm. The build and probe loops over the
// shared table are NPJ's hot path.
//
//iawj:hotpath
func (a NPJ) Run(ctx *core.ExecContext) error {
	var table sharedTable
	var latched *hashtable.Shared
	if a.LockFree {
		table = hashtable.NewLockFree(len(ctx.R))
	} else {
		latched = ctx.Pool.Shared(len(ctx.R))
		if ctx.Tracer != nil {
			latched.SetTracer(ctx.Tracer, 1<<42)
		}
		table = latched
	}
	baseMem := table.MemBytes()
	ctx.M.MemAdd(baseMem)
	var barrier sync.WaitGroup
	barrier.Add(ctx.Threads)

	parallel(ctx.Threads, func(tid int) {
		tw := ctx.TraceWorker(tid)
		ctx.WaitWindow(tid)

		ctx.Begin(tid, metrics.PhaseBuildSort)
		lo, hi := core.Chunk(len(ctx.R), ctx.Threads, tid)
		tw.AddTuples(int64(hi - lo))
		table.InsertBatch(ctx.R[lo:hi])
		ctx.Begin(tid, metrics.PhaseOther)
		barrier.Done()
		barrier.Wait() // build/probe barrier as in the original NPJ

		ctx.Begin(tid, metrics.PhaseProbe)
		k := core.NewSink(ctx, tid)
		lo, hi = core.Chunk(len(ctx.S), ctx.Threads, tid)
		tw.AddTuples(int64(hi - lo))
		chunk := ctx.S[lo:hi]
		pairs := ctx.Pool.Tuples(2 * matchBatch)
		// Constant-length blocks with a short final block; the match walk
		// advances a slice two tuples at a time. Both shapes are
		// bounds-check free (LINTING.md §BCE) where the start/end cursor
		// arithmetic and the stride-2 index walk were not.
		rest := chunk
		for len(rest) > 0 {
			blk := rest
			if len(rest) >= matchBatch {
				blk = rest[:matchBatch]
				rest = rest[matchBatch:]
			} else {
				rest = nil
			}
			k.Refresh()
			pairs, _ = table.ProbeBatch(blk, pairs[:0])
			k.MatchPairs(pairs, false)
		}
		ctx.Pool.PutTuples(pairs)
		ctx.EndPhase(tid)
	})
	ctx.M.MemAdd(table.MemBytes() - baseMem) // overflow chains grown at build
	ctx.M.MemSampleNow(ctx.NowMs())
	ctx.Pool.PutShared(latched) // nil-safe: no-op for the lock-free ablation
	return nil
}
