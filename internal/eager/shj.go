package eager

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// SHJ is the Symmetric Hash Join combined with a stream distribution
// scheme. Each worker maintains two hash tables, one per input stream;
// receiving a tuple from R (or S) it inserts it into the R (S) table and
// immediately probes the opposite table (Figure 1a). The JM scheme
// replicates R and round-robins S (content-insensitive); the JB scheme
// routes keys to core groups (content-sensitive).
//
// Each pulled batch runs through the batched kernel APIs (InsertBatch /
// ProbeBatch): one call per batch instead of one per tuple, and no
// per-probe emit closure. Both per-worker tables and all batch buffers
// come from the window pool when one is attached, so steady-state windows
// join with zero allocations (PERFORMANCE.md).
type SHJ struct {
	// JB selects the join-biclique scheme; false selects join-matrix.
	JB bool
}

// Name implements core.Algorithm.
func (a SHJ) Name() string {
	if a.JB {
		return "SHJ_JB"
	}
	return "SHJ_JM"
}

// Approach implements core.Algorithm.
func (SHJ) Approach() core.Approach { return core.Eager }

// Method implements core.Algorithm.
func (SHJ) Method() core.JoinMethod { return core.HashJoin }

// validate rejects impossible knob combinations before spawning workers.
func (SHJ) validate(ctx *core.ExecContext) error {
	if g := ctx.Knobs.GroupSize; g > ctx.Threads {
		return fmt.Errorf("eager: group size %d exceeds %d threads", g, ctx.Threads)
	}
	return nil
}

// Run implements core.Algorithm. The worker loop is the interleaved
// build/probe inner loop of Figure 1a. All phase closures and ownership
// predicates are constructed once per worker, outside the round loop —
// constructing them per round would allocate on every iteration.
//
//iawj:hotpath
func (a SHJ) Run(ctx *core.ExecContext) error {
	if err := a.validate(ctx); err != nil {
		return err
	}
	atRest := ctx.Clock.AtRest()
	bsz := batchSize(ctx)

	parallel(ctx.Threads, func(tid int) {
		pt := newPhaseTimer(ctx, tid)
		dist := makeDist(a.JB, ctx, tid)
		sink := core.NewSink(ctx, tid)

		rtab := ctx.Pool.Table(len(ctx.R)/maxInt(1, dist.estOwnersR(ctx))+16, 0)
		stab := ctx.Pool.Table(len(ctx.S)/ctx.Threads+16, 0)
		if ctx.Tracer != nil {
			rtab.SetTracer(ctx.Tracer, uint64(tid)<<40|1<<48)
			stab.SetTracer(ctx.Tracer, uint64(tid)<<40|1<<49)
		}
		memLast := rtab.MemBytes() + stab.MemBytes()
		ctx.M.MemAdd(memLast)

		rcur := &cursor{rel: ctx.R, tracer: ctx.Tracer, base: 1 << 46}
		scur := &cursor{rel: ctx.S, tracer: ctx.Tracer, base: 1<<46 | 1<<45}
		rbuf := ctx.Pool.Tuples(bsz)
		sbuf := ctx.Pool.Tuples(bsz)
		pairs := ctx.Pool.Tuples(2 * bsz)
		rounds := 0

		// Hoisted loop state and phase closures: the round loop reuses
		// these instead of constructing fresh closures every iteration.
		var now int64
		var rWaiting, sWaiting bool
		ownsR, ownsS := dist.ownsR, dist.ownsS
		physical := ctx.Knobs.PhysicalPartition
		pullR := func() int64 {
			rbuf, rWaiting = rcur.batch(rbuf[:0], bsz, now, atRest, ownsR, physical)
			return int64(len(rbuf))
		}
		buildR := func() int64 {
			rtab.InsertBatch(rbuf)
			return int64(len(rbuf))
		}
		probeR := func() int64 {
			// ProbeBatch pairs are (stored, probe): stored is the S-side
			// tuple here, the probe is from R, so the pairs are swapped.
			pairs, _ = stab.ProbeBatch(rbuf, pairs[:0])
			sink.MatchPairs(pairs, true)
			return int64(len(rbuf))
		}
		pullS := func() int64 {
			sbuf, sWaiting = scur.batch(sbuf[:0], bsz, now, atRest, ownsS, physical)
			return int64(len(sbuf))
		}
		buildS := func() int64 {
			stab.InsertBatch(sbuf)
			return int64(len(sbuf))
		}
		probeS := func() int64 {
			pairs, _ = rtab.ProbeBatch(sbuf, pairs[:0])
			sink.MatchPairs(pairs, false)
			return int64(len(sbuf))
		}
		stallFn := func() { time.Sleep(stall) }

		for !rcur.done() || !scur.done() {
			now = ctx.NowMs()
			sink.Refresh()
			rWaiting, sWaiting = false, false

			// Pull a batch from R: insert into the R table, probe the
			// S table (interleaved build and probe).
			pt.timeCount(metrics.PhasePartition, pullR)
			if len(rbuf) > 0 {
				pt.timeCount(metrics.PhaseBuildSort, buildR)
				pt.timeCount(metrics.PhaseProbe, probeR)
			}

			// Then alternate: pull a batch from S.
			pt.timeCount(metrics.PhasePartition, pullS)
			if len(sbuf) > 0 {
				pt.timeCount(metrics.PhaseBuildSort, buildS)
				pt.timeCount(metrics.PhaseProbe, probeS)
			}

			if len(rbuf) == 0 && len(sbuf) == 0 && (rWaiting || sWaiting) {
				// Consumed faster than arrival: the worker stalls.
				pt.time(metrics.PhaseWait, stallFn)
			}

			rounds++
			if rounds&0xff == 0 || (rcur.done() && scur.done()) {
				mem := rtab.MemBytes() + stab.MemBytes() + dist.statusBytes()
				ctx.M.MemAdd(mem - memLast)
				memLast = mem
				if tid == 0 {
					ctx.M.MemSampleNow(ctx.NowMs())
				}
			}
		}
		ctx.Pool.PutTuples(rbuf)
		ctx.Pool.PutTuples(sbuf)
		ctx.Pool.PutTuples(pairs)
		ctx.Pool.PutTable(rtab)
		ctx.Pool.PutTable(stab)
		ctx.EndPhase(tid)
	})
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}

// estOwnersR estimates how many workers share each R tuple, to size the
// per-worker R table: JM replicates R to all workers (1 owner share each),
// JB splits R across groups.
func (d *distribution) estOwnersR(ctx *core.ExecContext) int {
	if d.groups == 0 {
		return 1
	}
	return d.groups
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
