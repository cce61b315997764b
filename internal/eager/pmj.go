package eager

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sortmerge"
	"repro/internal/tuple"
)

// PMJ is the Progressive Merge Join combined with a stream distribution
// scheme. Following the paper's modernized variant of Dittrich et al.'s
// algorithm, each worker accumulates δ of its expected input from both
// streams, sorts the pair of subsets into runs, immediately joins the run
// pair with a sequential scan, and keeps runs in main memory. When the
// streams are exhausted, the merge phase revisits the stored runs to
// produce the remaining matches among different run pairs (Figure 1b).
//
// With Knobs.SpillDir set, sealed runs are written to disk and re-read in
// the merge phase — the original PMJ's behaviour before the paper moved
// runs to main memory for modern hardware.
type PMJ struct {
	// JB selects the join-biclique scheme; false selects join-matrix.
	JB bool
}

// Name implements core.Algorithm.
func (a PMJ) Name() string {
	if a.JB {
		return "PMJ_JB"
	}
	return "PMJ_JM"
}

// Approach implements core.Algorithm.
func (PMJ) Approach() core.Approach { return core.Eager }

// Method implements core.Algorithm.
func (PMJ) Method() core.JoinMethod { return core.SortJoin }

// run holds one sealed pair of sorted subsets, in memory or spilled.
type run struct {
	r, s tuple.Relation
	path string // non-empty when spilled to disk
}

// spill writes the run pair to a temp file and drops the in-memory
// copies, as the original disk-based PMJ does.
func (ru *run) spill(dir string) error {
	f, err := os.CreateTemp(dir, "pmjrun-*.bin")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tuple.WriteBinary(bw, ru.r); err == nil {
		err = tuple.WriteBinary(bw, ru.s)
	} else {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	ru.path = f.Name()
	ru.r, ru.s = nil, nil
	return nil
}

// load reads a spilled run pair back; in-memory runs return themselves.
func (ru *run) load() (r, s tuple.Relation, err error) {
	if ru.path == "" {
		return ru.r, ru.s, nil
	}
	f, err := os.Open(ru.path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if r, err = tuple.ReadBinary(br); err != nil {
		return nil, nil, err
	}
	if s, err = tuple.ReadBinary(br); err != nil {
		return nil, nil, err
	}
	return r, s, nil
}

// Run implements core.Algorithm. The worker loop covers the sort-seal
// inner loop and the run-pair merge of Figure 1b.
//
//iawj:hotpath
func (a PMJ) Run(ctx *core.ExecContext) error {
	if g := ctx.Knobs.GroupSize; g > ctx.Threads {
		return fmt.Errorf("eager: group size %d exceeds %d threads", g, ctx.Threads) //lint:allow hotpathalloc entry validation, not per-tuple
	}
	atRest := ctx.Clock.AtRest()
	bsz := batchSize(ctx)
	spillDir := ctx.Knobs.SpillDir

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	parallel(ctx.Threads, func(tid int) {
		pt := newPhaseTimer(ctx, tid)
		dist := makeDist(a.JB, ctx, tid)
		sink := core.NewSink(ctx, tid)

		// δ controls how many tuples accumulate before each sort step,
		// as a fraction of this worker's expected input (Section 3.2.1).
		expected := len(ctx.R)/dist.estOwnersR(ctx) + len(ctx.S)/ctx.Threads
		step := int(ctx.Knobs.SortStepFrac * float64(expected))
		if step < 2*bsz {
			step = 2 * bsz
		}

		var runs []run
		defer func() {
			// Shadow the captured slice: indexing the closure variable
			// directly re-checks bounds per run (LINTING.md §BCE).
			rs := runs
			for i := range rs {
				if rs[i].path != "" {
					os.Remove(rs[i].path)
				}
			}
		}()
		var curR, curS tuple.Relation
		rcur := &cursor{rel: ctx.R, tracer: ctx.Tracer, base: 1 << 47}
		scur := &cursor{rel: ctx.S, tracer: ctx.Tracer, base: 1<<47 | 1<<45}

		// Hoisted loop state and closures: the accumulate loop and the
		// merge-phase scan reuse these instead of constructing fresh
		// closures every iteration.
		var now int64
		var rWaiting, sWaiting bool
		nR, nS := 0, 0
		ownsR, ownsS := dist.ownsR, dist.ownsS
		physical := ctx.Knobs.PhysicalPartition
		matchRun := sink.MatchRun
		pull := func() int64 {
			before := len(curR)
			curR, rWaiting = rcur.batch(curR, bsz, now, atRest, ownsR, physical)
			nR = len(curR) - before
			before = len(curS)
			curS, sWaiting = scur.batch(curS, bsz, now, atRest, ownsS, physical)
			nS = len(curS) - before
			return int64(nR + nS)
		}
		stallFn := func() { time.Sleep(stall) }

		seal := func() {
			if len(curR) == 0 && len(curS) == 0 {
				return
			}
			// Sort the accumulated subsets into a run pair.
			pt.timeCount(metrics.PhaseBuildSort, func() int64 {
				sortmerge.SortByKey(curR, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24)
				sortmerge.SortByKey(curS, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24|1<<23)
				return int64(len(curR) + len(curS))
			})
			// Join the fresh run pair immediately: early results.
			pt.timeCount(metrics.PhaseProbe, func() int64 {
				sink.Refresh()
				sortmerge.MergeJoinRuns(curR, curS, matchRun, ctx.Tracer, 0, 0)
				return int64(len(curR) + len(curS))
			})
			ru := run{r: curR, s: curS}
			if spillDir != "" {
				pt.time(metrics.PhaseOther, func() {
					if err := ru.spill(spillDir); err != nil {
						fail(fmt.Errorf("eager: pmj spill: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
					}
				})
			} else {
				ctx.M.MemAdd(int64(len(curR)+len(curS)) * 16)
			}
			runs = append(runs, ru)
			curR, curS = nil, nil
			if tid == 0 {
				ctx.M.MemSampleNow(ctx.NowMs())
			}
		}

		for !rcur.done() || !scur.done() {
			now = ctx.NowMs()
			rWaiting, sWaiting = false, false
			pt.timeCount(metrics.PhasePartition, pull)
			if len(curR)+len(curS) >= step {
				//lint:allow hotpathalloc seal runs once per sealed run, not per tuple
				seal()
			}
			if nR == 0 && nS == 0 && (rWaiting || sWaiting) {
				pt.time(metrics.PhaseWait, stallFn)
			}
		}
		seal() // the final partial run

		// Merge phase: revisit stored runs and join the remaining pairs
		// of subsets (run i's R against run j's S for i != j; the i == j
		// pairs were joined when sealed). Spilled runs are re-read here,
		// paying the original PMJ's disk revisit cost.
		pt.time(metrics.PhaseMerge, func() {
			sink.Refresh()
			// Shadow the captured slice: indexing the closure variable
			// directly re-checks bounds per run (LINTING.md §BCE).
			rs := runs
			for i := range rs {
				ri, _, err := rs[i].load()
				if err != nil {
					fail(fmt.Errorf("eager: pmj reload: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
					return
				}
				for j := range rs {
					if i == j {
						continue
					}
					_, sj, err := rs[j].load()
					if err != nil {
						fail(fmt.Errorf("eager: pmj reload: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
						return
					}
					sortmerge.MergeJoinRuns(ri, sj, matchRun, ctx.Tracer, 0, 0)
					sink.Refresh()
				}
			}
		})
		ctx.M.MemAdd(dist.statusBytes())
		ctx.EndPhase(tid)
	})
	ctx.M.MemSampleNow(ctx.NowMs())
	return firstErr
}
