package eager

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cachesim"
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
		pc := core.NewPhaseClock(ctx, tid)
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

		// The ownership predicates and the run callback are bound once
		// per worker: binding them per round would allocate on every
		// iteration.
		ownsR, ownsS := dist.ownsR, dist.ownsS
		physical := ctx.Knobs.PhysicalPartition
		matchRun := sink.MatchRun

		seal := func() {
			if len(curR) == 0 && len(curS) == 0 {
				return
			}
			n := int64(len(curR) + len(curS))
			// Sort the accumulated subsets into a run pair.
			pc.Begin(metrics.PhaseBuildSort)
			sortmerge.SortByKey(curR, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24)
			sortmerge.SortByKey(curS, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24|1<<23)
			pc.AddTuples(n)
			// Join the fresh run pair immediately: early results.
			pc.Begin(metrics.PhaseProbe)
			sink.Refresh()
			sortmerge.MergeJoinRuns(curR, curS, matchRun, ctx.Tracer, 0, 0)
			pc.AddTuples(n)
			ru := run{r: curR, s: curS}
			if spillDir != "" {
				pc.Begin(metrics.PhaseOther)
				if err := ru.spill(spillDir); err != nil {
					fail(fmt.Errorf("eager: pmj spill: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
				}
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
			now := ctx.NowMs()
			pc.Begin(metrics.PhasePartition)
			var rWaiting, sWaiting bool
			nR, nS := len(curR), len(curS)
			curR, rWaiting = rcur.batch(curR, bsz, now, atRest, ownsR, physical)
			curS, sWaiting = scur.batch(curS, bsz, now, atRest, ownsS, physical)
			nR, nS = len(curR)-nR, len(curS)-nS
			pc.AddTuples(int64(nR + nS))
			if len(curR)+len(curS) >= step {
				//lint:allow hotpathalloc seal runs once per sealed run, not per tuple
				seal()
			}
			if nR == 0 && nS == 0 && (rWaiting || sWaiting) {
				pc.Begin(metrics.PhaseWait)
				time.Sleep(stall)
			}
		}
		seal() // the final partial run

		// Merge phase: revisit stored runs and join the remaining pairs
		// of subsets (run i's R against run j's S for i != j; the i == j
		// pairs were joined when sealed). Spilled runs are re-read here,
		// paying the original PMJ's disk revisit cost.
		pc.Begin(metrics.PhaseMerge)
		sink.Refresh()
		if err := mergeRuns(runs, matchRun, sink, ctx.Tracer); err != nil {
			fail(err)
		}
		ctx.M.MemAdd(dist.statusBytes())
		pc.End()
	})
	ctx.M.MemSampleNow(ctx.NowMs())
	return firstErr
}

// mergeRuns joins every stored run's R against every other run's S (the
// i == j pairs were joined when sealed), re-reading spilled runs.
func mergeRuns(runs []run, matchRun func(rs, ss []tuple.Tuple), sink *core.Sink, tracer cachesim.Tracer) error {
	for i := range runs {
		ri, _, err := runs[i].load()
		if err != nil {
			return fmt.Errorf("eager: pmj reload: %w", err)
		}
		for j := range runs {
			if i == j {
				continue
			}
			_, sj, err := runs[j].load()
			if err != nil {
				return fmt.Errorf("eager: pmj reload: %w", err)
			}
			sortmerge.MergeJoinRuns(ri, sj, matchRun, tracer, 0, 0)
			sink.Refresh()
		}
	}
	return nil
}
