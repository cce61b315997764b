package main

import (
	_ "embed"
	"fmt"

	iawj "repro"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/oracle"
	"repro/internal/tuple"
	"repro/internal/window"
	"repro/internal/workloadspec"
)

// streamSkewSpec is the stream-skew workload: a Poisson client with
// zipf(0.8) keys and an MMPP on/off client with hot-set keys over 8192
// keys, 20 000 simulated ms at 50 tuples per simulated ms per stream. At
// 100 tuples the joins fall behind arrival inside each window on a
// two-vCPU host, and their latency then follows the shared host's load
// (README.md gives the measured spreads). Its own seed is replaced by the
// benchmark's --seed.
//
//go:embed stream-skew.json
var streamSkewSpec []byte

// streamSkewWindowMs is the tumbling window the stream-skew workload is
// cut into (200 windows over its 20 000 simulated ms).
const streamSkewWindowMs = 100

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"rest-fk", "rest-dup", "stream-skew"}

// scale shrinks a workload for the smoke tests; 1 is the benchmark size.
type scale struct {
	microTuples int     // rest-fk tuples per side
	rovio       float64 // rest-dup gen scale
	durationMs  int64   // stream-skew arrival span in simulated ms
}

var fullScale = scale{microTuples: 1_000_000, rovio: 0.02, durationMs: 20_000}

// workload is one benchmark input set after set-up: the generated tuples,
// the oracle's answer for every window the program will join, and the
// state pool all timed joins share.
type workload struct {
	name     string
	windowed bool // joined through JoinWindowed (stream-skew) rather than Join
	spec     window.Spec
	r, s     tuple.Relation
	// want[i] is the oracle match count of window i, in the order
	// JoinWindowed returns windows; -1 marks a window with input on only
	// one side, which the program skips without running a join.
	want []int64
	// digest is the oracle digest of the whole output as the program
	// emits it (windowed timestamps rebased to their window start).
	digest oracle.Digest
	// parts are the (R, S) inputs of every window that runs a join, as
	// the program receives them; the layer replays call into the modules
	// on them.
	parts []part
	pool  *iawj.StatePool
}

type part struct{ r, s tuple.Relation }

// inputs is |R|+|S|, the numerator of every throughput figure.
func (w *workload) inputs() int64 { return int64(len(w.r) + len(w.s)) }

// joinedWindows counts the windows that run a join: one timed operation
// each.
func (w *workload) joinedWindows() int {
	n := 0
	for _, c := range w.want {
		if c >= 0 {
			n++
		}
	}
	return n
}

// setupTimes splits one set-up into the layers it calls, in seconds.
type setupTimes struct {
	generate  float64 // gen (rest-*)
	compile   float64 // workloadspec.Compile (stream-skew)
	reference float64 // windowing plus oracle.Reference per window
	calibrate float64 // the first NewStatePool's prefetch calibration
}

func (t setupTimes) total() float64 { return t.generate + t.compile + t.reference + t.calibrate }

// build generates the named workload from seed and computes its oracle
// answer, recording one span per step under parent. pool is the process's
// first state pool, or nil: then build creates it, which runs the
// once-per-process prefetch calibration. Later set-ups in the same
// process time that calibration directly, as the work a fresh process
// would do in its first NewStatePool.
func build(name string, seed uint64, sc scale, pool *iawj.StatePool, log *spanLog, parent int) (*workload, setupTimes, error) {
	step := func(span string, f func() error) (float64, error) {
		start := log.now()
		sw := clock.StartStopwatch()
		err := f()
		s := seconds(sw.ElapsedNs())
		log.add(span, parent, start, log.now())
		return s, err
	}
	var t setupTimes
	var err error
	w := &workload{name: name}
	switch name {
	case "rest-fk":
		t.generate, err = step("gen.MicroStatic", func() error {
			g := iawj.MicroStatic(sc.microTuples, sc.microTuples, 1, 0, seed)
			w.r, w.s = g.R, g.S
			return nil
		})
	case "rest-dup":
		t.generate, err = step("gen.Rovio", func() error {
			g := iawj.Rovio(iawj.WorkloadScale(sc.rovio), seed)
			w.r, w.s = g.R, g.S
			return nil
		})
	case "stream-skew":
		w.windowed = true
		w.spec = window.Spec{Kind: window.Tumbling, LengthMs: streamSkewWindowMs}
		t.compile, err = step("workloadspec.Compile", func() error {
			sp, err := workloadspec.Parse(streamSkewSpec)
			if err != nil {
				return err
			}
			sp.Seed = seed
			sp.DurationMs = sc.durationMs
			c, err := workloadspec.Compile(sp, workloadspec.Options{})
			if err != nil {
				return fmt.Errorf("compile %s: %w", name, err)
			}
			w.r, w.s = c.Workload.R, c.Workload.S
			return nil
		})
	default:
		return nil, t, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, t, err
	}
	if t.reference, err = step("oracle.Reference", w.reference); err != nil {
		return nil, t, err
	}
	t.calibrate, _ = step("pool.calibrate", func() error {
		if pool == nil {
			pool = iawj.NewStatePool()
		} else {
			_ = hashtable.CalibrateProbePrefetch()
		}
		return nil
	})
	w.pool = pool
	return w, t, nil
}

// reference fills want and digest from oracle.Reference, window by window
// for windowed workloads, on the inputs exactly as the program sees them.
func (w *workload) reference() error {
	if !w.windowed {
		w.digest = oracle.Reference(w.r, w.s)
		w.want = []int64{w.digest.Full.Count}
		w.parts = []part{{w.r, w.s}}
		return nil
	}
	pairs, err := window.AssignPair(w.r, w.s, w.spec)
	if err != nil {
		return fmt.Errorf("%s: assign windows: %w", w.name, err)
	}
	w.want = make([]int64, len(pairs))
	for i, p := range pairs {
		if len(p.R) == 0 || len(p.S) == 0 {
			w.want[i] = -1
			continue
		}
		pt := part{rebase(p.R, p.Window.Start), rebase(p.S, p.Window.Start)}
		d := oracle.Reference(pt.r, pt.s)
		w.want[i] = d.Full.Count
		w.parts = append(w.parts, pt)
		w.digest.Merge(d)
	}
	return nil
}

// rebase shifts timestamps so a window starts at zero, as JoinWindowed
// does before it joins the window; the emitted results carry the shifted
// timestamps, so the oracle must digest the same tuples.
func rebase(rel tuple.Relation, start int64) tuple.Relation {
	out := rel.Clone()
	for i := range out {
		out[i].TS -= start
	}
	return out
}

// nsPerSimMs is the arrival simulation's real nanoseconds per simulated
// millisecond: the program's default, which the benchmark leaves unset.
const nsPerSimMs = core.DefaultNsPerSimMs

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
