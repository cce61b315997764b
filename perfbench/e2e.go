package main

import (
	"fmt"
	"runtime"

	iawj "repro"
	"repro/internal/clock"
	"repro/internal/oracle"
)

// benchThreads is the worker count of every timed join: the evaluation
// host has two CPUs.
const benchThreads = 2

// config is the join configuration every pass of w uses for alg.
func (w *workload) config(alg string, threads int) iawj.Config {
	return iawj.Config{
		Algorithm: alg,
		Threads:   threads,
		SIMD:      true,
		AtRest:    !w.windowed,
		Pool:      w.pool,
	}
}

// outcome is one Join or JoinWindowed call: its wall time, the result of
// every window that ran a join, and its operations (one per window that
// ran a join) with those that failed.
type outcome struct {
	wallNs  int64
	results []iawj.Result
	ops     int
	failed  int
	err     error // the first failure, for the report on stderr
}

// join runs cfg over the whole workload through the public API and checks
// every window's match count against the oracle.
func (w *workload) join(cfg iawj.Config) outcome {
	o := outcome{ops: w.joinedWindows()}
	if !w.windowed {
		sw := clock.StartStopwatch()
		res, err := iawj.Join(w.r, w.s, cfg)
		o.wallNs = sw.ElapsedNs()
		switch {
		case err != nil:
			o.failed, o.err = 1, err
		case res.Matches != w.want[0]:
			o.failed, o.err = 1, fmt.Errorf("%d matches, oracle says %d", res.Matches, w.want[0])
		default:
			o.results = []iawj.Result{res}
		}
		return o
	}
	sw := clock.StartStopwatch()
	out, err := iawj.JoinWindowed(w.r, w.s, w.spec, cfg)
	o.wallNs = sw.ElapsedNs()
	o.err = err
	for i, want := range w.want {
		if want < 0 {
			continue
		}
		if i >= len(out) {
			o.failed++
			continue
		}
		if got := out[i].Result.Matches; got != want {
			o.failed++
			if o.err == nil {
				o.err = fmt.Errorf("window %d: %d matches, oracle says %d", i, got, want)
			}
			continue
		}
		o.results = append(o.results, out[i].Result)
	}
	if err != nil && o.failed == 0 {
		o.failed = 1
	}
	return o
}

// tally counts operations attempted and failed over a run.
type tally struct{ attempted, failed int }

func (t *tally) add(alg string, o outcome) {
	t.attempted += o.ops
	t.failed += o.failed
	if o.err != nil {
		logf("FAIL %s: %v", alg, o.err)
	}
}

// verify runs alg once with every result emitted into an oracle sink and
// requires the sink's digest to equal oracle.Reference's. It is untimed
// and counts as one operation.
func (w *workload) verify(alg string, t *tally) {
	sink := oracle.NewSink()
	cfg := w.config(alg, benchThreads)
	cfg.Emit = sink.Emit
	o := w.join(cfg)
	t.attempted++
	if o.failed > 0 || o.err != nil {
		t.failed++
		logf("FAIL verify %s: %v", alg, o.err)
		return
	}
	if got := sink.Digest(); got != w.digest {
		t.failed++
		logf("FAIL verify %s: digest %v, oracle %v", alg, got.Full, w.digest.Full)
	}
}

// passStats are one call's end-to-end figures; latencies and t50 are in
// real microseconds, aggregated over windows by their grouped median.
type passStats struct {
	mtps, latP50, latP99, t50 float64
	matches                   int64
}

func (w *workload) stats(o outcome) passStats {
	ps := passStats{mtps: float64(w.inputs()) / seconds(o.wallNs) / 1e6}
	p50 := make([]float64, 0, len(o.results))
	p99 := make([]float64, 0, len(o.results))
	t50 := make([]float64, 0, len(o.results))
	for i := range o.results {
		r := &o.results[i]
		ps.matches += r.Matches
		p50 = append(p50, float64(r.LatencyP50Ms))
		p99 = append(p99, float64(r.LatencyP99Ms))
		t50 = append(t50, float64(r.TimeToFrac(0.5)))
	}
	ps.latP50 = simMsToUs(groupedMedian(p50), nsPerSimMs)
	ps.latP99 = simMsToUs(groupedMedian(p99), nsPerSimMs)
	ps.t50 = simMsToUs(groupedMedian(t50), nsPerSimMs)
	return ps
}

// samples collects one algorithm's per-pass figures over a run.
type samples struct {
	mtps, latP50, latP99, t50 []float64
	matches                   int64
}

func (s *samples) add(ps passStats) {
	s.mtps = append(s.mtps, ps.mtps)
	s.latP50 = append(s.latP50, ps.latP50)
	s.latP99 = append(s.latP99, ps.latP99)
	s.t50 = append(s.t50, ps.t50)
	s.matches = ps.matches
}

// timedRun joins every algorithm in turn, round after round, with tracing
// off, for as many whole rounds as fit in budgetNs (at least one). Failed
// calls count in t and contribute no sample. Every call starts on a
// freshly collected heap: the state pool keeps hundreds of MiB live,
// and without the collection one algorithm's garbage is charged to
// whichever call the next GC cycle lands in, which made single calls vary
// by up to 2x.
func (w *workload) timedRun(budgetNs int64, t *tally) map[string]*samples {
	out := map[string]*samples{}
	for _, alg := range iawj.Algorithms() {
		out[alg] = &samples{}
	}
	for rounds := newRounds(budgetNs); rounds.next(); {
		for _, alg := range iawj.Algorithms() {
			runtime.GC()
			o := w.join(w.config(alg, benchThreads))
			t.add(alg, o)
			if o.failed == 0 {
				out[alg].add(w.stats(o))
			}
		}
	}
	return out
}

// rounds paces a run: another round starts only if ending after it lands
// nearer the budget than stopping now, so a run overshoots by at most half
// a round (a stream-skew round takes about nine seconds).
type rounds struct {
	sw        clock.Stopwatch
	budgetNs  int64
	lastStart int64
	started   bool
}

func newRounds(budgetNs int64) *rounds {
	return &rounds{sw: clock.StartStopwatch(), budgetNs: budgetNs}
}

// next reports whether to run another round.
func (r *rounds) next() bool {
	now := r.sw.ElapsedNs()
	if r.started && now+(now-r.lastStart)/2 > r.budgetNs {
		return false
	}
	r.started, r.lastStart = true, now
	return true
}

// endToEnd turns a timed run into the end-to-end metrics.
func endToEnd(setupS float64, run map[string]*samples) metricSet {
	m := metricSet{}
	m.put("setup_s", setupS, "s")
	for _, alg := range iawj.Algorithms() {
		m.put("mtps."+alg, median(run[alg].mtps), "Mtuples/s")
	}
	for _, fam := range families {
		var p50, p99, t50 []float64
		var matches int64
		for _, alg := range fam.algs {
			s := run[alg]
			p50 = append(p50, median(s.latP50))
			p99 = append(p99, median(s.latP99))
			t50 = append(t50, median(s.t50))
			matches += s.matches
		}
		m.put(fam.name+".lat_p50_us", geomean(p50), "us")
		m.put(fam.name+".lat_p99_us", geomean(p99), "us")
		m.put(fam.name+".t50_us", geomean(t50), "us")
		logf("%s family: latency and t50 summarize %d matches per round", fam.name, matches)
	}
	return m
}

// families are the paper's two execution approaches; their latency and
// progressiveness are reported as geometric means over the members.
var families = []struct {
	name string
	algs []string
}{
	{"lazy", iawj.LazyAlgorithms()},
	{"eager", iawj.EagerAlgorithms()},
}
