package core

import (
	"repro/internal/cachesim"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// PhaseClock is one worker's phase accumulator, and the only code that
// reads a clock for phase time. A transition (Begin or End) reads the
// clock once and closes the open stretch: its duration is added to the
// worker's time breakdown (metrics.ThreadMetrics.PhaseNs, summed into
// Result.PhaseNs), and when a trace recorder is attached the same stretch,
// with the same start and duration, is published as one span. A
// phase-aware cache tracer is told of every transition. The Figure 7
// breakdown, the Perfetto spans and the Figure 8 cache phases therefore
// read one measurement.
//
// A PhaseClock must only be used by its owning worker goroutine; workers
// create theirs with NewPhaseClock and keep it on their stack.
type PhaseClock struct {
	sw clock.Stopwatch // the recorder's time base when tracing
	tm *metrics.ThreadMetrics
	tw *trace.Worker        // nil when tracing is off
	ps cachesim.PhaseSetter // nil unless the cache tracer is phase-aware

	cur     metrics.Phase
	open    bool
	startNs int64
	tuples  int64
}

// NewPhaseClock binds a phase clock to worker tid of ctx. The cache
// tracer's type assertion happens here, once per worker and run, not on
// every transition.
func NewPhaseClock(ctx *ExecContext, tid int) PhaseClock {
	c := PhaseClock{sw: ctx.Trace.Stopwatch(), tm: ctx.M.T(tid), tw: ctx.Trace.T(tid)}
	c.ps, _ = ctx.Tracer.(cachesim.PhaseSetter)
	return c
}

// Begin switches the worker into phase p, closing the open stretch.
// Beginning the phase that is already open is a no-op: the stretch, and
// its tuple count, go on.
func (c *PhaseClock) Begin(p metrics.Phase) {
	if c.open && c.cur == p {
		return
	}
	now := c.sw.ElapsedNs()
	c.close(now)
	c.cur, c.open, c.startNs, c.tuples = p, true, now, 0
	if c.ps != nil {
		c.ps.SetPhase(int(p))
	}
}

// End closes the open stretch; a worker calls it once when it finishes.
// The cache tracer is told that no phase is open (-1).
func (c *PhaseClock) End() {
	if !c.open {
		return
	}
	c.close(c.sw.ElapsedNs())
	c.open = false
	if c.ps != nil {
		c.ps.SetPhase(-1)
	}
}

// AddTuples attributes n inputs to the open stretch's span.
func (c *PhaseClock) AddTuples(n int64) { c.tuples += n }

// close books the open stretch, if any, ending at now.
func (c *PhaseClock) close(now int64) {
	if !c.open {
		return
	}
	d := now - c.startNs
	c.tm.PhaseNs[c.cur] += d
	c.tw.Record(int(c.cur), c.startNs, d, c.tuples)
}
