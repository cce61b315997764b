package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestPhaseClockBreakdown checks that the phase clock credits each closed
// stretch to the worker's breakdown, that re-entering the open phase does
// not split it, and that Snapshot reports only closed stretches.
func TestPhaseClockBreakdown(t *testing.T) {
	ctx := &ExecContext{Threads: 1, Clock: fakeClock{}, M: metrics.NewCollector(1)}
	pc := NewPhaseClock(ctx, 0)
	pc.Begin(metrics.PhaseBuildSort)
	time.Sleep(2 * time.Millisecond)
	pc.Begin(metrics.PhaseProbe)
	time.Sleep(time.Millisecond)
	pc.Begin(metrics.PhaseProbe) // no-op: the probe stretch goes on
	time.Sleep(time.Millisecond)
	if got := ctx.M.T(0).PhaseNs[metrics.PhaseProbe]; got != 0 {
		t.Fatalf("open probe stretch already booked %d ns", got)
	}
	pc.End()
	pc.End() // nothing open
	res := ctx.M.Snapshot("x", 100, int64(5*time.Millisecond))
	if res.PhaseNs[metrics.PhaseBuildSort] < int64(time.Millisecond) {
		t.Fatalf("build phase too short: %d", res.PhaseNs[metrics.PhaseBuildSort])
	}
	if res.PhaseNs[metrics.PhaseProbe] < int64(2*time.Millisecond) {
		t.Fatalf("probe phase %d ns, want both sleeps in one stretch", res.PhaseNs[metrics.PhaseProbe])
	}
	if res.PhaseNs[metrics.PhaseWait] != 0 {
		t.Fatal("no wait recorded")
	}
}

// TestPhaseClockPublishesSpans checks that with a recorder attached every
// closed stretch is published as one span carrying its tuple count, and
// that span and breakdown are the same measurement: each span's duration
// is exactly what the breakdown was credited, and consecutive spans share
// their boundary instant, so a transition read the clock once.
func TestPhaseClockPublishesSpans(t *testing.T) {
	rec := trace.NewRecorder(2, 8)
	rec.StartRun("NPJ")
	ctx := &ExecContext{Threads: 2, Clock: fakeClock{}, M: metrics.NewCollector(2), Trace: rec}
	pc := NewPhaseClock(ctx, 1)
	pc.Begin(metrics.PhaseBuildSort)
	pc.AddTuples(100)
	pc.Begin(metrics.PhaseProbe) // closes the build span
	pc.AddTuples(40)
	pc.Begin(metrics.PhaseProbe) // no-op: the count goes on
	pc.AddTuples(2)
	pc.End()

	spans := rec.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != int32(metrics.PhaseBuildSort) || spans[0].Tuples != 100 {
		t.Errorf("span 0 = %+v, want build/sort with 100 tuples", spans[0])
	}
	if spans[1].Phase != int32(metrics.PhaseProbe) || spans[1].Tuples != 42 {
		t.Errorf("span 1 = %+v, want probe with 42 tuples", spans[1])
	}
	if spans[0].StartNs+spans[0].DurNs != spans[1].StartNs {
		t.Errorf("spans %+v and %+v do not share their boundary", spans[0], spans[1])
	}
	tm := ctx.M.T(1)
	for i, s := range spans {
		if s.TID != 1 {
			t.Errorf("span %d TID = %d, want 1", i, s.TID)
		}
		if s.DurNs < 0 || s.StartNs < 0 {
			t.Errorf("span %d has negative time: %+v", i, s)
		}
		if got := rec.AlgName(s.Alg); got != "NPJ" {
			t.Errorf("span %d algorithm = %q, want NPJ", i, got)
		}
		if tm.PhaseNs[s.Phase] != s.DurNs {
			t.Errorf("span %d lasts %d ns, breakdown has %d", i, s.DurNs, tm.PhaseNs[s.Phase])
		}
	}
}

// TestPhaseClockTransitionAllocs pins the per-transition cost at zero
// allocations with tracing off and with a preallocated ring attached.
func TestPhaseClockTransitionAllocs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		ctx := &ExecContext{Threads: 1, Clock: fakeClock{}, M: metrics.NewCollector(1), Tracer: &phaseRecorder{phases: make([]int, 0, 4096)}}
		if traced {
			ctx.Trace = trace.NewRecorder(1, 1<<12)
		}
		pc := NewPhaseClock(ctx, 0)
		p := metrics.PhaseBuildSort
		allocs := testing.AllocsPerRun(1000, func() {
			p ^= metrics.PhaseBuildSort ^ metrics.PhaseProbe // a real transition every run
			pc.Begin(p)
			pc.AddTuples(64)
		})
		if allocs != 0 {
			t.Errorf("traced=%v: a transition allocates %.1f, want 0", traced, allocs)
		}
	}
}
