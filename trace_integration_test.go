package iawj

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// requiredPhases lists the phase names every trace of the given algorithm
// must contain: the per-worker spans must cover each phase the algorithm
// actually executes (Figure 7's non-zero columns).
var requiredPhases = map[string][]string{
	"NPJ":    {"wait", "build/sort", "probe"},
	"PRJ":    {"wait", "partition", "build/sort", "probe"},
	"MWAY":   {"wait", "partition", "build/sort", "merge", "probe"},
	"MPASS":  {"wait", "partition", "build/sort", "merge", "probe"},
	"SHJ_JM": {"partition", "build/sort", "probe"},
	"SHJ_JB": {"partition", "build/sort", "probe"},
	"PMJ_JM": {"partition", "build/sort", "merge", "probe"},
	"PMJ_JB": {"partition", "build/sort", "merge", "probe"},
}

// TestTraceCoversAllAlgorithms is the tentpole's acceptance check: joining
// with a recorder must produce Perfetto-loadable Chrome trace JSON whose
// per-worker spans cover every phase each of the eight algorithms runs.
func TestTraceCoversAllAlgorithms(t *testing.T) {
	w := smallWorkload(t)
	const threads = 2
	rec := NewTraceRecorder(threads, 0)

	for _, name := range allAlgorithms {
		if _, err := Join(w.R, w.S, Config{
			Algorithm:  name,
			Threads:    threads,
			WindowMs:   w.WindowMs,
			NsPerSimMs: 1000,
			Trace:      rec,
		}); err != nil {
			t.Fatalf("Join(%s): %v", name, err)
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}

	phasesByAlg := map[string]map[string]bool{}
	tidsByAlg := map[string]map[int]bool{}
	for i, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d: ph = %q, want complete event X", i, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d: negative ts/dur: %+v", i, ev)
		}
		if ev.TID < 0 || ev.TID >= threads {
			t.Fatalf("event %d: tid = %d, want [0,%d)", i, ev.TID, threads)
		}
		if ev.Name != ev.Args.Phase {
			t.Fatalf("event %d: name %q != args.phase %q", i, ev.Name, ev.Args.Phase)
		}
		alg := ev.Args.Algorithm
		if phasesByAlg[alg] == nil {
			phasesByAlg[alg] = map[string]bool{}
			tidsByAlg[alg] = map[int]bool{}
		}
		phasesByAlg[alg][ev.Name] = true
		tidsByAlg[alg][ev.TID] = true
	}

	for _, name := range allAlgorithms {
		got := phasesByAlg[name]
		if got == nil {
			t.Errorf("%s: no spans recorded", name)
			continue
		}
		for _, p := range requiredPhases[name] {
			if !got[p] {
				t.Errorf("%s: missing %q spans (have %v)", name, p, keys(got))
			}
		}
		// Every worker must have recorded spans: the trace is per-worker.
		if len(tidsByAlg[name]) != threads {
			t.Errorf("%s: spans from %d workers, want %d", name, len(tidsByAlg[name]), threads)
		}
	}
}

// TestTraceDisabledIsFree proves disabled tracing stays off the hot path:
// a Join without a recorder behaves identically and the nil handles do not
// allocate (the per-span guarantee lives in internal/trace's
// AllocsPerRun tests).
func TestTraceDisabledIsFree(t *testing.T) {
	w := smallWorkload(t)
	want := ExpectedMatches(w.R, w.S)
	res, err := Join(w.R, w.S, Config{
		Algorithm:  "SHJ_JM",
		Threads:    2,
		WindowMs:   w.WindowMs,
		NsPerSimMs: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Matches, want)
	}
}

// TestTraceRecorderReuseAcrossRuns checks the sweep use case: one recorder
// tagged per run, correctness unaffected.
func TestTraceRecorderReuseAcrossRuns(t *testing.T) {
	w := smallWorkload(t)
	want := ExpectedMatches(w.R, w.S)
	rec := NewTraceRecorder(2, 0)
	for i, name := range []string{"NPJ", "NPJ", "PRJ"} {
		res, err := Join(w.R, w.S, Config{
			Algorithm:  name,
			Threads:    2,
			WindowMs:   w.WindowMs,
			NsPerSimMs: 1000,
			Trace:      rec,
		})
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, name, err)
		}
		if res.Matches != want {
			t.Fatalf("run %d (%s): matches = %d, want %d", i, name, res.Matches, want)
		}
	}
	algs := rec.Algorithms()
	if fmt.Sprint(algs) != "[? NPJ PRJ]" {
		t.Errorf("Algorithms = %v, want [? NPJ PRJ]", algs)
	}
}

// captureCtx runs an algorithm and keeps its execution context, so a test
// can read the per-worker breakdown the run's Result sums away.
type captureCtx struct {
	core.Algorithm
	ctx *core.ExecContext
}

func (c *captureCtx) Run(ctx *core.ExecContext) error {
	c.ctx = ctx
	return c.Algorithm.Run(ctx)
}

// TestSpanSumEqualsBreakdown is the one-measurement invariant: the
// Figure 7 breakdown and the Perfetto spans come from one phase clock, so
// for every phase the span durations summed over all workers equal
// Result.PhaseNs exactly, and so does every (worker, phase) sum against
// that worker's own breakdown — for all eight algorithms and HANDSHAKE,
// streaming and at rest.
func TestSpanSumEqualsBreakdown(t *testing.T) {
	w := smallWorkload(t)
	const threads = 2
	for _, atRest := range []bool{false, true} {
		for _, name := range append(Algorithms(), "HANDSHAKE") {
			alg, err := NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewTraceRecorder(threads, 1<<16)
			cc := &captureCtx{Algorithm: alg}
			res, err := core.Run(cc, w.R, w.S, w.WindowMs, core.RunConfig{
				Threads: threads, AtRest: atRest, NsPerSimMs: 1000, Trace: rec,
			})
			if err != nil {
				t.Fatalf("%s atRest=%v: %v", name, atRest, err)
			}
			if d := rec.Dropped(); d != 0 {
				t.Fatalf("%s atRest=%v: ring dropped %d spans", name, atRest, d)
			}
			var total [6]int64
			var perWorker [threads][6]int64
			for _, s := range rec.Snapshot() {
				total[s.Phase] += s.DurNs
				perWorker[s.TID][s.Phase] += s.DurNs
			}
			if total != res.PhaseNs {
				t.Errorf("%s atRest=%v: span sums %v != breakdown %v", name, atRest, total, res.PhaseNs)
			}
			for tid := range perWorker {
				if got := cc.ctx.M.T(tid).PhaseNs; perWorker[tid] != got {
					t.Errorf("%s atRest=%v worker %d: span sums %v != breakdown %v", name, atRest, tid, perWorker[tid], got)
				}
			}
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
