package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tuple"
)

// countingClock's NowMs returns how often it has been called, so two
// sinks read the same timestamps only if they sample the clock at the
// same matches.
type countingClock struct{ calls int64 }

func (c *countingClock) NowMs() int64     { c.calls++; return c.calls }
func (c *countingClock) Avail(int64) bool { return true }
func (c *countingClock) AtRest() bool     { return false }

type sinkRig struct {
	clk     *countingClock
	ctx     *ExecContext
	k       *Sink
	emitted []tuple.JoinResult
}

func newSinkRig() *sinkRig {
	g := &sinkRig{clk: &countingClock{}}
	g.ctx = &ExecContext{Threads: 1, Clock: g.clk, M: metrics.NewCollector(1)}
	g.ctx.Emit = func(jr tuple.JoinResult) { g.emitted = append(g.emitted, jr) }
	g.k = NewSink(g.ctx, 0)
	return g
}

// sinkTuples returns n tuples with distinct payloads, so an emitted
// result shows which tuple sat on which side.
func sinkTuples(rng *rand.Rand, n int, next *int32) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		*next++
		out[i] = tuple.Tuple{TS: rng.Int64N(40), Key: 7, Payload: *next}
	}
	return out
}

// TestSinkBlocksMatchScalarCadence drives one sequence of matches through
// the scalar Match and through MatchPairs / MatchRun: the clock must be
// sampled at the same matches, so latency, progress and emit order agree.
func TestSinkBlocksMatchScalarCadence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var next int32
	scalar, block := newSinkRig(), newSinkRig()

	pairs := func(n int, swap bool) {
		ps := sinkTuples(rng, n, &next)
		block.k.MatchPairs(ps, swap)
		for i := 0; i+1 < len(ps); i += 2 {
			if swap {
				scalar.k.Match(ps[i+1], ps[i])
			} else {
				scalar.k.Match(ps[i], ps[i+1])
			}
		}
	}
	run := func(nr, ns int) {
		rs, ss := sinkTuples(rng, nr, &next), sinkTuples(rng, ns, &next)
		block.k.MatchRun(rs, ss)
		for _, r := range rs {
			for _, s := range ss {
				scalar.k.Match(r, s)
			}
		}
	}
	refresh := func() { scalar.k.Refresh(); block.k.Refresh() }

	pairs(2*700, false) // the second block crosses the 1024 boundary
	pairs(2*700, true)
	pairs(2*MatchBatch, false)
	pairs(2*3000+1, true) // odd: the trailing tuple is ignored
	refresh()
	run(1, 5000)
	run(5000, 1)
	run(40, 40)
	run(0, 37)
	run(37, 0)
	refresh()
	for i := 0; i < 50; i++ {
		if rng.IntN(2) == 0 {
			pairs(2*rng.IntN(900), rng.IntN(2) == 0)
		} else {
			run(rng.IntN(60), rng.IntN(60))
		}
		if rng.IntN(8) == 0 {
			refresh()
		}
	}

	if scalar.clk.calls != block.clk.calls {
		t.Fatalf("clock sampled %d times by the block sink, %d by the scalar sink", block.clk.calls, scalar.clk.calls)
	}
	if scalar.clk.calls < 40 {
		t.Fatalf("only %d clock samples: the sequence does not exercise the cadence", scalar.clk.calls)
	}
	want := scalar.ctx.M.Snapshot("scalar", 0, 1)
	got := block.ctx.M.Snapshot("block", 0, 1)
	if got.Matches != want.Matches || got.LastMatchMs != want.LastMatchMs {
		t.Fatalf("matches/last = %d/%d, want %d/%d", got.Matches, got.LastMatchMs, want.Matches, want.LastMatchMs)
	}
	if got.LatencyP50Ms != want.LatencyP50Ms || got.LatencyP95Ms != want.LatencyP95Ms ||
		got.LatencyP99Ms != want.LatencyP99Ms || got.LatencyMaxMs != want.LatencyMaxMs {
		t.Fatalf("latency p50/p95/p99/max = %d/%d/%d/%d, want %d/%d/%d/%d",
			got.LatencyP50Ms, got.LatencyP95Ms, got.LatencyP99Ms, got.LatencyMaxMs,
			want.LatencyP50Ms, want.LatencyP95Ms, want.LatencyP99Ms, want.LatencyMaxMs)
	}
	if !reflect.DeepEqual(got.Progress, want.Progress) {
		t.Fatalf("progress CDF = %v, want %v", got.Progress, want.Progress)
	}
	if !reflect.DeepEqual(block.emitted, scalar.emitted) {
		t.Fatalf("emit sequences differ: %d block results, %d scalar", len(block.emitted), len(scalar.emitted))
	}
	if int64(len(scalar.emitted)) != want.Matches {
		t.Fatalf("%d results emitted for %d matches", len(scalar.emitted), want.Matches)
	}
}
