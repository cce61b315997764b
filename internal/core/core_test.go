package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

func TestChunkCoversAll(t *testing.T) {
	f := func(nRaw uint16, thRaw uint8) bool {
		n := int(nRaw)
		threads := int(thRaw)%8 + 1
		covered := 0
		prevHi := 0
		for tid := 0; tid < threads; tid++ {
			lo, hi := Chunk(n, threads, tid)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countAlg is a trivial Algorithm used to exercise the runner.
type countAlg struct{ ran *bool }

func (countAlg) Name() string       { return "COUNT" }
func (countAlg) Approach() Approach { return Lazy }
func (countAlg) Method() JoinMethod { return HashJoin }
func (c countAlg) Run(ctx *ExecContext) error {
	*c.ran = true
	if ctx.Threads < 1 {
		return errors.New("no threads")
	}
	ctx.M.T(0).Matches(3, 10, 5)
	return nil
}

func TestRunProducesResult(t *testing.T) {
	ran := false
	r := tuple.Relation{{TS: 0, Key: 1}}
	s := tuple.Relation{{TS: 0, Key: 1}}
	res, err := Run(countAlg{&ran}, r, s, 10, RunConfig{Threads: 2, AtRest: true})
	if err != nil || !ran {
		t.Fatalf("run failed: %v ran=%v", err, ran)
	}
	if res.Matches != 3 || res.Inputs != 2 || res.Threads != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Algorithm != "COUNT" {
		t.Fatalf("algorithm name = %q", res.Algorithm)
	}
}

func TestRunNilAlgorithm(t *testing.T) {
	if _, err := Run(nil, nil, nil, 0, RunConfig{}); !errors.Is(err, ErrNoAlgorithm) {
		t.Fatalf("err = %v", err)
	}
}

func TestKnobDefaults(t *testing.T) {
	var k Knobs
	k.defaults()
	if k.RadixBits != 10 || k.SortStepFrac != 0.2 || k.GroupSize != 1 || k.BatchSize != 64 {
		t.Fatalf("defaults = %+v", k)
	}
	k = Knobs{RadixBits: 12, SortStepFrac: 0.4, GroupSize: 4, BatchSize: 16}
	k.defaults()
	if k.RadixBits != 12 || k.SortStepFrac != 0.4 || k.GroupSize != 4 || k.BatchSize != 16 {
		t.Fatalf("defaults overwrote explicit values: %+v", k)
	}
}

func TestApproachAndMethodStrings(t *testing.T) {
	if Lazy.String() != "lazy" || Eager.String() != "eager" {
		t.Fatal("approach strings")
	}
	if HashJoin.String() != "hash" || SortJoin.String() != "sort" {
		t.Fatal("method strings")
	}
}

// Decision-tree tests: every leaf of Figure 4 must be reachable and the
// recommendations must match the paper's text.

func TestDecisionLowRateRecommendsSHJJM(t *testing.T) {
	adv := Advise(Profile{RateR: 100, RateS: 50000}, DefaultThresholds())
	if adv.Algorithm != "SHJ_JM" {
		t.Fatalf("one low-rate stream must pick SHJ_JM, got %s", adv.Algorithm)
	}
}

func TestDecisionHighRateHighDupe(t *testing.T) {
	base := Profile{RateR: 30000, RateS: 30000, Dupe: 100, Tuples: 1 << 22}
	big := base
	big.Cores = 16
	if adv := Advise(big, DefaultThresholds()); adv.Algorithm != "MPASS" {
		t.Fatalf("large cores must pick MPASS, got %s", adv.Algorithm)
	}
	small := base
	small.Cores = 4
	if adv := Advise(small, DefaultThresholds()); adv.Algorithm != "MWAY" {
		t.Fatalf("small cores must pick MWAY, got %s", adv.Algorithm)
	}
}

func TestDecisionHighRateLowDupe(t *testing.T) {
	big := Profile{RateR: 30000, RateS: 30000, Dupe: 1, KeySkew: 0.1, Tuples: 1 << 22, Cores: 8}
	if adv := Advise(big, DefaultThresholds()); adv.Algorithm != "PRJ" {
		t.Fatalf("low skew + large join must pick PRJ, got %s", adv.Algorithm)
	}
	skewed := big
	skewed.KeySkew = 1.5
	if adv := Advise(skewed, DefaultThresholds()); adv.Algorithm != "NPJ" {
		t.Fatalf("high skew must pick NPJ (PRJ is skew-intolerant), got %s", adv.Algorithm)
	}
	small := big
	small.Tuples = 1000
	if adv := Advise(small, DefaultThresholds()); adv.Algorithm != "NPJ" {
		t.Fatalf("small join must pick NPJ, got %s", adv.Algorithm)
	}
}

func TestDecisionMediumRate(t *testing.T) {
	highDupe := Profile{RateR: 12800, RateS: 12800, Dupe: 100, Cores: 8}
	if adv := Advise(highDupe, DefaultThresholds()); adv.Algorithm != "PMJ_JB" {
		t.Fatalf("medium rate + high dupe must pick PMJ_JB, got %s", adv.Algorithm)
	}
	lat := Profile{RateR: 12800, RateS: 12800, Dupe: 1, Cores: 8, Objective: OptLatency}
	if adv := Advise(lat, DefaultThresholds()); adv.Algorithm != "SHJ_JM" {
		t.Fatalf("medium rate + low dupe + latency must pick SHJ_JM, got %s", adv.Algorithm)
	}
	prog := lat
	prog.Objective = OptProgressiveness
	if adv := Advise(prog, DefaultThresholds()); adv.Algorithm != "SHJ_JM" {
		t.Fatalf("progressiveness objective must pick SHJ_JM, got %s", adv.Algorithm)
	}
	tput := Profile{RateR: 12800, RateS: 12800, Dupe: 1, KeySkew: 0.1, Tuples: 1 << 22, Cores: 8, Objective: OptThroughput}
	adv := Advise(tput, DefaultThresholds())
	if adv.Algorithm != "PRJ" && adv.Algorithm != "NPJ" {
		t.Fatalf("throughput objective must fall through to the lazy subtree, got %s", adv.Algorithm)
	}
}

func TestDecisionAtRest(t *testing.T) {
	adv := Advise(Profile{RateR: RateInfinite, RateS: RateInfinite, Dupe: 500, Cores: 8, Tuples: 1 << 22}, DefaultThresholds())
	if adv.Algorithm != "MPASS" {
		t.Fatalf("at-rest high-dupe (DEBS-like) must pick MPASS, got %s", adv.Algorithm)
	}
}

func TestAdvicePathIsExplained(t *testing.T) {
	adv := Advise(Profile{RateR: 100, RateS: 100}, DefaultThresholds())
	if len(adv.Path) == 0 {
		t.Fatal("advice must carry the decision path")
	}
	if adv.String() == "" {
		t.Fatal("advice must render")
	}
}

func TestObjectiveAndRateLevelStrings(t *testing.T) {
	if OptThroughput.String() != "throughput" || OptLatency.String() != "latency" ||
		OptProgressiveness.String() != "progressiveness" {
		t.Fatal("objective strings")
	}
	if RateLow.String() != "low" || RateMedium.String() != "medium" || RateHigh.String() != "high" {
		t.Fatal("rate level strings")
	}
}

func TestSinkRecordsMatches(t *testing.T) {
	ctx := &ExecContext{
		R:       tuple.Relation{{TS: 1, Key: 1}},
		S:       tuple.Relation{{TS: 2, Key: 1}},
		Threads: 1,
		Clock:   fakeClock{now: 100},
		M:       metrics.NewCollector(1),
	}
	var emitted []tuple.JoinResult
	ctx.Emit = func(jr tuple.JoinResult) { emitted = append(emitted, jr) }
	k := NewSink(ctx, 0)
	k.Match(ctx.R[0], ctx.S[0])
	k.Refresh()
	if got := ctx.M.T(0).MatchCount(); got != 1 {
		t.Fatalf("match count = %d", got)
	}
	if len(emitted) != 1 || emitted[0].TS != 2 {
		t.Fatalf("emitted = %+v", emitted)
	}
}

type fakeClock struct{ now int64 }

func (f fakeClock) NowMs() int64       { return f.now }
func (f fakeClock) Avail(t int64) bool { return t <= f.now }
func (f fakeClock) AtRest() bool       { return false }

func TestWaitWindowBlocksUntilArrival(t *testing.T) {
	mc := clock.NewManual()
	ctx := &ExecContext{
		R:        tuple.Relation{{TS: 5, Key: 1}},
		S:        tuple.Relation{{TS: 8, Key: 1}},
		WindowMs: 10,
		Threads:  1,
		Clock:    mc,
		M:        metrics.NewCollector(1),
	}
	done := make(chan struct{})
	go func() {
		ctx.WaitWindow(0)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitWindow returned before the window closed")
	case <-time.After(5 * time.Millisecond):
	}
	mc.Set(10) // window fully arrived
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitWindow did not return after the window closed")
	}
	res := ctx.M.Snapshot("x", 2, 1)
	if res.PhaseNs[metrics.PhaseWait] == 0 {
		t.Fatal("wait time must be recorded")
	}
}

func TestRunRejectsUnsortedStreaming(t *testing.T) {
	ran := false
	r := tuple.Relation{{TS: 9}, {TS: 1}}
	if _, err := Run(countAlg{&ran}, r, nil, 10, RunConfig{Threads: 1}); !errors.Is(err, ErrUnsortedInput) {
		t.Fatalf("err = %v, want ErrUnsortedInput", err)
	}
	if ran {
		t.Fatal("algorithm must not run on rejected input")
	}
}

func TestRunRejectsTooManyThreads(t *testing.T) {
	for _, tc := range []struct {
		threads int
		wantErr error
	}{
		{MaxThreads, nil},
		{MaxThreads + 1, ErrTooManyThreads},
	} {
		ran := false
		_, err := Run(countAlg{&ran}, nil, nil, 10, RunConfig{Threads: tc.threads, AtRest: true})
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("Threads %d: err = %v, want %v", tc.threads, err, tc.wantErr)
		}
		if ran != (tc.wantErr == nil) {
			t.Fatalf("Threads %d: ran = %v", tc.threads, ran)
		}
	}
}

type phaseRecorder struct {
	phases []int
}

func (p *phaseRecorder) Access(uint64)   {}
func (p *phaseRecorder) Op(uint64)       {}
func (p *phaseRecorder) SetPhase(ph int) { p.phases = append(p.phases, ph) }

func TestBeginForwardsPhaseToTracer(t *testing.T) {
	rec := &phaseRecorder{}
	ctx := &ExecContext{
		Threads: 1,
		Clock:   fakeClock{},
		M:       metrics.NewCollector(1),
		Tracer:  rec,
	}
	ctx.Begin(0, metrics.PhaseProbe)
	ctx.Begin(0, metrics.PhaseMerge)
	if len(rec.phases) != 2 || rec.phases[0] != int(metrics.PhaseProbe) || rec.phases[1] != int(metrics.PhaseMerge) {
		t.Fatalf("phases = %v", rec.phases)
	}
}
