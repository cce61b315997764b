package iawj

import (
	"errors"
	"testing"
)

func TestJoinRejectsUnsortedStreamingInput(t *testing.T) {
	r := Relation{{TS: 10, Key: 1}, {TS: 0, Key: 1}}
	s := Relation{{TS: 0, Key: 1}}
	if _, err := Join(r, s, Config{Algorithm: "SHJ_JM", Threads: 1, WindowMs: 20}); err == nil {
		t.Fatal("unsorted streaming input must be rejected")
	}
	// At rest, order does not matter: no gating happens.
	if _, err := Join(r, s, Config{Algorithm: "SHJ_JM", Threads: 1, AtRest: true}); err != nil {
		t.Fatalf("at-rest input must not require order: %v", err)
	}
}

// TestThreadsCap checks the Config.Threads bound at every public entry
// point: zero means GOMAXPROCS, MaxThreads itself runs, one more is
// rejected with ErrTooManyThreads before any join starts, even when every
// window has input on one side only and no join would run.
func TestThreadsCap(t *testing.T) {
	r := Relation{{TS: 0, Key: 1}, {TS: 1, Key: 2}, {TS: 12, Key: 1}}
	s := Relation{{TS: 0, Key: 1}, {TS: 2, Key: 2}, {TS: 13, Key: 1}}
	spec := WindowSpec{Kind: Tumbling, LengthMs: 10}
	oneSided := Relation{{TS: 0, Key: 1}}
	for _, tc := range []struct {
		name    string
		threads int
		wantErr error
	}{
		{"zero means GOMAXPROCS", 0, nil},
		{"at the cap", MaxThreads, nil},
		{"over the cap", MaxThreads + 1, ErrTooManyThreads},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Algorithm: "SHJ_JM", Threads: tc.threads, AtRest: true}
			res, err := Join(r, s, cfg)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Join: err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && res.Matches != ExpectedMatches(r, s) {
				t.Fatalf("Join: %d matches, want %d", res.Matches, ExpectedMatches(r, s))
			}
			if _, err := JoinWindowed(r, s, spec, cfg); !errors.Is(err, tc.wantErr) {
				t.Fatalf("JoinWindowed: err = %v, want %v", err, tc.wantErr)
			}
			if _, err := JoinWindowed(oneSided, nil, spec, cfg); !errors.Is(err, tc.wantErr) {
				t.Fatalf("JoinWindowed, one-sided: err = %v, want %v", err, tc.wantErr)
			}
			if _, err := JoinWindowedParallel(r, s, spec, cfg, 2); !errors.Is(err, tc.wantErr) {
				t.Fatalf("JoinWindowedParallel: err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestProfileWorkloadYSBRegression guards a decision-tree bug: YSB's
// at-rest campaigns table (all timestamps zero) computed a finite "rate"
// of count-per-1ms that happened to hit the low-rate branch and
// recommended an eager join for a throughput-bound workload.
func TestProfileWorkloadYSBRegression(t *testing.T) {
	w := YSB(0.02, 3)
	p := ProfileWorkload(w, 4, OptThroughput)
	if p.RateR != RateInfinite {
		t.Fatalf("at-rest side must profile as infinite rate, got %f", p.RateR)
	}
	adv := Advise(p)
	for _, eager := range EagerAlgorithms() {
		if adv.Algorithm == eager {
			t.Fatalf("throughput-bound YSB must not recommend an eager join, got %s", adv.Algorithm)
		}
	}
	// Duplication is profiled as the minimum across streams: YSB's
	// unique-key campaigns table keeps the hash-lazy branch in play.
	if p.Dupe != 1 {
		t.Fatalf("profile dupe = %f, want min across streams (1)", p.Dupe)
	}
}

func TestJoinWorkloadInheritsAtRest(t *testing.T) {
	w := MicroStatic(200, 200, 2, 0, 7)
	res, err := JoinWorkload(w, Config{Algorithm: "NPJ", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != ExpectedMatches(w.R, w.S) {
		t.Fatalf("matches = %d", res.Matches)
	}
	// A static workload must not spend time in the wait phase.
	if res.PhaseNs[0] > 0 {
		t.Fatalf("at-rest run recorded wait time: %d ns", res.PhaseNs[0])
	}
}

func TestSummarizeReexport(t *testing.T) {
	w := Micro(MicroConfig{RateR: 10, RateS: 10, WindowMs: 50, Dupe: 5, Seed: 3})
	st := Summarize(w.R)
	if st.Tuples != len(w.R) || st.Dupe < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdaptivePrefixBounds(t *testing.T) {
	big := make(Relation, adaptiveSample*3)
	if got := prefix(big, adaptiveSample); len(got) != adaptiveSample {
		t.Fatalf("prefix len = %d", len(got))
	}
	small := make(Relation, 10)
	if got := prefix(small, adaptiveSample); len(got) != 10 {
		t.Fatalf("short prefix len = %d", len(got))
	}
}
