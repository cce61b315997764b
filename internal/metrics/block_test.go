package metrics

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// scalarPairs is the reference the block recorders must match: one
// Matches call per pair.
func scalarPairs(t *ThreadMetrics, ps []tuple.Tuple, nowMs int64) {
	for i := 0; i+1 < len(ps); i += 2 {
		t.Matches(1, nowMs, max(ps[i].TS, ps[i+1].TS))
	}
}

func randomTuples(rng *rand.Rand, n int, maxTS int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{TS: rng.Int64N(maxTS + 1), Key: rng.Int32N(8)}
	}
	return out
}

// requireSameState compares every observable of two ThreadMetrics.
func requireSameState(t *testing.T, what string, got, want *ThreadMetrics) {
	t.Helper()
	for _, h := range []struct {
		name      string
		got, want *Histogram
	}{{"latency", &got.latency, &want.latency}, {"progress", &got.progress, &want.progress}} {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if g, w := h.got.Quantile(q), h.want.Quantile(q); g != w {
				t.Fatalf("%s: %s Quantile(%v) = %d, want %d", what, h.name, q, g, w)
			}
		}
		if h.got.Max() != h.want.Max() || h.got.Total() != h.want.Total() {
			t.Fatalf("%s: %s max/total = %d/%d, want %d/%d", what, h.name,
				h.got.Max(), h.got.Total(), h.want.Max(), h.want.Total())
		}
		if !reflect.DeepEqual(h.got.CDF(), h.want.CDF()) {
			t.Fatalf("%s: %s CDF = %v, want %v", what, h.name, h.got.CDF(), h.want.CDF())
		}
		if h.got.counts != h.want.counts {
			t.Fatalf("%s: %s bucket counts differ", what, h.name)
		}
	}
	if got.MatchCount() != want.MatchCount() || got.lastMatchMs != want.lastMatchMs {
		t.Fatalf("%s: matches/lastMatchMs = %d/%d, want %d/%d", what,
			got.MatchCount(), got.lastMatchMs, want.MatchCount(), want.lastMatchMs)
	}
}

// TestBlockRecordersMatchScalar drives randomized blocks through
// MatchPairs and MatchRect and through one scalar Matches call per match,
// with timestamps past nowMs (the latency clamp), empty blocks and odd
// pair slices among them.
func TestBlockRecordersMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var blockP, scalarP, blockR, scalarR ThreadMetrics
	for iter := 0; iter < 400; iter++ {
		nowMs := rng.Int64N(1 << 20)
		// Up to twice nowMs: about half the matches land in the future.
		maxTS := 2 * nowMs

		ps := randomTuples(rng, rng.IntN(70), maxTS) // odd and even lengths, 0 included
		blockP.MatchPairs(ps, nowMs)
		scalarPairs(&scalarP, ps, nowMs)
		requireSameState(t, "MatchPairs", &blockP, &scalarP)

		rs := randomTuples(rng, rng.IntN(9), maxTS) // 0×n and n×0 included
		ss := randomTuples(rng, rng.IntN(9), maxTS)
		blockR.MatchRect(rs, ss, nowMs)
		for _, r := range rs {
			for _, s := range ss {
				scalarR.Matches(1, nowMs, max(r.TS, s.TS))
			}
		}
		requireSameState(t, "MatchRect", &blockR, &scalarR)
	}
	if blockP.MatchCount() == 0 || blockR.MatchCount() == 0 {
		t.Fatal("randomized blocks recorded no matches")
	}
}
