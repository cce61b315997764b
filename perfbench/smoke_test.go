package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	iawj "repro"
)

// smokeScale runs every workload in well under a second per algorithm:
// 20k tuples per side at rest, Rovio at 1/500, and ten stream-skew windows.
var smokeScale = scale{microTuples: 20_000, rovio: 0.002, durationMs: 1_000}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoke builds every workload at smoke scale twice from one seed,
// verifies every algorithm against the oracle digest, and checks that a
// timed and a traced run print exactly the metrics BENCHMARK.json names,
// with its units.
func TestSmoke(t *testing.T) {
	sp := loadSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, setup, err := build(name, 7, smokeScale, nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			again, _, err := build(name, 7, smokeScale, w.pool, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if again.digest != w.digest {
				t.Fatalf("seed 7 built two different inputs: digests %v and %v", w.digest.Full, again.digest.Full)
			}
			other, _, err := build(name, 8, smokeScale, w.pool, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if other.digest == w.digest {
				t.Errorf("seeds 7 and 8 built the same inputs")
			}
			if w.digest.Full.Count == 0 {
				t.Fatalf("workload has no matches")
			}

			var tl tally
			for _, alg := range iawj.Algorithms() {
				w.verify(alg, &tl)
			}
			e2e := endToEnd(setup.total(), w.timedRun(1, &tl))
			checkMetrics(t, "end_to_end", e2e, sp.EndToEnd)
			layers := w.tracedRun(1, []setupTimes{setup}, newSpanLog("smoke"), 0, &tl)
			checkMetrics(t, "per_layer", layers, sp.PerLayer)
			if tl.failed != 0 || tl.attempted == 0 {
				t.Errorf("%d of %d operations failed", tl.failed, tl.attempted)
			}
		})
	}
}

// checkMetrics requires m to hold exactly the named metrics with their
// units, and every end-to-end figure to be positive.
func checkMetrics(t *testing.T, kind string, m metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, names []string
	for n := range m {
		got = append(got, n)
		if !metricName.MatchString(n) {
			t.Errorf("%s metric name %q has characters outside [A-Za-z0-9_.-]", kind, n)
		}
	}
	for _, w := range want {
		names = append(names, w.Name)
		mv, ok := m[w.Name]
		switch {
		case !ok:
		case mv.Unit != w.Unit:
			t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", kind, w.Name, mv.Unit, w.Unit)
		case kind == "end_to_end" && !(mv.Value > 0):
			t.Errorf("%s %s = %v, want > 0", kind, w.Name, mv.Value)
		}
	}
	if !equalSets(got, names) {
		sort.Strings(got)
		sort.Strings(names)
		t.Errorf("%s metrics printed %v, BENCHMARK.json names %v", kind, got, names)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func equalSets(a, b []string) bool {
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}
