package main

import (
	"math"
	"testing"

	iawj "repro"
	"repro/internal/tuple"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestGroupedMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 4}, 3.5},
		{[]float64{4, 3, 4, 3}, 3.5},
		{[]float64{3, 3, 3, 3, 4}, 3.125},
		{[]float64{9, 3, 3, 2, 3}, 3},
		{[]float64{2, 2, 3, 3, 400}, 2.75},
	} {
		if got := groupedMedian(c.in); !near(got, c.want) {
			t.Errorf("groupedMedian(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMedianOverWindows pins the windowed aggregation: a window's p50 is
// taken per window, and the pass reports the grouped median of those, so
// one slow window among many barely moves it.
func TestMedianOverWindows(t *testing.T) {
	w := &workload{r: make(tuple.Relation, 2), s: make(tuple.Relation, 2)}
	o := outcome{wallNs: 1e9}
	for _, p50 := range []int64{2, 3, 400, 3, 2} {
		o.results = append(o.results, iawj.Result{LatencyP50Ms: p50, LatencyP99Ms: 10, Matches: 1})
	}
	ps := w.stats(o)
	if want := simMsToUs(2.75, nsPerSimMs); !near(ps.latP50, want) {
		t.Errorf("p50 over windows = %v, want %v", ps.latP50, want)
	}
	if want := simMsToUs(10, nsPerSimMs); !near(ps.latP99, want) {
		t.Errorf("p99 over windows = %v, want %v", ps.latP99, want)
	}
	if ps.matches != 5 {
		t.Errorf("matches = %d, want 5", ps.matches)
	}
	if want := 4.0 / 1e6; !near(ps.mtps, want) {
		t.Errorf("mtps = %v, want %v", ps.mtps, want)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4, 1}, math.Pow(64, 0.25)},
		{[]float64{3, 0, 5}, 0},
		{[]float64{3, -1}, 0},
	} {
		if got := geomean(c.in); !near(got, c.want) {
			t.Errorf("geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSimMsToUs(t *testing.T) {
	// The default arrival simulation compresses one simulated ms into 50 µs.
	if got := simMsToUs(1, nsPerSimMs); !near(got, 50) {
		t.Errorf("1 simulated ms = %v µs, want 50", got)
	}
	if got := simMsToUs(20, 1e6); !near(got, 20_000) {
		t.Errorf("20 simulated ms in real time = %v µs, want 20000", got)
	}
	if got := simMsToUs(0, nsPerSimMs); got != 0 {
		t.Errorf("0 simulated ms = %v µs, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   []interval
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"one child", 0, 100, []interval{{10, 30}}, 80},
		{"disjoint children", 0, 100, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping workers count once", 0, 100, []interval{{10, 60}, {20, 40}, {50, 80}}, 30},
		{"child sticking out is clipped", 10, 100, []interval{{0, 30}, {90, 120}}, 60},
		{"child outside the parent", 0, 100, []interval{{100, 150}}, 100},
		{"fully covered", 0, 100, []interval{{0, 50}, {50, 100}}, 0},
		{"empty parent", 50, 50, []interval{{0, 100}}, 0},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSpanLogSelf checks the span log applies selfTime to each span's own
// children only.
func TestSpanLogSelf(t *testing.T) {
	l := &spanLog{}
	root := l.add("run", 0, 0, 100)
	a := l.add("a", root, 0, 40)
	l.add("a.1", a, 5, 15)
	l.add("b", root, 50, 90)
	l.fillSelf()
	want := map[string]int64{"run": 20, "a": 30, "a.1": 10, "b": 40}
	for _, s := range l.spans {
		if s.SelfNs != want[s.Name] {
			t.Errorf("%s: self = %d, want %d", s.Name, s.SelfNs, want[s.Name])
		}
	}
	var nilLog *spanLog
	if id := nilLog.begin("x", 0); id != 0 || nilLog.now() != 0 {
		t.Errorf("a nil span log recorded a span")
	}
	nilLog.end(1)
}
