package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderRecordExplicitSpan(t *testing.T) {
	r := NewRecorder(1, 4)
	r.StartRun("SHJ_JM")
	w := r.T(0)
	start := w.NowNs()
	w.Record(4, start, 1234, 64)

	spans := r.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.StartNs != start || s.DurNs != 1234 || s.Tuples != 64 || s.Phase != 4 {
		t.Errorf("span = %+v", s)
	}
	if s.PhaseName() != "probe" {
		t.Errorf("PhaseName = %q, want probe", s.PhaseName())
	}
}

func TestRecorderOverflowDropsAndCounts(t *testing.T) {
	r := NewRecorder(1, 2)
	w := r.T(0)
	for i := 0; i < 5; i++ {
		w.Record(0, 0, 1, 0)
	}
	if n := r.SpanCount(); n != 2 {
		t.Errorf("SpanCount = %d, want 2", n)
	}
	if d := r.Dropped(); d != 3 {
		t.Errorf("Dropped = %d, want 3", d)
	}
	if got := len(r.Snapshot()); got != 2 {
		t.Errorf("Snapshot len = %d, want 2", got)
	}
}

func TestRecorderStartRunDedupes(t *testing.T) {
	r := NewRecorder(1, 4)
	r.StartRun("NPJ")
	r.StartRun("PRJ")
	r.StartRun("NPJ")
	algs := r.Algorithms()
	// Index 0 is the "?" placeholder for spans recorded before any run.
	want := []string{"?", "NPJ", "PRJ"}
	if len(algs) != len(want) {
		t.Fatalf("Algorithms = %v, want %v", algs, want)
	}
	for i := range want {
		if algs[i] != want[i] {
			t.Fatalf("Algorithms = %v, want %v", algs, want)
		}
	}
	w := r.T(0)
	w.Record(0, 0, 1, 0)
	if got := r.AlgName(r.Snapshot()[0].Alg); got != "NPJ" {
		t.Errorf("current algorithm = %q, want NPJ (last StartRun)", got)
	}
	if got := r.AlgName(99); got != "?" {
		t.Errorf("AlgName(99) = %q, want ?", got)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var r *Recorder
	if r.T(0) != nil {
		t.Error("nil recorder T(0) != nil")
	}
	if r.Snapshot() != nil || r.SpanCount() != 0 || r.Dropped() != 0 || r.Workers() != 0 {
		t.Error("nil recorder reports state")
	}
	r.StartRun("x")

	var w *Worker
	w.Record(1, 0, 1, 1)
	if w.NowNs() != 0 {
		t.Error("nil worker NowNs != 0")
	}

	live := NewRecorder(1, 4)
	if h := live.T(-1); h != nil {
		t.Error("T(-1) != nil")
	}
	if h := live.T(1); h != nil {
		t.Error("T(out of range) != nil")
	}

	var jw *JournalWriter
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Errorf("nil JournalWriter.Write = %v", err)
	}
	var g *Registry
	g.Observe(metricsResultFixture())
	g.Attach(nil)
}

// TestDisabledTracingAllocsPerSpan is the zero-cost guarantee: recording
// through a nil worker handle (tracing disabled) must not allocate. The
// phase clock's own transitions are covered in internal/core.
func TestDisabledTracingAllocsPerSpan(t *testing.T) {
	var w *Worker
	allocs := testing.AllocsPerRun(1000, func() {
		w.Record(4, w.NowNs(), 100, 64)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per span, want 0", allocs)
	}
}

// TestEnabledTracingAllocsPerSpan checks the construction-only allocation
// property: publishing into a preallocated ring must not allocate either.
func TestEnabledTracingAllocsPerSpan(t *testing.T) {
	r := NewRecorder(1, 1<<20)
	r.StartRun("NPJ")
	w := r.T(0)
	allocs := testing.AllocsPerRun(1000, func() {
		w.Record(4, w.NowNs(), 100, 64)
	})
	if allocs != 0 {
		t.Errorf("enabled tracing allocates %.1f per span, want 0", allocs)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := NewRecorder(2, 8)
	r.StartRun("PRJ")
	r.T(0).Record(1, 10, 2000, 128) // partition
	r.T(1).Record(4, 20, 3000, 256) // probe

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(ct.TraceEvents))
	}
	ev := ct.TraceEvents[0]
	if ev.Ph != "X" {
		t.Errorf("ph = %q, want X", ev.Ph)
	}
	if ev.Name != "partition" || ev.Args.Phase != "partition" {
		t.Errorf("event 0 phase = %q/%q, want partition", ev.Name, ev.Args.Phase)
	}
	if ev.Args.Algorithm != "PRJ" || ev.Cat != "PRJ" {
		t.Errorf("event 0 algorithm = %q/%q, want PRJ", ev.Args.Algorithm, ev.Cat)
	}
	// ns -> us conversion.
	if ev.Dur != 2.0 {
		t.Errorf("event 0 dur = %v us, want 2", ev.Dur)
	}
	if ev.Args.Tuples != 128 {
		t.Errorf("event 0 tuples = %d, want 128", ev.Args.Tuples)
	}
	if ct.TraceEvents[1].TID != 1 {
		t.Errorf("event 1 tid = %d, want 1", ct.TraceEvents[1].TID)
	}
}

func TestWriteChromeNilRecorder(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteChrome(nil) = nil error, want error")
	}
}

func TestWriteChromeReportsDropped(t *testing.T) {
	r := NewRecorder(1, 1)
	r.T(0).Record(0, 0, 1, 0)
	r.T(0).Record(0, 0, 1, 0) // dropped
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ct.OtherData["droppedSpans"] != "1" {
		t.Errorf("droppedSpans = %q, want 1", ct.OtherData["droppedSpans"])
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, err := ReadChrome(strings.NewReader("not json")); err == nil {
		t.Error("ReadChrome(garbage) = nil error, want error")
	}
}
