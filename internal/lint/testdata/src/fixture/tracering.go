package fixture

import "repro/internal/trace"

//iawj:hotpath
func hotRecordSpans(w *trace.Worker, r *trace.Recorder, keys []int) {
	for _, k := range keys {
		w.Record(4, w.NowNs(), 1, int64(k)) // ok: preallocated ring API
		_ = trace.NewRecorder(1, 1)         // want tracering
		_ = r.Snapshot()                    // want tracering
		r.StartRun("NPJ")                   // want tracering
	}
}

//iawj:hotpath
func hotWithTraceClosure(r *trace.Recorder, keys []int) {
	for _, k := range keys {
		export := func() int {
			return len(r.Algorithms()) // want tracering
		}
		_ = export() + k
	}
}

//iawj:hotpath
func hotRuntimeSampling(s *trace.Sampler, keys []int) int64 {
	var heap int64
	for range keys {
		smp := s.SampleNow() // want tracering
		heap += smp.HeapLiveBytes
		if last, ok := s.Latest(); ok { // want tracering
			heap += last.HeapLiveBytes
		}
		heap += int64(len(s.Samples())) // want tracering
	}
	return heap
}

func coldExport(r *trace.Recorder) []trace.Span {
	// Not annotated: snapshotting and construction are fine off the hot
	// path.
	return r.Snapshot()
}

func coldSampling(s *trace.Sampler) (trace.RuntimeSample, bool) {
	// Not annotated: the journal/metrics export path reads the sampler.
	s.SampleNow()
	return s.Latest()
}
