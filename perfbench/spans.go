package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/clock"
)

// span is one benchmark-recorded interval: a call into the program from
// the benchmark's own code, or a worker phase span the program recorded
// into Config.Trace, re-based onto the benchmark's clock. Times are ns
// since the run's span log started; parent 0 is the run root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	RunID   string `json:"run_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced code paths call it unconditionally.
// It is used by one goroutine at a time.
type spanLog struct {
	runID string
	sw    clock.Stopwatch
	spans []span
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{runID: runID, sw: clock.StartStopwatch()}
}

// now is the log's clock; 0 for a nil log.
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return l.sw.ElapsedNs()
}

// begin opens a span now and returns its id; end closes it.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	t := l.now()
	return l.add(name, parent, t, t)
}

func (l *spanLog) end(id int) {
	if l == nil || id <= 0 {
		return
	}
	l.spans[id-1].EndNs = l.now()
}

// add records a closed span and returns its id.
func (l *spanLog) add(name string, parent int, startNs, endNs int64) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID:      len(l.spans) + 1,
		Parent:  parent,
		RunID:   l.runID,
		Name:    name,
		StartNs: startNs,
		EndNs:   endNs,
	})
	return len(l.spans)
}

// fillSelf sets every span's self time: its duration minus the part its
// children cover.
func (l *spanLog) fillSelf() {
	children := make(map[int][]interval, len(l.spans))
	for _, s := range l.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNs, s.EndNs})
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		s.SelfNs = selfTime(s.StartNs, s.EndNs, children[s.ID])
	}
}

// selfByName sums self time per span name, heaviest first.
func (l *spanLog) selfByName() []nameTotal {
	totals := map[string]*nameTotal{}
	var order []string
	for _, s := range l.spans {
		t := totals[s.Name]
		if t == nil {
			t = &nameTotal{name: s.Name}
			totals[s.Name] = t
			order = append(order, s.Name)
		}
		t.count++
		t.selfNs += s.SelfNs
	}
	out := make([]nameTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *totals[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

type nameTotal struct {
	name   string
	count  int
	selfNs int64
}

// write fills self times and saves the log, stamped with env, as one JSON
// document at path.
func (l *spanLog) write(path string, env envStamp) error {
	l.fillSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printSelf writes the self-time summary of the heaviest span names.
func (l *spanLog) printSelf(out io.Writer, top int) {
	for i, t := range l.selfByName() {
		if i == top {
			break
		}
		fmt.Fprintf(out, "self %-36s %8d spans %12.3f ms\n", t.name, t.count, float64(t.selfNs)/1e6)
	}
}
