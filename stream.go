package iawj

// This file is the inter-window driver built on IaWJ as the building
// block — the direction the paper explicitly points at ("designing
// efficient inter-window join algorithms by taking IaWJ as a building
// block is an exciting topic"). The driver slices two unbounded streams
// into aligned windows (tumbling, sliding, or session) and runs the
// configured intra-window join per window pair.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/window"
)

// WindowKind enumerates the window types of Definition 1.
type WindowKind = window.Kind

// The supported window kinds.
const (
	Tumbling = window.Tumbling
	Sliding  = window.Sliding
	Session  = window.Session
)

// WindowSpec describes how streams are sliced into windows.
type WindowSpec = window.Spec

// WindowResult is the outcome of one window's intra-window join.
type WindowResult struct {
	Start, End int64
	Result     Result
}

// JoinWindowed slices r and s with the spec, aligns the windows of both
// streams, and runs the configured IaWJ per window pair. Windows with
// input on only one side produce zero matches without running a join.
// Timestamps inside each window are rebased to the window start so the
// arrival simulation of each join replays that window in isolation.
//
// Successive windows are exactly the state-reuse pattern the window pool
// exists for, so when cfg.Pool is nil the driver creates one shared by
// all windows of this call; pass your own pool to share state across
// calls too.
//
// When cfg.Journal is non-nil, every window that runs a join appends one
// iawj-journal/v2 window record (windows with input on only one side are
// skipped — they have no run to summarize).
func JoinWindowed(r, s Relation, spec WindowSpec, cfg Config) ([]WindowResult, error) {
	// Checked up front: windows with input on one side only never reach
	// Join, and a bad config must fail however the windows fall.
	if err := core.CheckThreads(cfg.Threads); err != nil {
		return nil, err
	}
	pairs, err := window.AssignPair(r, s, spec)
	if err != nil {
		return nil, err
	}
	if cfg.Pool == nil {
		cfg.Pool = NewStatePool()
	}
	out := make([]WindowResult, len(pairs))
	for i, p := range pairs {
		out[i] = WindowResult{Start: p.Window.Start, End: p.Window.End}
		if len(p.R) == 0 || len(p.S) == 0 {
			continue
		}
		wcfg := cfg
		wcfg.WindowMs = p.Window.Length()
		wcfg.Window = WindowTag{ID: i, StartMs: p.Window.Start, EndMs: p.Window.End}
		res, err := Join(rebase(p.R, p.Window.Start), rebase(p.S, p.Window.Start), wcfg)
		if err != nil {
			return out[:i], fmt.Errorf("window [%d,%d): %w", p.Window.Start, p.Window.End, err)
		}
		out[i].Result = res
		if err := cfg.Journal.WriteWindow(res, i, p.Window.Start, p.Window.End); err != nil {
			return out[:i+1], fmt.Errorf("window [%d,%d): journal: %w", p.Window.Start, p.Window.End, err)
		}
	}
	return out, nil
}

// JoinWindowedParallel is JoinWindowed with up to workers window pairs
// in flight concurrently — the replay pattern for recorded (at rest)
// streams where window order does not gate arrival. Each window's join
// still uses cfg.Threads workers internally, so the effective parallelism
// is workers × cfg.Threads; choose the split to fit the machine.
func JoinWindowedParallel(r, s Relation, spec WindowSpec, cfg Config, workers int) ([]WindowResult, error) {
	if workers <= 1 {
		return JoinWindowed(r, s, spec, cfg)
	}
	if err := core.CheckThreads(cfg.Threads); err != nil {
		return nil, err
	}
	pairs, err := window.AssignPair(r, s, spec)
	if err != nil {
		return nil, err
	}
	if cfg.Pool == nil {
		// One pool shared by all in-flight windows: the pool is
		// concurrency-safe and a window's released state seeds the next.
		cfg.Pool = NewStatePool()
	}
	out := make([]WindowResult, len(pairs))
	errs := make([]error, len(pairs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range pairs {
		out[i] = WindowResult{Start: p.Window.Start, End: p.Window.End}
		if len(p.R) == 0 || len(p.S) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p window.Pair) {
			defer func() { <-sem; wg.Done() }()
			wcfg := cfg
			wcfg.WindowMs = p.Window.Length()
			wcfg.Window = WindowTag{ID: i, StartMs: p.Window.Start, EndMs: p.Window.End}
			res, err := Join(rebase(p.R, p.Window.Start), rebase(p.S, p.Window.Start), wcfg)
			if err != nil {
				errs[i] = fmt.Errorf("window [%d,%d): %w", p.Window.Start, p.Window.End, err)
				return
			}
			out[i].Result = res
			// The journal writer serializes internally; window records of
			// in-flight windows may interleave out of order but carry ids.
			if err := cfg.Journal.WriteWindow(res, i, p.Window.Start, p.Window.End); err != nil {
				errs[i] = fmt.Errorf("window [%d,%d): journal: %w", p.Window.Start, p.Window.End, err)
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// rebase shifts timestamps so the window starts at zero; a copy keeps the
// caller's stream untouched.
func rebase(rel Relation, start int64) Relation {
	if start == 0 {
		return rel
	}
	out := rel.Clone()
	for i := range out {
		out[i].TS -= start
	}
	return out
}

// TotalMatches sums the matches over a windowed join's results.
func TotalMatches(results []WindowResult) int64 {
	var n int64
	for _, r := range results {
		n += r.Result.Matches
	}
	return n
}
