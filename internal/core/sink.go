package core

import (
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// MatchBatch is how many matches a worker records between clock samples
// when timestamping matches; it bounds the measurement overhead the way
// the paper keeps its RDTSC overhead below 5% of execution time. The
// scalar Match and the block forms MatchPairs and MatchRun share one
// cadence: the clock is resampled right after every MatchBatch-th match,
// and a block that crosses that boundary is split there, so a match gets
// the same timestamp whichever form records it. The block forms hand each
// run of matches between two samples to metrics in one call, which is
// what keeps accounting off the per-match path.
const MatchBatch = 1024

// Sink records join matches for one worker thread: it timestamps matches
// with a batched clock sample, computes the paper's latency definition
// (emission time minus the larger input arrival timestamp), and forwards
// materialized results when the run requests them. A Sink must only be
// used by its owning goroutine.
type Sink struct {
	ctx *ExecContext
	tm  *metrics.ThreadMetrics

	nowMs   int64
	pending int
}

// NewSink creates the sink for worker tid.
func NewSink(ctx *ExecContext, tid int) *Sink {
	return &Sink{ctx: ctx, tm: ctx.M.T(tid), nowMs: ctx.Clock.NowMs()}
}

// Match records one match between r and s.
func (k *Sink) Match(r, s tuple.Tuple) {
	last := r.TS
	if s.TS > last {
		last = s.TS
	}
	k.tm.Matches(1, k.nowMs, last)
	if k.ctx.Emit != nil {
		k.ctx.Emit(tuple.ResultOf(r, s))
	}
	k.advance(1)
}

// MatchPairs records the matches held as consecutive pairs in ps, as a
// batched kernel's probe fills them: (r, s) pairs, or (s, r) pairs when
// swap is set. A trailing odd tuple is ignored.
func (k *Sink) MatchPairs(ps []tuple.Tuple, swap bool) {
	emit := k.ctx.Emit
	for len(ps) >= 2 {
		blk := ps
		if room := 2 * (MatchBatch - k.pending); len(blk) > room {
			blk = ps[:room]
		}
		ps = ps[len(blk):]
		k.tm.MatchPairs(blk, k.nowMs)
		if emit != nil {
			for q := blk; len(q) >= 2; q = q[2:] {
				if swap {
					emit(tuple.ResultOf(q[1], q[0]))
				} else {
					emit(tuple.ResultOf(q[0], q[1]))
				}
			}
		}
		k.advance(len(blk) / 2)
	}
}

// MatchRun records the len(rs)·len(ss) matches of one duplicate-key run
// pair in merge-join order: rs outer, ss inner.
func (k *Sink) MatchRun(rs, ss []tuple.Tuple) {
	for len(rs) > 0 {
		room := MatchBatch - k.pending
		if len(rs)*len(ss) <= room {
			// The common case: the whole run fits before the next clock
			// sample. Tested first, it spares unique-key joins, whose
			// runs are 1×1, the division below.
			k.rect(rs, ss)
			return
		}
		// Whole rows that fit before the next clock sample go as one
		// rectangle; a row that crosses it is split at the boundary.
		if rows := room / len(ss); rows > 0 {
			k.rect(rs[:rows], ss)
			rs = rs[rows:]
			continue
		}
		for row := ss; len(row) > 0; {
			c := min(MatchBatch-k.pending, len(row))
			k.rect(rs[:1], row[:c])
			row = row[c:]
		}
		rs = rs[1:]
	}
}

// rect records and emits one rectangle that fits before the next clock
// sample.
func (k *Sink) rect(rs, ss []tuple.Tuple) {
	k.tm.MatchRect(rs, ss, k.nowMs)
	if emit := k.ctx.Emit; emit != nil {
		for _, r := range rs {
			for _, s := range ss {
				emit(tuple.ResultOf(r, s))
			}
		}
	}
	k.advance(len(rs) * len(ss))
}

// advance counts n recorded matches, n never crossing the next clock
// sample, and resamples the clock when the batch is full.
func (k *Sink) advance(n int) {
	k.pending += n
	if k.pending >= MatchBatch {
		k.pending = 0
		k.nowMs = k.ctx.Clock.NowMs()
	}
}

// Refresh resamples the clock; call between probe batches so match
// timestamps stay current even when few matches are produced.
func (k *Sink) Refresh() { k.nowMs = k.ctx.Clock.NowMs() }
