package main

import (
	"context"
	"fmt"
	"math"

	"waitornot"
)

// runRecord is what one experiment run reports to the parent process.
type runRecord struct {
	RunS       float64 `json:"run_s"`
	SetupS     float64 `json:"setup_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// Digest, FinalAccuracy and VirtualWaitMs are pure functions of
	// the workload and seed; every run must reproduce the reference
	// run's values bit for bit.
	Digest        string  `json:"digest"`
	FinalAccuracy float64 `json:"final_accuracy"`
	VirtualWaitMs float64 `json:"virtual_wait_ms"`
	Tally         tally   `json:"tally"`
	// Phases is set for traced runs only.
	Phases map[string]span `json:"phases,omitempty"`
	// Failure is empty for a run whose output passed every check.
	Failure string `json:"failure,omitempty"`
	// MaxRSSBytes is filled in by the parent from the child's rusage.
	MaxRSSBytes int64 `json:"max_rss_bytes"`
}

// runOnce executes one experiment run of w in this process and checks
// its output. An error is returned only when the run could not be
// measured at all; a run that completed with a wrong output is
// reported through runRecord.Failure.
func runOnce(w workload, seed uint64, parallelism int, traced bool) (*runRecord, error) {
	rec := newRecorder(traced)
	exp := waitornot.New(w.options(seed, parallelism), waitornot.WithKind(w.kind), waitornot.WithObserver(rec))
	rec.begin()
	res, err := exp.Run(context.Background())
	end := rec.end()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	out := &runRecord{
		RunS:       end.wall.Sub(rec.start.wall).Seconds(),
		AllocBytes: end.alloc - rec.start.alloc,
		Digest:     digest(rec.events),
		Tally:      countEvents(rec.events),
	}
	if !rec.setupAt.IsZero() {
		out.SetupS = rec.setupAt.Sub(rec.start.wall).Seconds()
	}
	if traced {
		out.Phases = rec.phaseMap()
	}
	var chain waitornot.ChainSummary
	switch {
	case res.Decentralized != nil:
		out.FinalAccuracy, out.VirtualWaitMs, _ = res.Decentralized.Headline()
		chain = res.Decentralized.Chain
	case res.Async != nil:
		out.FinalAccuracy, out.VirtualWaitMs, _ = res.Async.Headline()
		chain = res.Async.Chain
	default:
		return nil, fmt.Errorf("%s: run returned no decentralized or async report", w.name)
	}
	if err := checkRun(w, rec.events, out.Tally, chain, out.FinalAccuracy); err != nil {
		out.Failure = err.Error()
	}
	// JSON cannot carry a non-finite number; checkRun has already
	// failed such a run.
	if !finite(out.FinalAccuracy) {
		out.FinalAccuracy = 0
	}
	if !finite(out.VirtualWaitMs) {
		out.VirtualWaitMs = 0
	}
	return out, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkRun is the per-run output check that needs the run's own
// results: the event stream has the expected shape, every peer
// completed its configured aggregations, the committed transactions
// match what the events imply, and every accuracy is a finite
// fraction.
func checkRun(w workload, events []waitornot.Event, t tally, chain waitornot.ChainSummary, finalAccuracy float64) error {
	if len(events) == 0 {
		return fmt.Errorf("no events")
	}
	if _, ok := events[0].(waitornot.BlockCommitted); !ok {
		return fmt.Errorf("first event is %s, want the registration commit", events[0].EventName())
	}
	if t.Unexpected > 0 {
		return fmt.Errorf("%d events of a kind this workload never emits", t.Unexpected)
	}
	if len(t.AggregationsPerPeer) != w.opts.Clients {
		return fmt.Errorf("%d of %d peers aggregated", len(t.AggregationsPerPeer), w.opts.Clients)
	}
	for peer, n := range t.AggregationsPerPeer {
		if n < w.opts.Rounds {
			return fmt.Errorf("peer %s completed %d of %d aggregations", peer, n, w.opts.Rounds)
		}
	}
	if chain.Txs != t.Txs {
		return fmt.Errorf("chain holds %d txs, block events commit %d", chain.Txs, t.Txs)
	}
	if chain.Submissions != t.Submissions {
		return fmt.Errorf("chain holds %d submissions, events report %d", chain.Submissions, t.Submissions)
	}
	// Decentralized runs record every decision; async runs record
	// every merge except those forced at the horizon.
	if w.kind == waitornot.KindDecentralized && chain.Decisions != t.Decisions ||
		w.kind == waitornot.KindAsync && chain.Decisions > t.Merges {
		return fmt.Errorf("chain holds %d decision records for %d aggregations", chain.Decisions, t.aggregations())
	}
	if want := w.opts.Clients + chain.Submissions + chain.Decisions; chain.Txs != want {
		return fmt.Errorf("chain holds %d txs, want %d registrations + submissions + decisions", chain.Txs, want)
	}
	for _, ev := range events {
		var acc float64
		switch e := ev.(type) {
		case waitornot.AggregationDecided:
			acc = e.Accuracy
		case waitornot.PeerAggregated:
			acc = e.Accuracy
		default:
			continue
		}
		if !validAccuracy(acc) {
			return fmt.Errorf("%s reports accuracy %v", waitornot.EventString(ev), acc)
		}
	}
	if !validAccuracy(finalAccuracy) {
		return fmt.Errorf("final accuracy %v", finalAccuracy)
	}
	return nil
}

func validAccuracy(a float64) bool { return finite(a) && a >= 0 && a <= 1 }

// checkAgainst compares a run with the Parallelism 1 reference run at
// the same seed: the event streams and the headline outputs must be
// identical.
func checkAgainst(ref, r *runRecord) error {
	if r.Failure != "" {
		return fmt.Errorf("%s", r.Failure)
	}
	if r.Digest != ref.Digest {
		return fmt.Errorf("event digest %.12s differs from the reference %.12s", r.Digest, ref.Digest)
	}
	if math.Float64bits(r.FinalAccuracy) != math.Float64bits(ref.FinalAccuracy) {
		return fmt.Errorf("final accuracy %v differs from the reference %v", r.FinalAccuracy, ref.FinalAccuracy)
	}
	if math.Float64bits(r.VirtualWaitMs) != math.Float64bits(ref.VirtualWaitMs) {
		return fmt.Errorf("virtual wait %v ms differs from the reference %v ms", r.VirtualWaitMs, ref.VirtualWaitMs)
	}
	return nil
}
