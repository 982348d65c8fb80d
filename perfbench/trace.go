package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"waitornot"
	"waitornot/internal/fl"
)

// The phases a run's wall time is split into. Each wall-clock gap
// between consecutive events is charged to the phase of the event that
// closes it (see classify), the gap from the Run call to the first
// event is setup, and the gap from the last event to Run's return is
// report — so every nanosecond of a run belongs to exactly one phase.
const (
	phaseSetup = iota
	phaseTrain
	phaseSubmit
	phaseDecide
	phaseMerge
	phaseRecord
	phaseReport
	numPhases
)

var phaseNames = [numPhases]string{"setup", "train", "submit", "decide", "merge", "record", "report"}

// classify names the phase of the gap that ev closes. prev is the
// event before it (nil for the first event). The first event is the
// registration commit; a commit right after a decision is the
// decision block, any other commit carries submissions.
func classify(ev, prev waitornot.Event) int {
	switch ev.(type) {
	case waitornot.BlockCommitted:
		switch prev.(type) {
		case nil:
			return phaseSetup
		case waitornot.AggregationDecided, waitornot.PeerAggregated:
			return phaseRecord
		}
		return phaseSubmit
	case waitornot.RoundStart, waitornot.PeerTrained:
		return phaseTrain
	case waitornot.ModelSubmitted:
		return phaseSubmit
	case waitornot.AggregationDecided:
		return phaseDecide
	case waitornot.PeerAggregated:
		return phaseMerge
	case waitornot.RoundEnd:
		return phaseRecord
	}
	return phaseReport
}

// span is the wall time, CPU time and heap allocation charged to one
// phase of a run.
type span struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// mark is one reading of the process clocks.
type mark struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// recorder is the benchmark's observer. Untraced it only keeps the
// events and stamps the registration commit; the digest and counts
// are computed from the kept events after Run returns. Traced it also
// reads wall time, process CPU time and allocated bytes at every
// event and charges the gap since the previous event to a phase.
type recorder struct {
	traced  bool
	start   mark
	last    mark
	setupAt time.Time
	events  []waitornot.Event
	phases  [numPhases]span
	sample  []metrics.Sample
}

func newRecorder(traced bool) *recorder {
	return &recorder{
		traced: traced,
		events: make([]waitornot.Event, 0, 1024),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// read takes a mark of the process clocks.
func (r *recorder) read() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(r.sample)
	return mark{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: r.sample[0].Value.Uint64(),
	}
}

// begin stamps the instant just before the Run call.
func (r *recorder) begin() {
	r.start = r.read()
	r.last = r.start
}

// OnEvent implements waitornot.Observer.
func (r *recorder) OnEvent(ev waitornot.Event) {
	if !r.traced {
		if len(r.events) == 0 {
			r.setupAt = time.Now()
		}
		r.events = append(r.events, ev)
		return
	}
	var prev waitornot.Event
	if n := len(r.events); n > 0 {
		prev = r.events[n-1]
	}
	m := r.read()
	if prev == nil {
		r.setupAt = m.wall
	}
	r.charge(classify(ev, prev), m)
	r.events = append(r.events, ev)
}

// end stamps Run's return; it returns the end mark.
func (r *recorder) end() mark {
	m := r.read()
	if r.traced {
		r.charge(phaseReport, m)
	}
	return m
}

func (r *recorder) charge(phase int, m mark) {
	s := &r.phases[phase]
	s.WallS += m.wall.Sub(r.last.wall).Seconds()
	s.CPUS += (m.cpu - r.last.cpu).Seconds()
	s.AllocBytes += m.alloc - r.last.alloc
	r.last = m
}

// phaseMap returns the traced phases by name.
func (r *recorder) phaseMap() map[string]span {
	out := make(map[string]span, numPhases)
	for i, s := range r.phases {
		out[phaseNames[i]] = s
	}
	return out
}

// digest is SHA-256 over every event, one per line: its EventString
// followed by all of its fields. EventString alone omits accuracies,
// chosen combos and gas, so it would not tell two seeds apart; the
// fields print floats exactly. Events carry no wall-clock fields, so a
// correct run reproduces the digest of a Parallelism 1 run at the same
// seed.
func digest(events []waitornot.Event) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%s\t%+v\n", waitornot.EventString(ev), ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally is the exact per-run work counts read off the event stream.
type tally struct {
	Events         int `json:"events"`
	Peers          int `json:"peers"`
	LocalTrains    int `json:"local_trains"`
	SamplesTrained int `json:"samples_trained"`
	// Decisions counts AggregationDecided (core.Aggregator.Decide
	// calls); Merges counts PeerAggregated (async merges).
	Decisions int `json:"decisions"`
	Merges    int `json:"merges"`
	// IncludedDecide and IncludedMerge sum Included over each kind.
	IncludedDecide int `json:"included_decide"`
	IncludedMerge  int `json:"included_merge"`
	// CombosScored is Σ len(fl.PaperCombos(Included, 0)) over decisions.
	CombosScored int `json:"combos_scored"`
	// Decodes counts weight blobs read back from the ledger: every
	// deciding peer decodes every submission of its round.
	Decodes      int    `json:"decodes"`
	Blocks       int    `json:"blocks"`
	Txs          int    `json:"txs"`
	GasUsed      uint64 `json:"gas_used"`
	Submissions  int    `json:"submissions"`
	PayloadBytes int    `json:"payload_bytes"`
	Rejected     int    `json:"rejected"`
	// Unexpected counts events none of the three workloads emits.
	Unexpected int `json:"unexpected"`
	// AggregationsPerPeer counts AggregationDecided and PeerAggregated
	// per peer.
	AggregationsPerPeer map[string]int `json:"aggregations_per_peer"`
}

// aggregations is the run's completed aggregation count.
func (t tally) aggregations() int { return t.Decisions + t.Merges }

func countEvents(events []waitornot.Event) tally {
	t := tally{Events: len(events), AggregationsPerPeer: map[string]int{}}
	peers := map[string]bool{}
	subsInRound := map[int]int{}
	for _, ev := range events {
		switch e := ev.(type) {
		case waitornot.BlockCommitted:
			t.Blocks++
			t.Txs += e.Txs
			t.GasUsed += e.GasUsed
			t.Rejected += e.Rejected
		case waitornot.PeerTrained:
			peers[e.Peer] = true
			t.LocalTrains++
			t.SamplesTrained += e.Samples
		case waitornot.ModelSubmitted:
			t.Submissions++
			t.PayloadBytes += e.Bytes
			subsInRound[e.Round]++
		case waitornot.AggregationDecided:
			t.Decisions++
			t.IncludedDecide += e.Included
			if e.Included > 0 {
				t.CombosScored += len(fl.PaperCombos(e.Included, 0))
			}
			t.Decodes += subsInRound[e.Round]
			t.AggregationsPerPeer[e.Peer]++
		case waitornot.PeerAggregated:
			t.Merges++
			t.IncludedMerge += e.Included
			t.AggregationsPerPeer[e.Peer]++
		case waitornot.RoundStart, waitornot.RoundEnd:
		default:
			t.Unexpected++
		}
	}
	t.Peers = len(peers)
	return t
}
