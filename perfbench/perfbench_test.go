package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/fl"
)

// tiny shrinks a workload to test size, keeping its kind, policy,
// backend and combo-table setting.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.opts.Clients = 4
	w.opts.Rounds = 2
	w.opts.TrainPerClient = 40
	w.opts.SelectionSize = 20
	w.opts.TestPerClient = 20
	w.opts.LocalEpochs = 1
	if w.opts.Policy.Kind == waitornot.FirstK && w.opts.Policy.K > 2 {
		w.opts.Policy.K = 2
	}
	return w
}

func TestWorkloadOptionsValidate(t *testing.T) {
	for _, w := range workloads {
		if err := w.options(1, 0).Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json these tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestBenchmarkFileMatchesOutput checks that BENCHMARK.json names
// exactly the workloads and metrics (with units) the benchmark
// reports.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equalSorted(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}

	w := tiny(t, "sync-paper")
	rec, err := runOnce(w, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []listedMetric, got map[string]metric) {
		t.Helper()
		if len(listed) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(got))
		}
		for _, m := range listed {
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s is not reported", kind, m.Name)
				continue
			}
			if g.Unit != m.Unit {
				t.Errorf("%s: %s reported in %s, listed in %s", kind, m.Name, g.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd([]*runRecord{rec}))
	check("per_layer", f.PerLayer, perLayer(rec, []*runRecord{rec}, []*runRecord{rec}, map[string]float64{}))
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPhaseSpansSumToWall checks that the traced phases account for a
// run's wall time, measured independently around the run, within 1%.
func TestPhaseSpansSumToWall(t *testing.T) {
	for _, name := range []string{"sync-paper", "async-stragglers"} {
		w := tiny(t, name)
		t0 := time.Now()
		rec, err := runOnce(w, 1, 0, true)
		wall := time.Since(t0).Seconds()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failure != "" {
			t.Fatalf("%s: %s", name, rec.Failure)
		}
		var sum float64
		for phase, s := range rec.Phases {
			if s.WallS < 0 {
				t.Errorf("%s: phase %s has negative wall time %v", name, phase, s.WallS)
			}
			sum += s.WallS
		}
		if math.Abs(sum-wall) > 0.01*wall {
			t.Errorf("%s: phases sum to %.4f s, run took %.4f s", name, sum, wall)
		}
		busy := []string{"setup", "train", "submit"}
		if w.kind == waitornot.KindAsync {
			busy = append(busy, "merge")
		} else {
			busy = append(busy, "decide")
		}
		for _, phase := range busy {
			if rec.Phases[phase].WallS <= 0 {
				t.Errorf("%s: phase %s is empty", name, phase)
			}
		}
	}
}

// TestProbeCallsMatchRun checks the per-run probe call counts, read off
// the event stream, against what the run's own report says happened.
func TestProbeCallsMatchRun(t *testing.T) {
	for _, name := range []string{"sync-paper", "async-stragglers", "ledger-fanout"} {
		w := tiny(t, name)
		rec := newRecorder(false)
		res, err := waitornot.New(w.options(2, 0), waitornot.WithKind(w.kind), waitornot.WithObserver(rec)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		calls := probeCalls(w, countEvents(rec.events))
		n := w.opts.Clients
		want := map[string]int{"dataset.generate_ms": 2 + 2*n}
		var chain waitornot.ChainSummary
		if rep := res.Decentralized; rep != nil {
			chain = rep.Chain
			decisions, fedavgs, tables := 0, 0, 0
			for _, rounds := range rep.Rounds {
				for _, ri := range rounds {
					decisions++
					fedavgs += len(fl.PaperCombos(ri.Included, 0)) + 1
				}
			}
			for _, rows := range rep.ComboAccuracy {
				tables += len(rows)
				for _, row := range rows {
					fedavgs += len(row)
				}
			}
			want["fl.local_train_ms"] = decisions
			want["core.decide_ms"] = decisions
			want["ledger.read_us"] = decisions
			want["fl.combo_table_ms"] = tables
			want["fl.fedavg_us"] = fedavgs
			want["nn.decode_weights_us"] = n * chain.Submissions
		} else {
			rep := res.Async
			chain = rep.Chain
			merges := 0
			for _, rounds := range rep.Rounds {
				merges += len(rounds)
			}
			want["fl.local_train_ms"] = merges
			want["fl.weighted_fedavg_us"] = merges
		}
		want["nn.append_weights_us"] = chain.Submissions
		want["chain.new_tx_us"] = chain.Submissions
		want["ledger.submit_us"] = chain.Submissions
		want["nn.hash_weights_us"] = chain.Decisions
		want["ledger.commit_ms"] = chain.Blocks - 1 // the chain's genesis block is not a commit
		for _, probe := range probeNames {
			if calls[probe] != want[probe] {
				t.Errorf("%s: %s calls = %d, the run made %d", name, probe, calls[probe], want[probe])
			}
		}
	}
}

// TestProbesRun runs every probe a workload calls on tiny shapes.
func TestProbesRun(t *testing.T) {
	for _, name := range []string{"sync-paper", "async-stragglers"} {
		w := tiny(t, name)
		ref, err := runOnce(w, 1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		calls := probeCalls(w, ref.Tally)
		out, err := runProbes(w, 1, calls, 4, 2, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range probeNames {
			if got := out[probe]; calls[probe] > 0 && got <= 0 || calls[probe] == 0 && got != 0 {
				t.Errorf("%s: probe %s = %v with %d calls per run", name, probe, got, calls[probe])
			}
		}
	}
}

// TestReferenceCheck checks that a run at Parallelism nproc passes the
// check against a Parallelism 1 reference at the same seed, and that a
// run at another seed fails it.
func TestReferenceCheck(t *testing.T) {
	for _, name := range []string{"sync-paper", "async-stragglers"} {
		w := tiny(t, name)
		ref, err := runOnce(w, 3, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := runOnce(w, 3, runtime.NumCPU(), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainst(ref, wide); err != nil {
			t.Errorf("%s: Parallelism %d against Parallelism 1: %v", name, runtime.NumCPU(), err)
		}
		other, err := runOnce(w, 4, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest == ref.Digest {
			t.Errorf("%s: seeds 3 and 4 have the same event digest", name)
		}
		if err := checkAgainst(ref, other); err == nil {
			t.Errorf("%s: a run at another seed passed the reference check", name)
		}
	}
}

// TestCheckRunRejects checks that the per-run output check fails a run
// whose events miss an aggregation or whose chain disagrees with them.
func TestCheckRunRejects(t *testing.T) {
	w := tiny(t, "sync-paper")
	rec := newRecorder(false)
	res, err := waitornot.New(w.options(1, 0), waitornot.WithKind(w.kind), waitornot.WithObserver(rec)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chain := res.Decentralized.Chain
	acc, _, _ := res.Decentralized.Headline()
	if err := checkRun(w, rec.events, countEvents(rec.events), chain, acc); err != nil {
		t.Fatalf("a correct run failed the check: %v", err)
	}
	var dropped []waitornot.Event
	for i, ev := range rec.events {
		if _, ok := ev.(waitornot.AggregationDecided); ok {
			dropped = append(append(dropped, rec.events[:i]...), rec.events[i+1:]...)
			break
		}
	}
	if err := checkRun(w, dropped, countEvents(dropped), chain, acc); err == nil {
		t.Error("a run missing an aggregation passed the check")
	}
	short := chain
	short.Txs--
	if err := checkRun(w, rec.events, countEvents(rec.events), short, acc); err == nil {
		t.Error("a chain with a missing tx passed the check")
	}
	if err := checkRun(w, rec.events, countEvents(rec.events), chain, math.NaN()); err == nil {
		t.Error("a NaN final accuracy passed the check")
	}
}
