package main

import (
	"fmt"

	"waitornot"
)

// workload is one benchmark input: an Experiment configuration run
// through the public API. Seed and Parallelism are filled in per run.
type workload struct {
	name string
	kind waitornot.Kind
	opts waitornot.Options
}

// workloads are chosen so that each heavy layer is loaded by one of
// them and bypassed by another: sync-paper loads training and the
// combo decision, async-stragglers loads training but replaces the
// decision with a single-threaded staleness-weighted merge, and
// ledger-fanout makes the ledger (replicated validation and reads of
// every ~240 KB submission) most of the work. Every workload runs
// SimpleNN on the poa backend.
var workloads = []workload{
	// The reduced-paper wait-all run (the Tables II-IV path): training
	// and the combo decision, each inside the par pools.
	{
		name: "sync-paper",
		kind: waitornot.KindDecentralized,
		opts: waitornot.Options{
			Model: waitornot.SimpleNN, Clients: 8, Rounds: 5,
			TrainPerClient: 200, SelectionSize: 80, TestPerClient: 100,
			LearningRate: 0.01, Backend: "poa",
		},
	},
	// The paper's asynchronous arm: a single-threaded virtual-clock loop
	// with one ledger tx per event and a staleness-weighted merge in
	// place of the combo search.
	{
		name: "async-stragglers",
		kind: waitornot.KindAsync,
		opts: waitornot.Options{
			Model: waitornot.SimpleNN, Clients: 8, Rounds: 6,
			TrainPerClient: 200, SelectionSize: 80, TestPerClient: 100,
			LearningRate: 0.01, Backend: "poa",
			Policy:        waitornot.Policy{Kind: waitornot.FirstK, K: 4},
			CommitLatency: true,
			ComputeDist:   waitornot.Dist{Kind: waitornot.DistLogNormal, Mean: 1, Jitter: 0.5},
		},
	},
	// Every replica validates and reads every submission, O(peers² ×
	// payload) per round; training and the combo search are near zero.
	{
		name: "ledger-fanout",
		kind: waitornot.KindDecentralized,
		opts: waitornot.Options{
			Model: waitornot.SimpleNN, Clients: 24, Rounds: 8,
			TrainPerClient: 10, SelectionSize: 10, TestPerClient: 10,
			LocalEpochs: 1, SkipComboTables: true, Backend: "poa",
			Policy: waitornot.Policy{Kind: waitornot.FirstK, K: 1},
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the workload's Options for one run.
func (w workload) options(seed uint64, parallelism int) waitornot.Options {
	o := w.opts
	o.Seed = seed
	o.Parallelism = parallelism
	return o
}

// comboTables reports whether the run evaluates the per-round
// all-combination tables (decentralized kind with tables left on).
func (w workload) comboTables() bool {
	return w.kind == waitornot.KindDecentralized && !w.opts.SkipComboTables
}
