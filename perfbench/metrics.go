package main

import "sort"

// median returns the median of xs (0 for none). xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// medianOf is the median of f over runs.
func medianOf(runs []*runRecord, f func(r *runRecord) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd is the end-to-end metrics over passing untraced runs: the
// median of each run's value.
func endToEnd(runs []*runRecord) map[string]metric {
	return map[string]metric{
		"run_s":   {medianOf(runs, func(r *runRecord) float64 { return r.RunS }), "s"},
		"setup_s": {medianOf(runs, func(r *runRecord) float64 { return r.SetupS }), "s"},
		"peer_rounds_per_s": {medianOf(runs, func(r *runRecord) float64 {
			return float64(r.Tally.aggregations()) / (r.RunS - r.SetupS)
		}), "1/s"},
		"alloc_mb":   {medianOf(runs, func(r *runRecord) float64 { return float64(r.AllocBytes) / 1e6 }), "MB"},
		"max_rss_mb": {medianOf(runs, func(r *runRecord) float64 { return float64(r.MaxRSSBytes) / 1e6 }), "MB"},
	}
}

// perLayer is the per-layer metrics: phase spans as medians over the
// traced runs, exact counts from the reference's event stream, the
// reference's headline outputs, the probes, and the tracing overhead
// of the traced against the untraced runs.
func perLayer(ref *runRecord, traced, plain []*runRecord, probes map[string]float64) map[string]metric {
	m := map[string]metric{}
	spans := func(phase string, f func(s span) float64) float64 {
		return medianOf(traced, func(r *runRecord) float64 { return f(r.Phases[phase]) })
	}
	wall := func(s span) float64 { return s.WallS }
	cpu := func(s span) float64 { return s.CPUS }
	allocMB := func(s span) float64 { return float64(s.AllocBytes) / 1e6 }
	busy := func(s span) float64 {
		if s.WallS == 0 {
			return 0
		}
		return s.CPUS / s.WallS
	}
	for _, phase := range phaseNames {
		m["bfl."+phase+".wall_s"] = metric{spans(phase, wall), "s"}
	}
	m["bfl.setup.cpu_s"] = metric{spans("setup", cpu), "s"}
	for _, phase := range []string{"train", "submit", "decide"} {
		m["bfl."+phase+".cpu_s"] = metric{spans(phase, cpu), "s"}
		m["bfl."+phase+".alloc_mb"] = metric{spans(phase, allocMB), "MB"}
	}
	m["par.busy_cores.train"] = metric{spans("train", busy), "cores"}
	m["par.busy_cores.decide"] = metric{spans("decide", busy), "cores"}

	t := ref.Tally
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	count("fl.local_trains", float64(t.LocalTrains))
	count("fl.samples_trained", float64(t.SamplesTrained))
	count("core.decisions", float64(t.Decisions))
	count("core.combos_scored", float64(t.CombosScored))
	included := 0.0
	if n := t.aggregations(); n > 0 {
		included = float64(t.IncludedDecide+t.IncludedMerge) / float64(n)
	}
	count("core.included_mean", included)
	count("ledger.blocks", float64(t.Blocks))
	count("ledger.txs", float64(t.Txs))
	count("ledger.gas_used", float64(t.GasUsed))
	count("ledger.payload_bytes", float64(t.PayloadBytes))
	count("ledger.rejected", float64(t.Rejected))
	count("ledger.replica_bytes", float64(t.PayloadBytes)*float64(t.Peers))
	count("event.events", float64(t.Events))
	m["bfl.final_accuracy"] = metric{ref.FinalAccuracy, "fraction"}
	m["bfl.virtual_wait_ms"] = metric{ref.VirtualWaitMs, "ms"}

	runS := func(r *runRecord) float64 { return r.RunS }
	m["event.trace_overhead_pct"] = metric{100 * (medianOf(traced, runS)/medianOf(plain, runS) - 1), "%"}

	for _, name := range probeNames {
		m[name] = metric{probes[name], probeUnit(name)}
	}
	return m
}
