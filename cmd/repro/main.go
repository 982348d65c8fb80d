// Command repro regenerates every table and figure of the paper's
// evaluation at full scale:
//
//	repro -exp table1            Table I + Figure 3 (Vanilla FL)
//	repro -exp tables234         Tables II-IV + Figure 4 (blockchain FL)
//	repro -exp tradeoff          the wait-or-not speed/precision study
//	repro -exp netperf           §II-A2 throughput premises
//	repro -exp all               everything
//
// Beyond the paper grids, the scenario registry makes any registered
// workload a one-liner (no flag wiring):
//
//	repro -scenarios             list registered scenarios
//	repro -scenario async-ladder run one, streaming per-round progress
//
// Sharded hierarchy: -shards S partitions the fleet into S shards,
// each aggregating on its own ledger, with periodic cross-shard merges
// (-merge-every N, -merge-mode sync|async). -clients resizes the fleet
// (default 4 per shard). Scenario names: sharded-hierarchy (topology
// sweep), adaptive-shards (per-shard policy controller).
//
// Replication: -seeds 1,2,3 (or -replications N) switches to sweep
// mode — every wait-policy × backend cell is replayed once per seed
// and the tables report mean ± 95% CI instead of single-seed point
// estimates. Without -scenario the sweep covers the trade-off study;
// with -scenario it replicates that scenario (scenarios may also
// declare their own seed list, e.g. replicated-tradeoff).
//
// Campaigns: -campaign-dir DIR makes a sweep durable — every completed
// cell is fsync'd to DIR/results.jsonl as it lands, so a run killed at
// any instant resumes with -resume, recomputing only the missing cells
// and printing tables byte-identical to an uninterrupted run (at any
// -parallel). -campaign-status prints a campaign's progress and the
// partial mean ± CI table over the cells landed so far, even while
// another process is still appending.
//
// Model selection: -model simple|effnet|both. Add -fast for a reduced
// (smoke-test) scale, and -csv to emit machine-readable grids as well.
// -parallel N bounds the engine's worker pools (0 = all cores, 1 =
// sequential); every setting produces bit-identical tables. Runs
// cancel cleanly on interrupt (Ctrl-C): the engine stops at the next
// round boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"waitornot"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table1|tables234|tradeoff|netperf|all")
		scenario    = flag.String("scenario", "", "run a registered scenario by name (see -scenarios)")
		list        = flag.Bool("scenarios", false, "list registered scenarios and exit")
		backend     = flag.String("backend", "", "consensus backend for the decentralized rounds (see -backends; default pow)")
		listBackend = flag.Bool("backends", false, "list registered consensus backends and exit")
		model       = flag.String("model", "both", "model: simple|effnet|both")
		rounds      = flag.Int("rounds", 10, "communication rounds")
		seed        = flag.Uint64("seed", 1, "experiment seed")
		fast        = flag.Bool("fast", false, "reduced scale for smoke testing")
		csv         = flag.Bool("csv", false, "also print CSV grids")
		parallel    = flag.Int("parallel", 0, "worker pool size (0 = all cores, 1 = sequential); results are bit-identical at any setting")
		noStream    = flag.Bool("quiet", false, "suppress the streamed progress events in -scenario and sweep modes")
		seedsFlag   = flag.String("seeds", "", "comma-separated seed list: replicate per seed and report mean ± 95% CI (sweep mode)")
		repsFlag    = flag.Int("replications", 0, "replicate over N consecutive seeds from -seed (sweep mode; ignored when -seeds is set)")
		asyncFlag   = flag.Bool("async", false, "run the asynchronous free run: no round barrier, staleness-weighted merging, accuracy vs virtual time")
		calibrate   = flag.Bool("calibrate-pbft", false, "run the PBFT latency calibration grid (analytic model vs event-level simulation) and exit")
		timeBudget  = flag.Float64("time-budget-ms", 0, "virtual-time horizon for -async (0 = run until every peer finishes its rounds)")
		targetAcc   = flag.Float64("target-acc", 0, "with -seeds/-replications, also sweep time-to-this-accuracy per cell")
		shards      = flag.Int("shards", 0, "run the sharded multi-aggregator hierarchy with this many shards (>= 2)")
		clients     = flag.Int("clients", 0, "fleet size (0 = 3 clients, the paper's; for -shards, 0 = 4 clients per shard)")
		clientFrac  = flag.Float64("client-fraction", 0, "train only this fraction of clients per round, in (0,1] (cross-device subsampling; 0 = every client every round)")
		mergeEvery  = flag.Int("merge-every", 0, "cross-shard merge cadence in shard rounds for -shards (0 = every round)")
		mergeMode   = flag.String("merge-mode", "sync", "cross-shard merge discipline for -shards: sync (barrier) or async (staleness-weighted, on arrival)")
		campaignDir = flag.String("campaign-dir", "", "persist the sweep as a durable campaign in this directory (fsync'd JSONL per cell; resumable)")
		resume      = flag.Bool("resume", false, "resume the campaign in -campaign-dir, recomputing only the cells missing from its log")
		status      = flag.Bool("campaign-status", false, "print the campaign in -campaign-dir (progress + partial mean ± CI table) and exit")
	)
	flag.Parse()

	sweepSeeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: bad -seeds: %v\n", err)
		os.Exit(2)
	}

	// Validate flag combinations up front: one actionable line instead
	// of a deep-stack error from whatever layer trips first.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sweeping := len(sweepSeeds) > 0 || *repsFlag > 0
	switch {
	case set["exp"] && *scenario != "":
		fatalUsage("-exp and -scenario are different run selectors; pick one")
	case set["exp"] && *asyncFlag:
		fatalUsage("-async replaces the -exp grids (it is its own experiment); drop -exp, or use -scenario async-free-run")
	case set["exp"] && sweeping:
		fatalUsage("-seeds/-replications replicate the trade-off study and cannot be combined with -exp (use -scenario to sweep another workload)")
	case *asyncFlag && *scenario != "":
		fatalUsage("-async and -scenario both select what runs; drop -async (async scenarios: async-free-run, hetero-compute)")
	case set["time-budget-ms"] && !*asyncFlag && *scenario == "":
		fatalUsage("-time-budget-ms only applies to -async (or an async -scenario)")
	case *timeBudget < 0:
		fatalUsage("-time-budget-ms must be >= 0")
	case set["target-acc"] && !sweeping && *scenario == "":
		// Scenarios may declare their own seed list; runScenario
		// re-checks once that is known.
		fatalUsage("-target-acc is a sweep metric; add -seeds or -replications")
	case *targetAcc < 0 || *targetAcc > 1:
		fatalUsage("-target-acc must be an accuracy in [0, 1]")
	case set["exp"] && *shards > 0:
		fatalUsage("-shards is its own experiment (the sharded hierarchy); drop -exp")
	case *shards > 0 && *asyncFlag:
		fatalUsage("-shards and -async both select what runs; for async cross-shard merging use -shards with -merge-mode async")
	case *shards > 0 && *scenario != "":
		fatalUsage("-shards and -scenario both select what runs; pick one (sharded scenarios: sharded-hierarchy, adaptive-shards)")
	case *shards > 0 && sweeping:
		fatalUsage("-shards does not combine with -seeds/-replications; use -scenario sharded-hierarchy for a replicated topology sweep")
	case *shards == 1 || *shards < 0:
		fatalUsage("-shards needs at least 2 shards (1 shard is the flat run; use -exp tables234)")
	case (set["merge-every"] || set["merge-mode"]) && *shards == 0:
		fatalUsage("-merge-every/-merge-mode only apply to the sharded hierarchy; add -shards")
	case *mergeEvery < 0:
		fatalUsage("-merge-every must be >= 0")
	case *mergeMode != "sync" && *mergeMode != "async":
		fatalUsage(fmt.Sprintf("unknown -merge-mode %q (want sync or async)", *mergeMode))
	case set["clients"] && *shards == 0 && !set["client-fraction"]:
		fatalUsage("-clients sizes the sharded fleet; add -shards, or -client-fraction for a subsampled flat fleet (the paper grids are fixed at 3 clients)")
	case set["client-fraction"] && (*clientFrac <= 0 || *clientFrac > 1):
		fatalUsage(fmt.Sprintf("-client-fraction %g outside (0, 1]", *clientFrac))
	case set["client-fraction"] && *exp == "table1":
		fatalUsage("-client-fraction subsamples the decentralized fleet; -exp table1 is the centralized run")
	case set["clients"] && *clients < 2**shards:
		fatalUsage(fmt.Sprintf("-clients %d leaves a shard with fewer than 2 clients across %d shards", *clients, *shards))
	case *shards > 0 && *clients > 0 && *shards > *clients:
		fatalUsage(fmt.Sprintf("-shards %d exceeds the %d-client fleet", *shards, *clients))
	case *resume && *campaignDir == "":
		fatalUsage("-resume continues a campaign; say which one with -campaign-dir")
	case *status && *campaignDir == "":
		fatalUsage("-campaign-status inspects a campaign; say which one with -campaign-dir")
	case *status && *resume:
		fatalUsage("-campaign-status only inspects; drop -resume (or drop -campaign-status to continue the run)")
	case *status && (sweeping || *scenario != "" || set["exp"]):
		fatalUsage("-campaign-status reads everything from the campaign directory; drop the run-selection flags")
	case *campaignDir != "" && set["exp"]:
		fatalUsage("a campaign persists a replication sweep; -exp grids are single runs (use -seeds/-replications, or a seeded -scenario)")
	case *campaignDir != "" && *shards > 0:
		fatalUsage("-shards is a single run; campaigns persist replication sweeps (use -scenario sharded-hierarchy with -campaign-dir)")
	case *campaignDir != "" && !*status && !sweeping && *scenario == "":
		fatalUsage("a campaign persists a replication sweep; add -seeds or -replications (or a -scenario that declares seeds)")
	case *campaignDir != "" && !*status && *scenario == "" && *model == "both":
		fatalUsage("a campaign directory holds one grid; pick -model simple or -model effnet")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		fmt.Println("registered scenarios:")
		for _, s := range waitornot.Scenarios() {
			fmt.Printf("  %-18s %-14s %s\n", s.Name, "("+s.Kind.String()+")", s.Description)
		}
		return
	}
	if *listBackend {
		fmt.Println("registered consensus backends:")
		for _, b := range waitornot.Backends() {
			fmt.Printf("  %-10s %s\n", b.Name, b.Description)
		}
		return
	}
	if *status {
		st, err := waitornot.LoadCampaign(*campaignDir)
		if err != nil {
			fatal(err)
		}
		printCampaignStatus(st)
		return
	}
	if *calibrate {
		rep, err := waitornot.CalibratePBFT(waitornot.PBFTCalibrationConfig{
			Seed:        *seed,
			Parallelism: *parallel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: calibration: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Table())
		fmt.Printf("worst cell: %.2f%% relative error (tolerance %.0f%%)\n", rep.MaxRelErr()*100, rep.Tolerance*100)
		return
	}
	if *scenario != "" {
		runScenario(ctx, *scenario, *model, *backend, *seed, *rounds, *parallel, *clientFrac, *fast, !*noStream, *csv,
			sweepSeeds, *repsFlag, set["time-budget-ms"], *timeBudget, *targetAcc, *campaignDir, *resume)
		return
	}

	models := map[string][]waitornot.Model{
		"simple": {waitornot.SimpleNN},
		"effnet": {waitornot.EffNetB0Sim},
		"both":   {waitornot.SimpleNN, waitornot.EffNetB0Sim},
	}[*model]
	if models == nil {
		fmt.Fprintf(os.Stderr, "unknown -model %q\n", *model)
		os.Exit(2)
	}

	opts := waitornot.Options{
		Clients:     3,
		Rounds:      *rounds,
		Seed:        *seed,
		Parallelism: *parallel,
		Backend:     *backend,
	}
	if *clients > 0 {
		opts.Clients = *clients
	}
	if *clientFrac != 0 {
		// Cross-device subsampling: only K = round(fraction*Clients)
		// clients train per round, and the per-round combination tables
		// (a cross-silo artifact) are skipped.
		opts.ClientFraction = *clientFrac
		opts.SkipComboTables = true
	}
	var scale []waitornot.Option
	if *fast {
		scale = []waitornot.Option{waitornot.WithFastScale()}
	}

	run := func(name string, fn func()) {
		start := time.Now()
		fmt.Printf("==> %s\n", name)
		fn()
		fmt.Printf("<== %s (%v)\n\n", name, time.Since(start).Round(time.Second))
	}

	// Every experiment goes through the Experiment API with the
	// interrupt context, so Ctrl-C cancels a full-scale run at the
	// next round boundary instead of being swallowed.
	runExperiment := func(o waitornot.Options, m waitornot.Model, extra ...waitornot.Option) *waitornot.Results {
		o.Model = m
		res, err := waitornot.New(o, append(extra, scale...)...).Run(ctx)
		if err != nil {
			exitIfCancelled(err)
			fatal(err)
		}
		return res
	}

	// Sweep mode: -seeds / -replications replicate the trade-off study
	// (the experiment whose numbers need error bars) per seed and
	// report mean ± 95% CI per cell, streaming one SweepProgress line
	// per completed replication. With -async the same ladder runs
	// un-barriered (the async ladder); -target-acc adds the
	// time-to-target-accuracy cell metric either way.
	if sweeping {
		kind := waitornot.KindTradeoff
		label := "Replicated wait-or-not trade-off"
		if *asyncFlag {
			kind = waitornot.KindAsync
			label = "Replicated asynchronous ladder"
		}
		run(label, func() {
			for _, m := range models {
				o := opts
				o.Model = m
				o.StragglerFactor = []float64{1, 1, 3}
				if *asyncFlag {
					o.CommitLatency = true
					o.TimeBudgetMs = *timeBudget
				}
				expOpts := []waitornot.Option{
					waitornot.WithKind(kind),
					waitornot.WithPolicies(waitornot.DefaultPolicies(3)...),
					waitornot.WithSeeds(sweepSeeds...),
					waitornot.WithReplications(*repsFlag),
					waitornot.WithTargetAccuracy(*targetAcc),
				}
				expOpts = append(expOpts, scale...)
				if !*noStream {
					expOpts = append(expOpts, waitornot.WithObserverFunc(printEvent))
				}
				printSweep(ctx, waitornot.New(o, expOpts...), *csv, *campaignDir, *resume)
			}
		})
		return
	}

	// -shards: the sharded multi-aggregator hierarchy — contiguous
	// shards aggregating independently on their own ledgers, folded by
	// periodic cross-shard merges on the shared virtual clock.
	if *shards > 0 {
		run("Sharded multi-aggregator hierarchy", func() {
			for _, m := range models {
				o := opts
				o.Clients = *clients
				if o.Clients == 0 {
					o.Clients = 4 * *shards
				}
				o.Shards = *shards
				o.MergeCadence = *mergeEvery
				if *mergeMode == "async" {
					o.MergeMode = waitornot.MergeAsync
				}
				o.CommitLatency = true
				o.SkipComboTables = true
				res := runExperiment(o, m, waitornot.WithKind(waitornot.KindSharded))
				printResults(res, m.String())
				if *csv {
					fmt.Println(res.Sharded.CSV())
				}
			}
		})
		return
	}

	// -async: the un-barriered free run — each peer aggregates the
	// moment its policy fires on the shared virtual clock, and the
	// report is accuracy vs virtual time.
	if *asyncFlag {
		run("Asynchronous free run", func() {
			for _, m := range models {
				o := opts
				o.StragglerFactor = []float64{1, 1, 3}
				o.Policy = waitornot.Policy{Kind: waitornot.FirstK, K: 2}
				o.CommitLatency = true
				o.TimeBudgetMs = *timeBudget
				res := runExperiment(o, m, waitornot.WithKind(waitornot.KindAsync))
				printResults(res, m.String())
				if *csv {
					fmt.Println(res.Async.CSV())
				}
			}
		})
		return
	}

	doTable1 := func() {
		for _, m := range models {
			res := runExperiment(opts, m, waitornot.WithKind(waitornot.KindVanilla))
			printResults(res, m.String())
			if *csv {
				fmt.Println(res.Vanilla.CSV())
			}
		}
	}

	doTables234 := func() {
		for _, m := range models {
			res := runExperiment(opts, m, waitornot.WithKind(waitornot.KindDecentralized))
			printResults(res, m.String())
		}
	}

	doTradeoff := func() {
		for _, m := range models {
			o := opts
			// A 3x straggler makes the waiting question non-trivial, as
			// in any real deployment with heterogeneous peers.
			o.StragglerFactor = []float64{1, 1, 3}
			res := runExperiment(o, m,
				waitornot.WithKind(waitornot.KindTradeoff),
				waitornot.WithPolicies(waitornot.DefaultPolicies(3)...))
			printResults(res, m.String())
			fmt.Println()
		}
		fmt.Println("virtual-clock round latency (8 peers, 3x straggler, 1000 rounds):")
		policies := []waitornot.Policy{
			{Kind: waitornot.WaitAll},
			{Kind: waitornot.FirstK, K: 6},
			{Kind: waitornot.FirstK, K: 4},
			{Kind: waitornot.Timeout, TimeoutMs: 6000},
		}
		for _, st := range waitornot.RoundLatencyByPolicy(8, policies, *seed, *parallel) {
			fmt.Printf("  %-16s mean wait %8.1f ms   mean models %5.2f   mean age %8.1f ms\n",
				st.Policy, st.MeanWaitMs, st.MeanIncluded, st.MeanAgeMs)
		}
	}

	doNetperf := func() {
		fmt.Println("throughput vs co-located peers (shared-host model, §II-A2 / VFChain premise):")
		for _, pt := range waitornot.ThroughputVsPeers([]int{4, 8, 16, 32, 64}, *seed, *parallel) {
			fmt.Printf("  %-10s %8.1f tx/s   mean commit latency %9.1f ms\n",
				pt.Label, pt.CommittedPerSec, pt.MeanLatencyMs)
		}
		fmt.Println("\nthroughput vs block gas limit (model-sized txs, refs [11,12]):")
		// A SimpleNN submission is ~247 KB ≈ 4M calldata gas.
		txGas := uint64(4_000_000)
		limits := []uint64{4_000_000, 8_000_000, 16_000_000, 64_000_000, 256_000_000}
		for _, pt := range waitornot.ThroughputVsBlockGas(limits, txGas, *seed, *parallel) {
			fmt.Printf("  %-16s %8.1f tx/s   mean commit latency %9.1f ms\n",
				pt.Label, pt.CommittedPerSec, pt.MeanLatencyMs)
		}
	}

	switch *exp {
	case "table1", "fig3":
		run("Table I / Figure 3 — Vanilla FL", doTable1)
	case "tables234", "table2", "table3", "table4", "fig4":
		run("Tables II-IV / Figure 4 — Blockchain-based FL", doTables234)
	case "tradeoff":
		run("Wait-or-not trade-off", doTradeoff)
	case "netperf":
		run("Network performance premises", doNetperf)
	case "all":
		run("Table I / Figure 3 — Vanilla FL", doTable1)
		run("Tables II-IV / Figure 4 — Blockchain-based FL", doTables234)
		run("Wait-or-not trade-off", doTradeoff)
		run("Network performance premises", doNetperf)
	default:
		fmt.Fprintf(os.Stderr, "unknown -exp %q\n", *exp)
		os.Exit(2)
	}
}

// runScenario executes one registered scenario through the Experiment
// API — streaming its typed progress events — and prints the report
// matching the scenario's kind. A scenario that declares Seeds (or an
// explicit -seeds/-replications flag) runs as a replication sweep.
func runScenario(ctx context.Context, name, model, backend string, seed uint64, rounds, parallel int, clientFrac float64, fast, stream, csv bool, sweepSeeds []uint64, reps int, budgetSet bool, budget, targetAcc float64, campaignDir string, resume bool) {
	sc, ok := waitornot.LookupScenario(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -scenario %q; registered:\n", name)
		for _, s := range waitornot.Scenarios() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", s.Name, s.Description)
		}
		os.Exit(2)
	}
	if budgetSet && sc.Kind != waitornot.KindAsync {
		fatalUsage(fmt.Sprintf("-time-budget-ms needs an async scenario; %q is %s", sc.Name, sc.Kind))
	}
	if (len(sweepSeeds) > 0 || reps > 0) && sc.Kind == waitornot.KindVanilla {
		fatalUsage(fmt.Sprintf("scenario %q is the vanilla baseline: it has no wait/latency metrics to replicate; sweep a decentralized, trade-off, or async scenario", sc.Name))
	}

	modelLabel := sc.Options.Model
	if modelLabel == 0 {
		modelLabel = waitornot.SimpleNN
	}
	sweepMode := len(sc.Seeds) > 0
	var overrides []waitornot.Option
	// Flags the user set explicitly override the scenario's registered
	// configuration; untouched flags leave it as registered. sc is a
	// copy, so editing it leaves the registry alone.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seeds":
			sc.Seeds = sweepSeeds
			sweepMode = true
		case "replications":
			sc.Seeds = nil
			overrides = append(overrides, waitornot.WithReplications(reps))
			sweepMode = true
		case "seed":
			sc.Options.Seed = seed
		case "rounds":
			sc.Options.Rounds = rounds
		case "client-fraction":
			sc.Options.ClientFraction = clientFrac
		case "parallel":
			sc.Options.Parallelism = parallel
		case "backend":
			// An explicit -backend wins over a scenario's backend
			// ladder too: clear the ladder so the sweep runs on the
			// requested substrate alone.
			sc.Options.Backend = backend
			sc.Backends = nil
		case "model":
			switch model {
			case "simple":
				modelLabel = waitornot.SimpleNN
			case "effnet":
				modelLabel = waitornot.EffNetB0Sim
			default:
				fmt.Fprintln(os.Stderr, "-scenario runs one model; use -model simple or -model effnet")
				os.Exit(2)
			}
			sc.Options.Model = modelLabel
		}
	})
	if budgetSet {
		sc.Options.TimeBudgetMs = budget
	}
	if targetAcc > 0 {
		if !sweepMode {
			fatalUsage(fmt.Sprintf("-target-acc is a sweep metric; scenario %q declares no seeds — add -seeds or -replications", sc.Name))
		}
		overrides = append(overrides, waitornot.WithTargetAccuracy(targetAcc))
	}
	if campaignDir != "" && !sweepMode {
		fatalUsage(fmt.Sprintf("a campaign persists a replication sweep; scenario %q declares no seeds — add -seeds or -replications", sc.Name))
	}
	if fast {
		overrides = append(overrides, waitornot.WithFastScale())
	}
	if stream {
		overrides = append(overrides, waitornot.WithObserverFunc(printEvent))
	}

	start := time.Now()
	fmt.Printf("==> scenario %s — %s\n", sc.Name, sc.Description)
	if sweepMode {
		printSweep(ctx, sc.Experiment(overrides...), csv, campaignDir, resume)
	} else {
		res, err := sc.Experiment(overrides...).Run(ctx)
		if err != nil {
			exitIfCancelled(err)
			fatal(err)
		}
		printResults(res, modelLabel.String())
	}
	fmt.Printf("<== scenario %s (%v)\n", sc.Name, time.Since(start).Round(time.Second))
}

// printSweep executes a replication sweep — as a durable campaign when
// a directory is given — and prints the mean ± CI table (plus the cell
// and raw-run CSVs when requested).
func printSweep(ctx context.Context, exp *waitornot.Experiment, csv bool, campaignDir string, resume bool) {
	var (
		rep *waitornot.SweepReport
		err error
	)
	if campaignDir != "" {
		// Starting over an existing campaign (or resuming a missing one)
		// is almost certainly a typo in one of the two flags; insist the
		// intent is spelled out before any work lands in the directory.
		switch exists := waitornot.CampaignExists(campaignDir); {
		case exists && !resume:
			fatalUsage(fmt.Sprintf("%s already holds a campaign; add -resume to continue it, or point -campaign-dir at a fresh directory", campaignDir))
		case resume && !exists:
			fatalUsage(fmt.Sprintf("%s holds no campaign to -resume; drop -resume to start one there", campaignDir))
		}
		rep, err = exp.RunCampaign(ctx, campaignDir)
	} else {
		rep, err = exp.RunSweep(ctx)
	}
	if err != nil {
		exitIfCancelled(err)
		fatal(err)
	}
	fmt.Println(rep.Table())
	if csv {
		fmt.Println(rep.CSV())
		fmt.Println(rep.RunsCSV())
	}
}

// printCampaignStatus renders a campaign directory's progress and the
// partial mean ± CI table over whatever cells have landed so far.
func printCampaignStatus(st *waitornot.CampaignState) {
	workload := st.Kind
	if st.Scenario != "" {
		workload += "  (scenario " + st.Scenario + ")"
	}
	pct := 0.0
	if st.Total > 0 {
		pct = 100 * float64(st.Done) / float64(st.Total)
	}
	fmt.Printf("campaign %s\n", st.Dir)
	fmt.Printf("  workload     %s\n", workload)
	fmt.Printf("  fingerprint  %.12s…\n", st.Fingerprint)
	fmt.Printf("  seeds        %v\n", st.Seeds)
	fmt.Printf("  progress     %d/%d cells (%.0f%%)\n\n", st.Done, st.Total, pct)
	if st.Done == 0 {
		fmt.Println("no cells landed yet; partial tables appear after the first record")
		return
	}
	fmt.Printf("partial results over the %d landed cells:\n\n", st.Done)
	fmt.Println(st.Partial.Table())
}

// parseSeeds parses the -seeds flag: a comma-separated uint64 list.
func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a seed (want e.g. -seeds 1,2,3)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// exitIfCancelled turns a context cancellation (Ctrl-C) into the
// conventional interrupt exit code.
func exitIfCancelled(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "repro: run cancelled at the round boundary")
		os.Exit(130)
	}
}

// printResults renders whichever report the experiment kind produced.
func printResults(res *waitornot.Results, model string) {
	switch {
	case res.Vanilla != nil:
		fmt.Println(res.Vanilla.TableI(model))
		fmt.Printf("consider-arm adopted combos per round: %v\n\n", res.Vanilla.ConsiderCombos)
		fmt.Println(res.Vanilla.Figure3(model))
	case res.Decentralized != nil:
		rep := res.Decentralized
		if len(rep.ComboLabels) > 0 && len(rep.ComboLabels[0]) > 0 {
			for p := range rep.PeerNames {
				fmt.Println(rep.PeerTable(p, model))
				fmt.Println()
			}
			fmt.Println(rep.Figure4(model))
		} else {
			// Combo tables are off (-client-fraction, or SkipComboTables
			// runs); the headline reduction is the readable summary.
			acc, wait, included := rep.Headline()
			fmt.Printf("combo tables skipped; headline (%s): final-acc %.4f, mean wait %.1f ms, mean included %.2f, %d peers trained\n\n",
				model, acc, wait, included, len(rep.PeerNames))
		}
		fmt.Printf("on-chain footprint: %d blocks, %d txs (%d submissions, %d decisions), %.2f MGas, %.2f MB\n\n",
			rep.Chain.Blocks, rep.Chain.Txs, rep.Chain.Submissions, rep.Chain.Decisions,
			float64(rep.Chain.GasUsed)/1e6, float64(rep.Chain.Bytes)/1e6)
	case res.Tradeoff != nil:
		fmt.Println(res.Tradeoff.Table())
	case res.Async != nil:
		rep := res.Async
		fmt.Println(rep.Table())
		fmt.Println()
		fmt.Println(rep.TimeToAccuracyTable(0.3, 0.5, 0.7, 0.8, 0.9))
		fmt.Println(rep.Summary())
		fmt.Printf("on-chain footprint: %d blocks, %d txs (%d submissions, %d decisions), %.2f MGas, %.2f MB\n\n",
			rep.Chain.Blocks, rep.Chain.Txs, rep.Chain.Submissions, rep.Chain.Decisions,
			float64(rep.Chain.GasUsed)/1e6, float64(rep.Chain.Bytes)/1e6)
	case res.Sharded != nil:
		rep := res.Sharded
		fmt.Println(rep.Table())
		fmt.Println()
		fmt.Println(rep.MergeTable())
		fmt.Println(rep.Summary())
		for _, s := range rep.Shards {
			fmt.Printf("shard %d ledger (%s): %d blocks, %d txs (%d submissions, %d decisions), %.2f MGas, %.2f MB\n",
				s.Index, s.Backend, s.Chain.Blocks, s.Chain.Txs, s.Chain.Submissions, s.Chain.Decisions,
				float64(s.Chain.GasUsed)/1e6, float64(s.Chain.Bytes)/1e6)
		}
		fmt.Println()
	}
}

// printEvent streams one progress line per experiment event.
func printEvent(ev waitornot.Event) {
	arm := func(a string) string {
		if a == "" {
			return ""
		}
		return " [" + a + "]"
	}
	switch e := ev.(type) {
	case waitornot.RoundStart:
		fmt.Printf("-- round %d%s\n", e.Round, arm(e.Arm))
	case waitornot.PeerTrained:
		fmt.Printf("   trained    %s (%d samples)\n", e.Peer, e.Samples)
	case waitornot.ModelSubmitted:
		fmt.Printf("   submitted  %s (%.1f KB on-chain)\n", e.Peer, float64(e.Bytes)/1024)
	case waitornot.BlockCommitted:
		fmt.Printf("   committed  block %d via %s (%d txs, %.2f MGas, ~%.0f ms commit latency)\n",
			e.Height, e.Backend, e.Txs, float64(e.GasUsed)/1e6, e.LatencyMs)
	case waitornot.AggregationDecided:
		who := e.Peer
		if who == "" {
			who = "aggregator"
		}
		fmt.Printf("   aggregated %s: %d models in %.1f ms -> {%s} acc %.4f\n",
			who, e.Included, e.WaitMs, e.ChosenCombo, e.Accuracy)
	case waitornot.PeerAggregated:
		fmt.Printf("   merged     %s r%d @ %.1f ms: %d models (staleness %.1f ms) acc %.4f\n",
			e.Peer, e.Round, e.VirtualMs, e.Included, e.MeanStalenessMs, e.Accuracy)
	case waitornot.RoundEnd:
		fmt.Printf("-- round %d done%s\n", e.Round, arm(e.Arm))
	case waitornot.PolicyDone:
		fmt.Printf("   policy     %-18s acc %.4f  wait %8.1f ms  models %.2f\n",
			e.Policy, e.FinalAccuracy, e.MeanWaitMs, e.MeanIncluded)
	case waitornot.ShardRoundEnd:
		fmt.Printf("   shard %d    r%d @ %.0f ms [%s]: wait %.1f ms, %.2f models\n",
			e.Shard, e.Round, e.VirtualMs, e.Policy, e.MaxWaitMs, e.MeanIncluded)
	case waitornot.ShardModelCommitted:
		fmt.Printf("   published  shard %d epoch %d (r%d, %d samples): acc %.4f\n",
			e.Shard, e.Epoch, e.Round, e.Samples, e.Accuracy)
	case waitornot.GlobalMerge:
		who := "barrier"
		if e.Shard >= 0 {
			who = fmt.Sprintf("shard %d", e.Shard)
		}
		fmt.Printf("   merged     epoch %d (%s, %s): %d shard models -> acc %.4f at wait %.1f ms\n",
			e.Epoch, e.Mode, who, e.Included, e.Accuracy, e.WaitMs)
	case waitornot.SweepProgress:
		cell := e.Policy
		if e.Backend != "" {
			cell += "@" + e.Backend
		}
		fmt.Printf("   replication %3d/%d  seed %-4d %-26s acc %.4f  wait %8.1f ms  models %.2f\n",
			e.Index+1, e.Total, e.Seed, cell, e.FinalAccuracy, e.MeanWaitMs, e.MeanIncluded)
	case waitornot.CampaignProgress:
		cell := e.Policy
		if e.Backend != "" {
			cell += "@" + e.Backend
		}
		src := "landed"
		if e.Restored {
			src = "restored"
		}
		fmt.Printf("   campaign   %3d/%d  %-8s cell %-3d seed %-4d %-26s acc %.4f  wait %8.1f ms\n",
			e.Done, e.Total, src, e.Index, e.Seed, cell, e.FinalAccuracy, e.MeanWaitMs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}

// fatalUsage rejects an invalid flag combination with one actionable
// line and the conventional usage exit code.
func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "repro:", msg)
	os.Exit(2)
}
