package main

import (
	"fmt"
	"strings"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// The layer probes, in the order they run. Each times one public
// entry point of a layer on the workload's shapes and reports the
// median per call, in the unit its name ends with.
var probeNames = []string{
	"dataset.generate_ms",
	"fl.local_train_ms",
	"core.decide_ms",
	"fl.combo_table_ms",
	"fl.fedavg_us",
	"fl.weighted_fedavg_us",
	"nn.append_weights_us",
	"nn.hash_weights_us",
	"nn.decode_weights_us",
	"chain.new_tx_us",
	"ledger.submit_us",
	"ledger.commit_ms",
	"ledger.read_us",
}

// probeCalls is how often one run calls each probed entry point,
// counted from the run's events. A probe with zero calls measures a
// layer the workload bypasses and is not run.
func probeCalls(w workload, t tally) map[string]int {
	tables, tableCombos := 0, 0
	if w.comboTables() && t.Decisions > 0 {
		tables = t.Decisions
		tableCombos = tables * len(fl.PaperCombos(t.Peers, 0))
	}
	return map[string]int{
		// The training pool and the ledger's verification set, plus a
		// selection and a test set per peer.
		"dataset.generate_ms": 2 + 2*t.Peers,
		"fl.local_train_ms":   t.LocalTrains,
		"core.decide_ms":      t.Decisions,
		"fl.combo_table_ms":   tables,
		// The decision scores each combo, then materializes the winner;
		// a table row averages every paper combo over all peers.
		"fl.fedavg_us":          t.CombosScored + t.Decisions + tableCombos,
		"fl.weighted_fedavg_us": t.Merges,
		"nn.append_weights_us":  t.Submissions,
		// Every committed transaction that is neither a registration
		// nor a submission records an aggregation's weight hash.
		"nn.hash_weights_us":   t.Txs - t.Peers - t.Submissions,
		"nn.decode_weights_us": t.Decodes,
		"chain.new_tx_us":      t.Submissions,
		"ledger.submit_us":     t.Submissions,
		"ledger.commit_ms":     t.Blocks,
		"ledger.read_us":       t.Decisions,
	}
}

// prober holds the workload-shaped inputs the probes share.
type prober struct {
	w       workload
	seed    uint64
	id      nn.ModelID
	data    dataset.Config
	root    *xrand.RNG
	client  *fl.Client
	sel     *dataset.Set
	test    *dataset.Set
	initial []float32
	updates []*fl.Update
	workers int
}

func newProber(w workload, seed uint64) *prober {
	o := w.opts
	p := &prober{
		w: w, seed: seed, id: nn.ModelSimpleNN, data: dataset.DefaultConfig(),
		root: xrand.New(seed).Derive("perfbench-probe"),
	}
	hyper := fl.DefaultHyper(p.id)
	if o.LearningRate > 0 {
		hyper.LR = o.LearningRate
	}
	if o.LocalEpochs > 0 {
		hyper.LocalEpochs = o.LocalEpochs
	}
	train := dataset.Generate(p.data, o.TrainPerClient, p.root.Derive("train"))
	p.sel = dataset.Generate(p.data, o.SelectionSize, p.root.Derive("selection"))
	p.test = dataset.Generate(p.data, o.TestPerClient, p.root.Derive("test"))
	model := p.id.Build(p.root.Derive("model"))
	p.initial = model.WeightVector()
	p.client = fl.NewClient(fl.ClientName(0), model, train, p.sel, p.test, hyper, p.root.Derive("client"))
	// Distinct updates of the model's shape; the layers' cost does not
	// depend on the values.
	noise := p.root.Derive("updates")
	for i := 0; i < o.Clients; i++ {
		wv := make([]float32, len(p.initial))
		for j, v := range p.initial {
			wv[j] = v + 0.01*noise.NormFloat32()
		}
		p.updates = append(p.updates, &fl.Update{Client: fl.ClientName(i), Round: 1, Weights: wv, NumSamples: o.TrainPerClient})
	}
	// The engine caps the combo-search worker pool at the number of
	// combos a peer ever enumerates.
	p.workers = par.Workers(0)
	if n := len(fl.PaperCombos(o.Clients, 0)); p.workers > n {
		p.workers = n
	}
	return p
}

// probeFn makes one probed call and returns the duration of the part
// it measures.
type probeFn func() (time.Duration, error)

// probeUnit is the unit a probe reports in, from its name's suffix.
func probeUnit(name string) string {
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "us"
}

// timeLoop calls fn until budget is spent and at least minIter times,
// and returns the median duration.
func timeLoop(budget time.Duration, minIter int, fn probeFn) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minIter || time.Since(start) < budget {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// runProbes times every probe the workload calls, sharing budget
// between them, and returns the per-call medians by probe name (0 for
// probes of bypassed layers). included and mergeIncluded are the
// traced run's mean update counts per decision and per merge.
func runProbes(w workload, seed uint64, calls map[string]int, included, mergeIncluded int, budget time.Duration) (map[string]float64, error) {
	p := newProber(w, seed)
	active := 0
	for _, name := range probeNames {
		if calls[name] > 0 {
			active++
		}
	}
	share := budget / time.Duration(max(active, 1))
	out := make(map[string]float64, len(probeNames))
	for _, name := range probeNames {
		out[name] = 0
	}
	record := func(name string, d time.Duration) {
		unit := time.Microsecond
		if probeUnit(name) == "ms" {
			unit = time.Millisecond
		}
		out[name] = float64(d) / float64(unit)
	}
	// Probes are built only when run: a bypassed layer costs nothing.
	single := map[string]func() probeFn{
		"dataset.generate_ms":   func() probeFn { return p.generate },
		"fl.local_train_ms":     p.localTrain,
		"core.decide_ms":        func() probeFn { return p.decide(included) },
		"fl.combo_table_ms":     p.comboTable,
		"fl.fedavg_us":          func() probeFn { return p.fedAvg(included) },
		"fl.weighted_fedavg_us": func() probeFn { return p.weightedFedAvg(mergeIncluded) },
		"nn.append_weights_us":  p.appendWeights,
		"nn.hash_weights_us":    func() probeFn { return p.hashWeights },
		"nn.decode_weights_us":  p.decodeWeights,
		"chain.new_tx_us":       p.newTx,
	}
	for _, name := range probeNames {
		build, ok := single[name]
		if !ok || calls[name] == 0 {
			continue
		}
		d, err := timeLoop(share, 3, build())
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		record(name, d)
	}
	ledgerShare := 0
	for _, name := range []string{"ledger.submit_us", "ledger.commit_ms", "ledger.read_us"} {
		if calls[name] > 0 {
			ledgerShare++
		}
	}
	if ledgerShare > 0 {
		submit, commit, read, err := p.ledgerRounds(share*time.Duration(ledgerShare), calls["ledger.read_us"] > 0)
		if err != nil {
			return nil, fmt.Errorf("ledger probe: %w", err)
		}
		if calls["ledger.submit_us"] > 0 {
			record("ledger.submit_us", submit)
		}
		if calls["ledger.commit_ms"] > 0 {
			record("ledger.commit_ms", commit)
		}
		if calls["ledger.read_us"] > 0 {
			record("ledger.read_us", read)
		}
	}
	return out, nil
}

// generate replays the engine's set-up data generation — the training
// pool, the verification set, and each peer's selection and test sets
// — and returns the time per Generate call.
func (p *prober) generate() (time.Duration, error) {
	o := p.w.opts
	rng := p.root.Derive("generate")
	calls := 2 + 2*o.Clients
	d := timed(func() {
		dataset.Generate(p.data, o.TrainPerClient*o.Clients, rng.Derive("pool"))
		dataset.Generate(p.data, o.SelectionSize, rng.Derive("verify"))
		for i := 0; i < o.Clients; i++ {
			dataset.Generate(p.data, o.SelectionSize, rng.Derive(fmt.Sprintf("sel-%d", i)))
			dataset.Generate(p.data, o.TestPerClient, rng.Derive(fmt.Sprintf("test-%d", i)))
		}
	})
	return d / time.Duration(calls), nil
}

func (p *prober) localTrain() probeFn {
	round := 0
	return func() (time.Duration, error) {
		if err := p.client.Adopt(p.initial); err != nil {
			return 0, err
		}
		round++
		return timed(func() { p.client.LocalTrain(round) }), nil
	}
}

// clampIncluded bounds an update count to [1, peers].
func (p *prober) clampIncluded(k int) int {
	return min(max(k, 1), len(p.updates))
}

func (p *prober) decide(included int) probeFn {
	o := p.w.opts
	filter := core.Filter{MinAccuracy: o.FilterMinAccuracy, MaxBelowBest: o.FilterMaxBelowBest}
	agg := core.NewAggregator(fl.ClientName(0), core.WaitAll{}, filter, p.client.SelectionEvaluator(), p.root.Derive("ties"))
	if p.workers > 1 {
		agg.WorkerEvals = fl.SelectionEvaluators(p.id, p.sel, p.workers)
	}
	kept := p.updates[:p.clampIncluded(included)]
	round := 0
	return func() (time.Duration, error) {
		round++
		var err error
		d := timed(func() { _, err = agg.Decide(round, kept, 0, len(p.updates)) })
		return d, err
	}
}

func (p *prober) comboTable() probeFn {
	evals := fl.SelectionEvaluators(p.id, p.test, p.workers)
	avgs := fl.NewAveragers(p.workers)
	combos := fl.PaperCombos(len(p.updates), 0)
	return func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = fl.EvaluateCombosWith(p.updates, combos, evals, avgs) })
		return d, err
	}
}

// fedAvg cycles through the combos a decision over included updates
// scores.
func (p *prober) fedAvg(included int) probeFn {
	kept := p.updates[:p.clampIncluded(included)]
	combos := fl.PaperCombos(len(kept), 0)
	var avg fl.Averager
	i := 0
	return func() (time.Duration, error) {
		picked := combos[i%len(combos)].Pick(kept)
		i++
		var err error
		d := timed(func() { _, err = avg.FedAvg(picked) })
		return d, err
	}
}

func (p *prober) weightedFedAvg(included int) probeFn {
	kept := p.updates[:p.clampIncluded(included)]
	coef := make([]float64, len(kept))
	for i, u := range kept {
		coef[i] = float64(u.NumSamples) / float64(i+1)
	}
	var avg fl.Averager
	return func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = avg.WeightedFedAvg(kept, coef) })
		return d, err
	}
}

func (p *prober) appendWeights() probeFn {
	var buf []byte
	return func() (time.Duration, error) {
		return timed(func() { buf = nn.AppendWeights(buf[:0], p.initial) }), nil
	}
}

func (p *prober) hashWeights() (time.Duration, error) {
	return timed(func() { nn.HashWeights(p.initial) }), nil
}

func (p *prober) decodeWeights() probeFn {
	blob := nn.EncodeWeights(p.initial)
	return func() (time.Duration, error) {
		var err error
		d := timed(func() { _, err = nn.DecodeWeights(blob) })
		return d, err
	}
}

// submissionPayload is the aggregation-contract call carrying update u.
func (p *prober) submissionPayload(round int, u *fl.Update) []byte {
	return contract.SubmitCallData(uint64(round), uint64(p.id), uint64(u.NumSamples), nn.EncodeWeights(u.Weights))
}

// newTx signs a fresh submission-sized transaction per call.
func (p *prober) newTx() probeFn {
	key := keys.GenerateDeterministic(p.seed*1009 + 7)
	payload := p.submissionPayload(1, p.updates[0])
	gas := engineChain().Gas
	var nonce uint64
	return func() (time.Duration, error) {
		var err error
		d := timed(func() {
			_, err = chain.NewTx(key, nonce, contract.AggregationAddress, 0, payload, gas, 10_000_000, 1)
		})
		nonce++
		return d, err
	}
}

// engineChain is the chain configuration the experiment engine uses:
// the defaults with a low difficulty for in-process sealing.
func engineChain() chain.Config {
	c := chain.DefaultConfig()
	c.GenesisDifficulty = 64
	c.MinDifficulty = 16
	return c
}

// ledgerRounds brings up the workload's backend with one replica per
// peer, registers every peer, then runs submission rounds — every peer
// submits a freshly signed update, the round's block commits, and
// (when the workload reads the ledger) every peer reads the round's
// submissions back — until budget is spent, at least one round and at
// most the workload's round count. It returns the median time per
// Submit, per Commit and per read.
func (p *prober) ledgerRounds(budget time.Duration, reads bool) (submit, commit, read time.Duration, err error) {
	o := p.w.opts
	cc := engineChain()
	n := o.Clients
	peerKeys := make([]*keys.Key, n)
	sealers := make([]keys.Address, n)
	alloc := make(map[keys.Address]uint64, n)
	for i := range peerKeys {
		peerKeys[i] = keys.GenerateDeterministic(p.seed*1009 + uint64(i))
		sealers[i] = peerKeys[i].Address()
		alloc[sealers[i]] = 1 << 62
	}
	be, err := ledger.New(o.Backend, ledger.Config{
		Peers: n, Chain: cc, Alloc: alloc, Proc: contract.NewVM(cc.Gas),
		Sealers: sealers, Validators: o.Validators,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	step := uint64(max(be.CommitLatencyMs(), 1))
	nonces := make([]uint64, n)
	for i, k := range peerKeys {
		tx, err := chain.NewTx(k, nonces[i], contract.RegistryAddress, 0, contract.RegisterCallData(fl.ClientName(i)), cc.Gas, 1_000_000, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		nonces[i]++
		if err := be.Submit(tx); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := be.Commit(0, step); err != nil {
		return 0, 0, 0, err
	}
	var submits, commits, readsD []float64
	start := time.Now()
	for round := 1; round <= o.Rounds && (round == 1 || time.Since(start) < budget); round++ {
		for i, k := range peerKeys {
			tx, err := chain.NewTx(k, nonces[i], contract.AggregationAddress, 0, p.submissionPayload(round, p.updates[i]), cc.Gas, 10_000_000, 1)
			if err != nil {
				return 0, 0, 0, err
			}
			nonces[i]++
			t0 := time.Now()
			if err := be.Submit(tx); err != nil {
				return 0, 0, 0, err
			}
			submits = append(submits, float64(time.Since(t0)))
		}
		t0 := time.Now()
		c, err := be.Commit((round-1)%n, uint64(round+1)*step)
		if err != nil {
			return 0, 0, 0, err
		}
		commits = append(commits, float64(time.Since(t0)))
		if c.Txs != n {
			return 0, 0, 0, fmt.Errorf("round %d committed %d of %d submissions", round, c.Txs, n)
		}
		if !reads {
			continue
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			subs := contract.SubmissionsAt(be.StateView(i), uint64(round))
			txs := be.CommittedTxs(i)
			readsD = append(readsD, float64(time.Since(t0)))
			if len(subs) != n || len(txs) == 0 {
				return 0, 0, 0, fmt.Errorf("peer %d reads %d of %d round-%d submissions", i, len(subs), n, round)
			}
		}
	}
	return time.Duration(median(submits)), time.Duration(median(commits)), time.Duration(median(readsD)), nil
}
