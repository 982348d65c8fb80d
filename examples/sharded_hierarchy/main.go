// Sharded multi-aggregator hierarchy: the architectural answer to
// fleets too large for one aggregation ring. Eight peers are split
// into four shards, each running the full decentralized engine — its
// own ledger, wait policy, and commit cadence — with every shard's
// rounds scheduled on one shared virtual clock. A cross-shard merge
// every epoch folds the shard models into the global model; here the
// async merge mode lets fast shards publish without waiting for the
// shard that carries the 3x straggler.
//
// The observer prints shard rounds and merges as they fire; the
// report renders the per-shard schedule, the global accuracy on the
// fleet's cumulative-wait axis, and each shard's ledger footprint.
//
//	go run ./examples/sharded_hierarchy
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"waitornot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := waitornot.Options{
		Model:        waitornot.SimpleNN,
		Clients:      8,
		Rounds:       4,
		LearningRate: 0.05, // hotter rate for the demo's tiny shards
		// The last shard owns the straggler: sync merging would make the
		// whole fleet wait for it, async merging does not.
		StragglerFactor: []float64{1, 1, 1, 1, 1, 1, 1, 3},
		Shards:          4,
		ShardBackends:   []string{"pow", "poa", "pbft", "instant"},
		MergeCadence:    1,
		MergeMode:       waitornot.MergeAsync,
		CommitLatency:   true, // shard commits face real block-interval delays
		SkipComboTables: true,
	}

	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindSharded),
		waitornot.WithFastScale(),
		waitornot.WithObserverFunc(func(ev waitornot.Event) {
			switch e := ev.(type) {
			case waitornot.ShardRoundEnd:
				fmt.Printf("t=%8.0f ms  shard %d round %d [%s] waited %.1f ms\n",
					e.VirtualMs, e.Shard, e.Round, e.Policy, e.MaxWaitMs)
			case waitornot.GlobalMerge:
				fmt.Printf("t=%8.0f ms  merge epoch %d (%s): %d shard models -> acc %.4f\n",
					e.VirtualMs, e.Epoch, e.Mode, e.Included, e.Accuracy)
			}
		})).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	rep := res.Sharded
	fmt.Println()
	fmt.Println(rep.Table())
	fmt.Println()
	fmt.Println(rep.MergeTable())
	fmt.Println()
	for _, s := range rep.Shards {
		fmt.Printf("shard %d (%s): %d peers, final acc %.4f, %d blocks on its ledger\n",
			s.Index, s.Backend, s.Peers, s.FinalAccuracy, s.Chain.Blocks)
	}
	fmt.Println()
	fmt.Println(rep.Summary())
}
