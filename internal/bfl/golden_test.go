package bfl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"waitornot/internal/bfl"
	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/testutil"
)

// goldenClassic is a 3-peer cross-silo run on poa with the Tables
// II-IV combo grid on, a half-poisoned peer and a straggler.
func goldenClassic() bfl.Config {
	return bfl.Config{
		Model:           nn.ModelSimpleNN,
		Peers:           3,
		Rounds:          2,
		Seed:            11,
		TrainPerPeer:    90,
		SelectionSize:   40,
		TestPerPeer:     50,
		EvalAllCombos:   true,
		Backend:         "poa",
		PoisonPeer:      1,
		PoisonFrac:      0.5,
		StragglerFactor: []float64{1, 3, 1},
	}
}

// goldenSubsampled is a K=5-of-100 cross-device fleet on the instant
// backend.
func goldenSubsampled() bfl.Config {
	return bfl.Config{
		Peers: 100, Rounds: 3, Seed: 7,
		TrainPerPeer: 60, SelectionSize: 40, TestPerPeer: 40,
		Hyper:          fl.DefaultHyper(nn.ModelSimpleNN),
		ClientFraction: 0.05,
		Backend:        "instant",
	}
}

// TestRunGolden pins the full output of the barriered runner (combo
// grid included) and of both schedules under ClientFraction: the
// result JSON, with wall time and Parallelism zeroed, followed by the
// event stream. Each run is checked at Parallelism 1 and at NumCPU
// against the same golden file, so the pin also holds the
// parallelism-invariance contract.
func TestRunGolden(t *testing.T) {
	subPoisoned := goldenSubsampled()
	subPoisoned.PoisonPeer = 81 // sampled in rounds 1 and 2
	subPoisoned.PoisonFrac = 0.5
	subAsync := goldenSubsampled()
	subAsync.Policy = core.FirstK{K: 3}

	cases := []struct {
		name string
		cfg  bfl.Config
		run  func(context.Context, bfl.Config) (any, error)
	}{
		{"classic_poa", goldenClassic(), runSync},
		{"subsampled_sync", subPoisoned, runSync},
		{"subsampled_async", subAsync, runAsync},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				var events []event.Event
				cfg := tc.cfg
				cfg.Parallelism = workers
				cfg.Events = func(ev event.Event) { events = append(events, ev) }
				res, err := tc.run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(js)
				buf.WriteByte('\n')
				for _, ev := range events {
					fmt.Fprintf(&buf, "%T %+v\n", ev, ev)
				}
				testutil.GoldenFile(t, "testdata/"+tc.name+".golden", buf.Bytes())
			})
		}
	}
}

func runSync(ctx context.Context, cfg bfl.Config) (any, error) {
	res, err := bfl.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.TrainWallTime, res.Config.Parallelism = 0, 0
	return res, nil
}

func runAsync(ctx context.Context, cfg bfl.Config) (any, error) {
	res, err := bfl.RunAsync(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.TrainWallTime, res.Config.Parallelism = 0, 0
	return res, nil
}
