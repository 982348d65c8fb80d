package waitornot

import (
	"context"
	"reflect"
	"testing"
)

// TestBuiltinScenarioLibrary pins the registry's contents: the
// scenarios the CLI documents must exist, validate, and carry the
// right experiment kind.
func TestBuiltinScenarioLibrary(t *testing.T) {
	wantKinds := map[string]Kind{
		"paper-repro":      KindDecentralized,
		"vanilla-baseline": KindVanilla,
		"non-iid":          KindDecentralized,
		"poisoning":        KindDecentralized,
		"stragglers":       KindTradeoff,
		"async-ladder":     KindTradeoff,
		"consensus-ladder": KindTradeoff,
		"async-free-run":   KindAsync,
		"hetero-compute":   KindAsync,

		"replicated-tradeoff": KindTradeoff, // declares Seeds (a sweep)
		"campaign-grid":       KindTradeoff, // declares Seeds + Backends (a durable sweep)
	}
	for name, kind := range wantKinds {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered (have %v)", name, ScenarioNames())
		}
		if s.Kind != kind {
			t.Fatalf("scenario %q kind = %v, want %v", name, s.Kind, kind)
		}
		if s.Description == "" {
			t.Fatalf("scenario %q has no description", name)
		}
		if err := s.Options.Validate(); err != nil {
			t.Fatalf("scenario %q options invalid: %v", name, err)
		}
		for _, p := range s.Policies {
			if err := p.Validate(); err != nil {
				t.Fatalf("scenario %q policy invalid: %v", name, err)
			}
		}
	}
	// The async ladder must actually span the policy families.
	ladder, _ := LookupScenario("async-ladder")
	kinds := map[PolicyKind]bool{}
	for _, p := range ladder.Policies {
		kinds[p.Kind] = true
	}
	if !kinds[WaitAll] || !kinds[FirstK] || !kinds[Timeout] || !kinds[KOrTimeout] {
		t.Fatalf("async-ladder misses a policy family: %+v", ladder.Policies)
	}
}

// TestRegisterScenarioRejections: the registry refuses unnamed,
// duplicate, and invalid scenarios so every listed name is runnable.
func TestRegisterScenarioRejections(t *testing.T) {
	if err := RegisterScenario(Scenario{Kind: KindVanilla}); err == nil {
		t.Fatal("accepted a nameless scenario")
	}
	if err := RegisterScenario(Scenario{Name: "paper-repro", Kind: KindVanilla}); err == nil {
		t.Fatal("accepted a duplicate name")
	}
	if err := RegisterScenario(Scenario{Name: "x-bad-kind"}); err == nil {
		t.Fatal("accepted a zero kind")
	}
	if err := RegisterScenario(Scenario{
		Name: "x-bad-opts", Kind: KindVanilla, Options: Options{Clients: -1},
	}); err == nil {
		t.Fatal("accepted invalid options")
	}
	if err := RegisterScenario(Scenario{
		Name: "x-bad-policy", Kind: KindTradeoff, Policies: []Policy{{Kind: FirstK}},
	}); err == nil {
		t.Fatal("accepted an invalid policy ladder")
	}
	if err := RegisterScenario(Scenario{
		Name: "x-dup-seeds", Kind: KindTradeoff, Seeds: []uint64{3, 3},
	}); err == nil {
		t.Fatal("accepted duplicate sweep seeds")
	}
}

// TestScenarioExperimentRuns drives a registered scenario end-to-end
// at test scale through Scenario.Experiment, proving the registry →
// experiment → report path.
func TestScenarioExperimentRuns(t *testing.T) {
	s, ok := LookupScenario("non-iid")
	if !ok {
		t.Fatal("non-iid not registered")
	}
	// s is a value copy: shrink it to test scale without touching the
	// registry.
	s.Options.Rounds = 1
	s.Options.TrainPerClient = 60
	s.Options.SelectionSize = 30
	s.Options.TestPerClient = 30
	s.Options.LearningRate = 0.01
	s.Options.SkipComboTables = true
	s.Options.Seed = 11
	res, err := s.Experiment().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "non-iid" || res.Kind != KindDecentralized || res.Decentralized == nil {
		t.Fatalf("results = %+v", res)
	}
	if got := res.Decentralized.Rounds[0][0].Included; got != 3 {
		t.Fatalf("wait-all included %d of 3 models", got)
	}
}

// TestScenarioExperimentOverrides: edits to the looked-up Scenario
// value and options passed to Experiment both win over the registered
// configuration, and the registry itself is left untouched.
func TestScenarioExperimentOverrides(t *testing.T) {
	s, ok := LookupScenario("replicated-tradeoff")
	if !ok {
		t.Fatal("replicated-tradeoff not registered")
	}
	s.Options.Seed = 99
	s.Options.Parallelism = 2
	s.Backends = []string{"instant"}
	e := s.Experiment(WithSeeds(7, 8))
	if e.kind != KindTradeoff || e.scenario != "replicated-tradeoff" {
		t.Fatalf("scenario not applied: %+v", e)
	}
	if e.opts.Seed != 99 || e.opts.Parallelism != 2 {
		t.Fatalf("option edits lost: %+v", e.opts)
	}
	if len(e.policies) != 3 || !reflect.DeepEqual(e.backends, []string{"instant"}) {
		t.Fatalf("ladders lost: policies %+v, backends %v", e.policies, e.backends)
	}
	if !reflect.DeepEqual(e.sweep.Seeds, []uint64{7, 8}) {
		t.Fatalf("WithSeeds did not override the scenario seeds: %v", e.sweep.Seeds)
	}
	if reg, _ := LookupScenario("replicated-tradeoff"); reg.Options.Seed != 0 || reg.Backends != nil || len(reg.Seeds) != 5 {
		t.Fatalf("editing the looked-up value changed the registry: %+v", reg)
	}
}
