# Build, verify, and benchmark the waitornot reproduction.
#
#   make ci        everything the repository gates on: build + vet +
#                  the gofmt gate + tests under the coverage ratchet + the race-detector
#                  smoke over the parallel execution engine + the fuzz
#                  smoke over the chain codec and mempool + the
#                  campaign crash-recovery smoke (SIGKILL + resume) + vet
#                  and tests of the perfbench module + a bench-json
#                  smoke snapshot gated by bench-guard (the
#                  hardware-aware parallel-speedup floor).

GO ?= go
GOFMT ?= gofmt

# bench-json writes a dated perf snapshot so the repo's performance
# trajectory accumulates as machine-readable files (one per day;
# override BENCH_JSON to pick the path).
BENCH_JSON ?= BENCH_$(shell date +%Y-%m-%d).json

# The coverage ratchet: cover fails if total statement coverage drops
# below this. The gating value is recorded in .github/workflows/ci.yml
# (env on the make step); raise it there as coverage grows.
COVER_MIN ?= 79.0
COVER_OUT ?= cover.out

# Fuzz smoke budget per target (a real campaign runs
# `go test -fuzz <target> ./internal/chain/` open-ended).
FUZZTIME ?= 5s

.PHONY: build vet fmt-check test cover test-race fuzz-smoke campaign-smoke perfbench-check bench bench-json bench-guard profile ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fail, naming the files, if any tracked Go file is not
# gofmt-clean.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Coverage-gated test run: the full suite once, with -coverprofile,
# failing if the total slips under the ratchet. ci uses this as its
# single (non-race) test pass.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) ./...
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage $$total% (ratchet: >= $(COVER_MIN)%)"; \
	awk -v got=$$total -v min=$(COVER_MIN) 'BEGIN { exit got+0 < min+0 ? 1 : 0 }' || \
	    { echo "coverage ratchet failed: $$total% < $(COVER_MIN)%"; exit 1; }

# Fuzz smoke: a few seconds per fuzz target, enough to catch shallow
# regressions in the chain codec, the mempool, the weight-payload
# codec, the pbft model verifier, and the bit-for-bit order of the
# weight-gradient GEMM on every CI run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzChainCodec -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -run '^$$' -fuzz FuzzMempoolSubmit -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -run '^$$' -fuzz FuzzPayloadCodec -fuzztime $(FUZZTIME) ./internal/nn/
	$(GO) test -run '^$$' -fuzz FuzzPBFTVerify -fuzztime $(FUZZTIME) ./internal/ledger/
	$(GO) test -run '^$$' -fuzz FuzzGEMMExact -fuzztime $(FUZZTIME) ./internal/tensor/

# Campaign smoke: the crash-recovery acceptance test end to end — a
# tiny campaign run in a child process, SIGKILLed the instant its log
# holds a durable record, then resumed and diffed byte-for-byte
# against the uninterrupted sweep's tables (campaign_test.go).
campaign-smoke:
	$(GO) test -run 'TestCampaignSIGKILLRecovery|TestCampaignResumeAfterCancel|TestCampaignResumeTornTail' -count=1 .

# The end-to-end benchmark (perfbench/) is its own Go module, so the
# root `go test ./...` never compiles it: vet and test it here so a
# public-API change that breaks the benchmark fails CI.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race smoke: the internal/par pool itself, plus short parallel runs
# of the decentralized experiment, the trade-off sweep, and the
# simulators (TestRaceSmoke* in race_test.go).
test-race:
	$(GO) test -race ./internal/par/
	$(GO) test -race -run 'TestRaceSmoke' .

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Perf snapshot: run the sequential-vs-parallel speedup suite, the
# consensus-backend ladder, the ledger hot path at model scale, the
# weight-codec alloc probe, the async-vs-sync schedule race, the
# sharded-hierarchy scaling sweep, and the aggregation-step alloc
# probe once and record name / ns-op / speedup-x as JSON (two steps so
# a bench failure fails the target instead of vanishing into a pipe;
# the intermediate is removed on success and failure alike).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel|BenchmarkSubsampled|BenchmarkBackend|BenchmarkLedger|BenchmarkWeightCodec|BenchmarkAsync|BenchmarkShard|BenchmarkFedAvg|BenchmarkCampaign' -benchtime 1x . > .bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < .bench.out; \
	    status=$$?; rm -f .bench.out; exit $$status

# Perf tripwires, both read from the snapshot: (1) speedup — fail if
# BenchmarkParallelScaling rows at >= 16 peers and >= 4 workers fall
# below 1.5x, but only on rows whose worker count fits the recording
# machine's cores (a 4-way pool on a 1-core runner is
# oversubscription, not a regression; the guard passes vacuously there
# and says so); (2) consensus overhead — fail if poa or pbft ns/op
# exceeds 2.5x the instant backend's, the ledger hot-path ratchet.
bench-guard:
	$(GO) run ./cmd/benchguard -file $(BENCH_JSON)

# CPU + allocation profiles of the parallel scaling workload, for
# chasing pool overhead and allocation churn (DESIGN.md §11 was found
# this way: go tool pprof -top cpu.prof / -sample_index=alloc_space
# mem.prof).
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelScaling/peers=4/procs=4' -benchtime 1x \
	    -cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof, mem.prof — inspect with: $(GO) tool pprof -top cpu.prof"

ci: build vet fmt-check cover test-race fuzz-smoke campaign-smoke perfbench-check bench-json bench-guard
