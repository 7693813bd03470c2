GO ?= go

.PHONY: all build test race vet fuzz bench check smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The steward federation stack, the simulation workers (the sliced scan
# workers, the stratified sampler behind profiles and certification, and
# the screened n=10k archival-scale smoke), the campaign worker pool, the
# decode/adjust certification loops, the streaming graph construction,
# the serving layer (hedged reads, admission, stripe cache), the parallel
# stream data path, the load generator, the joint-decode federation
# search, the chaos/WAN injectors, and the federated store (disaster
# soak) are the concurrency-heavy packages; run them under the race
# detector. The pipelined data-path packages (archive, serve, fedstore)
# also run at GOMAXPROCS 1, 2 and 4, since their pipeline widths follow
# it, and the out-of-order GetStream regression test at 1, 2, 4 and 8.
race:
	$(GO) test -race ./internal/steward/ ./internal/sim/ ./internal/obs/ ./internal/campaign/ \
		./internal/decode/ ./internal/adjust/ ./internal/core/ \
		./internal/workload/ ./internal/federation/ ./internal/chaos/
	$(GO) test -race -cpu 1,2,4 ./internal/archive/ ./internal/serve/ ./internal/fedstore/
	$(GO) test -race -cpu 1,2,4,8 -run '^TestGetStreamOutOfOrderCompletion$$' ./internal/archive/

vet:
	$(GO) vet ./...

# fuzz gives the frame codec and the kernel differential batteries (the
# incremental peeling kernel, the bit-sliced kernel behind every
# exhaustive scan and the sampler's residue, the closed-set defect scan)
# a short randomized shake on every check; longer sessions:
# make fuzz FUZZTIME=10m
FUZZTIME ?= 3s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME) ./internal/archive/
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -run '^$$' -fuzz FuzzSlicedMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -run '^$$' -fuzz FuzzDefectKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/defect/

# bench measures the certification-scan and defect-scan hot paths (map/
# decoder baselines vs the incremental kernels), the serving layer (Zipf
# load generator over a chaos backend with a concurrent scrub, plus the
# stream/encode data-path loops), the repair economics (the extended
# RAID comparison plus a measured single-device-loss accounting run),
# and the archival-scale sampled certification (streamed n=10k graph,
# patterns/sec to the 1e-4 Wilson-CI target, precision trajectory,
# screening rate), writing BENCH_decode.json, BENCH_defect.json,
# BENCH_serve.json, BENCH_repair.json, BENCH_federation.json, and
# BENCH_certify.json; -check enforces the zero-allocation invariant on
# the steady-state kernel paths, the bit-exact-or-error invariant on the
# chaos load run, the backend-contract allocation budget on the stream
# stripe loop, exact repair-byte attribution, the degree-aware
# placement's cross-group read reduction, the federation gates (mirrored
# critical sets jointly recoverable, zero residue after a full site wipe,
# every cross-site repair byte attributed), and the certify gates (CI
# half-width target reached, structural screen >= 90%, no per-trial
# allocation in the sampler hot loop, decode.NewCSR's allocation within
# the linear-in-edges decode.CSRAllocBound).
bench:
	$(GO) run ./cmd/benchreport -check

check: vet build test race fuzz

# smoke runs a small end-to-end campaign under the race detector: fresh
# run, cache-served rerun, status — the moving parts CI should exercise
# beyond unit tests. A sampled certification on a streamed n=2000 graph
# then drives the stratified sampler and its stopping rule through the
# same journaled pipeline.
SMOKE_DIR := $(shell mktemp -d /tmp/tornado-smoke.XXXXXX)
smoke:
	$(GO) run -race ./cmd/campaign run -dir $(SMOKE_DIR)/camp -cache $(SMOKE_DIR)/cache \
		-kind worstcase -seed 2006 -maxk 3 -quiet
	$(GO) run -race ./cmd/campaign run -dir $(SMOKE_DIR)/camp2 -cache $(SMOKE_DIR)/cache \
		-kind worstcase -seed 2006 -maxk 3 -quiet
	$(GO) run -race ./cmd/campaign status -dir $(SMOKE_DIR)/camp
	$(GO) run -race ./cmd/campaign run -dir $(SMOKE_DIR)/cert -cache $(SMOKE_DIR)/cache \
		-kind sampled -seed 2006 -nodes 2000 -mink 5 -maxk 5 -epsilon 1e-3 -quiet
	rm -rf $(SMOKE_DIR)

clean:
	$(GO) clean ./...
