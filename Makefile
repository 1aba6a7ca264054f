GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race tier2 fuzz kernels orphans vet-strict obs-race metrics-smoke serve-smoke cluster-smoke trace-smoke np-smoke benchmark benchmark-smoke benchmark-check

# Tier-1 gate: everything a PR must keep green.
check: fmt vet build race

# Every tracked Go file is gofmt-clean (gofmt -l lists nothing).
fmt:
	@files=$$(git ls-files '*.go'); \
	test -n "$$files" || { echo "fmt: no tracked Go files (not a git checkout?)"; exit 1; }; \
	out=$$(gofmt -l $$files); \
	test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-2 gate: the race detector across the tree, a $(FUZZTIME) smoke on
# every fuzz target, the vector-kernel checks, the reachability check on
# the arithmetic packages, the stricter vet analyzers the concurrent hot
# path depends on, the telemetry layer under the race
# detector, the end-to-end smokes, and the benchmark's own smoke run and
# tests. No
# target here compares a wall-clock time against a committed number:
# speed is judged only by `bash benchmark/run.sh -aa 10` on parent and
# change, then `-compare` (benchmark/README.md).
tier2: race fuzz kernels orphans vet-strict obs-race serve-smoke cluster-smoke trace-smoke np-smoke benchmark-smoke benchmark-check

# The benchmark (BENCHMARK.json, benchmark/README.md): four workloads,
# end-to-end metrics and per-layer probes, timed from outside.
benchmark:
	bash benchmark/run.sh

# Every workload once, briefly: proves the benchmark still builds against
# the API surface it pins and every operation decrypts correctly.
benchmark-smoke:
	bash benchmark/run.sh -smoke

# benchmark/ is its own module, so tier-1's ./... does not reach it.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

obs-race:
	$(GO) vet ./internal/obs
	$(GO) test -race -count=1 ./internal/obs

vet-strict:
	$(GO) vet -copylocks -loopclosure ./...

fuzz:
	$(GO) test ./internal/mod -run '^$$' -fuzz '^FuzzModReduce$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mod -run '^$$' -fuzz '^FuzzShoupPrecomp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ntt -run '^$$' -fuzz '^FuzzNTTRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ntt -run '^$$' -fuzz '^FuzzNegacyclicMul$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ring -run '^$$' -fuzz '^FuzzAutomorphNTT$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vec -run '^$$' -fuzz '^FuzzVecKernels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lwe -run '^$$' -fuzz '^FuzzPackLWEs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rlwe -run '^$$' -fuzz '^FuzzDecomposeHoisted$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bfv -run '^$$' -fuzz '^FuzzDecryptRound$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzHMVPDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireClusterDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireTraceHeaderDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzShardRouter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chamnp -run '^$$' -fuzz '^FuzzEncMatrixShapes$$' -fuzztime $(FUZZTIME)

# The vector kernels (internal/vec): the !amd64 stubs and every guard
# compile for another architecture (from GOROOT alone, no download), the
# kernel and caller packages — from the companion words in mod up to the
# merge, the apply and the array tier, which run every guard concurrently
# — pass under the race detector, and the kernels-vs-Go-loops fuzz target
# smokes.
kernels:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/...
	$(GO) test -race -count=1 ./internal/vec ./internal/mod ./internal/ntt ./internal/ring ./internal/rlwe ./internal/bfv ./internal/lwe ./internal/core ./internal/chamnp
	$(GO) test ./internal/vec -run '^$$' -fuzz '^FuzzVecKernels$$' -fuzztime $(FUZZTIME)

# Nothing beside the hot path: every function internal/{mod,ntt,ring,rlwe,
# bfv,lwe,core,noise,runtime}, the serving half (apps/beaver, wire, server,
# client, cluster, obs, obs/trace, obs/metricshttp), vec and the models and
# applications (exp — every paper model and its experiments — security,
# apps/heterolr, paillier, kat) and chamnp declares outside its tests has a caller
# outside its own tests, or a row in orphans_test.go naming the part of
# the paper it reproduces. A caller is an identifier the type checker
# resolves to the declaration, never a bare name: the module, the benchmark
# and every package's test files are type-checked from source (a few
# seconds; skipped under -short).
orphans:
	$(GO) test -count=1 -run '^TestNoOrphans$$' .

# End-to-end check of the live telemetry endpoint: boot chamsim with
# -metrics, scrape it, and require the stage-latency family.
metrics-smoke:
	$(GO) build -o /tmp/chamsim-smoke ./cmd/chamsim
	/tmp/chamsim-smoke -metrics 127.0.0.1:19099 -hold -repeat 2 hmvp 16 512 256 & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:19099/metrics > /tmp/chamsim-smoke.metrics 2>/dev/null \
			&& grep -q cham_hmvp_stage_seconds /tmp/chamsim-smoke.metrics; then ok=0; break; fi; \
		sleep 0.2; \
	done; \
	kill $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "metrics-smoke: no cham_hmvp_stage_seconds in scrape"; exit 1; fi; \
	echo "metrics-smoke: ok ($$(grep -c '^cham_' /tmp/chamsim-smoke.metrics) series scraped)"

# End-to-end check of the serving tier: the loopback example exercises
# the full handshake → keys → register → apply → drain flow over TCP
# (under the race detector: the front end it goes through is concurrent
# code both doors share), and the server binary is built (not run).
serve-smoke:
	$(GO) run -race ./examples/serve
	$(GO) build -o /tmp/chamserve-smoke ./cmd/chamserve

# End-to-end check of the tracer: boot chamsim with every apply sampled,
# pull /debug/traces, and require the trace JSON to carry the apply span
# and at least one bridged kernel stage span.
trace-smoke:
	$(GO) build -o /tmp/chamsim-trace-smoke ./cmd/chamsim
	/tmp/chamsim-trace-smoke -metrics 127.0.0.1:19098 -trace-sample 1 -hold -repeat 2 hmvp 16 512 256 & \
	pid=$$!; \
	ok=1; \
	for i in $$(seq 1 50); do \
		if curl -sf 'http://127.0.0.1:19098/debug/traces?format=records' > /tmp/chamsim-trace-smoke.json 2>/dev/null \
			&& grep -q '"name":"apply"' /tmp/chamsim-trace-smoke.json \
			&& grep -q '"name":"stage:' /tmp/chamsim-trace-smoke.json; then ok=0; break; fi; \
		sleep 0.2; \
	done; \
	if [ $$ok -eq 0 ] && ! curl -sf 'http://127.0.0.1:19098/debug/traces?format=chrome' | grep -q traceEvents; then ok=1; fi; \
	kill $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "trace-smoke: no apply/stage spans at /debug/traces"; exit 1; fi; \
	echo "trace-smoke: ok ($$(grep -o '"span"' /tmp/chamsim-trace-smoke.json | wc -l) spans exported)"

# End-to-end check of the sharded tier: the loopback cluster example
# scatters a 4-tile matrix across two shard nodes through the gateway,
# verifies every gathered product against the cleartext, checks the
# hedging budget as a count (hedges <= 2 + 5% of shard requests — no
# wall-clock threshold), and drains the whole tier, all under the race
# detector; the cluster binary is built (not run).
cluster-smoke:
	$(GO) run -race ./examples/cluster
	$(GO) build -o /tmp/chamcluster-smoke ./cmd/chamcluster

# End-to-end check of the chamnp array tier: the matmul example proves
# the prepared-once/transpose-free batched product (local + loopback
# chamserve, bit-exact vs the big.Int reference), and the inference
# example pushes a batch through the two-layer network on both backends.
np-smoke:
	$(GO) run ./examples/matmul -n 128 -batch 3
	$(GO) run ./examples/inference -n 128 -batch 2
