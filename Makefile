# Maya cache reproduction — build/verify targets.
#
# `make ci` is the tier-1 gate: everything a PR must keep green.

GO ?= go

.PHONY: all build test vet check race e2e bench bench-profile fuzz-smoke ci clean

all: build

# build compiles every package and command.
build:
	$(GO) build ./...

# test runs the full unit/integration suite.
test:
	$(GO) test ./...

# vet runs go vet plus mayavet, the simulator-specific analyzers
# (randsource, maporder, uncheckederr, narrowcast, plus the
# interprocedural seedflow, snapshotfields, goroutinectx, atomicmix — see
# internal/vet). Extra flags pass through VETFLAGS, e.g.
# `make vet VETFLAGS='-only seedflow -format json'`. It also fails on any
# `Deprecated:` doc comment outside perfbench/: delete wrappers instead.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/mayavet $(VETFLAGS) ./...
	@if grep -rn --include='*.go' --exclude-dir=perfbench --exclude-dir=.bench_build 'Deprecated:' .; then \
	  echo "vet: Deprecated: doc comments above; delete the wrappers instead" >&2; exit 1; fi

# check re-runs the suite with the mayacheck build tag: the hot cache
# structures self-verify their FPTR/RPTR bijection, occupancy conservation,
# and ball-count invariants on every run, and the fault-injection tests
# prove the audits fire on corrupted tag stores.
check:
	$(GO) test -tags mayacheck ./internal/core/... ./internal/mirage/... ./internal/buckets/... ./internal/cachesim/... ./internal/faults/... ./internal/prince/... ./internal/ceaser/... ./internal/baseline/...

# race runs the race detector over the multi-core simulator paths, the
# concurrent sweep harness, and the shard-parallel Monte-Carlo engine
# (scheduling-invariance and mid-run cancellation hammers; -short keeps
# the sharded model/attack tests at CI scale).
race:
	$(GO) test -race ./internal/cachesim/... ./internal/core/... ./internal/experiments/... ./internal/harness/... ./internal/faults/... ./internal/snapshot/...
	$(GO) test -race ./internal/dist/
	$(GO) test -race -cover ./internal/serve/
	$(GO) test -race ./internal/vet/ ./cmd/mayavet/
	$(GO) test -race -short ./internal/mc/... ./internal/pprofutil/...
	$(GO) test -race -short -run 'Sharded' ./internal/buckets/
	$(GO) test -race -short -run 'Trials|MedianDistinguishWorker|EvictionSetTrials|ReplacementPredictabilityCtx' ./internal/attack/

# e2e exercises the CLIs end to end: mayasim fault isolation (one
# injected panicking cell, nonzero exit, FAILED row), checkpoint resume
# (byte-identical tables), SIGKILL-mid-ROI snapshot resume (bit-exact
# continuation from durable cell state), the mayafleet chaos fabric, and
# the mayaserve session daemon's kill -9 recovery (a daemon SIGKILLed
# mid-ROI restarts and completes every acknowledged session with
# byte-identical results). ci.sh runs the same smoke inline.
e2e:
	@TMP=$$(mktemp -d); trap 'rm -rf "$$TMP"' EXIT; \
	$(GO) build -o "$$TMP/mayasim" ./cmd/mayasim; \
	if "$$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -serial \
	    -checkpoint "$$TMP/ck.jsonl" -fault panic:cores=8 \
	    > "$$TMP/fault.out" 2> "$$TMP/fault.err"; then \
	  echo "e2e: fault-injected sweep exited zero" >&2; exit 1; fi; \
	grep -q FAILED "$$TMP/fault.out"; \
	grep -q "FAILURE SUMMARY" "$$TMP/fault.err"; \
	"$$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -serial \
	    -checkpoint "$$TMP/ck.jsonl" > "$$TMP/resume.out"; \
	"$$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -serial \
	    > "$$TMP/fresh.out"; \
	cmp "$$TMP/resume.out" "$$TMP/fresh.out"; \
	echo "e2e: resume byte-identical"; \
	if "$$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -serial \
	    -checkpoint "$$TMP/kill.ckpt" -snapshot-dir "$$TMP/snaps" -snapshot-every 4096 \
	    -fault killsnap:cores=16:4 > "$$TMP/kill.out" 2> "$$TMP/kill.err"; then \
	  echo "e2e: killsnap run survived its own SIGKILL" >&2; exit 1; fi; \
	test -n "$$(ls "$$TMP/snaps")"; \
	"$$TMP/mayasim" -experiment cores -warmup 60000 -roi 30000 -serial \
	    -checkpoint "$$TMP/kill.ckpt" -snapshot-dir "$$TMP/snaps" > "$$TMP/killresume.out"; \
	cmp "$$TMP/killresume.out" "$$TMP/fresh.out"; \
	test -z "$$(ls "$$TMP/snaps")"; \
	echo "e2e: SIGKILL resume bit-exact"; \
	$(GO) build -o "$$TMP/mayafleet" ./cmd/mayafleet; \
	"$$TMP/mayafleet" serial -benches mcf,lbm -cores 2 -warmup 30000 \
	    -roi 15000 -seeds 2 > "$$TMP/fleet-serial.tsv"; \
	"$$TMP/mayafleet" coordinate -inproc 3 -benches mcf,lbm -cores 2 \
	    -warmup 30000 -roi 15000 -seeds 2 -lease 2s -heartbeat 100ms \
	    -snapshot-every 4096 -fault distkill:bench=mcf:2 \
	    -fault distdrop:bench=lbm:1 -fault distdelay:bench=:5ms \
	    > "$$TMP/fleet-chaos.tsv" 2> "$$TMP/fleet-chaos.err"; \
	cmp "$$TMP/fleet-serial.tsv" "$$TMP/fleet-chaos.tsv"; \
	grep -q "injected kill" "$$TMP/fleet-chaos.err"; \
	grep -q "migrating cell" "$$TMP/fleet-chaos.err"; \
	echo "e2e: fleet chaos run byte-identical to serial"; \
	$(GO) build -o "$$TMP/mayaserve" ./cmd/mayaserve; \
	"$$TMP/mayaserve" serve -data-dir "$$TMP/sv-ref" -addr-file "$$TMP/sv.addr" \
	    -workers 3 -snapshot-every 4096 2>/dev/null & SRV=$$!; \
	while [ ! -s "$$TMP/sv.addr" ]; do sleep 0.1; done; A=$$(cat "$$TMP/sv.addr"); \
	for t in acme beta acme; do "$$TMP/mayaserve" submit -addr "$$A" -tenant $$t \
	    -cores 1 -warmup 20000 -roi 40000 -seed 7; done > "$$TMP/sv.ids"; \
	"$$TMP/mayaserve" wait -addr "$$A" -timeout 120s $$(cat "$$TMP/sv.ids") 2>/dev/null; \
	for id in $$(cat "$$TMP/sv.ids"); do \
	    "$$TMP/mayaserve" result -addr "$$A" $$id > "$$TMP/sv-ref-$$id.json"; done; \
	kill -TERM $$SRV; wait $$SRV; \
	rm -f "$$TMP/sv.addr"; \
	"$$TMP/mayaserve" serve -data-dir "$$TMP/sv-chaos" -addr-file "$$TMP/sv.addr" \
	    -workers 3 -snapshot-every 4096 -fault killsnap:s000003:2 2>/dev/null & SRV=$$!; \
	while [ ! -s "$$TMP/sv.addr" ]; do sleep 0.1; done; A=$$(cat "$$TMP/sv.addr"); \
	for t in acme beta acme; do "$$TMP/mayaserve" submit -addr "$$A" -tenant $$t \
	    -cores 1 -warmup 20000 -roi 40000 -seed 7; done > "$$TMP/sv.ids2"; \
	st=0; wait $$SRV || st=$$?; \
	if [ "$$st" -ne 137 ]; then echo "e2e: killsnap daemon exited $$st, want 137" >&2; exit 1; fi; \
	rm -f "$$TMP/sv.addr"; \
	"$$TMP/mayaserve" serve -data-dir "$$TMP/sv-chaos" -addr-file "$$TMP/sv.addr" \
	    -workers 3 -snapshot-every 4096 2>/dev/null & SRV=$$!; \
	while [ ! -s "$$TMP/sv.addr" ]; do sleep 0.1; done; A=$$(cat "$$TMP/sv.addr"); \
	"$$TMP/mayaserve" wait -addr "$$A" -timeout 120s $$(cat "$$TMP/sv.ids2") 2>/dev/null; \
	for id in $$(cat "$$TMP/sv.ids2"); do \
	    "$$TMP/mayaserve" result -addr "$$A" $$id > "$$TMP/sv-got-$$id.json"; \
	    cmp "$$TMP/sv-ref-$$id.json" "$$TMP/sv-got-$$id.json"; done; \
	kill -TERM $$SRV; wait $$SRV; \
	echo "e2e: mayaserve kill -9 recovery byte-identical"

# bench runs the continuous benchmark suite in quick mode and writes
# BENCH.json: per-design LLC access-path microbenchmarks (ns/access,
# allocs/access, B/access), a 4-core macro mix (events/sec), the
# shard-parallel Monte-Carlo security micro (iters/sec, serial vs 8x8,
# with the measured speedup), and the session-service load scenarios
# (admission/turnaround latency percentiles, sessions/sec, shed rate). The
# numbers are pinned and seed-deterministic, so comparing BENCH.json
# across commits on the same machine tracks simulator performance; the
# run also re-exercises the zero-alloc and golden-fixture guards via the
# bench package's init paths. Drop -quick for the full-length suite.
bench:
	$(GO) run ./cmd/mayabench -quick -out BENCH.json

# bench-profile runs just the micro tier (the LLC access path, both the
# fast-hash overhead rows and the real-PRINCE rows) under the CPU
# profiler and prints the ten hottest functions by flat time — the
# shortest loop for "where did the ns/access go".
bench-profile:
	@TMP=$$(mktemp -d); trap 'rm -rf "$$TMP"' EXIT; \
	$(GO) run ./cmd/mayabench -quick -micro -cpuprofile "$$TMP/micro.pprof" \
	    -out "$$TMP/BENCH.json"; \
	$(GO) tool pprof -top -nodecount=10 "$$TMP/micro.pprof"

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# regressions in the PRINCE round-trip and trace-parser robustness without
# stalling CI. Corpus crashers live under testdata/fuzz and replay in
# normal `go test` runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzEncryptDecryptRoundTrip -fuzztime=10s ./internal/prince/
	$(GO) test -run=^$$ -fuzz=FuzzMemoIndexes -fuzztime=10s ./internal/prince/
	$(GO) test -run=^$$ -fuzz=FuzzReadEvents$$ -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzReadEventsRoundTrip -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot/
	$(GO) test -run=^$$ -fuzz=FuzzFAMatchesMapReference -fuzztime=10s ./internal/baseline/

# ci is the tier-1 verification gate.
ci: build test vet check race e2e bench

clean:
	$(GO) clean ./...
