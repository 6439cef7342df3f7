# Tier-1 verification gate: everything `make check` runs must pass before
# a change lands. Mirrors what CI would run.

GO ?= go

.PHONY: check build vet fmt test race fuzz loc bench bench-auth bench-wire bench-replication bench-cluster bench-cas race-pool race-replication race-retrain race-cas race-cluster check-imports check-benchmark check-examples check-determinism check-harness paper-snapshot

check: build vet fmt check-imports race race-pool race-replication race-retrain race-cas race-cluster check-benchmark check-examples check-determinism

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# Every internal/ package must be reachable from the facade, a command or
# an example; a package only its own tests run fails here, named.
check-imports:
	@deps="$$($(GO) list -deps . ./cmd/... ./examples/...)" || exit 1; \
	pkgs="$$($(GO) list ./internal/...)" || exit 1; \
	status=0; \
	for p in $$pkgs; do \
		if ! printf '%s\n' "$$deps" | grep -qxF "$$p"; then \
			echo "imported by no product or example package: $$p"; status=1; \
		fi; \
	done; \
	exit $$status

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target: WAL, snapshot and CAS decoders,
# wire and replication frames, drift states, the shard map, and the KRR
# and decision-tree decoders that read model bundles from the registry
# and from fetch-model.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeBinaryPayload -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeBinarySnapshot -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzOpenWAL -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzSnapshotDelta -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzCASBlob -fuzztime=10s ./internal/cas/
	$(GO) test -run=Fuzz -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzEnvelopeOpen -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzEnvelopeV2 -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzBatchAuthPayload -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzReplFrame -fuzztime=10s ./internal/replication/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeDriftStates -fuzztime=10s ./internal/retrain/
	$(GO) test -run=Fuzz -fuzz=FuzzShardMap -fuzztime=10s ./internal/cluster/
	$(GO) test -run=Fuzz -fuzz=FuzzKRRUnmarshal -fuzztime=10s ./internal/ml/
	$(GO) test -run=Fuzz -fuzz=FuzzTreeUnmarshal -fuzztime=10s ./internal/ml/

# Line delta of the working tree (staged, unstaged and committed) against
# BASE, split the way CHANGES.md reports it: product .go (non-test, outside
# benchmark/), test .go, everything else. `make loc BASE=<ref>`.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- . ':!ISSUE.md' | awk ' \
		{ k = "other" } \
		$$3 ~ /\.go$$/ && $$3 !~ /^benchmark\// { k = "product .go" } \
		$$3 ~ /_test\.go$$/ { k = "test .go" } \
		{ add[k] += $$1; del[k] += $$2 } \
		END { n = split("product .go,test .go,other", ks, ","); \
			for (i = 1; i <= n; i++) { k = ks[i]; \
				printf "%-12s +%d -%d = %+d\n", k, add[k], del[k], add[k] - del[k]; \
				ta += add[k]; td += del[k] } \
			printf "%-12s +%d -%d = %+d\n", "total", ta, td, ta - td }'

# Smoke-run the store benchmarks under the race detector: one iteration
# each, so the hot-path assertions (recovered counts, parallel enroll)
# execute with full instrumentation without turning CI into a perf run.
# Baseline numbers live in BENCH_store.json (recorded with -benchtime
# high enough to be stable; see the file's "how" field).
bench:
	$(GO) test -race -run=xxx -bench='BenchmarkStore|BinaryRecord' -benchtime=1x ./internal/store/ .

# Authentication hot-path benchmarks (FFT plan, feature extraction, the
# authenticate fast path, end-to-end window, and KRR training as an
# untouched control). Before/after baselines live in BENCH_auth.json;
# re-run this target and update the "after" column when the hot path
# changes.
bench-auth:
	$(GO) test -run=xxx -bench='BenchmarkFFT300$$|BenchmarkFeatureExtraction60sStream$$|BenchmarkAuthenticateWindow$$|BenchmarkEndToEndWindow$$|BenchmarkKRRTrain$$' -benchmem -benchtime=200x .

# Wire-level per-window benchmarks: the three ways a window crosses the
# wire (single request, batch burst, stream) against one trained
# in-process server. Every bench iterates per window, so the ns/op
# columns compare directly; the wire block in BENCH_auth.json records the
# spread.
bench-wire:
	$(GO) test -run=xxx -bench='BenchmarkWireAuth' -benchmem ./internal/transport/

# Focused race smoke over the shared FFT plan table and the server's
# bounded train worker pool — the two concurrency surfaces of the hot
# path. Fast enough for the tier-1 gate even though `race` already
# covers these packages; this pins the named hammer tests so a future
# test-file reshuffle cannot silently drop them.
race-pool:
	$(GO) test -race -run='TestTrainBackpressure|TestTrainPoolConcurrentHammer|TestStreamHammerConcurrentClose' ./internal/transport/
	$(GO) test -race -run='TestPlanConcurrentSharing' ./internal/dsp/

# Replication hammer under the race detector: concurrent enrollments
# racing a cold follower's catch-up exercise the subscribe-before-scan
# overlap, the per-connection queues, and the shard-lock notify path.
# The transport line keeps the hookless read path — a cluster node that
# owns nothing serving whatever replication wrote into its store — under
# the detector too. Pinned by name for the same reason as race-pool.
race-replication:
	$(GO) test -race -run='TestReplicationHammer|TestFollowerCrashRestartMidStream' ./internal/replication/
	$(GO) test -race -run='TestServerFollowsStoreWithoutHooks' ./internal/transport/

# Drift-retraining hammer under the race detector: concurrent
# authenticates drive the per-user drift monitor while the scheduler
# coalesces candidates and runs retrains through the training pool, plus
# the scheduler's own offer/dispatch hammer. Pinned by name like
# race-pool so a test reshuffle cannot silently drop them.
race-retrain:
	$(GO) test -race -run='TestRetrainRaceHammer' ./internal/transport/
	$(GO) test -race -run='TestRetrainSchedulerHammer' ./internal/retrain/

# Content-addressed store hammer under the race detector: concurrent
# publishes, sweeps, and reads cross the shard/CAS refcount boundary —
# the chunk-lifetime invariant (refs ∪ pins ∪ protect) only holds if
# every transition is correctly locked. Pinned by name like race-pool.
race-cas:
	$(GO) test -race -run='TestConcurrentPutSweep' ./internal/cas/
	$(GO) test -race -run='TestCASRaceHammer' ./internal/store/

# Shard-handoff hammer under the race detector: concurrent routed
# writes race a live shard acquisition between two full cluster nodes —
# seal, mesh convergence, map publish, and the no-acked-write-lost
# invariant all execute with full instrumentation — then race the owner's
# death and the survivor's takeover. TestTakeOverDeadOwner pins the
# takeover verb itself (refused against a live owner, lossless for
# converged writes, ex-owner rejoins as a replica).
# TestServedWritesSurviveHandoffAndTakeOver does both over the wire: routed
# clients chase redirects and sealed-shard busies through a handoff and a
# takeover on a 3-node served cluster, and no acked enroll is lost.
# Pinned by name like race-pool.
race-cluster:
	$(GO) test -race -run='TestHandoffUnderConcurrentWrites|TestTakeOverDeadOwner|TestServedWritesSurviveHandoffAndTakeOver' ./internal/cluster/

# Follower catch-up throughput: a cold follower replaying a seeded
# leader's log over TCP. Baseline lives in BENCH_store.json.
bench-replication:
	$(GO) test -run=xxx -bench=BenchmarkFollowerCatchUp -benchtime=50x ./internal/replication/

# Cluster-wide enroll throughput: the same 3-process durable write load
# against a single-leader layout (one leader + two replicas) and a
# 3-node shard-ownership cluster, both replicating every record to three
# stores. Same-invocation comparison is essential — this host's ambient
# fsync latency drifts minute to minute — so both topologies run from
# one command. Numbers land in BENCH_store.json's cluster block.
bench-cluster:
	$(GO) test -run=xxx -bench=BenchmarkClusterEnroll -benchtime=3s -count=3 -timeout=30m ./internal/cluster/

# Content-addressed storage benchmarks: chunk-level dedup across
# keep-last-5 incrementally retrained models (the dedup-x metric must
# hold >=3x) and the lagging-follower delta reconnect (delta-bytes/op vs
# full-bytes/op). Numbers land in BENCH_store.json's cas block.
bench-cas:
	$(GO) test -run=xxx -bench=BenchmarkCASDedupKeepLast5 -benchtime=10x ./internal/store/
	$(GO) test -run=xxx -bench=BenchmarkDeltaCatchUp -benchtime=50x ./internal/replication/

# The benchmark is its own module (benchmark/go.mod, replace smarteryou =>
# ../), invisible to `go build ./...` and `go test ./...` above — so a
# product change that deletes or renames an identifier the benchmark
# imports would otherwise only fail when the benchmark is next run. Vet
# and its unit tests (a few seconds) catch that here.
check-benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Runs every example. examples/continuous exits non-zero if the thief is
# not locked or its audit log's hash chain does not verify (it is the one
# caller of the facade's AuditLog). examples/drift is the one caller of the
# facade's DriftMonitor; it exits non-zero if the attacker triggers a
# retrain. examples/cloud is the one example that builds a server, over an
# ephemeral store in a smarteryou-* temporary directory. Run it with
# TMPDIR pointed at an empty directory and fail if anything is left there.
check-examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/continuous
	$(GO) run ./examples/masquerade
	$(GO) run ./examples/drift
	@tmp="$$(mktemp -d)" && TMPDIR="$$tmp" $(GO) run ./examples/cloud && \
	left="$$(ls -A "$$tmp")"; status=$$?; rm -rf "$$tmp"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if [ -n "$$left" ]; then echo "examples/cloud left behind in TMPDIR: $$left"; exit 1; fi

# Same seed, same bytes: one experiments binary runs the quick campaign
# under GOMAXPROCS=1 and =2 and the two reports must match. overhead.txt
# and the "Mean detection time" lines are the wall-clock measurements
# -time=false leaves in, so they are masked.
check-determinism:
	@tmp="$$(mktemp -d)" && mkdir "$$tmp/1" "$$tmp/2" && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	GOMAXPROCS=1 "$$tmp/experiments" -quick -run all -time=false -out "$$tmp/1" >/dev/null && \
	GOMAXPROCS=2 "$$tmp/experiments" -quick -run all -time=false -out "$$tmp/2" >/dev/null && \
	diff -r -x overhead.txt -I 'Mean detection time' "$$tmp/1" "$$tmp/2"; \
	status=$$?; rm -rf "$$tmp"; exit $$status

# A refactor of the paper harness is checked by output: cmd/experiments is
# built at BASE (checked out in a temporary git worktree) and at the
# working tree, each runs the quick campaign, and the reports must match
# under check-determinism's masks. It needs git history, so check does not
# run it. `make check-harness BASE=<ref>`.
check-harness:
	@tmp="$$(mktemp -d)" && mkdir "$$tmp/base-out" "$$tmp/change-out" && \
	git worktree add --detach --quiet "$$tmp/base" $(BASE) && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/experiments-base" ./cmd/experiments) && \
	$(GO) build -o "$$tmp/experiments-change" ./cmd/experiments && \
	"$$tmp/experiments-base" -quick -run all -time=false -out "$$tmp/base-out" >/dev/null && \
	"$$tmp/experiments-change" -quick -run all -time=false -out "$$tmp/change-out" >/dev/null && \
	diff -r -x overhead.txt -I 'Mean detection time' "$$tmp/base-out" "$$tmp/change-out"; \
	status=$$?; git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"; exit $$status

# The one command that regenerates the checked-in paper-scale report
# (35 users, 5 targets, seed 1; about two minutes). -time=false keeps wall
# times out of it so two runs can be diffed; stamp the commit it was run
# at in EXPERIMENTS.md.
paper-snapshot:
	$(GO) run ./cmd/experiments -run all -time=false > results_paper_scale.txt
