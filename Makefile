# Verification gate: everything `make check` runs must pass before a
# change lands. Mirrors what CI would run. `go test ./...` alone already
# checks the golden quick campaign, runs every example and pins the exact
# counts at GOMAXPROCS 1 and 2; check adds vet, gofmt, the race detector,
# the race-pinned hammers and the benchmark module.

GO ?= go

.PHONY: check build vet fmt test race fuzz loc bench-cluster race-pool race-replication race-retrain race-cas race-cluster check-benchmark paper-snapshot

check: build vet fmt test race race-pool race-replication race-retrain race-cas race-cluster check-benchmark

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

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target: WAL, snapshot and CAS decoders,
# the sealed frame every channel speaks, client and replication frames, drift states, the shard map, and the KRR
# and decision-tree decoders that read model bundles from the registry
# and from fetch-model; and the spectral peak search, against the whole
# spectrum it replaces.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeBinaryPayload -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeBinarySnapshot -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzOpenWAL -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzSnapshotDelta -fuzztime=10s ./internal/store/
	$(GO) test -run=Fuzz -fuzz=FuzzCASBlob -fuzztime=10s ./internal/cas/
	$(GO) test -run=Fuzz -fuzz=FuzzFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzEnvelopeOpen -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzEnvelopeV2 -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzBatchAuthPayload -fuzztime=10s ./internal/transport/
	$(GO) test -run=Fuzz -fuzz=FuzzReplFrame -fuzztime=10s ./internal/replication/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeDriftStates -fuzztime=10s ./internal/retrain/
	$(GO) test -run=Fuzz -fuzz=FuzzShardMap -fuzztime=10s ./internal/cluster/
	$(GO) test -run=Fuzz -fuzz=FuzzKRRUnmarshal -fuzztime=10s ./internal/ml/
	$(GO) test -run=Fuzz -fuzz=FuzzTreeUnmarshal -fuzztime=10s ./internal/ml/
	$(GO) test -run=Fuzz -fuzz=FuzzPeaksMatchSpectrum -fuzztime=10s ./internal/dsp/

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

# The race-* targets below run hammer tests pinned by name. A -run
# pattern that matches no test prints "[no tests to run]" and passes, so
# race-pinned first lists the package's tests and fails, naming it, on a
# pinned name that is not one of them: a rename cannot drop a hammer
# unseen. $(call race-pinned,<package>,<Name>|<Name>...)
define race-pinned
@listed="$$($(GO) test -race -list='$(2)' $(1))" || exit 1; \
for n in $$(echo '$(2)' | tr '|' ' '); do \
	printf '%s\n' "$$listed" | grep -qxF "$$n" || { echo "$(1): no test named $$n"; exit 1; }; \
done
$(GO) test -race -run='$(2)' $(1)
endef

# Focused race smoke over the shared FFT plan table and its batched peak
# search, the server's
# bounded train worker pool, the per-user authenticator every
# connection shares while publishes replace it, the stream's
# coalesced writes (an error mid-burst, Close behind unsent windows, the
# 32 KB flush), and each connection's identity cache (its answers, its
# bound, and the strings two requests share) — the concurrency and
# per-connection surfaces of the hot path. Fast enough for the tier-1
# gate even though `race` already covers these packages.
race-pool:
	$(call race-pinned,./internal/transport/,TestTrainBackpressure|TestTrainPoolConcurrentHammer|TestStreamHammerConcurrentClose|TestSharedAuthenticatorHammer|TestStreamErrorMidBurstArrivesInOrder|TestStreamPushThenCloseWithoutRecv|TestStreamFlushesPastThreshold|TestIdentityCacheMatchesAnonymize|TestIdentityCacheBoundedOnOneConn|TestSecondRequestSharesCachedIdentity)
	$(call race-pinned,./internal/dsp/,TestPlanConcurrentSharing|TestPeaksIntoConcurrentSharing)

# Replication hammer under the race detector: concurrent enrollments
# racing a cold follower's catch-up exercise the subscribe-before-scan
# overlap, the per-connection queues, and the shard-lock notify path; an
# on-path writer's forged record is refused and the follower reconnects.
# The transport line keeps the hookless read path — a cluster node that
# owns nothing serving whatever replication wrote into its store — under
# the detector too.
race-replication:
	$(call race-pinned,./internal/replication/,TestReplicationHammer|TestFollowerCrashRestartMidStream|TestForgedRecordRefused)
	$(call race-pinned,./internal/transport/,TestServerFollowsStoreWithoutHooks)

# Drift-retraining hammer under the race detector: concurrent
# authenticates drive the per-user drift monitor while the scheduler
# coalesces candidates and runs retrains through the training pool, plus
# the scheduler's own offer/dispatch hammer.
race-retrain:
	$(call race-pinned,./internal/transport/,TestRetrainRaceHammer)
	$(call race-pinned,./internal/retrain/,TestRetrainSchedulerHammer)

# Content-addressed store hammer under the race detector: concurrent
# publishes, sweeps, and reads cross the shard/CAS refcount boundary —
# the chunk-lifetime invariant (refs ∪ pins ∪ protect) only holds if
# every transition is correctly locked. The registry-head hammer races
# publishes on one shard against lock-free LatestModelHash reads. The
# committer hammer races, on one shard, enrolls, replaces and publishes
# through the group committer against a follower applying every record,
# seals, snapshots and Close.
race-cas:
	$(call race-pinned,./internal/cas/,TestConcurrentPutSweep)
	$(call race-pinned,./internal/store/,TestCASRaceHammer|TestModelHeadHammer|TestCommitterHammer)

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
race-cluster:
	$(call race-pinned,./internal/cluster/,TestHandoffUnderConcurrentWrites|TestTakeOverDeadOwner|TestServedWritesSurviveHandoffAndTakeOver)

# Cluster-wide enroll throughput: the same 3-process durable write load
# against a single-leader layout (one leader + two replicas) and a
# 3-node shard-ownership cluster, both replicating every record to three
# stores. Same-invocation comparison is essential — this host's ambient
# fsync latency drifts minute to minute — so both topologies run from
# one command, and the ratio of its two ns/op figures is the result.
bench-cluster:
	$(GO) test -run=xxx -bench=BenchmarkClusterEnroll -benchtime=3s -count=3 -timeout=30m ./internal/cluster/

# The benchmark is its own module (benchmark/go.mod, replace smarteryou =>
# ../), invisible to `go build ./...` and `go test ./...` above — so a
# product change that deletes or renames an identifier the benchmark
# imports would otherwise only fail when the benchmark is next run. Vet
# and its unit tests (a few seconds) catch that here.
check-benchmark:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The one command that regenerates the checked-in reports: the paper-scale
# campaign (35 users, 5 targets, seed 1; about two minutes) and the quick
# campaign that cmd/experiments' TestQuickCampaignGolden compares against.
# A change that moves one moves the other. Stamp the commit it was run at
# in EXPERIMENTS.md.
paper-snapshot:
	$(GO) run ./cmd/experiments -run all > results_paper_scale.txt
	rm -f testdata/quick/*.txt
	GOMAXPROCS=1 $(GO) run ./cmd/experiments -quick -run all -out testdata/quick >/dev/null
