# Build/test entry points. `make race` is the tier the concurrency layer
# is developed against: the parallel sketching and clustering paths must
# stay race-clean, and several tests (internal/fft, internal/stable,
# internal/parallel) exist specifically to put shared caches under
# concurrent load for the race detector.

GO       ?= go
FUZZTIME ?= 15s

.PHONY: build test race bench-fft bench-ingest bench-serve bench-gather bench-estimate bench-refine bench-coord gate lanehash size fuzz fuzz-smoke vet staticcheck fsck-demo serve-demo mmap-demo shard-demo handoff-demo all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package — required to stay clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a note when the binary is not
# installed (CI installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The build path's micro-benchmarks, one thread: one contiguous row
# transform of 32, 64, 512 and 1024 points, forward and inverse, on the
# Go bodies (go) and the AVX2 encoding (avx2), in ns a row; a block of
# fft.BlockLanes (sixteen) lanes through fft.Plan2D at the gated
# benchmark's three pool shapes (the fixture, one of coord_fanout's
# 256 × 512 shards and the ingest slab; harvest at the plane set's real
# stride included); one fixture pool's 262 144 Cauchy draws on each
# encoding, in ns a draw; the fixture's NewPool, a multi-size
# DefaultPoolOptions NewPool (42 sizes over one table spectrum) and
# ingest_live's one-day Pool.Append (BenchmarkAppendDay, which
# bench-ingest runs too), each with ns per packed-pair round trip; and
# Theorem 3's crossover, AllPositions against AllPositionsNaive at an
# 8×8 and a 32×32 tile. The loop for iterating on a build-path change;
# `make gate` judges the result.
bench-fft:
	$(GO) test -run='^$$' -bench='^Benchmark(RowTransform|CorrelateBlock)$$' -cpu 1 ./internal/fft
	$(GO) test -run='^$$' -bench='^BenchmarkCauchyDraws$$' -cpu 1 ./internal/stable
	$(GO) test -run='^$$' -bench='^Benchmark(PoolBuild(Fixture|Default)|AppendDay|Theorem3FFTvsNaive)$$' -cpu 1 ./internal/core

# The ingest path's micro-benchmarks, one thread, at ingest_live's
# geometry (128 × 32 day, k = 64, one 32 × 32 size): one day appended to
# a pool whose earlier days are sealed (ns and correlations per day), one
# level-0 seal of a day and one fanout-4 merge through the segment
# writer, and one pushed day through the ingester under an 8-day window
# (WAL append, append, trim, compaction and seal; ms, segment bytes
# written and compactions per day), and one first boot over 16 stored
# days under that window (open, Resume, seal and an 8-cluster snapshot;
# ms, correlations and segment bytes written per boot). The loop for
# iterating on an ingest-path change (core's append and bands,
# internal/segstore, internal/ingest); `make gate PARENT=<ref>
# WORKLOADS="ingest_live"` judges the result.
bench-ingest:
	$(GO) test -run='^$$' -bench='^BenchmarkAppendDay$$' -cpu 1 ./internal/core
	$(GO) test -run='^$$' -bench='^BenchmarkSealCompact$$' -cpu 1 ./internal/segstore
	$(GO) test -run='^$$' -bench='^Benchmark(IngestWindow|ResumeFirstBoot)$$' -cpu 1 ./internal/ingest

# The serving path's four micro-benchmarks, one thread, on the gated
# benchmark's fixture shape (256 × 1024 table, k = 64, one 32 × 32 size,
# 8 clusters): the batch-64 distance and batch-16 assign handlers
# (ServeHTTP into a discarding writer, µs per item and allocs), and under
# them one cold compound Pool.Sketch and one 64-pair Pool.DistanceBatch
# over uniformly random rectangles (which prefetches each next item's
# positions), all on the encoding of the sketch-tier kernels the CPU
# probe picks. The loop for iterating on a serving-path change; `make
# gate` judges the result.
bench-serve:
	$(GO) test -run='^$$' -bench='^BenchmarkBatch(Distance|Assign)Handler$$' -cpu 1 ./internal/server
	$(GO) test -run='^$$' -bench='^Benchmark(PoolSketchCompoundCold|DistanceBatch64)$$' -cpu 1 ./internal/core

# The read under every sketch-tier answer, one thread, on the fixture
# pool with the rectangle already resolved to its corners: one position
# widened (exactly dyadic) or four summed in float32 and widened once
# (compound), warm on the same four positions and cold on seeded random
# ones, in the encoding the CPU probe picks (AVX2 where it finds it). The
# loop for a change to the lane element or the gather; the benchmark
# calls only core's corners and gather, so it pastes into a `git
# archive` copy of a parent.
bench-gather:
	$(GO) test -run='^$$' -bench='^BenchmarkGather$$' -cpu 1 ./internal/core

# The sketch tier's arithmetic, one thread, each on the Go bodies (go)
# and on the AVX2 encoding where the CPU probe finds it (avx2): the
# k = 64 median of absolute differences and the count on one row
# (FirstBelow, every row rejected) over Cauchy lanes, and the nearest scan over the fixture pool's 256 tile
# sketches, each tile the query in turn (ns a candidate and medians
# selected a scan); and the p = 2 estimator against the median of the
# same k = 256 sketches (§4.4). The loop for a change to
# internal/quantile's kernels or core's scan; `make gate` judges the
# result.
bench-estimate:
	$(GO) test -run='^$$' -bench='^Benchmark(AbsMedianDiff|FirstBelow)$$' -cpu 1 ./internal/quantile
	$(GO) test -run='^$$' -bench='^Benchmark(NearestScan|EstimatorL2SpecialCase)$$' -cpu 1 ./internal/core

# The refine tier's micro-benchmarks, one thread: nearest through the
# exact engine with statistics (auto; mode=prune is the same call),
# through the mode=exact entry point, assign, and the sketch tier's
# nearest (sketch), as direct Snapshot calls with every grid tile as the
# query in turn — on the gated benchmark's fixture shape, on the same
# table at 16 × 16 and 8 × 8 tiles, and on traffic, six-regions and
# noise tables (the noise table is the floor: no bound eliminates
# anything). The engine modes report table cells and marginal
# coordinates per query, from one untimed pass over every tile, beside
# ns/op. The loop for iterating on a refine-path change (internal/prune,
# lpnorm's bounds, Snapshot.progressiveScan); `make gate` judges the
# result.
bench-refine:
	$(GO) test -run='^$$' -bench='^BenchmarkRefineNearest$$' -cpu 1 ./internal/server

# The coordinator's three micro-benchmarks, one thread, over two
# in-process shards: the headline nearest (one tile, two sub-requests), a
# 16-item nearest batch (four) and a 16-item sketch-tier distance batch
# whose pairs each lie in one shard (two: one SubWhole frame to each
# owner), each end to end — coordinator, client, frame carrier and both
# shards — with ns, allocs and sub-requests per request. The loop for
# iterating on a coordinator, client or carrier change; `make gate
# PARENT=<ref> WORKLOADS="coord_fanout"` judges the result.
bench-coord:
	$(GO) test -run='^$$' -bench='^BenchmarkCoord(Nearest|BatchNearest|BatchDistanceCoResident)$$' -benchmem -cpu 1 ./internal/coord

# The acceptance run of a change: `make gate PARENT=<git ref>` unpacks
# the parent commit into a temporary directory, builds ./benchmark on
# both sides, runs the four workloads of BENCHMARK.json on parent and
# working tree in ten pairs (the side that goes first alternates from
# pair to pair, so a slow phase of the box falls on both), and judges
# the two sets with -compare. Exit status is -compare's: non-zero on a
# regression; a run with any failed, shed, degraded or partial answer
# stops the gate at once. Takes about 40 minutes. WORKLOADS="coord_fanout"
# runs the ten pairs on a subset while iterating on a change; the
# acceptance run is the default, all four.
WORKLOADS ?= serve_sketch serve_refine coord_fanout ingest_live
gate:
	@test -n "$(PARENT)" || { echo 'usage: make gate PARENT=<git ref> [WORKLOADS="<workload> ..."]'; exit 2; }
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; here=$$PWD; \
	mkdir "$$d/parent"; git archive "$(PARENT)" | tar -x -C "$$d/parent"; \
	(cd "$$d/parent" && $(GO) build -o "$$d/bench-parent" ./benchmark); \
	$(GO) build -o "$$d/bench-change" ./benchmark; \
	for pair in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((pair % 2)) = 1 ]; then order='parent change'; else order='change parent'; fi; \
		for w in $(WORKLOADS); do \
			for side in $$order; do \
				if [ $$side = parent ]; then cd "$$d/parent"; else cd "$$here"; fi; \
				echo "--- pair $$pair $$w $$side"; \
				"$$d/bench-$$side" --workload $$w --seed 1 --seconds 18 --trace 0 -append "$$d/$$side.json"; \
			done; \
		done; \
	done; \
	cd "$$here"; "$$d/bench-change" -compare "$$d/parent.json" "$$d/change.json"

# Same lanes: `make lanehash PARENT=<git ref>` runs core's
# BenchmarkLaneDigests — one SHA-256 over every lane of the gated
# benchmark's pool shapes (the fixture, its two 512-column shards, the
# ingest window plus one appended day, DefaultPoolOptions at 96 × 144) at
# seeds 1 and 2, with the round trips each build counted — three times:
# in a `git archive` of PARENT (with the driver file copied in), in the
# working tree, and in the working tree at GOARCH=386, whose FFT runs the
# portable Go encoding. It prints the three logs, then both verdicts —
# parent against the tree and the tree against GOARCH=386 — and fails
# unless both read identical. A change of the lane format expects
# "parent differs, 386 identical" (and the failure). A few minutes.
lanehash:
	@test -n "$(PARENT)" || { echo 'usage: make lanehash PARENT=<git ref>'; exit 2; }
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/parent"; git archive "$(PARENT)" | tar -x -C "$$d/parent"; \
	cp internal/core/lanehash_test.go "$$d/parent/internal/core/"; \
	digests() { \
		$(GO) test -run '^$$' -bench '^BenchmarkLaneDigests$$' -benchtime 1x ./internal/core > "$$1.out" || { cat "$$1.out"; exit 1; }; \
		sed -n 's/.*lanes: //p' "$$1.out" > "$$1.log"; test -s "$$1.log"; \
	}; \
	(cd "$$d/parent" && digests "$$d/parent"); \
	digests "$$d/change"; \
	(export GOARCH=386; digests "$$d/386"); \
	for side in parent change 386; do echo "--- $$side"; cat "$$d/$$side.log"; done; \
	verdict() { if cmp -s "$$d/$$1.log" "$$d/$$2.log"; then echo identical; else echo differs; fi; }; \
	p=$$(verdict parent change); a=$$(verdict change 386); \
	echo "lanehash: parent $$p, 386 $$a"; test "$$p$$a" = identicalidentical

# The size of the code, the score the ROADMAP's collapse item is judged
# by: lines of Go outside benchmark/, non-test beside test, and lines of
# Go assembly (.s), in total and per top-level directory ("." is the
# root package).
size:
	@printf '%-10s %9s %9s %9s\n' dir non-test test .s; \
	for d in . cmd internal; do \
		if [ $$d = . ]; then depth='-maxdepth 1'; else depth=''; fi; \
		n=$$(find $$d $$depth -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		t=$$(find $$d $$depth -name '*_test.go' -exec cat {} + | wc -l); \
		s=$$(find $$d $$depth -name '*.s' -exec cat {} + | wc -l); \
		printf '%-10s %9d %9d %9d\n' $$d $$n $$t $$s; \
	done; \
	n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l); \
	t=$$(find . -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l); \
	s=$$(find . -name '*.s' ! -path './benchmark/*' -exec cat {} + | wc -l); \
	printf '%-10s %9d %9d %9d\n' total $$n $$t $$s

# Short fuzzing pass over every fuzz target (each target needs its own
# invocation; the seed corpora also run under plain `make test`).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPoolSketchRect -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzPlanCorrelateAgainstNaive -fuzztime=$(FUZZTIME) ./internal/fft
	$(GO) test -run='^$$' -fuzz=FuzzCorrelateBlockAgainstNaive -fuzztime=$(FUZZTIME) ./internal/fft
	$(GO) test -run='^$$' -fuzz=FuzzMedianCopyAgainstSort -fuzztime=$(FUZZTIME) ./internal/quantile
	$(GO) test -run='^$$' -fuzz=FuzzAbsMedianDiffAgainstSort -fuzztime=$(FUZZTIME) ./internal/quantile
	$(GO) test -run='^$$' -fuzz=FuzzAbsMedianDiffBelowAgainstSort -fuzztime=$(FUZZTIME) ./internal/quantile
	$(GO) test -run='^$$' -fuzz=FuzzRead$$ -fuzztime=$(FUZZTIME) ./internal/tabfile
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/tabfile
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=$(FUZZTIME) ./internal/tabstore
	$(GO) test -run='^$$' -fuzz=FuzzParseSegHeader -fuzztime=$(FUZZTIME) ./internal/segstore
	$(GO) test -run='^$$' -fuzz=FuzzParseSegTrailer -fuzztime=$(FUZZTIME) ./internal/segstore
	$(GO) test -run='^$$' -fuzz=FuzzIngestRecord -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz=FuzzProgressiveNearest -fuzztime=$(FUZZTIME) ./internal/prune
	$(GO) test -run='^$$' -fuzz=FuzzMarginalLowerBound -fuzztime=$(FUZZTIME) ./internal/lpnorm
	$(GO) test -run='^$$' -fuzz=FuzzBatchRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzBatchBodyAgainstEncodingJSON -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzAppendResult -fuzztime=$(FUZZTIME) ./internal/server
# Left at its default minute an input, the minimizer spends the whole
# pass shrinking the first new KiB-sized frame FuzzSubQueryFrame (or an
# envelope FuzzSubEnvelope) finds.
	$(GO) test -run='^$$' -fuzz=FuzzSubQueryFrame -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSubEnvelope -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server

# The same fuzz pass at CI-friendly duration — a smoke test that the
# corrupt-input hardening (segment headers and trailers, store manifest,
# tabfile readers) holds against fresh inputs, not just the checked-in corpora.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# The traffic both fleet drills replay through the coordinator: single
# GETs drawn from a weighted op mixture, open loop, partial answers left
# to the fleet default (allow).
DRILL_TRAFFIC = -n 600 -rate 400 -ops nearest:3,distance:2,assign:1 -mode sketch -timeout-ms 1000 -seed 7

# End-to-end chaos drill of sharded serving: three tabmine-serve shards
# over column bands of one table, a tabmine-coord fanning queries out
# over them, a mixed-op replay through the coordinator, and one distance
# whose operands span a shard boundary, which must be refused (400). Then
# a SIGKILL of the middle shard mid-fleet: replay answers must degrade to
# honestly TAGGED partials (plus clean 503s for queries owned by the
# dead band) — never silently wrong. Restarting the shard on its old
# port must re-admit it through probation and the final replay must be
# fully clean again.
shard-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill $$s0 $$s1 $$s2 $$cp 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/coord" ./cmd/tabmine-coord; \
	$(GO) build -o "$$d/replay" ./cmd/tabmine-replay; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 32 -cols 96 -seed 11 -o "$$d/t.tabf"; \
	shard() { exec "$$d/serve" -table "$$d/t.tabf" -cols "$$1" -addr "$$2" -addr-file "$$3" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 3 -seed 5; }; \
	shard 0:32  127.0.0.1:0 "$$d/a0" & s0=$$!; \
	shard 32:64 127.0.0.1:0 "$$d/a1" & s1=$$!; \
	shard 64:96 127.0.0.1:0 "$$d/a2" & s2=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a0" ] && [ -s "$$d/a1" ] && [ -s "$$d/a2" ] && break; sleep 0.1; done; \
	[ -s "$$d/a2" ] || { echo 'ERROR: shards never published their addresses'; exit 1; }; \
	"$$d/coord" -shards "http://$$(cat "$$d/a0"),http://$$(cat "$$d/a1"),http://$$(cat "$$d/a2")" \
		-addr 127.0.0.1:0 -addr-file "$$d/ac" -probe-interval 100ms 2>"$$d/coord.log" & cp=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/ac" ] && break; sleep 0.1; done; \
	[ -s "$$d/ac" ] || { echo 'ERROR: coordinator never published its address'; exit 1; }; \
	co="http://$$(cat "$$d/ac")"; \
	for i in $$(seq 1 100); do curl -fsS "$$co/readyz" >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never became ready'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- mixed-op replay through a healthy fleet (must be clean):'; \
	"$$d/replay" -server "$$co" $(DRILL_TRAFFIC) -out "$$d/r1.json"; \
	grep -q '"partial": 0,' "$$d/r1.json" || { echo 'ERROR: healthy fleet produced partial answers'; exit 1; }; \
	if grep -q '"served": 0,' "$$d/r1.json"; then echo 'ERROR: healthy replay served nothing'; exit 1; fi; \
	echo '--- a distance spanning a shard boundary (must be refused):'; \
	code=$$(curl -sS -o "$$d/span.json" -w '%{http_code}' "$$co/v1/distance?a=0,24,8,16&b=8,24,8,16"); \
	[ "$$code" = 400 ] && grep -q 'spans a shard boundary' "$$d/span.json" || \
		{ echo "ERROR: spanning distance answered $$code: $$(cat "$$d/span.json")"; exit 1; }; \
	cat "$$d/span.json"; \
	echo '--- SIGKILL the middle shard (cols 32..64), replay again:'; \
	kill -9 $$s1; wait $$s1 2>/dev/null || true; \
	sleep 1; \
	"$$d/replay" -server "$$co" $(DRILL_TRAFFIC) -out "$$d/r2.json"; \
	grep -q '"partial": 0,' "$$d/r2.json" && { echo 'ERROR: no partial answers with a dead shard'; exit 1; }; \
	grep -q 'healthy -> dead' "$$d/coord.log" || { echo 'ERROR: coordinator never ejected the dead shard'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- restart the shard on its old port, expect probation re-admission:'; \
	shard 32:64 "$$(cat "$$d/a1")" "$$d/a1b" & s1=$$!; \
	for i in $$(seq 1 200); do grep -q 'probation -> healthy' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'dead -> probation' "$$d/coord.log" || { echo 'ERROR: no probation transition logged'; cat "$$d/coord.log"; exit 1; }; \
	grep -q 'probation -> healthy' "$$d/coord.log" || { echo 'ERROR: no re-admission logged'; cat "$$d/coord.log"; exit 1; }; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never recovered'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- replay through the recovered fleet (must be clean again):'; \
	"$$d/replay" -server "$$co" $(DRILL_TRAFFIC) -out "$$d/r3.json"; \
	grep -q '"partial": 0,' "$$d/r3.json" || { echo 'ERROR: recovered fleet still partial'; exit 1; }; \
	if grep -q '"served": 0,' "$$d/r3.json"; then echo 'ERROR: recovered replay served nothing'; exit 1; fi; \
	kill -TERM $$cp; wait $$cp; \
	kill -TERM $$s0 $$s1 $$s2; wait $$s0 $$s1 $$s2; \
	echo 'shard-demo OK'

# Live shard handoff end to end: three shards + coordinator (fed by a
# -shards-file), then — under a continuous mixed-op replay — a
# replacement process for the middle band is registered through the
# admin surface, earns traffic through probation, and the old owner is
# retired via SIGHUP reconcile (fence, background drain, deregister).
# The replay spanning the cutover must stay fully clean (zero partials,
# zero hard errors) and must have observed the shard-map epoch advance.
handoff-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill $$s0 $$s1 $$s1b $$s2 $$cp 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/coord" ./cmd/tabmine-coord; \
	$(GO) build -o "$$d/replay" ./cmd/tabmine-replay; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 32 -cols 96 -seed 11 -o "$$d/t.tabf"; \
	shard() { exec "$$d/serve" -table "$$d/t.tabf" -cols "$$1" -addr "$$2" -addr-file "$$3" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 3 -seed 5; }; \
	shard 0:32  127.0.0.1:0 "$$d/a0" & s0=$$!; \
	shard 32:64 127.0.0.1:0 "$$d/a1" & s1=$$!; \
	shard 64:96 127.0.0.1:0 "$$d/a2" & s2=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a0" ] && [ -s "$$d/a1" ] && [ -s "$$d/a2" ] && break; sleep 0.1; done; \
	[ -s "$$d/a2" ] || { echo 'ERROR: shards never published their addresses'; exit 1; }; \
	printf 'http://%s\nhttp://%s\nhttp://%s\n' "$$(cat "$$d/a0")" "$$(cat "$$d/a1")" "$$(cat "$$d/a2")" >"$$d/shards.txt"; \
	"$$d/coord" -shards-file "$$d/shards.txt" -addr 127.0.0.1:0 -addr-file "$$d/ac" \
		-probe-interval 100ms -probe-jitter-seed 1 2>"$$d/coord.log" & cp=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/ac" ] && break; sleep 0.1; done; \
	[ -s "$$d/ac" ] || { echo 'ERROR: coordinator never published its address'; exit 1; }; \
	co="http://$$(cat "$$d/ac")"; \
	for i in $$(seq 1 100); do curl -fsS "$$co/readyz" >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet never became ready'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- replay through the cutover (must stay clean, must see the epoch move):'; \
	"$$d/replay" -server "$$co" $(DRILL_TRAFFIC) \
		-n 4000 -rate 250 -out "$$d/replay.json" & rp=$$!; \
	echo '--- register a replacement for cols 32..64 via the admin surface:'; \
	shard 32:64 127.0.0.1:0 "$$d/a1b" & s1b=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/a1b" ] && break; sleep 0.1; done; \
	[ -s "$$d/a1b" ] || { echo 'ERROR: replacement never published its address'; exit 1; }; \
	curl -fsS -X POST "$$co/admin/register" --data "endpoint=http://$$(cat "$$d/a1b")" \
		| grep -q '"registered"' || { echo 'ERROR: admin register failed'; cat "$$d/coord.log"; exit 1; }; \
	for i in $$(seq 1 200); do grep -q 'probation -> healthy' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'probation -> healthy' "$$d/coord.log" || { echo 'ERROR: replacement never earned traffic'; cat "$$d/coord.log"; exit 1; }; \
	echo '--- retire the old owner via SIGHUP reconcile of the shards file:'; \
	printf 'http://%s\nhttp://%s\nhttp://%s\n' "$$(cat "$$d/a0")" "$$(cat "$$d/a1b")" "$$(cat "$$d/a2")" >"$$d/shards.txt"; \
	kill -HUP $$cp; \
	for i in $$(seq 1 200); do grep -q 'deregistered endpoint' "$$d/coord.log" && break; sleep 0.1; done; \
	grep -q 'SIGHUP: shard list re-read' "$$d/coord.log" || { echo 'ERROR: SIGHUP reconcile never ran'; cat "$$d/coord.log"; exit 1; }; \
	grep -q 'deregistered endpoint' "$$d/coord.log" || { echo 'ERROR: old owner never deregistered'; cat "$$d/coord.log"; exit 1; }; \
	kill -TERM $$s1; wait $$s1 2>/dev/null || true; \
	wait $$rp || { echo 'ERROR: replay failed'; cat "$$d/coord.log"; exit 1; }; \
	if grep -q '"served": 0,' "$$d/replay.json"; then echo 'ERROR: replay served nothing'; exit 1; fi; \
	grep -q '"partial": 0,' "$$d/replay.json" || { echo 'ERROR: handoff produced partial answers'; cat "$$d/replay.json"; exit 1; }; \
	grep -q '"errors": 0,' "$$d/replay.json" || { echo 'ERROR: handoff produced hard errors'; cat "$$d/replay.json"; exit 1; }; \
	if grep -q '"epoch_changes": 0' "$$d/replay.json"; then \
		echo 'ERROR: replay never saw the epoch advance'; cat "$$d/replay.json"; exit 1; fi; \
	curl -fsS "$$co/readyz" >/dev/null || { echo 'ERROR: fleet not ready after handoff'; cat "$$d/coord.log"; exit 1; }; \
	kill -TERM $$cp; wait $$cp; \
	kill -TERM $$s0 $$s1b $$s2; wait $$s0 $$s1b $$s2; \
	echo 'handoff-demo OK'

# Demonstrates the store's corruption handling end to end: build a
# two-day store, flip bytes in one day file, watch fsck quarantine it
# (exit 1), then verify the repaired store passes (exit 0).
fsck-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/tabmine-gendata -kind callvolume -stations 60 -seed 1 -o "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-gendata -kind callvolume -stations 60 -seed 2 -o "$$d/day1.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" init; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label mon -in "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" append -label tue -in "$$d/day1.tabf"; \
	printf '\336\255\276\357' | dd of="$$d/store/day-0000.tabf" bs=1 seek=64 conv=notrunc status=none; \
	echo '--- fsck on a corrupted store (must detect and repair):'; \
	if $(GO) run ./cmd/tabmine-store -dir "$$d/store" fsck; then \
		echo 'ERROR: fsck missed the corruption'; exit 1; \
	fi; \
	echo '--- fsck after repair (must be clean):'; \
	$(GO) run ./cmd/tabmine-store -dir "$$d/store" fsck

# End-to-end drill of the resilient query service: start tabmine-serve
# on a random port with an aggressive degradation threshold, answer an
# exact query, watch an auto query degrade to the sketch tier, then
# SIGTERM the server and require a clean drain (exit 0).
serve-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/query" ./cmd/tabmine-query; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 64 -seed 7 -o "$$d/t.tabf"; \
	"$$d/serve" -table "$$d/t.tabf" -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -max-log 3 -tile-rows 8 -tile-cols 8 -clusters 4 -degrade-at 0.01 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; kill $$pid; exit 1; }; \
	srv="http://$$(cat "$$d/addr")"; \
	echo '--- exact query:'; \
	out=$$("$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 16,16,8,8 -mode exact); \
	echo "$$out"; echo "$$out" | grep -q '"tier":"exact"'; \
	echo '--- auto query (must degrade to the sketch tier under load):'; \
	out=$$("$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 16,16,8,8 -mode auto); \
	echo "$$out"; echo "$$out" | grep -q '"tier":"sketch"'; echo "$$out" | grep -q '"degraded":true'; \
	echo '--- nearest + assign + health:'; \
	"$$d/query" -server "$$srv" -op nearest -q 8,8,8,8 -mode sketch; \
	"$$d/query" -server "$$srv" -op assign -q 8,8,8,8; \
	"$$d/query" -server "$$srv" -op health; \
	echo '--- SIGTERM, expecting a clean drain (exit 0):'; \
	kill -TERM $$pid; wait $$pid; \
	echo 'serve-demo OK'

# Robustness drill of store-mode serving (tabmine-serve -store): seed a
# two-day store, serve it, push two more days over HTTP (tabmine-ingest
# -> POST /v1/ingest; each push must print its "cols_total", 48 then
# 64) and watch the snapshot republish live with no
# SIGHUP while the sealed pool prefix lands in mmap segment files,
# record reference answers, SIGKILL the server mid-flight, restart it,
# and require (a) the first health after restart within seconds — the
# pool maps segments instead of replaying days, and /debug/vars must
# report tabmine_seg_restart_replay_days 0 — and (b) every recorded
# query answering byte-identically to its pre-kill reference. Also
# checks the segments listing and that fsck covers the segment files;
# the restarted server must drain cleanly on SIGTERM.
mmap-demo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"; kill -9 $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$d/serve" ./cmd/tabmine-serve; \
	$(GO) build -o "$$d/push" ./cmd/tabmine-ingest; \
	$(GO) build -o "$$d/query" ./cmd/tabmine-query; \
	$(GO) build -o "$$d/store" ./cmd/tabmine-store; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 1 -o "$$d/day0.tabf"; \
	$(GO) run ./cmd/tabmine-gendata -kind random -rows 64 -cols 16 -seed 2 -o "$$d/day1.tabf"; \
	"$$d/store" -dir "$$d/st" init; \
	"$$d/store" -dir "$$d/st" append -label d00 -in "$$d/day0.tabf"; \
	"$$d/store" -dir "$$d/st" append -label d01 -in "$$d/day1.tabf"; \
	"$$d/serve" -store "$$d/st" -panel-cols 16 -addr 127.0.0.1:0 -addr-file "$$d/addr" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo 'ERROR: server never published its address'; exit 1; }; \
	srv="http://$$(cat "$$d/addr")"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":32' && break; sleep 0.1; done; \
	echo '--- pushing two more days so maintenance seals segments:'; \
	"$$d/push" -addr "$$srv" -label d02 -random 64x16 -seed 9 >"$$d/push1"; cat "$$d/push1"; \
	grep -q '"cols_total":48' "$$d/push1"; \
	"$$d/push" -addr "$$srv" -label d03 -random 64x16 -seed 10 >"$$d/push2"; cat "$$d/push2"; \
	grep -q '"cols_total":64' "$$d/push2"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":64' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":64'; \
	echo '--- segment listing (sealed files must exist and pass CRC):'; \
	"$$d/store" -dir "$$d/st" segments | tee "$$d/seglist"; \
	grep -q 'CRC ok' "$$d/seglist"; \
	echo '--- reference answers over the sealed (mmap-backed) prefix:'; \
	"$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 8,8,8,8 -mode sketch >"$$d/ref1"; \
	"$$d/query" -server "$$srv" -op distance -a 0,16,8,8 -b 8,40,8,8 -mode sketch >"$$d/ref2"; \
	"$$d/query" -server "$$srv" -op nearest -q 4,4,8,8 -mode sketch >"$$d/ref3"; \
	echo '--- SIGKILL, then restart over the same store:'; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	"$$d/serve" -store "$$d/st" -panel-cols 16 -addr 127.0.0.1:0 -addr-file "$$d/addr2" \
		-k 64 -tile-rows 8 -tile-cols 8 -clusters 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$d/addr2" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr2" ] || { echo 'ERROR: restarted server never published its address'; exit 1; }; \
	srv="http://$$(cat "$$d/addr2")"; \
	for i in $$(seq 1 100); do \
		"$$d/query" -server "$$srv" -op health | grep -q '"cols":64' && break; sleep 0.1; done; \
	"$$d/query" -server "$$srv" -op health | grep -q '"cols":64'; \
	echo '--- restart must have replayed zero days (segments mapped, fringe rebuilt):'; \
	curl -fsS "$$srv/debug/vars" | grep -q '"tabmine_seg_restart_replay_days": 0' \
		|| { echo 'ERROR: restart replayed days'; curl -fsS "$$srv/debug/vars" | grep replay; exit 1; }; \
	echo '--- answers after the kill must equal the references byte-for-byte:'; \
	"$$d/query" -server "$$srv" -op distance -a 0,0,8,8 -b 8,8,8,8 -mode sketch >"$$d/got1"; \
	"$$d/query" -server "$$srv" -op distance -a 0,16,8,8 -b 8,40,8,8 -mode sketch >"$$d/got2"; \
	"$$d/query" -server "$$srv" -op nearest -q 4,4,8,8 -mode sketch >"$$d/got3"; \
	diff "$$d/ref1" "$$d/got1"; diff "$$d/ref2" "$$d/got2"; diff "$$d/ref3" "$$d/got3"; \
	echo '--- fsck covers the segment files too:'; \
	"$$d/store" -dir "$$d/st" fsck | grep -q 'checked .* segments'; \
	kill -TERM $$pid; wait $$pid; \
	echo 'mmap-demo OK'
