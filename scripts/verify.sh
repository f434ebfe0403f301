#!/usr/bin/env bash
# verify.sh — the repository's single verification entry point.
#
#   scripts/verify.sh                  every stage, in the order below
#   scripts/verify.sh <stage>...       only the named stages
#
# Stages:
#   static       go vet (printf verbs, struct tags, copylocks: the
#                referee for locks passed or returned by value, and
#                asmdecl: internal/nn's assembly frames against their Go
#                declarations) and go build; then the arm64 build and
#                vet of internal/nn and internal/stats, so the Go
#                kernels the assembly replaces on amd64 keep compiling
#   test         go test ./... (full unit + integration suite), which
#                includes the root package's docs checks: the DESIGN.md
#                metrics catalogue against what ravencached and
#                ravenrouter serve (TestMetricsCatalogue), a source tag
#                on every number with a unit in README.md and DESIGN.md
#                (TestNumbersHaveSources), DESIGN.md heading citations
#                (TestDesignCitationsResolve), TestDesign* and TestReadme*
#   race         go test -race on the concurrent packages, plus the
#                dedicated sharded-engine stress run (100 clients of
#                mixed GET/SET against an 8-shard server, reconciling
#                METRICS totals), TestStatsAreTheMetrics (a 4-shard
#                server's cache.Stats, METRICS cache.* rows and STATS
#                reply are one set of counters, with METRICS read while
#                traffic runs), the multi-process cluster chaos
#                test (SIGKILL + restart of a ravencached node
#                mid-replay behind the router) and the router's retry
#                round (a failed node's share of a burst retried as one
#                batch per successor node). The quality stage's two
#                tests run here too, race-instrumented: TestQuality adds
#                ~70 s and TestServedEqualsSimulated ~25 s on two
#                x86-64 cores
#   lint         ravenlint, one invocation: the ten repo-specific
#                determinism / concurrency / hygiene contracts nothing
#                else checks, among them the interprocedural lock-cycle
#                rule
#   determinism  the same-program referees: the pinned fit and Raven
#                replay hashes, the pinned fits again with every amd64
#                kernel on its Go loop (TestFitGoldenBytesGoKernels, on
#                amd64 hosts), the four-lane exp, log, tanh, log1p and
#                sigmoid kernels against math bit for bit
#                (TestExpMatchesMath, TestLogMatchesMath,
#                TestTanhMatchesMath with the gate sigmoid against
#                1/(1+math.Exp(−x)), TestLog1pMatchesMath: 2×10⁷
#                arguments each and the overflow, denormal, branch-bound
#                and special-value edges), fits and
#                replays bit-exact across worker counts (guarded fits
#                with injected faults too), every row of a PredictBatch
#                over 1–33 inputs bit-identical to that input predicted
#                alone (TestPredictBatchRowsIndependent), a guard-tripped
#                fit leaving weights, gradient and Adam moments as it
#                found them (TestDivergedFitLeavesNoTrace), a fit on a
#                net that kept an earlier fit's scratch equal to one on
#                a net whose scratch was dropped
#                (TestFitScratchCarriesNothing), admission replays bit-exact across runs and worker
#                counts, the score cache's stamped scores bit-exact across
#                runs and equal to the closed form of their mixtures, its
#                candidate sample independent of how many candidates
#                earlier decisions re-scored, TestSimulateDeterministic:
#                every registered policy replayed twice, byte for byte,
#                TestEngineBurstEquivalence: the engine serving bursts
#                of 1, 7 and 32 (one shard lock per run of same-shard
#                ops) gives the replies,
#                cache.Stats and METRICS cache.* of op-by-op serving,
#                and TestArmAtSuiteValueIsBaseRun: each experiment arm
#                (Fig. 5's no-survival arm, Fig. 6's M, each ablation
#                sweep) at the suite's value of its knob replays its
#                base run bit for bit
#   alloc        the runtime referee for "no allocation per decision or
#                per request": eviction decisions (both estimators, f64
#                and f32) and f32 batch inference, the
#                policy's record table (hit, miss, new key, admit, evict
#                at its ceiling, and a hit that steps a live embedding
#                with a model installed), a training-window rollover at
#                the table's ceiling (reset, then sampling a full window;
#                no fit), the engine's lock-held evict
#                section,
#                the serving path — direct, a 32-frame burst over a
#                4-shard engine, and through the router, each with the
#                default read and write deadlines armed (and the router's
#                round-trip deadline) — and the ring lookup hold 0
#                allocs/op; and for "no allocation per trained term":
#                forwardBackward holds 0 allocs/op, a whole Fit
#                allocates the same count whatever the number of
#                sequences and epochs, and a later serial Fit on the
#                same net, which reuses the scratch the first one kept,
#                at most 8 allocations, again the same count whatever
#                the sequences and epochs. Then the admission front's
#                memory, which scales with resident objects: building
#                raven with learned admission at a routed node's
#                capacity allocates < 256 KiB, and after a replay the
#                front holds <= 32 B per resident object
#   bench-smoke  every `go test -bench` benchmark — the one place a single
#                layer is timed — still compiles and runs once: the root
#                package's per-operation costs, nn kernels (assembly and
#                Go loop per shape) and fit, the RNG reseed, core
#                eviction decisions and per-request bookkeeping
#                (BenchmarkObserve), the serving path over the wire and
#                through the router. (The served system is timed by
#                benchmark/ only; cmd/ravenbench records and gates it.)
#                It prints one line: BenchmarkFitEpoch/served-shape-repeat,
#                a retraining's steady-state B/op and allocs/op
#   fuzz-smoke   five seconds each of FuzzBinaryFrames (the GET/SET
#                frames) and FuzzTextLines (the text control channel)
#                against a live server (no panic, no desync), of
#                FuzzEngineModel (the engine against its naive reference
#                model), of FuzzHandleIndex (the per-key handle index
#                against a map, its keys crowded into one sub-table) and
#                of FuzzKernels (internal/nn's assembly against its Go
#                loops, bit for bit); the seed corpora still pass
#   checkpoint   a corrupted newest checkpoint generation is skipped on
#                resume, end to end through raven-sim; checkpoints the
#                parent of the one-cell commit wrote still load (GRU) or
#                read as corrupt and are skipped (another cell)
#   quality      the hit-ratio referee (~10 s): TestQuality replays a
#                small CDN trace (wiki18) and a small in-memory one
#                (twitter52) at raven-sim's defaults and prints, per
#                Raven configuration, OHR/BHR against LRU, the share of
#                the Belady−LRU gap captured, model_evict_frac and the
#                health it ends in; the defaults, score-cache (the served
#                estimator on the virtual clock: score cache and float32
#                inference, no decision budget) and learned-admission rows
#                assert floors, the served row (policy.Served(): learned
#                admission and the wall-clock budget added) only reports.
#                TestServedEqualsSimulated holds the server to
#                the simulator: the same hit/miss sequence over the
#                wire and the same final cache.Stats, for lru, raven
#                at raven-sim's defaults and the served rows
#                (policy.Served() with the decision budget off: score
#                cache, float32 inference, learned admission).
#                TestDoorkeeperWindowCoversResidents: a doorkeeper-
#                fronted LRU holding ~10 000 objects of a 1 MiB cache
#                admits a second sighting after 8x residents distinct
#                misses
#   soak         not part of a run of everything, and not tier 1: it is
#                named alone. TestSoakPlateau (build tag soak) drives
#                10M requests, Zipf over a catalogue plus 30% fresh
#                keys drawn as they go, through a one-shard engine
#                serving policy.Served() with learned admission; every
#                100k requests the record table is within its ceiling,
#                and raven.table_bytes and the live heap of the second
#                half stay within 2% and 10% of the first half's maxima
#                (~26 s on two x86-64 cores). Driving the binaries and
#                the router is not yet part of it
#
# Any failure aborts with a nonzero exit. Every CI job calls a stage of
# this script, so a green local run means a green CI run. SKIP_RACE=1
# drops the race stage from a run of everything (CI runs it as its own
# job).
set -euo pipefail
cd "$(dirname "$0")/.."

# run_named '<Name|Name...>' [go test flags] <packages> runs exactly the
# named tests. `go test -run` exits 0 with "no tests to run" when a name
# stops matching, so a renamed test would silently drop out of its
# gate: every name must be listed by some package, and no package may
# report that warning.
run_named() {
    local names="$1" name listed out
    shift
    listed="$(go test -list "^(${names})\$" "$@")"
    for name in ${names//|/ }; do
        if ! grep -qx "${name}" <<<"${listed}"; then
            echo "verify.sh: no test named ${name} in $*: renamed or deleted?" >&2
            exit 1
        fi
    done
    out="$(mktemp)"
    go test -count=1 -run "^(${names})\$" "$@" 2>&1 | tee "${out}"
    if grep -q 'no tests to run' "${out}"; then
        rm -f "${out}"
        echo "verify.sh: a package of $* has none of ${names}" >&2
        exit 1
    fi
    rm -f "${out}"
}

stage_static() {
    echo "==> go vet ./..."
    go vet ./...
    echo "==> go build ./..."
    go build ./...
    echo "==> GOARCH=arm64: go build ./... and go vet of the Go kernel fallbacks"
    GOARCH=arm64 go build ./...
    GOARCH=arm64 go vet ./internal/nn/ ./internal/stats/
}

stage_test() {
    echo "==> go test ./..."
    go test ./...
}

stage_race() {
    # Packages with real concurrency: the parallel training layer
    # (nn.Pool, Fit, and core's training windows), the parallel simulator, the
    # TCP server and its stress tests, the metrics layer it exports, the
    # experiments' live server (Fig. 12 / Table 3 replay a trace against
    # an in-process server over TCP), the cache engine they all share,
    # and the cluster tier (router, breakers, probing, chaos test).
    local pkgs="./internal/nn/... ./internal/core/... ./internal/sim/... ./internal/server/... ./internal/obs/... ./internal/experiments/... ./internal/cache/... ./internal/cluster/..."
    echo "==> go test -race ${pkgs}"
    # shellcheck disable=SC2086
    go test -race ${pkgs}
    # The sharded engine's cross-shard stress runs again explicitly
    # so the per-shard-lock fast path is always exercised fresh under the
    # race detector.
    echo "==> sharded cross-shard race stress (100 clients, mixed GET/SET)"
    run_named 'TestShardedStress' -race ./internal/server/
    run_named 'TestShardedConcurrent' -race ./internal/cache/
    echo "==> cache.Stats, METRICS and STATS read one set of counters (METRICS snapshots taken under traffic)"
    run_named 'TestStatsAreTheMetrics' -race ./internal/server/
    # The multi-process chaos test runs again explicitly under a hard
    # timeout: 3 ravencached processes, SIGKILL + restart mid-replay,
    # bounded hit-ratio error and METRICS reconciliation. Beside it, the
    # retry round: what a failed round trip left unanswered goes out as
    # one batch per successor node, not op by op.
    echo "==> cluster chaos churn (3-node fleet, SIGKILL + restart mid-replay) and the burst retry round"
    run_named 'TestChaosNodeChurn|TestBurstRetryIsOneRound' -race -timeout 300s ./internal/cluster/
}

stage_lint() {
    echo "==> go run ./cmd/ravenlint ./..."
    go run ./cmd/ravenlint ./...
}

stage_determinism() {
    echo "==> same program: pinned fit hashes (assembly and, on amd64, Go kernels), fits bit-exact across worker counts, guarded and faulted ones too, each PredictBatch row bit-identical to a batch of one, a tripped fit leaving no trace in the next, and a kept fit scratch carrying nothing into the next fit"
    local fit_names='TestFitGoldenBytes|TestFitWorkersBitExact|TestGuardedFitWorkersBitExact|TestExpMatchesMath|TestLogMatchesMath|TestTanhMatchesMath|TestLog1pMatchesMath|TestPredictBatchRowsIndependent|TestDivergedFitLeavesNoTrace|TestFitScratchCarriesNothing'
    # Off amd64 useAVX is a constant, and the Go-kernel run does not exist.
    if [[ "$(go env GOARCH)" == amd64 ]]; then
        fit_names+='|TestFitGoldenBytesGoKernels'
    fi
    run_named "${fit_names}" ./internal/nn/
    echo "==> same program (Raven's counters live in every replay): pinned Raven replay hash, replays bit-exact across worker counts, admission determinism (double run, Workers 1 vs 8), every policy's replay run twice, and raven at 4 shards with private and with one shared metrics block (TestSimulateDeterministic/raven-4shards-obs)"
    run_named 'TestRavenGoldenBytes|TestRavenWorkersBitExact|TestAdmissionBitExact|TestAdmissionOffMatchesUnfronted|TestSimulateDeterministic' ./internal/sim/
    echo "==> same program: the score cache's stamps bit-exact across runs and equal to their mixtures' closed form, and its candidate sample independent of how many candidates were re-scored"
    run_named 'TestScoreStampsBitExact|TestScoreStampIsClosedForm|TestScoreCacheSamplerIgnoresRescores' ./internal/core/
    echo "==> same program: the engine serves a burst (one shard lock per run of same-shard ops) with the replies, cache.Stats and METRICS cache.* of op-by-op serving"
    run_named 'TestEngineBurstEquivalence' ./internal/server/
    echo "==> same program: an experiment arm is the registry Raven plus the one knob it varies, so at the suite's value of that knob it replays its base run (Fig. 2a's raven cell, Fig. 5's raven run) bit for bit"
    run_named 'TestArmAtSuiteValueIsBaseRun' ./internal/experiments/
}

stage_alloc() {
    echo "==> eviction decision alloc assertion (0 allocs/op: joint win count and score cache, f64 and f32; f32 batch inference), the record table's request path (0 allocs/op at its ceiling, with and without a model installed), a training-window rollover at the table's ceiling (TestWindowRolloverAllocFree: reset, Reset of the taken index, re-sampling a full window; no fit; 0 allocs) and training (TestFitAllocFree: 0 allocs/term; a Fit's count independent of sequences and epochs; a later serial Fit on the same net <= 8 allocs)"
    run_named 'TestEvictionPathAllocFree|TestRequestPathAllocFree|TestWindowRolloverAllocFree|TestFrozen32PredictAllocFree|TestFitAllocFree' ./internal/core/ ./internal/nn/

    echo "==> engine evict section alloc assertion (Victim + evict over a full shard; 0 allocs/op)"
    run_named 'TestEvictAllocFree' ./internal/cache/

    echo "==> serving-path alloc assertion (GET/SET direct, 32-frame bursts over a 4-shard engine and through the router, deadlines armed; ring lookup; 0 allocs/op)"
    run_named 'TestServingPathAllocFree|TestBurstServingAllocFree|TestRingLookupAllocFree' ./internal/server/ ./internal/cluster/

    echo "==> admission front memory (sized by resident objects: < 256 KiB to build raven + learned admission at a routed node's capacity; <= 32 B per resident after a replay)"
    run_named 'TestLearnedFrontConstructionAlloc' ./internal/policy/
    run_named 'TestFrontSizedByResidents' ./internal/cache/
}

stage_bench_smoke() {
    # Every package that declares a Benchmark function; DESIGN.md
    # "Performance: two timing surfaces" names them.
    echo "==> benchmark smoke (-benchtime=1x); a retraining's steady-state allocation:"
    local out
    out=$(go test -run='^$' -bench=. -benchtime=1x . ./internal/nn/... ./internal/stats/ ./internal/core/... ./internal/server/... ./internal/cluster/...)
    grep '^BenchmarkFitEpoch/served-shape-repeat' <<<"${out}"
}

stage_fuzz_smoke() {
    local target
    for target in server/FuzzBinaryFrames server/FuzzTextLines policy/FuzzEngineModel cache/FuzzHandleIndex nn/FuzzKernels; do
        echo "==> fuzz smoke: ${target} (5s)"
        go test -run '^$' -fuzz "^${target##*/}\$" -fuzztime 5s "./internal/${target%/*}/"
    done
}

stage_checkpoint() {
    echo "==> on-disk compatibility: checkpoints written by an older build"
    run_named 'TestParentCheckpointLoads|TestForeignCellCheckpointRejected' ./internal/nn/...
    echo "==> checkpoint corruption smoke"
    local dir newest out
    dir="$(mktemp -d)"
    # shellcheck disable=SC2064
    trap "rm -rf '${dir}'" EXIT
    local sim_args=(-synthetic poisson -requests 8000 -objects 100 -capacity 40 -policies raven -checkpoint "${dir}")
    go run ./cmd/raven-sim "${sim_args[@]}" >/dev/null
    newest="$(ls "${dir}"/raven-*.ckpt | sort | tail -1)"
    # Truncate the newest generation (torn write); the next run must skip
    # it and resume an older generation rather than load garbage.
    truncate -s -1 "${newest}"
    out="$(go run ./cmd/raven-sim "${sim_args[@]}")"
    if ! grep -q "1 corrupt skipped" <<<"${out}"; then
        echo "checkpoint smoke FAILED: corrupted generation was not skipped on resume"
        echo "${out}"
        exit 1
    fi
}

stage_quality() {
    echo "==> hit ratios against LRU and Belady on wiki18 and twitter52 (raven-sim defaults, and the served estimator without its wall-clock budget), and served = simulated"
    run_named 'TestQuality' -v ./internal/sim/
    run_named 'TestServedEqualsSimulated' ./internal/server/
    echo "==> the doorkeeper's window spans 16x the resident objects: a second sighting after 8x residents distinct misses is admitted"
    run_named 'TestDoorkeeperWindowCoversResidents' -v ./internal/policy/
}

stage_soak() {
    echo "==> 10M streamed requests through the served Raven: the record table, raven.table_bytes and the live heap plateau"
    run_named 'TestSoakPlateau' -tags soak -timeout 30m -v ./internal/core/
}

stages="static test race lint determinism alloc bench-smoke fuzz-smoke checkpoint quality"
if [[ $# -eq 0 ]]; then
    if [[ "${SKIP_RACE:-0}" == "1" ]]; then
        echo "==> skipping the race stage (SKIP_RACE=1; CI runs it as a dedicated job)"
        stages="${stages/ race/}"
    fi
    # shellcheck disable=SC2086
    set -- ${stages}
fi
for stage in "$@"; do
    fn="stage_${stage//-/_}"
    if ! declare -F "${fn}" >/dev/null; then
        echo "verify.sh: unknown stage '${stage}' (${stages}, and soak)" >&2
        exit 2
    fi
    "${fn}"
done

echo "verify: OK"
