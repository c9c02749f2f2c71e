#!/bin/sh
# check.sh — the full local gate: formatting, vet, tests (with race on the
# concurrent packages), a short soak, and one pass over every benchmark.
#
#   ./check.sh         full gate
#   ./check.sh bench   pinned benchmark subset vs committed BENCH.json
#   ./check.sh alloc   alloc-budget tests + allocs/op regression gate
#   ./check.sh cover   coverage run with the ratcheted floor (COVER_FLOOR)
#   ./check.sh fuzz    30s smoke of the pinned fuzz targets
set -e

# Ratcheted coverage floor (percentage points). CI fails when total
# statement coverage drops more than 1pt below this; raise it when coverage
# grows so the ratchet never slips backwards. Re-anchored to the measured
# post-store total: the store lands heavily tested (>90% in internal/store)
# but brings two new untestable main() bodies (sapstore, the sapserved store
# wiring) that dilute the repo-wide statement ratio.
COVER_FLOOR=79.8

if [ "$1" = "bench" ]; then
    # The -minspeedup requirements gate the shard scatter's parallel scaling
    # and the session engine's incremental-vs-full work reduction on the
    # fresh report; they self-skip on machines with <4 processors, where
    # the ratios are unmeasurable.
    echo "== bench regression gate (BENCH.json) =="
    go run ./cmd/sapbench -json -out BENCH.fresh.json -baseline BENCH.json \
        -maxregress 0.30 -maxallocregress 0.10 \
        -minspeedup 'E30Shard/workers=4=2.0,E35SessionChurn/incremental=5.0'
    echo "BENCH GATE PASSED (fresh report in BENCH.fresh.json)"
    exit 0
fi

if [ "$1" = "alloc" ]; then
    # Two layers: explicit testing.AllocsPerRun budgets on the arena-backed
    # hot paths (exact numbers, fail fast), then the allocs/op side of the
    # BENCH.json gate (end-to-end counts on the pinned subset). Allocation
    # counts are machine-independent, so the 10% threshold needs no
    # calibration.
    echo "== alloc budgets (testing.AllocsPerRun) =="
    go test -count=1 -run 'TestAllocs' \
        ./internal/intervals/ ./internal/exact/ ./internal/largesap/ \
        ./internal/chendp/ ./internal/mediumsap/ ./internal/core/ \
        ./internal/window/ ./internal/model/
    echo "== allocs/op regression gate (BENCH.json) =="
    go run ./cmd/sapbench -json -out BENCH.fresh.json -baseline BENCH.json -maxregress 1000 -maxallocregress 0.10
    echo "ALLOC GATE PASSED (fresh report in BENCH.fresh.json)"
    exit 0
fi

if [ "$1" = "cover" ]; then
    echo "== coverage (floor ${COVER_FLOOR}%, 1pt grace) =="
    go test -count=1 -coverprofile=coverage.out ./...
    total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    echo "total statement coverage: ${total}% (floor ${COVER_FLOOR}%)"
    awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN {
        if (t + 1.0 < f) {
            printf "COVERAGE GATE FAILED: %.1f%% is more than 1pt below the %.1f%% floor\n", t, f
            exit 1
        }
        if (t > f + 1.0) {
            printf "note: coverage %.1f%% is above the floor; consider raising COVER_FLOOR in check.sh\n", t
        }
    }'
    echo "COVERAGE GATE PASSED"
    exit 0
fi

if [ "$1" = "fuzz" ]; then
    # 30s per target; the corpus seeds run as plain tests everywhere else,
    # so this verb is the only place new inputs are explored.
    fuzztime="${FUZZTIME:-30s}"
    echo "== fuzz smoke (${fuzztime} per target) =="
    go test -run '^$' -fuzz '^FuzzSolveSmallSAP$' -fuzztime "$fuzztime" ./internal/smallsap/
    go test -run '^$' -fuzz '^FuzzCoreSolve$' -fuzztime "$fuzztime" ./internal/core/
    go test -run '^$' -fuzz '^FuzzScratchReuse$' -fuzztime "$fuzztime" ./internal/exact/
    go test -run '^$' -fuzz '^FuzzValidateHardened$' -fuzztime "$fuzztime" ./internal/model/
    go test -run '^$' -fuzz '^FuzzReadInstanceJSON$' -fuzztime "$fuzztime" ./internal/model/
    go test -run '^$' -fuzz '^FuzzReadSolutionJSON$' -fuzztime "$fuzztime" ./internal/model/
    go test -run '^$' -fuzz '^FuzzShardStitch$' -fuzztime "$fuzztime" ./internal/shard/
    go test -run '^$' -fuzz '^FuzzStoreRecord$' -fuzztime "$fuzztime" ./internal/store/
    go test -run '^$' -fuzz '^FuzzWindowJSON$' -fuzztime "$fuzztime" ./internal/window/
    echo "FUZZ SMOKE PASSED"
    exit 0
fi

echo "== gofmt =="
test -z "$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files need formatting"; exit 1; }
echo "== go vet =="
go vet ./...
echo "== go test =="
go test ./...
echo "== race =="
# Race-check everything in one run: a hard-coded package or test list
# silently rots as concurrency spreads (it had already missed core's
# parallel arms). -count=1 forces a fresh run past the test cache. The
# explicit timeout is the hang gate (an injected fault that wedges a solver
# trips it) and covers the parallel-determinism matrix, which solves every
# difftest case three times under the race detector.
go test -race -count=1 -timeout 30m ./...
echo "== soak (10s) =="
go run ./cmd/sapstress -duration 10s -seed 1
echo "== benches (1x) =="
go test -run XXX -bench . -benchtime 1x .
echo "ALL CHECKS PASSED"
