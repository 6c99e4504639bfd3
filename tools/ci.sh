#!/usr/bin/env bash
# Full CI pass: configure, build, unit tests, golden-result
# regression, the benchmark's self-test, a ThreadSanitizer smoke of
# the parallel sweep engine,
# an ASan+UBSan property-fuzzing smoke (including dedicated
# scenario-lane equivalence and sampled-execution bound passes), an
# ASan+UBSan serve-daemon round trip (cache resubmission + SIGTERM
# drain), and a clean-work-tree check. Run from the repository root:
#
#   tools/ci.sh [build-dir]
#
# Exits nonzero on the first failing stage.
set -euo pipefail

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure + build (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: unit + CLI tests =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
      -LE golden

echo "== tier-2: golden-result regression (jobs=4 and jobs=1) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L golden

echo "== benchmark gate: perfbench self-test =="
# Builds the benchmark (Release) into an ignored build tree and shows
# its correctness gate can fail: a perturbed golden through `vsmooth
# verify` and a flipped serve byte must each count as a failure.
# tools/bench.sh stays for recording microbenchmarks by hand.
CARGO_TARGET_DIR="${BUILD_DIR}-perfbench" python3 perfbench/run.py --selftest

echo "== TSan smoke: parallel sweep engine =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSMOOTH_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target vsmooth_tests
"${TSAN_DIR}/tests/vsmooth_tests" --gtest_filter='Parallel*'

echo "== ASan+UBSan fuzz smoke: 2000 random configs, run twice =="
# The same seed must produce a byte-identical per-property summary —
# the determinism guarantee the repro/corpus workflow depends on.
FUZZ_DIR="${BUILD_DIR}-asan"
cmake -B "${FUZZ_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSMOOTH_SANITIZE=address,undefined
cmake --build "${FUZZ_DIR}" -j "${JOBS}" --target vsmooth_cli

echo "== ASan+UBSan alloc audit: steady-state blocks never allocate =="
# The interposed operator new/delete counters must read zero across
# warm System::run and LaneGroup drains, with the sanitizers watching
# the same paths (ASan intercepts at the malloc layer beneath the
# interposer, so poisoning still applies).
cmake --build "${FUZZ_DIR}" -j "${JOBS}" --target vsmooth_tests
"${FUZZ_DIR}/tests/vsmooth_tests" --gtest_filter='AllocAudit*'

"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --summary "${FUZZ_DIR}/fuzz-summary-a.json"
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --summary "${FUZZ_DIR}/fuzz-summary-b.json"
cmp "${FUZZ_DIR}/fuzz-summary-a.json" "${FUZZ_DIR}/fuzz-summary-b.json"
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --corpus tests/corpus \
      --summary "${FUZZ_DIR}/fuzz-corpus-summary.json"

echo "== ASan+UBSan fuzz: blocked vs scalar ticking, 2000 configs =="
# Dedicated deep pass over the blocked_vs_scalar property: the dsp
# block kernels (smoothing chains, biquad recurrence, cached ripple)
# must stay bit-identical to per-cycle stepping on every random
# config, with the sanitizers watching the chunked block paths.
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --properties blocked_vs_scalar \
      --summary "${FUZZ_DIR}/fuzz-blocked-summary.json"

echo "== ASan+UBSan fuzz: scenario-lane vs solo equivalence, 2000 configs =="
# Dedicated deep pass over the laned_vs_scalar property: every random
# config runs through LaneGroup at a drawn lane width 1..8 and must
# produce bit-identical summaries to solo runs, with the sanitizers
# watching the lane gather/scatter and retirement/repack paths.
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --properties laned_vs_scalar \
      --summary "${FUZZ_DIR}/fuzz-laned-summary.json"

echo "== ASan+UBSan fuzz: sampled execution within bounds, 2000 configs =="
# Dedicated deep pass over the sampled_within_bounds property: every
# random config runs exactly and phase-sampled, and each extrapolated
# metric must land within the error bound the sampled run's own report
# declares (bit-identical whenever nothing was extrapolated), with the
# sanitizers watching the window accounting and fast-forward paths.
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --properties sampled_within_bounds \
      --summary "${FUZZ_DIR}/fuzz-sampled-summary.json"

echo "== ASan+UBSan fuzz: adaptive margin + fault injection, 2000 configs =="
# Dedicated deep pass over the PR 9 scenario families: the PI margin
# controller must stay bounded, deterministic, and bit-identical to
# the fixed-margin engine when frozen, and the fault injector's
# per-access decisions must be exactly nested across margins and
# invariant under any shard or blocked/scalar partition, with the
# sanitizers watching the controller feed and injection hot paths.
"${FUZZ_DIR}/src/tools/vsmooth" fuzz --seed 1 --iters 2000 \
      --properties adaptive_margin_invariants,fault_injection_determinism \
      --summary "${FUZZ_DIR}/fuzz-resilience-summary.json"

echo "== ASan+UBSan serve: cached oracle batch, SIGTERM drain =="
# Boot the daemon on a Unix socket, submit an oracle-matrix batch
# twice, and require the second pass to be answered entirely from the
# content-addressed cache with byte-identical results; then SIGTERM
# must drain and exit 0 with the sanitizers watching the executor,
# cache, and connection teardown paths.
SERVE_DIR="${FUZZ_DIR}/serve-stage"
rm -rf "${SERVE_DIR}"
mkdir -p "${SERVE_DIR}"
cat > "${SERVE_DIR}/batch.json" <<'EOF'
[{"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "lbm",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "mcf",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "hmmer", "bench_b": "milc", "cycles_per_pair": 30000}]
EOF
"${FUZZ_DIR}/src/tools/vsmooth" serve --socket "${SERVE_DIR}/s.sock" \
      --workers 2 --ready-file "${SERVE_DIR}/ready" \
      > "${SERVE_DIR}/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -f "${SERVE_DIR}/ready" ] && break
    sleep 0.1
done
[ -f "${SERVE_DIR}/ready" ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/pass1.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" > "${SERVE_DIR}/pass2-full.txt"
if grep -q '"cache": "miss"' "${SERVE_DIR}/pass2-full.txt"; then
    echo "error: cache miss on resubmission" >&2
    exit 1
fi
[ "$(grep -c '"cache": "hit"' "${SERVE_DIR}/pass2-full.txt")" -eq 3 ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/pass2.txt"
cmp "${SERVE_DIR}/pass1.txt" "${SERVE_DIR}/pass2.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --local \
      --batch "${SERVE_DIR}/batch.json" --results-only \
      > "${SERVE_DIR}/local.txt"
cmp "${SERVE_DIR}/pass1.txt" "${SERVE_DIR}/local.txt"

# An adaptive-margin scenario through the same daemon: resubmission
# must be answered from the cache with byte-identical controller
# metrics (the canonical key reflects the coerced controller-on
# config, so both submissions hash to the same entry).
cat > "${SERVE_DIR}/batch-margin.json" <<'EOF'
[{"kind": "adaptive_margin",
  "config": {"seed": 5, "cycles": 20000, "coreBench": [1, 26],
             "decapFraction": 0.12,
             "ctrlInitialMargin": 0.06, "ctrlMinMargin": 0.03,
             "ctrlMaxMargin": 0.1, "ctrlRecoveryCost": 600}}]
EOF
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" --results-only \
      > "${SERVE_DIR}/margin1.txt"
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" \
      > "${SERVE_DIR}/margin2-full.txt"
if grep -q '"cache": "miss"' "${SERVE_DIR}/margin2-full.txt"; then
    echo "error: cache miss on adaptive_margin resubmission" >&2
    exit 1
fi
[ "$(grep -c '"cache": "hit"' "${SERVE_DIR}/margin2-full.txt")" -eq 1 ]
"${FUZZ_DIR}/src/tools/vsmooth" client --socket "${SERVE_DIR}/s.sock" \
      --batch "${SERVE_DIR}/batch-margin.json" --results-only \
      > "${SERVE_DIR}/margin2.txt"
cmp "${SERVE_DIR}/margin1.txt" "${SERVE_DIR}/margin2.txt"
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"

echo "== work tree must be clean after a full build+test cycle =="
# Everything CI produces belongs in the ignored build*/ trees; a
# leftover means a stage wrote into the source tree (or .gitignore
# lost coverage of a local build directory).
if [ -n "$(git status --porcelain)" ]; then
    echo "error: work tree dirty after CI:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "CI: all stages passed"
