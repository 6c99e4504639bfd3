#!/usr/bin/env bash
# Full CI pass: configure, build, unit tests, golden-result
# regression, the benchmark's self-test, a ThreadSanitizer smoke of
# the parallel sweep engine, an ASan+UBSan property-fuzzing smoke
# over every property, an ASan+UBSan serve-daemon round trip (a
# client that stops reading, cache resubmission, connection churn +
# SIGTERM drain), and a
# clean-work-tree check. Run from the repository root:
#
#   tools/ci.sh [build-dir]
#
# Exits nonzero on the first failing stage.
set -euo pipefail

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure + build (${BUILD_DIR}) =="
# Threads and GoogleTest are the only packages the build needs: the
# configure fails if it looks for google-benchmark again.
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE
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
CARGO_TARGET_DIR="${BUILD_DIR}-perfbench" python3 perfbench/run.py --selftest

echo "== TSan smoke: parallel sweep engine =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVSMOOTH_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target vsmooth_tests
"${TSAN_DIR}/tests/vsmooth_tests" --gtest_filter='Parallel*'

echo "== ASan+UBSan fuzz smoke: 2000 random configs, run twice =="
# Every property checks every config, so one pass covers each
# property as deeply as a dedicated pass at the same seed would. The
# same seed must produce a byte-identical per-property summary — the
# determinism guarantee the repro/corpus workflow depends on.
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

echo "== ASan+UBSan serve: stalled reader, cached batch, connection churn, SIGTERM drain =="
# A client that stops reading must not wedge the executors: another
# client's miss is still answered, and the daemon drops the stalled one.
"${FUZZ_DIR}/tests/vsmooth_tests" \
      --gtest_filter='ServeDaemon.ClientThatStopsReadingCannotWedgeTheExecutors'
# Boot the daemon on a Unix socket, submit an oracle-matrix and
# population batch twice, and require the second pass to be answered
# entirely from the content-addressed cache with byte-identical
# results equal to --local; churn 200 connections and require the
# daemon's descriptor count back where it started; then SIGTERM must
# drain and exit 0 with the sanitizers watching the executor, cache,
# and connection teardown paths.
SERVE_DIR="${FUZZ_DIR}/serve-stage"
rm -rf "${SERVE_DIR}"
mkdir -p "${SERVE_DIR}"
cat > "${SERVE_DIR}/batch.json" <<'EOF'
[{"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "lbm",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "mcf",   "bench_b": "mcf",  "cycles_per_pair": 30000},
 {"kind": "oracle_cell", "bench_a": "hmmer", "bench_b": "milc", "cycles_per_pair": 30000},
 {"kind": "population",  "population": 96,
  "config": {"seed": 7, "cycles": 5000, "coreBench": [19, 19]}}]
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
[ "$(grep -c '"cache": "hit"' "${SERVE_DIR}/pass2-full.txt")" -eq 4 ]
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

# Connection churn: each closed client must give its descriptor back,
# so 200 connect/ping/close cycles leave the daemon's fd count where
# it started (a reader closes its fd just after its client does).
daemon_fds() { ls "/proc/${SERVE_PID}/fd" | wc -l; }
FDS_BEFORE="$(daemon_fds)"
python3 - "${SERVE_DIR}/s.sock" <<'EOF'
import socket
import sys

for i in range(200):
    with socket.socket(socket.AF_UNIX) as s:
        s.settimeout(30)
        s.connect(sys.argv[1])
        s.sendall(b'{"type": "ping"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                break
            reply += chunk
        if b'"pong"' not in reply:
            sys.exit(f"connection {i}: no pong, got {reply!r}")
EOF
for _ in $(seq 1 50); do
    [ "$(daemon_fds)" -le "${FDS_BEFORE}" ] && break
    sleep 0.1
done
if [ "$(daemon_fds)" -gt "${FDS_BEFORE}" ]; then
    echo "error: daemon fds ${FDS_BEFORE} -> $(daemon_fds) after" \
         "200 closed connections" >&2
    exit 1
fi
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
