#!/usr/bin/env bash
# Build and run the simulator microbenchmarks that guard the batched
# tick pipeline, the scenario-lane SIMD engine and the dsp kernel
# layer, emitting google-benchmark JSON.
# Run from the repository root:
#
#   tools/bench.sh [build-dir] [out-json]
#
# Every run records the same set, so any two artifacts compare row by
# row:
#
#   BM_SystemTickDualCore (per-cycle baseline) vs BM_SystemTickBlocked
#     (batched path); the items_per_second ratio is the batching
#     speedup.
#   BM_PopulationLaned / BM_OracleMatrixLaned at lane widths 1/4/8 on
#     one worker thread; the width-1 vs widest ratio is the
#     scenario-lane SIMD speedup (lanes=1 runs every scenario through
#     the solo path).
#   BM_Dsp* — per-sample throughput of each dsp block primitive and
#     the fused cross-lane step at the ambient dispatch level (pin
#     VSMOOTH_SIMD=scalar to measure the AVX2 kernel gain).
#
# Numbers are only meaningful from an optimized simulator: the script
# refuses to run against a build tree whose cached CMAKE_BUILD_TYPE is
# not Release or RelWithDebInfo, configures fresh trees as Release,
# and stamps the verified build type into the artifact's context as
# "cmake_build_type". (The "library_build_type": "debug" field that
# made BENCH_pr8.json look mis-recorded describes the *distro-built
# google-benchmark harness library* — packaged without NDEBUG — not
# the simulator under test; the explicit stamp removes the
# ambiguity.)
#
# Shared CI runners are noisy (run-to-run swings of 15-20%), so each
# benchmark runs several repetitions with random interleaving and the
# recorded figure is the per-benchmark median — the interleaving makes
# each compared pair see the same machine conditions, which is what
# makes their ratio meaningful.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH.json}"
JOBS="$(nproc 2>/dev/null || echo 2)"
FILTER='BM_SystemTick|Laned|BM_Dsp'

# Configure fresh trees as Release; verify existing trees were cached
# with an optimized build type before running anything against them.
if [ -f "${BUILD_DIR}/CMakeCache.txt" ]; then
    BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                  "${BUILD_DIR}/CMakeCache.txt")"
    case "${BUILD_TYPE}" in
        Release|RelWithDebInfo) ;;
        *)
            echo "error: ${BUILD_DIR} is configured as" \
                 "'${BUILD_TYPE:-<empty>}'; refusing to record" \
                 "benchmarks from a non-optimized tree. Reconfigure" \
                 "with -DCMAKE_BUILD_TYPE=Release (or point bench.sh" \
                 "at a release build dir)." >&2
            exit 1
            ;;
    esac
    cmake -B "${BUILD_DIR}" -S . >/dev/null
else
    BUILD_TYPE=Release
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target perf_simulator

"${BUILD_DIR}/bench/perf_simulator" \
    --benchmark_filter="${FILTER}" \
    --benchmark_min_time=0.5 \
    --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_context=cmake_build_type="${BUILD_TYPE}" \
    --benchmark_out="${OUT_JSON}" \
    --benchmark_out_format=json

# Belt-and-braces: refuse to keep an artifact that does not carry an
# optimized-build stamp (a stale binary from a since-reconfigured
# tree would slip past the cache check above).
python3 - "${OUT_JSON}" <<'EOF' || { rm -f "${OUT_JSON}"; exit 1; }
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
build = data.get("context", {}).get("cmake_build_type", "unknown")
if build not in ("Release", "RelWithDebInfo"):
    print("error: artifact stamped cmake_build_type=" + build
          + "; discarding " + sys.argv[1], file=sys.stderr)
    sys.exit(1)
EOF

python3 - "${OUT_JSON}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
rates = {b["name"]: b["items_per_second"] for b in data["benchmarks"]
         if b.get("aggregate_name") == "median" and "items_per_second" in b}
base = rates.get("BM_SystemTickDualCore_median")
blocked = rates.get("BM_SystemTickBlocked_median")
if base and blocked:
    print(f"per-tick baseline: {base / 1e6:.2f}M cycles/s (median of 5)")
    print(f"batched pipeline:  {blocked / 1e6:.2f}M cycles/s (median of 5)")
    print(f"speedup:           {blocked / base:.2f}x")
for bench in ("BM_PopulationLaned", "BM_OracleMatrixLaned"):
    one = rates.get(f"{bench}/1/real_time_median")
    if not one:
        continue
    for width in (4, 8):
        wide = rates.get(f"{bench}/{width}/real_time_median")
        if wide:
            print(f"{bench}: lanes=1 -> lanes={width} "
                  f"speedup {wide / one:.2f}x (median of 5)")
for name, rate in sorted(rates.items()):
    if name.startswith("BM_Dsp"):
        short = name.replace("_median", "")
        print(f"{short}: {rate / 1e6:.1f}M samples/s (median of 5)")
EOF
