#!/bin/sh
# Run oracle_study twice in one fresh TMPDIR: the first run must build
# the pre-run matrix and save it (a cache miss), the second must read
# it (a hit), and both must print and emit identical bytes.
#
#   tests/oracle_study_cold_warm.sh <oracle_study binary> <scratch dir>
set -eu

BIN="$1"
DIR="$2"
rm -rf "${DIR}"
mkdir -p "${DIR}/tmp" "${DIR}/cold" "${DIR}/warm"

for run in cold warm; do
    TMPDIR="${DIR}/tmp" VSMOOTH_RESULT_DIR="${DIR}/${run}" "${BIN}" \
        > "${DIR}/${run}.txt" 2> "${DIR}/${run}.log"
done
grep -q 'matrix built, saved to' "${DIR}/cold.log"
grep -q 'matrix read from' "${DIR}/warm.log"

cmp "${DIR}/cold.txt" "${DIR}/warm.txt"
for exp in fig17_coschedule_spread fig18_policy_scatter \
           fig19_pass_increase table1_optimal_margins; do
    cmp "${DIR}/cold/${exp}.json" "${DIR}/warm/${exp}.json"
done
rm -rf "${DIR}"
