#!/bin/sh
# Run a study binary twice in one fresh TMPDIR: the first run must
# run the study and save its output (a cache miss), the second must
# replay it (a hit), and both must print and emit identical bytes for
# each of the study's experiments.
#
#   tests/study_cold_warm.sh <study binary> <scratch dir> <experiment>...
set -eu

BIN="$1"
DIR="$2"
shift 2
rm -rf "${DIR}"
mkdir -p "${DIR}/tmp" "${DIR}/cold" "${DIR}/warm"

for run in cold warm; do
    TMPDIR="${DIR}/tmp" VSMOOTH_RESULT_DIR="${DIR}/${run}" "${BIN}" \
        > "${DIR}/${run}.txt" 2> "${DIR}/${run}.log"
done
grep -q 'ran; output saved to' "${DIR}/cold.log"
grep -q 'output replayed from' "${DIR}/warm.log"

cmp "${DIR}/cold.txt" "${DIR}/warm.txt"
for exp in "$@"; do
    cmp "${DIR}/cold/${exp}.json" "${DIR}/warm/${exp}.json"
done
rm -rf "${DIR}"
