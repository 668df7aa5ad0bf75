#!/usr/bin/env bash
# Checkpoint/replay guard, run by the checkpoint-replay CI job: snapshots
# runs mid-flight, restores them into fresh pipelines, and requires the
# output to be byte-identical to the uninterrupted run.
#
# Four legs:
#   1. Figure-1 sweep, plain vs --checkpoint-roundtrip  -> identical CSV
#   2. Figure-1 sweep, --checkpoint-out then --checkpoint-in (the
#      warm-start path: write the snapshots once, resume from files)
#   3. fabric example (parking-lot), plain vs roundtrip  -> identical
#      stdout report
#   4. fabric example, --checkpoint-out=FILE then --checkpoint-in=FILE
#      -> both reports identical to the plain one
#
#   scripts/check_checkpoint_replay.sh [build-dir]
#
# Environment:
#   OUT_DIR  where the CSVs + checkpoint files land (default: checkpoint-replay)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${OUT_DIR:-checkpoint-replay}"
SWEEP="$BUILD_DIR/examples/sweep"
FABRIC="$BUILD_DIR/examples/fabric"

for bin in "$SWEEP" "$FABRIC"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target sweep fabric)" >&2
    exit 2
  fi
done
mkdir -p "$OUT_DIR/ckpt"

require_identical() {
  local a="$1" b="$2" what="$3"
  if ! cmp -s "$a" "$b"; then
    echo "FAIL: $what differs after checkpoint/restore" >&2
    diff "$a" "$b" | head -20 >&2 || true
    exit 1
  fi
}

# Reduced Figure 1: every scheme at two buffer sizes, snapshot taken
# 20k events into each run (mid-measurement for this duration).
ARGS=(--figure=1 --replications=2 --warmup=0.5 --duration=1
      --buffers=0.3,0.6 --seed=1 --jobs=2)

"$SWEEP" "${ARGS[@]}" >"$OUT_DIR/plain.csv"
"$SWEEP" "${ARGS[@]}" --checkpoint-roundtrip --checkpoint-events=20000 \
  >"$OUT_DIR/roundtrip.csv"
require_identical "$OUT_DIR/plain.csv" "$OUT_DIR/roundtrip.csv" \
  "sweep CSV (roundtrip)"

"$SWEEP" "${ARGS[@]}" --checkpoint-out="$OUT_DIR/ckpt" --checkpoint-events=20000 \
  >"$OUT_DIR/write.csv"
"$SWEEP" "${ARGS[@]}" --checkpoint-in="$OUT_DIR/ckpt" \
  >"$OUT_DIR/read.csv"
require_identical "$OUT_DIR/plain.csv" "$OUT_DIR/write.csv" "sweep CSV (write leg)"
require_identical "$OUT_DIR/plain.csv" "$OUT_DIR/read.csv" "sweep CSV (resume leg)"

FABRIC_ARGS=(--size=3 --duration=1 --report=false)
"$FABRIC" "${FABRIC_ARGS[@]}" >"$OUT_DIR/fabric_plain.txt"
"$FABRIC" "${FABRIC_ARGS[@]}" --checkpoint-roundtrip --checkpoint-events=20000 \
  >"$OUT_DIR/fabric_roundtrip.txt"
require_identical "$OUT_DIR/fabric_plain.txt" "$OUT_DIR/fabric_roundtrip.txt" \
  "fabric report"

"$FABRIC" "${FABRIC_ARGS[@]}" --checkpoint-out="$OUT_DIR/fabric.bufq" \
  --checkpoint-events=20000 >"$OUT_DIR/fabric_write.txt"
"$FABRIC" "${FABRIC_ARGS[@]}" --checkpoint-in="$OUT_DIR/fabric.bufq" \
  >"$OUT_DIR/fabric_read.txt"
require_identical "$OUT_DIR/fabric_plain.txt" "$OUT_DIR/fabric_write.txt" \
  "fabric report (write leg)"
require_identical "$OUT_DIR/fabric_plain.txt" "$OUT_DIR/fabric_read.txt" \
  "fabric report (resume leg)"

echo "OK: restored runs byte-identical to uninterrupted runs"
