#!/usr/bin/env bash
# Source-level allocation lint for the training, serving, simulation and
# attack-replay hot paths — the compile-free mirror of
# crates/nn/tests/hot_alloc_lint.rs.
#
# Every allocation-shaped expression (vec!, Vec::with_capacity,
# .to_vec(, .collect() in a hot module must carry an
# `// alloc-ok: <reason>` annotation; lines after the module's
# `#[cfg(test)]` marker and comment-only lines are out of scope.
#
# bf-obs is NOT exempt: span guards, counters, and the disabled tracing
# path run inside the same hot loops they observe, so their steady state
# must be allocation-free too (snapshot/manifest-time allocations carry
# annotations).
#
# Usage: scripts/check_hot_alloc.sh   (from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

HOT_MODULES=(
  crates/nn/src/conv.rs crates/nn/src/dense.rs crates/nn/src/lstm.rs
  crates/nn/src/pool.rs crates/nn/src/dropout.rs crates/nn/src/relu.rs
  crates/nn/src/network.rs crates/nn/src/loss.rs crates/nn/src/optim.rs
  crates/nn/src/tensor.rs crates/nn/src/workspace.rs
  crates/obs/src/span.rs crates/obs/src/metrics.rs crates/obs/src/trace.rs
  crates/obs/src/level.rs crates/obs/src/event.rs
  crates/ml/src/anytime.rs crates/ml/src/calibrate.rs crates/ml/src/distill.rs
  crates/ml/src/cnn.rs crates/serve/src/service.rs
  crates/sim/src/engine.rs crates/sim/src/workspace.rs
  crates/sim/src/interrupt.rs crates/stats/src/rng.rs
  crates/sim/src/timeline.rs crates/stats/src/series.rs
  crates/attack/src/replay.rs crates/attack/src/sweep_counting.rs
)

status=0
for path in "${HOT_MODULES[@]}"; do
  hits=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /vec!|Vec::with_capacity|\.to_vec\(|\.collect\(/ {
      if ($0 !~ /\/\/ alloc-ok:/) printf "%s:%d: %s\n", FILENAME, NR, $0
    }
  ' "$path")
  if [ -n "$hits" ]; then
    echo "$hits"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "error: unannotated allocations in hot modules" >&2
  echo "       (move onto the arena/scratch path, or justify with '// alloc-ok: <reason>')" >&2
else
  echo "hot-alloc lint: clean"
fi
exit "$status"
