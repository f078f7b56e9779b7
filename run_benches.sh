#!/bin/sh
# Runs every experiment binary at its default (quick) scale and captures
# the output; used to produce bench_output.txt for EXPERIMENTS.md.
#
# NSYNC_THREADS passthrough: when set in the environment, it is forwarded
# to every binary both as the environment variable (honored by the
# runtime's automatic sizing) and explicitly as --threads, so the pool
# size used for the committed outputs is visible in the invocation.
#
# NSYNC_SIMD passthrough: the dispatch layer honors it directly
# ("scalar"/"avx2"; an unknown name keeps the best backend); echoing it
# here makes the backend used for a committed capture visible at the top
# of the output.  bench_micro also records the resolved backend in its
# JSON context (`simd_isa`), which is how BENCH_micro_scalar.json and
# BENCH_micro.json are told apart.
#
# Provenance: every bench that writes a BENCH_*.json (bench_micro and the
# bench_ext_checkpoint, _multi_session, _drift, _fusion and _resilience
# extensions) also gets the git SHA of the checkout (suffixed -dirty when
# the tree has uncommitted changes) and the CMake build type of ./build in
# its JSON context.
#
# Spread: bench_micro runs every case MICRO_REPS times and reports only
# the aggregates (mean, median, stddev, cv and bench_micro's own `mad`,
# the median absolute deviation), with `reps` in its JSON context.
set -u
MICRO_REPS=5
GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if ! git diff --quiet HEAD 2>/dev/null; then
  GIT_SHA="${GIT_SHA}-dirty"
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt 2>/dev/null)
BUILD_TYPE=${BUILD_TYPE:-unknown}
CONTEXT_FLAGS="--context git_sha=${GIT_SHA} --context build_type=${BUILD_TYPE}"
THREAD_FLAGS=""
if [ -n "${NSYNC_THREADS:-}" ]; then
  THREAD_FLAGS="--threads ${NSYNC_THREADS}"
  echo "## NSYNC_THREADS=${NSYNC_THREADS}"
fi
if [ -n "${NSYNC_SIMD:-}" ]; then
  echo "## NSYNC_SIMD=${NSYNC_SIMD}"
fi
for b in "$@"; do
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  # bench_micro additionally writes machine-readable results; the path can
  # be overridden with NSYNC_BENCH_JSON.
  EXTRA_FLAGS=""
  if [ "$b" = "bench_micro" ]; then
    EXTRA_FLAGS="--json ${NSYNC_BENCH_JSON:-BENCH_micro.json}"
    EXTRA_FLAGS="$EXTRA_FLAGS --benchmark_context=git_sha=${GIT_SHA}"
    EXTRA_FLAGS="$EXTRA_FLAGS --benchmark_context=build_type=${BUILD_TYPE}"
    EXTRA_FLAGS="$EXTRA_FLAGS --benchmark_context=reps=${MICRO_REPS}"
    EXTRA_FLAGS="$EXTRA_FLAGS --benchmark_repetitions=${MICRO_REPS}"
    EXTRA_FLAGS="$EXTRA_FLAGS --benchmark_report_aggregates_only=true"
  fi
  case "$b" in
    bench_ext_multi_session) JSON=BENCH_fleet.json ;;
    bench_ext_checkpoint) JSON=BENCH_checkpoint.json ;;
    bench_ext_drift) JSON=BENCH_drift.json ;;
    bench_ext_fusion) JSON=BENCH_fusion.json ;;
    bench_ext_resilience) JSON=BENCH_resilience.json ;;
    *) JSON="" ;;
  esac
  if [ -n "$JSON" ]; then
    EXTRA_FLAGS="--json ${NSYNC_BENCH_JSON:-$JSON} $CONTEXT_FLAGS"
  fi
  # The fleet benches run no thread-pool work and take no --threads.
  BENCH_THREAD_FLAGS="$THREAD_FLAGS"
  case "$b" in
    bench_ext_multi_session|bench_ext_checkpoint) BENCH_THREAD_FLAGS="" ;;
  esac
  # shellcheck disable=SC2086  # THREAD_FLAGS/EXTRA_FLAGS intentionally split
  NSYNC_THREADS="${NSYNC_THREADS:-}" ./build/bench/"$b" $BENCH_THREAD_FLAGS \
    $EXTRA_FLAGS 2>&1
  echo
done
