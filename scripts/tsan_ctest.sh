#!/usr/bin/env bash
# TSan job variant: builds the tree with -fsanitize=thread (CMake option
# KIMDB_SANITIZE=thread) and runs the multi-threaded tests -- the lock
# manager / transaction suite, the exec operator tests (budget and
# cancellation state read across threads), the sharded buffer-pool
# stress/miss-storm tests (off-lock I/O and the per-shard condvar
# choreography), the ObjectStore reader/writer +
# object-cache stress (shared/exclusive store lock, cache invalidation),
# the crash-recovery harness (whose group-commit Sync path is the most
# contended lock choreography in the engine), and the MVCC snapshot suite
# (version-chain install/resolve/prune against concurrent committers),
# and the wire-protocol server suite (epoll I/O thread vs worker pool vs
# client threads: pipelining, drain-on-stop, disconnect aborts) -- so the
# concurrent paths are race-checked on every build.
#
# Usage: scripts/tsan_ctest.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DKIMDB_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" --target concurrency_test exec_operator_test crash_recovery_test obs_metrics_test obs_trace_test storage_buffer_pool_test edge_cases_test object_store_test mvcc_snapshot_test query_optimizer_test net_server_test
# TSan slows the exhaustive matrix ~10-20x; thin it to every 7th crash
# point (coverage still spans the whole workload, offset varies by run
# count in plain CI which stays exhaustive).
(cd "$BUILD_DIR" && KIMDB_CRASH_MATRIX_STRIDE=7 \
  ctest --output-on-failure -R 'ConcurrencyTest|ObjectCacheStress|ObjectStoreTest|ExecOperatorTest|CrashRecoveryTest|ObsMetrics|FlightRecorder|WindowedHistogram|ReporterTest|TracedDatabase|BufferPool|MvccSnapshot|MvccRecovery|QueryOptimizerTest|NetProtocolTest|NetServerTest')
