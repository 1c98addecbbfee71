#!/usr/bin/env bash
# ASan+UBSan job variant: builds the tree with
# -fsanitize=address,undefined (CMake option KIMDB_SANITIZE=address) and
# runs the query-execution suites -- the batched exec operators, the
# optimizer and batch-boundary tests, the OQL query and plan-equivalence
# property suites, the relational operators and joins, MVCC snapshot
# reads, and the metrics / flight-recorder suites -- so buffer reuse
# across batches, moved-from rows and the decoders behind them are
# memory-checked on every build.
#
# Usage: scripts/asan_ctest.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DKIMDB_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)" --target exec_operator_test query_optimizer_test query_test query_property_test rel_test mvcc_snapshot_test obs_metrics_test obs_trace_test
# halt_on_error makes a UBSan report fail its test instead of scrolling by.
(cd "$BUILD_DIR" && UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  ctest --output-on-failure -R '^(ExecOperatorTest|QueryOptimizerTest|QueryTest|OqlTest|Seeds/(PlanEquivalenceTest|IndexChurnTest|OqlRoundTripTest)|RelationTest|MvccSnapshotTest|MvccRecoveryTest|ObsMetricsTest|ObsMetricsDbTest|FlightRecorderTest|ReporterTest|SnapshotStampTest|TracedDatabaseTest|WindowedHistogramTest)\.')
