// E1 -- Query model (paper §3.2, Figure 1).
//
// Measures the two scope interpretations of a query (single class vs the
// class hierarchy rooted at the target) and the cost of nested predicates
// (path expressions dereferencing the aggregation hierarchy), using the
// paper's own example query: vehicles over 7500 lbs made by a company
// located in Detroit.
//
// Expected shape: hierarchy scope costs ~|subtree| times the single-class
// scan at equal per-class extent size; the nested predicate adds one
// object fetch per candidate on top of the simple predicate.

#include <benchmark/benchmark.h>

#include "exec/operator.h"
#include "query/query_engine.h"
#include "workloads/bench_env.h"
#include "workloads/workloads.h"

namespace kimdb {
namespace bench {
namespace {

struct E1Fixture {
  std::unique_ptr<Env> env;
  VehicleSchema schema;
  std::unique_ptr<QueryEngine> engine;

  explicit E1Fixture(size_t n_vehicles) {
    env = Env::Create(/*pool_pages=*/8192);
    schema = CreateVehicleSchema(env->catalog.get());
    BENCH_ASSIGN(data, PopulateVehicles(env->store.get(), schema,
                                        /*n_companies=*/200, n_vehicles,
                                        /*detroit_fraction=*/0.1,
                                        /*seed=*/42));
    (void)data;
    engine = std::make_unique<QueryEngine>(env->store.get(), nullptr);
  }

  Query PaperQuery(bool hierarchy) const {
    Query q;
    q.target = schema.vehicle;
    q.hierarchy_scope = hierarchy;
    q.predicate = Expr::And(
        Expr::Gt(Expr::Path({"Weight"}), Expr::Const(Value::Int(7500))),
        Expr::Eq(Expr::Path({"Manufacturer", "Location"}),
                 Expr::Const(Value::Str("Detroit"))));
    return q;
  }

  Query SimpleQuery(bool hierarchy) const {
    Query q;
    q.target = schema.vehicle;
    q.hierarchy_scope = hierarchy;
    q.predicate = Expr::Gt(Expr::Path({"Weight"}),
                           Expr::Const(Value::Int(7500)));
    return q;
  }
};

void BM_SingleClassScope_Simple(benchmark::State& state) {
  E1Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.SimpleQuery(false);
  size_t results = 0;
  QueryStats stats;
  for (auto _ : state) {
    stats = QueryStats{};
    BENCH_ASSIGN(hits, f.engine->Execute(q, &stats));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["scanned"] = static_cast<double>(stats.objects_scanned);
}

void BM_HierarchyScope_Simple(benchmark::State& state) {
  E1Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.SimpleQuery(true);
  size_t results = 0;
  QueryStats stats;
  for (auto _ : state) {
    stats = QueryStats{};
    BENCH_ASSIGN(hits, f.engine->Execute(q, &stats));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["scanned"] = static_cast<double>(stats.objects_scanned);
}

void BM_HierarchyScope_NestedPredicate(benchmark::State& state) {
  E1Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.PaperQuery(true);
  size_t results = 0;
  QueryStats stats;
  for (auto _ : state) {
    stats = QueryStats{};
    BENCH_ASSIGN(hits, f.engine->Execute(q, &stats));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["ref_fetches"] = static_cast<double>(stats.ref_fetches);
}

void BM_SingleClassScope_NestedPredicate(benchmark::State& state) {
  E1Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.PaperQuery(false);
  size_t results = 0;
  for (auto _ : state) {
    BENCH_ASSIGN(hits, f.engine->Execute(q));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
}

// The 100k hierarchy scan through the batched pipeline (exec::kBatchSize
// rows per NextBatch). range(0) = fleet size; range(1) records the batch
// size so the run keeps the name of its earlier batch-size sweep.
void BM_Scan_BatchSize(benchmark::State& state) {
  E1Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.SimpleQuery(true);
  size_t results = 0;
  for (auto _ : state) {
    exec::ExecContext ctx(f.env->bp.get());
    BENCH_ASSIGN(hits, f.engine->Execute(q, &ctx));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["batch"] = static_cast<double>(exec::kBatchSize);
}

BENCHMARK(BM_SingleClassScope_Simple)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchyScope_Simple)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SingleClassScope_NestedPredicate)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HierarchyScope_NestedPredicate)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Scan_BatchSize)
    ->Args({100000, exec::kBatchSize})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace kimdb

BENCHMARK_MAIN();
