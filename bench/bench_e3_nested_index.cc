// E3 -- Nested-attribute index vs forward traversal vs relational joins
// (paper §3.2 "Indexing", BERT89; §3.3 impedance/join argument).
//
// The query is the nested half of the paper's example: find vehicles whose
// manufacturer is located in Detroit. Four evaluation strategies:
//
//   1. OODB nested-attribute index  -- one probe, OIDs of the targets;
//   2. OODB forward traversal       -- extent scan + per-candidate deref;
//   3. relational hash join         -- company ⋈ vehicle then filter;
//   4. relational index join        -- index company.location, probe
//                                      vehicle.company_id index.
//
// Expected shape: the nested index wins by orders of magnitude at low
// selectivity; forward traversal pays one deref per vehicle; the hash
// join pays a full build of the company table per query; the relational
// index path is competitive but still touches two indexes.

#include <benchmark/benchmark.h>

#include "exec/operator.h"
#include "index/index_manager.h"
#include "query/query_engine.h"
#include "rel/query_ops.h"
#include "workloads/bench_env.h"
#include "workloads/workloads.h"

namespace kimdb {
namespace bench {
namespace {

constexpr size_t kCompanies = 500;
constexpr double kDetroitFraction = 0.02;

struct E3Fixture {
  std::unique_ptr<Env> env;
  VehicleSchema schema;
  std::unique_ptr<IndexManager> im;
  std::unique_ptr<QueryEngine> engine;
  VehicleData data;

  // Relational mirror of the same population.
  std::unique_ptr<rel::Relation> companies;
  std::unique_ptr<rel::Relation> vehicles;

  explicit E3Fixture(size_t n_vehicles) {
    env = Env::Create(16384);
    schema = CreateVehicleSchema(env->catalog.get());
    BENCH_ASSIGN(d, PopulateVehicles(env->store.get(), schema, kCompanies,
                                     n_vehicles, kDetroitFraction, 99));
    data = std::move(d);
    im = std::make_unique<IndexManager>(env->store.get());
    engine = std::make_unique<QueryEngine>(env->store.get(), im.get());

    // Mirror into relations keyed by OID serial.
    BENCH_ASSIGN(crel, rel::Relation::Create(
                           env->bp.get(), "company",
                           {{"id", Value::Kind::kInt},
                            {"location", Value::Kind::kString}}));
    companies = std::move(crel);
    BENCH_ASSIGN(vrel, rel::Relation::Create(
                           env->bp.get(), "vehicle",
                           {{"id", Value::Kind::kInt},
                            {"weight", Value::Kind::kInt},
                            {"company_id", Value::Kind::kInt}}));
    vehicles = std::move(vrel);
    for (Oid c : data.companies) {
      BENCH_ASSIGN(obj, env->store->Get(c));
      BENCH_OK(companies
                   ->Insert({Value::Int(static_cast<int64_t>(c.raw())),
                             obj.Get(schema.location)})
                   .status());
    }
    for (Oid v : data.vehicles) {
      BENCH_ASSIGN(obj, env->store->Get(v));
      BENCH_OK(vehicles
                   ->Insert({Value::Int(static_cast<int64_t>(v.raw())),
                             obj.Get(schema.weight),
                             Value::Int(static_cast<int64_t>(
                                 obj.Get(schema.manufacturer)
                                     .as_ref()
                                     .raw()))})
                   .status());
    }
  }

  Query DetroitQuery() const {
    Query q;
    q.target = schema.vehicle;
    q.predicate = Expr::Eq(Expr::Path({"Manufacturer", "Location"}),
                           Expr::Const(Value::Str("Detroit")));
    return q;
  }
};

void BM_NestedIndex(benchmark::State& state) {
  E3Fixture f(static_cast<size_t>(state.range(0)));
  BENCH_OK(f.im->CreateIndex(IndexKind::kNested, f.schema.vehicle,
                             {"Manufacturer", "Location"})
               .status());
  Query q = f.DetroitQuery();
  size_t results = 0;
  for (auto _ : state) {
    BENCH_ASSIGN(hits, f.engine->Execute(q));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_ForwardTraversalScan(benchmark::State& state) {
  E3Fixture f(static_cast<size_t>(state.range(0)));
  Query q = f.DetroitQuery();
  size_t results = 0;
  for (auto _ : state) {
    BENCH_ASSIGN(hits, f.engine->Execute(q));
    results = hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_RelationalHashJoin(benchmark::State& state) {
  E3Fixture f(static_cast<size_t>(state.range(0)));
  size_t results = 0;
  for (auto _ : state) {
    size_t n = 0;
    BENCH_OK(rel::HashJoin(
        *f.vehicles, *f.companies, "company_id", "id",
        [&](const rel::Tuple&, const rel::Tuple& c) {
          if (c[1].kind() == Value::Kind::kString &&
              c[1].as_string() == "Detroit") {
            ++n;
          }
          return Status::OK();
        }));
    results = n;
    benchmark::DoNotOptimize(n);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_RelationalIndexJoin(benchmark::State& state) {
  E3Fixture f(static_cast<size_t>(state.range(0)));
  BENCH_OK(f.companies->CreateIndex("location").status());
  BENCH_OK(f.vehicles->CreateIndex("company_id").status());
  rel::RelIndex* by_location = f.companies->FindIndex("location");
  rel::RelIndex* by_company = f.vehicles->FindIndex("company_id");
  size_t results = 0;
  for (auto _ : state) {
    size_t n = 0;
    // Select Detroit companies by index, then probe the vehicle FK index.
    for (RecordId crid : by_location->LookupEq(Value::Str("Detroit"))) {
      BENCH_ASSIGN(company, f.companies->Get(crid));
      n += by_company->LookupEq(company[0]).size();
    }
    results = n;
    benchmark::DoNotOptimize(n);
  }
  state.counters["results"] = static_cast<double>(results);
}

// Residual-fetch pipeline: the nested index yields Detroit candidates,
// then a Filter checks each one's resident image against the weight
// conjunct. Batching drains the index in slabs and prefetches candidate
// pages ahead of materialization. range(0) = fleet size; range(1) records
// the batch size so the run keeps the name of its earlier batch-size
// sweep.
void BM_NestedIndexResidual_BatchSize(benchmark::State& state) {
  E3Fixture f(static_cast<size_t>(state.range(0)));
  BENCH_OK(f.im->CreateIndex(IndexKind::kNested, f.schema.vehicle,
                             {"Manufacturer", "Location"})
               .status());
  Query q = f.DetroitQuery();
  q.predicate = Expr::And(
      q.predicate,
      Expr::Gt(Expr::Path({"Weight"}), Expr::Const(Value::Int(5000))));
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

BENCHMARK(BM_NestedIndex)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ForwardTraversalScan)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RelationalHashJoin)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RelationalIndexJoin)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NestedIndexResidual_BatchSize)
    ->Args({20000, exec::kBatchSize})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace kimdb

BENCHMARK_MAIN();
