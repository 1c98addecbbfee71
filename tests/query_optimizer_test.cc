// Cost-based optimizer + batch execution regression tests.
//
// Plan pins follow the bench shapes the optimizer must get right:
//   E2  -- class-hierarchy index equality lookup vs hierarchy scan
//   E3  -- nested-attribute index with a residual conjunct
//   E12 -- conjunctive OQL where the rule-based eq-over-range preference
//          and the cost model disagree
// plus stats-collection unit tests (live counts, analyze, drift) and
// batch-at-a-time operator tests (boundaries, MVCC visibility under a
// concurrent writer, budget mid-batch).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "object/mvcc.h"

namespace kimdb {
namespace {

class QueryOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_opt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Cleanup();
    Reopen();
  }

  void TearDown() override {
    db_.reset();
    Cleanup();
  }

  void Cleanup() {
    ::remove((base_ + ".db").c_str());
    ::remove((base_ + ".wal").c_str());
  }

  void Reopen() {
    db_.reset();
    DatabaseOptions opts;
    opts.path = base_;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  // E2/E12 shape: a two-level hierarchy with an integer Key and Weight.
  void BuildHierarchy() {
    ASSERT_TRUE(db_->CreateClass("Part", {},
                                 {{"Key", Domain::Int()},
                                  {"Weight", Domain::Int()}})
                    .ok());
    ASSERT_TRUE(db_->CreateClass("SubPart", {"Part"}, {}).ok());
  }

  // E3 shape: Vehicle -> Manufacturer(Company).Location nested path.
  void BuildNested() {
    ASSERT_TRUE(db_->CreateClass("Company", {},
                                 {{"Name", Domain::String()},
                                  {"Location", Domain::String()}})
                    .ok());
    ClassId company = *db_->FindClass("Company");
    ASSERT_TRUE(db_->CreateClass("Vehicle", {},
                                 {{"Weight", Domain::Int()},
                                  {"Manufacturer", Domain::Ref(company)}})
                    .ok());
  }

  Oid MustInsert(uint64_t txn, std::string_view cls,
                 std::vector<std::pair<std::string, Value>> attrs) {
    auto oid = db_->Insert(txn, cls, attrs);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return oid.ok() ? *oid : kNilOid;
  }

  std::vector<Oid> MustRun(std::string_view oql) {
    auto rows = db_->ExecuteOql(oql);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<Oid> out = rows.ok() ? *rows : std::vector<Oid>{};
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

// --- statistics collection --------------------------------------------------

TEST_F(QueryOptimizerTest, LiveCountTracksInsertAndDelete) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ClassId sub = *db_->FindClass("SubPart");
  EXPECT_EQ(db_->store().LiveCount(part), 0u);

  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 10; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  MustInsert(*t, "SubPart", {{"Key", Value::Int(99)}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  EXPECT_EQ(db_->store().LiveCount(part), 10u);
  EXPECT_EQ(db_->store().LiveCount(sub), 1u);

  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[0]).ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[1]).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_EQ(db_->store().LiveCount(part), 8u);
}

TEST_F(QueryOptimizerTest, AnalyzeInstallsStatsAndHistogram) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 200; ++i) {
    MustInsert(*t, "Part",
               {{"Key", Value::Int(i)}, {"Weight", Value::Int(i % 10)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  EXPECT_FALSE(db_->stats().Get(part).has_value() &&
               db_->stats().Get(part)->analyzed);
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->analyzed);
  EXPECT_TRUE(cs->Fresh());
  EXPECT_EQ(cs->live_objects, 200u);
  EXPECT_GT(cs->extent_pages, 0u);
  ASSERT_EQ(cs->path_hists.count("Key"), 1u);
  const EquiDepthHistogram& h = cs->path_hists.at("Key");
  EXPECT_EQ(h.total_entries, 200u);
  EXPECT_EQ(h.distinct_keys, 200u);
  // A point probe on a uniform domain is ~1/distinct, even out of range
  // (the estimate floors at one key's share rather than claiming zero).
  EXPECT_NEAR(h.SelectivityEq(Value::Int(100)), 1.0 / 200, 0.05);
  EXPECT_LE(h.SelectivityEq(Value::Int(-5)), 1.0 / 200 + 1e-9);
  // Half-range selectivity lands near one half.
  double half = h.SelectivityRange(std::nullopt, true, Value::Int(99), true);
  EXPECT_GT(half, 0.3);
  EXPECT_LT(half, 0.7);
}

TEST_F(QueryOptimizerTest, MutationDriftRetiresStats) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());
  ASSERT_TRUE(db_->stats().Get(part)->Fresh());

  auto plan = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->cost_based);
  EXPECT_TRUE(plan->index_scan);

  // Drift past max(64, live/4): the planner demotes to rule-based.
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 80; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(1000 + i)}});
  }
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_FALSE(db_->stats().Get(part)->Fresh());
  auto stale = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->cost_based);
  EXPECT_TRUE(stale->index_scan);  // rule-based still uses the index

  // Re-analyzing restores cost-based pricing.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  auto fresh = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->cost_based);
}

TEST_F(QueryOptimizerTest, StaleStatsScheduleAutomaticReanalyze) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());
  ASSERT_TRUE(db_->stats().Get(part)->Fresh());
  uint64_t auto_runs_before =
      db_->metrics().GetCounter("optimizer.auto_analyze_runs")->value();

  // Drift past the freshness threshold, then plan: the stale snapshot
  // demotes this plan to rule-based AND hands the class to the background
  // re-analyzer.
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 80; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(1000 + i)}});
  }
  ASSERT_TRUE(db_->Commit(*t2).ok());
  ASSERT_FALSE(db_->stats().Get(part)->Fresh());
  auto stale = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->cost_based);

  // Without any manual `analyze` verb, the stats come back fresh and the
  // next plan prices cost-based again.
  db_->DrainAutoAnalyze();
  EXPECT_GE(db_->metrics().GetCounter("optimizer.auto_analyze_runs")->value(),
            auto_runs_before + 1);
  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->Fresh());
  EXPECT_EQ(cs->live_objects, 180u);
  auto replanned = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(replanned.ok());
  EXPECT_TRUE(replanned->cost_based);
}

TEST_F(QueryOptimizerTest, StatsSurviveReopen) {
  BuildHierarchy();
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy,
                               *db_->FindClass("Part"), {"Key"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  Reopen();
  ClassId part = *db_->FindClass("Part");
  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->analyzed);
  EXPECT_EQ(cs->live_objects, 100u);
  EXPECT_EQ(cs->path_hists.count("Key"), 1u);
  auto plan = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->cost_based);
  EXPECT_TRUE(plan->index_scan);
}

// --- plan pins --------------------------------------------------------------

// E2 shape: selective equality through a class-hierarchy index must beat the
// hierarchy scan; an equality matching the whole extent must not.
TEST_F(QueryOptimizerTest, E2SelectiveEqPicksIndexUnselectivePicksScan) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 300; ++i) {
    // 290 distinct keys + 10 copies of key 7: both shapes in one extent.
    MustInsert(*t, i % 2 == 0 ? "Part" : "SubPart",
               {{"Key", Value::Int(i < 290 ? i + 100 : 7)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto selective = db_->ExplainOql("select Part where Key = 150");
  ASSERT_TRUE(selective.ok());
  EXPECT_TRUE(selective->cost_based);
  EXPECT_TRUE(selective->index_scan);
  EXPECT_EQ(selective->index_path, std::vector<std::string>{"Key"});
  EXPECT_EQ(selective->plans_considered, 2u);  // scan + the CH index
  EXPECT_LE(selective->est_rows, 5u);

  // Verify the plan runs and is right, batched.
  EXPECT_EQ(MustRun("select Part where Key = 7").size(), 10u);
}

TEST_F(QueryOptimizerTest, WholeExtentEqualityPrefersScan) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 300; ++i) {
    // One key everywhere: the equality matches the whole extent.
    MustInsert(*t, "Part",
               {{"Key", Value::Int(7)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  // The residual conjunct breaks index-only coverage, so the index plan
  // would point-fetch all 300 objects -- costlier than one extent scan.
  const char* oql = "select Part where Key = 7 and Weight >= 0";
  auto plan = db_->ExplainOql(oql);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->cost_based);
  EXPECT_FALSE(plan->index_scan);
  EXPECT_EQ(MustRun(oql).size(), 300u);
}

// E3 shape: nested-attribute index chosen, residual re-checked by a Filter,
// and EXPLAIN carries estimates on both operators.
TEST_F(QueryOptimizerTest, E3NestedIndexWithResidual) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> companies;
  for (int i = 0; i < 20; ++i) {
    companies.push_back(MustInsert(
        *t, "Company",
        {{"Name", Value::Str("C" + std::to_string(i))},
         {"Location", Value::Str(i == 0 ? "Detroit"
                                        : "City" + std::to_string(i))}}));
  }
  for (int i = 0; i < 200; ++i) {
    MustInsert(*t, "Vehicle",
               {{"Weight", Value::Int(i * 100)},
                {"Manufacturer", Value::Ref(companies[i % 20])}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Vehicle").empty());

  const char* oql =
      "select Vehicle where Manufacturer.Location = 'Detroit' "
      "and Weight > 7500";
  auto plan = db_->ExplainOql(oql);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->cost_based);
  EXPECT_TRUE(plan->index_scan);
  EXPECT_EQ(plan->index_path,
            (std::vector<std::string>{"Manufacturer", "Location"}));
  ASSERT_TRUE(plan->residual != nullptr);
  EXPECT_NE(plan->residual->ToString().find("Weight"), std::string::npos);

  // The rendered plan shows estimates on root and leaf.
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("IndexScan(path=Manufacturer.Location"),
            std::string::npos);
  EXPECT_NE(rendered.find("est_rows="), std::string::npos);
  EXPECT_NE(rendered.find("est_cost="), std::string::npos);

  // Detroit vehicles with Weight > 7500: i%20==0 and i*100>7500 -> i in
  // {80, 100, 120, 140, 160, 180}.
  EXPECT_EQ(MustRun(oql).size(), 6u);
}

// E12 shape: the rule-based fallback prefers equality over range; with
// statistics the cost model reverses that when the equality is worthless.
TEST_F(QueryOptimizerTest, E12CostModelOverridesEqPreference) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, part, {"Weight"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 400; ++i) {
    // Key is constant (useless equality); Weight is uniform (tight range).
    MustInsert(*t, "Part",
               {{"Key", Value::Int(7)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  const char* oql = "select Part where Key = 7 and Weight < 10";

  // Rule-based (no stats): equality wins, as it always did.
  auto rule = db_->ExplainOql(oql);
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rule->cost_based);
  EXPECT_TRUE(rule->index_scan);
  EXPECT_EQ(rule->index_path, std::vector<std::string>{"Key"});

  // Cost-based: the range over Weight touches ~10 objects, the equality
  // over Key touches all 400 -- the cheaper plan must win.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  auto costed = db_->ExplainOql(oql);
  ASSERT_TRUE(costed.ok());
  EXPECT_TRUE(costed->cost_based);
  EXPECT_TRUE(costed->index_scan);
  EXPECT_EQ(costed->index_path, std::vector<std::string>{"Weight"});
  EXPECT_EQ(costed->plans_considered, 3u);  // scan + Key index + Weight index

  EXPECT_EQ(MustRun(oql).size(), 10u);
}

// Rule-based eq-over-range preference itself (stats absent) stays pinned.
TEST_F(QueryOptimizerTest, RuleFallbackPrefersEqOverRange) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, part, {"Weight"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 50; ++i) {
    MustInsert(*t, "Part",
               {{"Key", Value::Int(i)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  // Range conjunct listed first; equality must still be chosen.
  auto plan = db_->ExplainOql("select Part where Weight < 40 and Key = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->cost_based);
  EXPECT_TRUE(plan->index_scan);
  EXPECT_EQ(plan->index_path, std::vector<std::string>{"Key"});
  EXPECT_EQ(MustRun("select Part where Weight < 40 and Key = 3").size(), 1u);
}

// ToString must equal the rendered EXPLAIN tree, estimates included, and
// must not depend on constructing a throwaway operator.
TEST_F(QueryOptimizerTest, PlanToStringMatchesExplainWithEstimates) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part",
               {{"Key", Value::Int(i)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  for (const char* oql :
       {"select Part where Key = 5",
        "select Part where Key = 5 and Weight > 2",
        "select Part where Weight > 2", "select Part",
        "select Part only where Key < 10"}) {
    auto q = db_->parser().ParseQuery(oql);
    ASSERT_TRUE(q.ok()) << oql;
    auto plan = db_->query_engine().Plan(*q);
    ASSERT_TRUE(plan.ok()) << oql;
    auto tree = db_->query_engine().Explain(*q);
    ASSERT_TRUE(tree.ok()) << oql;
    EXPECT_EQ(plan->ToString(), *tree) << oql;
  }

  // Same identity once the plans are cost-based.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  for (const char* oql :
       {"select Part where Key = 5",
        "select Part where Key = 5 and Weight > 2", "select Part"}) {
    auto q = db_->parser().ParseQuery(oql);
    ASSERT_TRUE(q.ok()) << oql;
    auto plan = db_->query_engine().Plan(*q);
    ASSERT_TRUE(plan.ok()) << oql;
    EXPECT_TRUE(plan->cost_based) << oql;
    auto tree = db_->query_engine().Explain(*q);
    ASSERT_TRUE(tree.ok()) << oql;
    EXPECT_EQ(plan->ToString(), *tree) << oql;
  }
}

TEST_F(QueryOptimizerTest, ExplainAnalyzeShowsEstimatesNextToActuals) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i % 50)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto rendered =
      db_->ExplainAnalyzeOql("explain analyze select Part where Key = 3");
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered->find("est_rows="), std::string::npos);
  EXPECT_NE(rendered->find("est_cost="), std::string::npos);
  EXPECT_NE(rendered->find("rows=2"), std::string::npos);
  EXPECT_NE(rendered->find("Result: 2 rows"), std::string::npos);
}

TEST_F(QueryOptimizerTest, OptimizerMetricsMove) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  obs::MetricsRegistry& m = db_->metrics();
  uint64_t considered0 = m.GetCounter("optimizer.plans_considered")->value();
  uint64_t chosen0 = m.GetCounter("optimizer.index_plans_chosen")->value();
  uint64_t cost0 = m.GetCounter("optimizer.cost_based_plans")->value();

  MustRun("select Part where Key = 5");  // rule-based index plan
  EXPECT_GT(m.GetCounter("optimizer.plans_considered")->value(), considered0);
  EXPECT_EQ(m.GetCounter("optimizer.index_plans_chosen")->value(),
            chosen0 + 1);
  EXPECT_EQ(m.GetCounter("optimizer.cost_based_plans")->value(), cost0);

  ASSERT_TRUE(MustRun("analyze Part").empty());
  EXPECT_GE(m.GetCounter("optimizer.analyze_runs")->value(), 1u);
  MustRun("select Part where Key = 5");  // now cost-based
  EXPECT_EQ(m.GetCounter("optimizer.cost_based_plans")->value(), cost0 + 1);
  // A cost-based execution records one estimation-error observation.
  EXPECT_GE(m.GetHistogram("optimizer.est_rows_error_pct")->data().count, 1u);
}

// --- batch execution --------------------------------------------------------

TEST_F(QueryOptimizerTest, BatchSizesAgreeAcrossBoundaries) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  // Scan+filter shape, index+residual-fetch shape and unfiltered scan,
  // each checked against an oracle over the inserted objects.
  struct Shape {
    const char* oql;
    bool (*matches)(int i);
  };
  const Shape shapes[] = {
      {"select Part where Weight < 100", [](int i) { return i < 100; }},
      {"select Part where Key = 5 and Weight > 50",
       [](int i) { return i % 40 == 5 && i > 50; }},
      {"select Part", [](int) { return true; }},
  };
  // Row counts one short of, at, one past and two past the fixed batch
  // size, so extents end mid-batch, on a batch edge, and one row beyond.
  std::vector<Oid> oids;  // oids[i] is the object with Weight i
  for (int count : {255, 256, 257, 513}) {
    ASSERT_EQ(exec::kBatchSize, 256u);
    auto t = db_->Begin();
    ASSERT_TRUE(t.ok());
    for (int i = static_cast<int>(oids.size()); i < count; ++i) {
      oids.push_back(
          MustInsert(*t, i % 3 == 0 ? "SubPart" : "Part",
                     {{"Key", Value::Int(i % 40)}, {"Weight", Value::Int(i)}}));
    }
    ASSERT_TRUE(db_->Commit(*t).ok());

    for (const Shape& shape : shapes) {
      auto q = db_->parser().ParseQuery(shape.oql);
      ASSERT_TRUE(q.ok()) << shape.oql;
      exec::ExecContext ctx(&db_->buffer_pool());
      auto rows = db_->query_engine().Execute(*q, &ctx);
      ASSERT_TRUE(rows.ok()) << shape.oql << " count=" << count;
      std::vector<Oid> expected;
      for (int i = 0; i < count; ++i) {
        if (shape.matches(i)) expected.push_back(oids[static_cast<size_t>(i)]);
      }
      std::sort(rows->begin(), rows->end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(*rows, expected) << shape.oql << " count=" << count;
      EXPECT_FALSE(expected.empty()) << shape.oql;
    }
  }
}

TEST_F(QueryOptimizerTest, BatchedSnapshotIgnoresConcurrentWriter) {
  BuildHierarchy();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 100; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  // Pin a snapshot, then let a writer commit inserts, an update and a
  // delete "concurrently" (after the pin, before the read).
  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 20; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(500 + i)}});
  }
  ASSERT_TRUE(db_->Set(*t2, oids[0], "Key", Value::Int(999)).ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[1]).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());

  auto q = db_->parser().ParseQuery("select Part where Key >= 0");
  ASSERT_TRUE(q.ok());
  exec::ExecContext ctx(&db_->buffer_pool());
  ctx.set_snapshot(snap.read_ts());
  auto rows = db_->query_engine().Execute(*q, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // The snapshot still sees all 100 original objects and none of the
  // writer's 20, the delete included.
  EXPECT_EQ(rows->size(), 100u);

  // A current-time batched read sees the writer's world: 100 - 1 + 20.
  exec::ExecContext now_ctx(&db_->buffer_pool());
  auto now_rows = db_->query_engine().Execute(*q, &now_ctx);
  ASSERT_TRUE(now_rows.ok());
  EXPECT_EQ(now_rows->size(), 119u);
}

TEST_F(QueryOptimizerTest, BudgetCancelsMidBatch) {
  BuildHierarchy();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 2000; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto q = db_->parser().ParseQuery("select Part where Key >= 0");
  ASSERT_TRUE(q.ok());
  exec::ExecContext ctx(&db_->buffer_pool());
  ctx.set_budget(std::chrono::nanoseconds(0));
  auto rows = db_->query_engine().Execute(*q, &ctx);
  EXPECT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsDeadlineExceeded())
      << rows.status().ToString();

  // Cancellation mid-stream behaves the same.
  exec::ExecContext ctx2(&db_->buffer_pool());
  ctx2.Cancel();
  auto rows2 = db_->query_engine().Execute(*q, &ctx2);
  EXPECT_FALSE(rows2.ok());
  EXPECT_TRUE(rows2.status().IsDeadlineExceeded());
}

}  // namespace
}  // namespace kimdb
