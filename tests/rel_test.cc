#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rel/query_ops.h"
#include "rel/relation.h"
#include "storage/disk_manager.h"

namespace kimdb {
namespace {

using rel::ColumnDef;
using rel::Relation;
using rel::Tuple;

class RelationTest : public ::testing::Test {
 protected:
  RelationTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 256) {}

  std::unique_ptr<Relation> MakeCompanies() {
    auto r = Relation::Create(&bp_, "company",
                              {{"id", Value::Kind::kInt},
                               {"name", Value::Kind::kString},
                               {"location", Value::Kind::kString}});
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }

  std::unique_ptr<Relation> MakeVehicles() {
    auto r = Relation::Create(&bp_, "vehicle",
                              {{"id", Value::Kind::kInt},
                               {"weight", Value::Kind::kInt},
                               {"company_id", Value::Kind::kInt}});
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }

  // Batch-boundary join shape: `left` spans several pages, and each of
  // its key-0 rows matches more right tuples than one batch holds.
  // Left keys cycle 0..3 with every fifth key null; right has
  // kBatchSize + 44 key-0 tuples and ten each of keys 1..3.
  void MakeWideJoin(std::unique_ptr<Relation>* left,
                    std::unique_ptr<Relation>* right) {
    auto l = Relation::Create(&bp_, "l",
                              {{"id", Value::Kind::kInt},
                               {"key", Value::Kind::kInt},
                               {"pad", Value::Kind::kString}});
    auto r = Relation::Create(&bp_, "r",
                              {{"id", Value::Kind::kInt},
                               {"key", Value::Kind::kInt}});
    ASSERT_TRUE(l.ok() && r.ok());
    for (int i = 0; i < 300; ++i) {
      Value key = i % 5 == 4 ? Value::Null() : Value::Int(i % 4);
      ASSERT_TRUE((*l)->Insert({Value::Int(i), key,
                                Value::Str(std::string(60, 'x'))})
                      .ok());
    }
    const int wide = static_cast<int>(exec::kBatchSize) + 44;
    for (int j = 0; j < wide + 30; ++j) {
      int key = j < wide ? 0 : 1 + j % 3;
      ASSERT_TRUE((*r)->Insert({Value::Int(j), Value::Int(key)}).ok());
    }
    auto pages = (*l)->Pages();
    ASSERT_TRUE(pages.ok());
    ASSERT_GE(pages->size(), 3u);
    *left = std::move(*l);
    *right = std::move(*r);
  }

  using Pair = std::pair<Tuple, Tuple>;

  // Brute-force equality join: left rows in storage order, each followed
  // by its right matches in storage order; null keys match nothing.
  static std::vector<Pair> OracleJoin(const Relation& left,
                                      const Relation& right) {
    std::vector<Tuple> rights;
    EXPECT_TRUE(right
                    .ForEach([&](RecordId, const Tuple& t) {
                      rights.push_back(t);
                      return Status::OK();
                    })
                    .ok());
    std::vector<Pair> out;
    EXPECT_TRUE(left
                    .ForEach([&](RecordId, const Tuple& lt) {
                      if (lt[1].is_null()) return Status::OK();
                      for (const Tuple& rt : rights) {
                        if (lt[1].Compare(rt[1]) == 0) out.emplace_back(lt, rt);
                      }
                      return Status::OK();
                    })
                    .ok());
    return out;
  }

  // Runs `join` (left.key = right.key) to completion against the oracle,
  // then again with a zero budget armed after the first pair.
  template <typename JoinFn>
  void CheckJoinAcrossBatches(JoinFn join) {
    std::unique_ptr<Relation> left, right;
    ASSERT_NO_FATAL_FAILURE(MakeWideJoin(&left, &right));
    ASSERT_TRUE(right->CreateIndex("key").ok());
    std::vector<Pair> want = OracleJoin(*left, *right);
    ASSERT_GT(want.size(), 2 * exec::kBatchSize);

    std::vector<Pair> got;
    Status st = join(*left, *right,
                     [&](const Tuple& lt, const Tuple& rt) {
                       got.emplace_back(lt, rt);
                       return Status::OK();
                     },
                     nullptr);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want);

    exec::ExecContext ctx;
    size_t seen = 0;
    st = join(*left, *right,
              [&](const Tuple&, const Tuple&) {
                if (seen++ == 0) ctx.set_budget(std::chrono::nanoseconds(0));
                return Status::OK();
              },
              &ctx);
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    EXPECT_GE(seen, 1u);
    EXPECT_LE(seen, exec::kBatchSize);
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
};

TEST_F(RelationTest, InsertGetRoundTrip) {
  auto companies = MakeCompanies();
  auto rid = companies->Insert(
      {Value::Int(1), Value::Str("GM"), Value::Str("Detroit")});
  ASSERT_TRUE(rid.ok());
  auto t = companies->Get(*rid);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1].as_string(), "GM");
  EXPECT_EQ(companies->num_tuples(), 1u);
}

TEST_F(RelationTest, SchemaChecked) {
  auto companies = MakeCompanies();
  EXPECT_TRUE(companies->Insert({Value::Int(1)}).status()
                  .IsInvalidArgument());  // arity
  EXPECT_TRUE(companies
                  ->Insert({Value::Str("x"), Value::Str("y"),
                            Value::Str("z")})
                  .status()
                  .IsInvalidArgument());  // type
  // Nulls allowed.
  EXPECT_TRUE(companies->Insert({Value::Int(2), Value::Null(),
                                 Value::Null()})
                  .ok());
}

TEST_F(RelationTest, UpdateDeleteMaintainIndexes) {
  auto companies = MakeCompanies();
  auto idx = companies->CreateIndex("location");
  ASSERT_TRUE(idx.ok());
  auto rid = companies->Insert(
      {Value::Int(1), Value::Str("GM"), Value::Str("Detroit")});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*idx)->LookupEq(Value::Str("Detroit")).size(), 1u);
  ASSERT_TRUE(companies
                  ->Update(*rid, {Value::Int(1), Value::Str("GM"),
                                  Value::Str("Austin")})
                  .ok());
  EXPECT_TRUE((*idx)->LookupEq(Value::Str("Detroit")).empty());
  EXPECT_EQ((*idx)->LookupEq(Value::Str("Austin")).size(), 1u);
  ASSERT_TRUE(companies->Delete(*rid).ok());
  EXPECT_TRUE((*idx)->LookupEq(Value::Str("Austin")).empty());
}

TEST_F(RelationTest, SelectEqUsesIndexOrScan) {
  auto companies = MakeCompanies();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i), Value::Str("c"),
                              Value::Str(i % 2 ? "Detroit" : "Austin")})
                    .ok());
  }
  int hits = 0;
  ASSERT_TRUE(rel::SelectEq(*companies, "location", Value::Str("Detroit"),
                            [&](const Tuple&) {
                              ++hits;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(hits, 25);
  // Same with an index.
  ASSERT_TRUE(companies->CreateIndex("location").ok());
  hits = 0;
  ASSERT_TRUE(rel::SelectEq(*companies, "location", Value::Str("Detroit"),
                            [&](const Tuple&) {
                              ++hits;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(hits, 25);
}

TEST_F(RelationTest, JoinsAgree) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i), Value::Str("c"),
                              Value::Str(i < 3 ? "Detroit" : "Other")})
                    .ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(vehicles
                    ->Insert({Value::Int(i), Value::Int(i * 500),
                              Value::Int(i % 10)})
                    .ok());
  }
  auto run = [&](auto&& join_fn) {
    std::multiset<int64_t> joined_vehicle_ids;
    Status st = join_fn([&](const Tuple& v, const Tuple& c) {
      EXPECT_EQ(v[2].as_int(), c[0].as_int());
      joined_vehicle_ids.insert(v[0].as_int());
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return joined_vehicle_ids;
  };
  auto nl = run([&](const rel::JoinConsumer& fn) {
    return rel::NestedLoopJoin(*vehicles, *companies, "company_id", "id",
                               fn);
  });
  auto hash = run([&](const rel::JoinConsumer& fn) {
    return rel::HashJoin(*vehicles, *companies, "company_id", "id", fn);
  });
  ASSERT_TRUE(companies->CreateIndex("id").ok());
  auto indexed = run([&](const rel::JoinConsumer& fn) {
    return rel::IndexJoin(*vehicles, *companies, "company_id", "id", fn);
  });
  EXPECT_EQ(nl.size(), 40u);  // every vehicle joins exactly one company
  EXPECT_EQ(nl, hash);
  EXPECT_EQ(nl, indexed);
}

TEST_F(RelationTest, NestedLoopJoinAcrossBatchBoundaries) {
  CheckJoinAcrossBatches([](const Relation& l, const Relation& r,
                            const rel::JoinConsumer& fn,
                            exec::ExecContext* ctx) {
    return rel::NestedLoopJoin(l, r, "key", "key", fn, ctx);
  });
}

TEST_F(RelationTest, HashJoinAcrossBatchBoundaries) {
  CheckJoinAcrossBatches([](const Relation& l, const Relation& r,
                            const rel::JoinConsumer& fn,
                            exec::ExecContext* ctx) {
    return rel::HashJoin(l, r, "key", "key", fn, ctx);
  });
}

TEST_F(RelationTest, IndexJoinAcrossBatchBoundaries) {
  CheckJoinAcrossBatches([](const Relation& l, const Relation& r,
                            const rel::JoinConsumer& fn,
                            exec::ExecContext* ctx) {
    return rel::IndexJoin(l, r, "key", "key", fn, ctx);
  });
}

TEST_F(RelationTest, IndexJoinRequiresIndex) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  EXPECT_TRUE(rel::IndexJoin(*vehicles, *companies, "company_id", "id",
                             [](const Tuple&, const Tuple&) {
                               return Status::OK();
                             })
                  .IsFailedPrecondition());
}

TEST_F(RelationTest, RangeLookup) {
  auto vehicles = MakeVehicles();
  auto idx = vehicles->CreateIndex("weight");
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(vehicles
                    ->Insert({Value::Int(i), Value::Int(i * 100),
                              Value::Int(0)})
                    .ok());
  }
  auto rids = (*idx)->LookupRange(Value::Int(500), true, Value::Int(900),
                                  false);
  EXPECT_EQ(rids.size(), 4u);  // 500,600,700,800
}

TEST_F(RelationTest, PackUnpackRecordId) {
  RecordId rid{12345, 678};
  EXPECT_EQ(rel::RelIndex::Unpack(rel::RelIndex::Pack(rid)), rid);
}

}  // namespace
}  // namespace kimdb
