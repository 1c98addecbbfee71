#include "rel/query_ops.h"

#include <memory>
#include <utility>

namespace kimdb {
namespace rel {

// Each entry point lowers to a small operator tree (rel_operators.h) and
// drives it with exec::ForEachRowBatched, so the relational surface keeps
// its callback-style API while the execution itself is the shared batched
// Volcano substrate. `ctx` is optional for callers that only want results.

namespace {

/// Runs `root` to completion, splitting every emitted row at `split`
/// columns into the (left, right) pair the JoinConsumer expects.
Status DriveJoin(exec::Operator& root, exec::ExecContext* ctx, size_t split,
                 const JoinConsumer& fn) {
  exec::ExecContext local;
  if (ctx == nullptr) ctx = &local;
  return exec::ForEachRowBatched(root, ctx, [&](exec::Row& row) {
    Tuple lt(row.tuple.begin(),
             row.tuple.begin() + static_cast<ptrdiff_t>(split));
    Tuple rt(row.tuple.begin() + static_cast<ptrdiff_t>(split),
             row.tuple.end());
    return fn(lt, rt);
  });
}

}  // namespace

Status Select(const Relation& rel, const TuplePredicate& pred,
              const std::function<Status(const Tuple&)>& fn,
              exec::ExecContext* ctx) {
  exec::ExecContext local;
  if (ctx == nullptr) ctx = &local;
  RelScan scan(&rel, &pred);
  return exec::ForEachRowBatched(scan, ctx, [&](exec::Row& row) {
    return fn(row.tuple);
  });
}

Status SelectEq(const Relation& rel, std::string_view column,
                const Value& key,
                const std::function<Status(const Tuple&)>& fn,
                exec::ExecContext* ctx) {
  int col = rel.ColumnIndex(column);
  if (col < 0) return Status::NotFound("no such column");
  exec::ExecContext local;
  if (ctx == nullptr) ctx = &local;
  if (RelIndex* idx = rel.FindIndex(column)) {
    RelIndexLookup lookup(&rel, idx, key, std::string(column));
    return exec::ForEachRowBatched(lookup, ctx, [&](exec::Row& row) {
      return fn(row.tuple);
    });
  }
  TuplePredicate pred = [&](const Tuple& t) {
    return t[static_cast<size_t>(col)].Compare(key) == 0;
  };
  return Select(rel, pred, fn, ctx);
}

Status NestedLoopJoin(const Relation& left, const Relation& right,
                      std::string_view left_col, std::string_view right_col,
                      const JoinConsumer& fn, exec::ExecContext* ctx) {
  int lc = left.ColumnIndex(left_col);
  int rc = right.ColumnIndex(right_col);
  if (lc < 0 || rc < 0) return Status::NotFound("join column missing");
  std::string label = left.name() + "." + std::string(left_col) + " = " +
                      right.name() + "." + std::string(right_col);
  NestedLoopJoinOp join(std::make_unique<RelScan>(&left, nullptr), &right, lc,
                        rc, std::move(label));
  return DriveJoin(join, ctx, left.columns().size(), fn);
}

Status HashJoin(const Relation& left, const Relation& right,
                std::string_view left_col, std::string_view right_col,
                const JoinConsumer& fn, exec::ExecContext* ctx) {
  int lc = left.ColumnIndex(left_col);
  int rc = right.ColumnIndex(right_col);
  if (lc < 0 || rc < 0) return Status::NotFound("join column missing");
  std::string label = left.name() + "." + std::string(left_col) + " = " +
                      right.name() + "." + std::string(right_col);
  HashJoinOp join(std::make_unique<RelScan>(&left, nullptr), &right, lc, rc,
                  std::move(label));
  return DriveJoin(join, ctx, left.columns().size(), fn);
}

Status IndexJoin(const Relation& left, const Relation& right,
                 std::string_view left_col, std::string_view right_col,
                 const JoinConsumer& fn, exec::ExecContext* ctx) {
  int lc = left.ColumnIndex(left_col);
  if (lc < 0) return Status::NotFound("join column missing");
  RelIndex* idx = right.FindIndex(right_col);
  if (idx == nullptr) {
    return Status::FailedPrecondition("no index on right join column");
  }
  std::string label = left.name() + "." + std::string(left_col) + " -> " +
                      right.name() + "." + std::string(right_col) + " (index)";
  IndexJoinOp join(std::make_unique<RelScan>(&left, nullptr), &right, idx, lc,
                   std::move(label));
  return DriveJoin(join, ctx, left.columns().size(), fn);
}

}  // namespace rel
}  // namespace kimdb
