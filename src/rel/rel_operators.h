#ifndef KIMDB_REL_REL_OPERATORS_H_
#define KIMDB_REL_REL_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "rel/relation.h"

namespace kimdb {
namespace rel {

/// A predicate on a tuple.
using TuplePredicate = std::function<bool(const Tuple&)>;

/// Relational physical operators over the same exec substrate the object
/// engine runs on (same Operator interface, same ExecContext counters, same
/// budget polling), so E12 compares data models rather than executors.
/// Rows carry their payload in Row::tuple; join operators emit the
/// concatenation left ++ right, in left order and, per left row, in right
/// match order, polling the budget once per batch (and, where a left row
/// costs a right-table scan or index probe, once per left row).

/// Streams a table page by page, optionally filtering; polls the budget
/// once per page. Accounts each tuple
/// read on ExecContext::tuples_scanned (and predicate evaluations on
/// predicates_evaluated when a predicate is attached).
class RelScan : public exec::Operator {
 public:
  /// `pred` may be null for a full scan. The predicate is borrowed and
  /// must outlive the operator (query_ops drives trees synchronously).
  RelScan(const Relation* rel, const TuplePredicate* pred)
      : rel_(rel), pred_(pred) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override;

 private:
  const Relation* rel_;
  const TuplePredicate* pred_;
  std::vector<PageId> pages_;
  size_t page_idx_ = 0;
  std::vector<Tuple> buf_;
  size_t buf_pos_ = 0;
};

/// Produces the tuples matching one equality probe of a column index.
class RelIndexLookup : public exec::Operator {
 public:
  RelIndexLookup(const Relation* rel, const RelIndex* index, Value key,
                 std::string column_name)
      : rel_(rel),
        index_(index),
        key_(std::move(key)),
        column_name_(std::move(column_name)) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override {
    return "RelIndexLookup(" + rel_->name() + "." + column_name_ +
           " = " + key_.ToString() + ")";
  }

 private:
  const Relation* rel_;
  const RelIndex* index_;
  Value key_;
  std::string column_name_;
  std::vector<RecordId> rids_;
  size_t pos_ = 0;
};

/// A join's left input: pulled from its operator a batch at a time and
/// handed out one tuple at a time.
class LeftInput {
 public:
  explicit LeftInput(std::unique_ptr<exec::Operator> op) : op_(std::move(op)) {}

  Status Open(exec::ExecContext* ctx);
  void Close(exec::ExecContext* ctx);
  /// Moves the next left tuple into `*t`; false at end of input.
  Result<bool> Next(exec::ExecContext* ctx, Tuple* t);
  const exec::Operator* op() const { return op_.get(); }

 private:
  std::unique_ptr<exec::Operator> op_;
  std::vector<exec::Row> batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Canonical O(|L|*|R|) equality join: for every left row the right table
/// is re-scanned in full (the naive plan E12 measures against).
class NestedLoopJoinOp : public exec::Operator {
 public:
  NestedLoopJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
                 int left_col, int right_col, std::string label)
      : left_(std::move(left)),
        right_(right),
        left_col_(left_col),
        right_col_(right_col),
        label_(std::move(label)) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override {
    return "NestedLoopJoinOp(" + label_ + ")";
  }
  std::vector<const exec::Operator*> children() const override {
    return {left_.op()};
  }

 private:
  LeftInput left_;
  const Relation* right_;
  int left_col_;
  int right_col_;
  std::string label_;
  Tuple left_row_;
  std::vector<Tuple> matches_;  // right matches of the current left row
  size_t match_pos_ = 0;
};

/// Classic build/probe hash join: Open materializes the right (build)
/// side into a hash table, NextBatch streams the left (probe) side.
class HashJoinOp : public exec::Operator {
 public:
  HashJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
           int left_col, int right_col, std::string label)
      : left_(std::move(left)),
        right_(right),
        left_col_(left_col),
        right_col_(right_col),
        label_(std::move(label)) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override { return "HashJoinOp(" + label_ + ")"; }
  std::vector<const exec::Operator*> children() const override {
    return {left_.op()};
  }

 private:
  std::unordered_map<std::string, std::vector<Tuple>> table_;
  LeftInput left_;
  const Relation* right_;
  int left_col_;
  int right_col_;
  std::string label_;
  Tuple left_row_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Index nested-loop join: probes a pre-built index on the right column
/// once per left row.
class IndexJoinOp : public exec::Operator {
 public:
  IndexJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
            const RelIndex* index, int left_col, std::string label)
      : left_(std::move(left)),
        right_(right),
        index_(index),
        left_col_(left_col),
        label_(std::move(label)) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override { return "IndexJoinOp(" + label_ + ")"; }
  std::vector<const exec::Operator*> children() const override {
    return {left_.op()};
  }

 private:
  LeftInput left_;
  const Relation* right_;
  const RelIndex* index_;
  int left_col_;
  std::string label_;
  Tuple left_row_;
  std::vector<RecordId> rids_;
  size_t rid_pos_ = 0;
};

}  // namespace rel
}  // namespace kimdb

#endif  // KIMDB_REL_REL_OPERATORS_H_
