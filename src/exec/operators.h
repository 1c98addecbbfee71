#ifndef KIMDB_EXEC_OPERATORS_H_
#define KIMDB_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "index/index_manager.h"
#include "object/object_store.h"

namespace kimdb {
namespace exec {

// MatchFn (the query layer's predicate hook) lives in exec/operator.h next
// to the AcceptBatchResidual fusion hook it parameterizes.

/// Scans the extent of exactly one class, page by page, producing
/// materialized objects. Polls the budget at page granularity.
///
/// Under an armed snapshot (ExecContext::snapshot_active) every decoded
/// record is resolved against the store's MVCC version table: records
/// updated after the snapshot emit their visible version instead of the
/// heap image, records born after (or deleted before) it are skipped, and
/// an end-of-scan ghost pass emits visible versions whose heap record
/// moved or vanished mid-scan (deduplicated through the seen-OID set).
class ExtentScan : public Operator {
 public:
  ExtentScan(const ObjectStore* store, ClassId cls, std::string class_name)
      : store_(store), cls_(cls), name_(std::move(class_name)) {}

  Status OpenImpl(ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(ExecContext* ctx,
                               std::vector<Row>* out) override;
  void CloseImpl(ExecContext* ctx) override;
  std::string Describe() const override { return "ExtentScan(" + name_ + ")"; }
  bool AcceptBatchResidual(const MatchFn* pred) override {
    residual_ = pred;
    return true;
  }

 private:
  /// Refills buf_ with the visible objects of the next extent page or,
  /// once the pages run out under a snapshot, with the ghost pass. The
  /// buffer may come back empty (a page of invisible records); false
  /// means the scan is exhausted.
  Result<bool> FillBuffer(ExecContext* ctx);

  const ObjectStore* store_;
  ClassId cls_;
  std::string name_;
  const MatchFn* residual_ = nullptr;  // fused predicate
  std::vector<PageId> pages_;
  size_t page_idx_ = 0;
  size_t ra_pos_ = 0;  // first extent page not yet staged via ReadAhead
  std::vector<Object> buf_;  // decoded objects of the current page
  size_t buf_pos_ = 0;
  // Snapshot-mode state (unused when no snapshot is armed).
  std::unordered_set<Oid> seen_;  // OIDs already emitted from heap pages
  bool ghost_done_ = false;
};

/// Union of the extents of a class and its subclasses (the paper's
/// class-hierarchy scope, §3.2): children are scanned in catalog Subtree
/// order, preserving the serial engine's result order.
class HierarchyScan : public Operator {
 public:
  HierarchyScan(std::string root_name,
                std::vector<std::unique_ptr<ExtentScan>> extents)
      : root_name_(std::move(root_name)), extents_(std::move(extents)) {}

  Status OpenImpl(ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(ExecContext* ctx,
                               std::vector<Row>* out) override;
  void CloseImpl(ExecContext* ctx) override;
  std::string Describe() const override {
    return "HierarchyScan(" + root_name_ + ")";
  }
  bool AcceptBatchResidual(const MatchFn* pred) override;
  std::vector<const Operator*> children() const override;

 private:
  std::string root_name_;
  std::vector<std::unique_ptr<ExtentScan>> extents_;
  size_t cur_ = 0;
};

/// Produces the (deduplicated, sorted) candidate OIDs of one index lookup:
/// equality or range, over a single-class / class-hierarchy / nested index.
/// Candidates carry no object; a Filter above fetches when it must.
class IndexScan : public Operator {
 public:
  struct Spec {
    IndexId index_id = 0;
    std::vector<std::string> path;
    std::optional<Value> eq_key;
    std::optional<Value> lo, hi;
    bool lo_inclusive = true, hi_inclusive = true;
    ClassId scope_class = kInvalidClassId;
    bool hierarchy_scope = true;
  };

  IndexScan(const IndexManager* indexes, Spec spec)
      : indexes_(indexes), spec_(std::move(spec)) {}

  Status OpenImpl(ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(ExecContext* ctx,
                               std::vector<Row>* out) override;
  void CloseImpl(ExecContext* ctx) override;
  std::string Describe() const override;

  /// Renders the one-line EXPLAIN form of `spec` without an operator
  /// instance (QueryPlan::ToString shares the exact executed-tree shape).
  static std::string DescribeSpec(const Spec& spec);

 private:
  const IndexManager* indexes_;
  Spec spec_;
  std::vector<Oid> candidates_;
  size_t pos_ = 0;
};

/// Applies a residual predicate. A scan child that accepts
/// AcceptBatchResidual evaluates the predicate inside its own page buffer
/// (fusion -- NextBatch then just relays slabs). Otherwise rows a scan
/// already decoded are evaluated in place, and index candidates are
/// checked against the shared resident image without ever copying the
/// object into the row (late materialization). OIDs whose objects
/// vanished between index read and fetch are skipped.
class Filter : public Operator {
 public:
  Filter(std::unique_ptr<Operator> child, const ObjectStore* store,
         MatchFn pred, std::string pred_text)
      : child_(std::move(child)),
        store_(store),
        pred_(std::move(pred)),
        pred_text_(std::move(pred_text)) {}

  Status OpenImpl(ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(ExecContext* ctx,
                               std::vector<Row>* out) override;
  void CloseImpl(ExecContext* ctx) override;
  std::string Describe() const override {
    return "Filter(" + pred_text_ + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<Operator> child_;
  const ObjectStore* store_;
  MatchFn pred_;
  std::string pred_text_;
  std::vector<PageId> prefetch_;   // scratch: pages of unmaterialized rows
  // Stage candidate pages for the next batch? Armed only after a batch
  // missed the object cache: a warm query then never pays the per-row
  // directory lookups (there is nothing to hide them behind), while a cold
  // one pays synchronous misses for its first batch only.
  bool prefetch_armed_ = false;
  // Did the child accept pred_ for in-scan evaluation at Open? Batches
  // then arrive pre-filtered and NextBatchImpl just relays them.
  bool fused_ = false;
};

}  // namespace exec
}  // namespace kimdb

#endif  // KIMDB_EXEC_OPERATORS_H_
