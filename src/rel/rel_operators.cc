#include "rel/rel_operators.h"

#include <algorithm>
#include <utility>

namespace kimdb {
namespace rel {

namespace {

// Hash-join build key: encode the value to bytes for map lookup.
std::string KeyBytes(const Value& v) {
  std::string s;
  v.EncodeTo(&s);
  return s;
}

void Concat(const Tuple& left, const Tuple& right, Tuple* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

}  // namespace

// --- RelScan ---------------------------------------------------------------

Status RelScan::OpenImpl(exec::ExecContext*) {
  KIMDB_ASSIGN_OR_RETURN(pages_, rel_->Pages());
  page_idx_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  return Status::OK();
}

Result<size_t> RelScan::NextBatchImpl(exec::ExecContext* ctx,
                                      std::vector<exec::Row>* out) {
  while (out->size() < exec::kBatchSize) {
    if (buf_pos_ < buf_.size()) {
      size_t take =
          std::min(exec::kBatchSize - out->size(), buf_.size() - buf_pos_);
      for (size_t i = 0; i < take; ++i) {
        out->emplace_back().tuple = std::move(buf_[buf_pos_++]);
      }
      continue;
    }
    if (page_idx_ >= pages_.size()) break;
    KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
    buf_.clear();
    buf_pos_ = 0;
    uint64_t scanned = 0;
    uint64_t evaluated = 0;
    KIMDB_RETURN_IF_ERROR(rel_->ForEachOnPage(
        pages_[page_idx_], [&](RecordId, const Tuple& t) {
          ++scanned;
          if (pred_ != nullptr && *pred_ != nullptr) {
            ++evaluated;
            if (!(*pred_)(t)) return Status::OK();
          }
          buf_.push_back(t);
          return Status::OK();
        }));
    ++page_idx_;
    ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
    ctx->predicates_evaluated.fetch_add(evaluated, std::memory_order_relaxed);
  }
  return out->size();
}

void RelScan::CloseImpl(exec::ExecContext*) {
  pages_.clear();
  buf_.clear();
  page_idx_ = 0;
  buf_pos_ = 0;
}

std::string RelScan::Describe() const {
  std::string s = "RelScan(" + rel_->name();
  if (pred_ != nullptr && *pred_ != nullptr) s += ", pred";
  return s + ")";
}

// --- RelIndexLookup --------------------------------------------------------

Status RelIndexLookup::OpenImpl(exec::ExecContext* ctx) {
  ctx->used_index.store(true, std::memory_order_relaxed);
  ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
  rids_ = index_->LookupEq(key_);
  ctx->index_candidates.fetch_add(rids_.size(), std::memory_order_relaxed);
  pos_ = 0;
  return Status::OK();
}

Result<size_t> RelIndexLookup::NextBatchImpl(exec::ExecContext* ctx,
                                             std::vector<exec::Row>* out) {
  if (pos_ >= rids_.size()) return 0;
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  size_t take = std::min(exec::kBatchSize, rids_.size() - pos_);
  for (size_t i = 0; i < take; ++i) {
    KIMDB_ASSIGN_OR_RETURN(out->emplace_back().tuple,
                           rel_->Get(rids_[pos_++]));
  }
  ctx->objects_fetched.fetch_add(take, std::memory_order_relaxed);
  return out->size();
}

void RelIndexLookup::CloseImpl(exec::ExecContext*) {
  rids_.clear();
  pos_ = 0;
}

// --- LeftInput ---------------------------------------------------------------

Status LeftInput::Open(exec::ExecContext* ctx) {
  batch_.clear();
  pos_ = 0;
  done_ = false;
  return op_->Open(ctx);
}

void LeftInput::Close(exec::ExecContext* ctx) {
  op_->Close(ctx);
  batch_.clear();
  pos_ = 0;
}

Result<bool> LeftInput::Next(exec::ExecContext* ctx, Tuple* t) {
  if (pos_ >= batch_.size()) {
    if (done_) return false;
    KIMDB_ASSIGN_OR_RETURN(size_t n, op_->NextBatch(ctx, &batch_));
    pos_ = 0;
    if (n == 0) {
      done_ = true;  // the stream has ended: never pull the child again
      return false;
    }
  }
  *t = std::move(batch_[pos_++].tuple);
  return true;
}

// --- NestedLoopJoinOp --------------------------------------------------------

Status NestedLoopJoinOp::OpenImpl(exec::ExecContext* ctx) {
  matches_.clear();
  match_pos_ = 0;
  return left_.Open(ctx);
}

Result<size_t> NestedLoopJoinOp::NextBatchImpl(exec::ExecContext* ctx,
                                               std::vector<exec::Row>* out) {
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  while (out->size() < exec::kBatchSize) {
    if (match_pos_ < matches_.size()) {
      Concat(left_row_, matches_[match_pos_++], &out->emplace_back().tuple);
      continue;
    }
    KIMDB_ASSIGN_OR_RETURN(bool more, left_.Next(ctx, &left_row_));
    if (!more) break;
    KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
    const Value& key = left_row_[static_cast<size_t>(left_col_)];
    // The whole point of the naive plan: re-scan the right table for every
    // left row, even when the key is null (faithful to the textbook loop).
    matches_.clear();
    match_pos_ = 0;
    uint64_t scanned = 0;
    KIMDB_RETURN_IF_ERROR(right_->ForEach([&](RecordId, const Tuple& rt) {
      ++scanned;
      if (!key.is_null() &&
          key.Compare(rt[static_cast<size_t>(right_col_)]) == 0) {
        matches_.push_back(rt);
      }
      return Status::OK();
    }));
    ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
  }
  return out->size();
}

void NestedLoopJoinOp::CloseImpl(exec::ExecContext* ctx) {
  left_.Close(ctx);
  matches_.clear();
  match_pos_ = 0;
}

// --- HashJoinOp --------------------------------------------------------------

Status HashJoinOp::OpenImpl(exec::ExecContext* ctx) {
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
  uint64_t scanned = 0;
  KIMDB_RETURN_IF_ERROR(right_->ForEach([&](RecordId, const Tuple& rt) {
    ++scanned;
    const Value& key = rt[static_cast<size_t>(right_col_)];
    if (!key.is_null()) table_[KeyBytes(key)].push_back(rt);
    return Status::OK();
  }));
  ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
  return left_.Open(ctx);
}

Result<size_t> HashJoinOp::NextBatchImpl(exec::ExecContext* ctx,
                                         std::vector<exec::Row>* out) {
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  while (out->size() < exec::kBatchSize) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      Concat(left_row_, (*matches_)[match_pos_++], &out->emplace_back().tuple);
      continue;
    }
    matches_ = nullptr;
    KIMDB_ASSIGN_OR_RETURN(bool more, left_.Next(ctx, &left_row_));
    if (!more) break;
    const Value& key = left_row_[static_cast<size_t>(left_col_)];
    if (key.is_null()) continue;
    auto it = table_.find(KeyBytes(key));
    if (it == table_.end()) continue;
    matches_ = &it->second;
    match_pos_ = 0;
  }
  return out->size();
}

void HashJoinOp::CloseImpl(exec::ExecContext* ctx) {
  left_.Close(ctx);
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
}

// --- IndexJoinOp -------------------------------------------------------------

Status IndexJoinOp::OpenImpl(exec::ExecContext* ctx) {
  ctx->used_index.store(true, std::memory_order_relaxed);
  rids_.clear();
  rid_pos_ = 0;
  return left_.Open(ctx);
}

Result<size_t> IndexJoinOp::NextBatchImpl(exec::ExecContext* ctx,
                                          std::vector<exec::Row>* out) {
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  while (out->size() < exec::kBatchSize) {
    if (rid_pos_ < rids_.size()) {
      KIMDB_ASSIGN_OR_RETURN(Tuple rt, right_->Get(rids_[rid_pos_++]));
      ctx->objects_fetched.fetch_add(1, std::memory_order_relaxed);
      Concat(left_row_, rt, &out->emplace_back().tuple);
      continue;
    }
    KIMDB_ASSIGN_OR_RETURN(bool more, left_.Next(ctx, &left_row_));
    if (!more) break;
    KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
    const Value& key = left_row_[static_cast<size_t>(left_col_)];
    rids_.clear();
    rid_pos_ = 0;
    if (key.is_null()) continue;
    ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
    rids_ = index_->LookupEq(key);
    ctx->index_candidates.fetch_add(rids_.size(), std::memory_order_relaxed);
  }
  return out->size();
}

void IndexJoinOp::CloseImpl(exec::ExecContext* ctx) {
  left_.Close(ctx);
  rids_.clear();
  rid_pos_ = 0;
}

}  // namespace rel
}  // namespace kimdb
