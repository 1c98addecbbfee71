#include "exec/operators.h"

#include <algorithm>

namespace kimdb {
namespace exec {

// --- ExtentScan -------------------------------------------------------------

Status ExtentScan::OpenImpl(ExecContext*) {
  residual_ = nullptr;  // a fusing parent re-offers its predicate after Open
  KIMDB_ASSIGN_OR_RETURN(pages_, store_->ExtentPages(cls_));
  page_idx_ = 0;
  ra_pos_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  seen_.clear();
  ghost_done_ = false;
  return Status::OK();
}

Result<bool> ExtentScan::FillBuffer(ExecContext* ctx) {
  const MvccTable* mvcc = store_->mvcc();
  const bool snap = ctx->snapshot_active() && mvcc != nullptr;
  const uint64_t read_ts = ctx->snapshot_ts();
  buf_.clear();
  buf_pos_ = 0;
  if (page_idx_ >= pages_.size()) {
    // Ghost pass: versions visible at the snapshot whose heap record was
    // deleted, or moved to a page this scan had already passed. The
    // seen-set keeps records the heap pass emitted from repeating.
    if (!snap || ghost_done_) return false;
    ghost_done_ = true;
    for (auto& [oid, image] : mvcc->CollectVisible(cls_, read_ts)) {
      if (seen_.count(oid) == 0) buf_.push_back(*image);
    }
    ctx->objects_scanned.fetch_add(buf_.size(), std::memory_order_relaxed);
    return true;
  }
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  if (page_idx_ >= ra_pos_) {
    // Stage the next window of extent pages before pinning them.
    BufferPool* bp = store_->buffer_pool();
    size_t ra_end = std::min(pages_.size(), page_idx_ + bp->readahead_window());
    bp->ReadAhead(std::span<const PageId>(pages_.data() + page_idx_,
                                          ra_end - page_idx_));
    ra_pos_ = ra_end;
  }
  size_t decoded = 0;
  KIMDB_RETURN_IF_ERROR(store_->ForEachInClassOnPage(
      cls_, pages_[page_idx_++], [&](Object& obj) {
        ++decoded;
        if (snap) {
          // Decode-then-resolve: the heap image is authoritative only
          // when no version chain exists; otherwise the chain decides
          // what (if anything) this snapshot sees.
          std::shared_ptr<const Object> image;
          switch (mvcc->Resolve(obj.oid(), read_ts, &image)) {
            case MvccLookup::kNoChain:
              break;
            case MvccLookup::kImage:
              obj = *image;
              break;
            case MvccLookup::kInvisible:
              return Status::OK();
          }
          // Also dedups a record decoded twice because it moved pages
          // mid-scan.
          if (!seen_.insert(obj.oid()).second) return Status::OK();
        }
        buf_.push_back(std::move(obj));
        return Status::OK();
      }));
  ctx->objects_scanned.fetch_add(decoded, std::memory_order_relaxed);
  return true;
}

Result<size_t> ExtentScan::NextBatchImpl(ExecContext* ctx,
                                         std::vector<Row>* out) {
  while (out->size() < kBatchSize) {
    if (buf_pos_ >= buf_.size()) {
      KIMDB_ASSIGN_OR_RETURN(bool more, FillBuffer(ctx));
      if (!more) break;
      continue;
    }
    // Bulk-move the rest of the decoded page buffer: one FillBuffer call
    // paid the page pin + MVCC resolution for all of these rows already.
    // A fused predicate runs here, against the buffer entry, so a
    // non-matching object is never moved into the batch at all.
    size_t take = std::min(kBatchSize - out->size(), buf_.size() - buf_pos_);
    for (size_t i = 0; i < take; ++i) {
      Object& obj = buf_[buf_pos_++];
      if (residual_ != nullptr) {
        KIMDB_ASSIGN_OR_RETURN(bool match, (*residual_)(obj, ctx));
        if (!match) continue;
        // Fused consumers read OIDs (late materialization): the match
        // stays in the page buffer instead of moving into the batch.
        out->emplace_back().oid = obj.oid();
        continue;
      }
      Row& row = out->emplace_back();
      row.oid = obj.oid();
      row.obj = std::move(obj);
    }
  }
  return out->size();
}

void ExtentScan::CloseImpl(ExecContext*) {
  pages_.clear();
  buf_.clear();
  seen_.clear();
}

// --- HierarchyScan ----------------------------------------------------------

Status HierarchyScan::OpenImpl(ExecContext* ctx) {
  cur_ = 0;
  for (auto& scan : extents_) {
    KIMDB_RETURN_IF_ERROR(scan->Open(ctx));
  }
  return Status::OK();
}

Result<size_t> HierarchyScan::NextBatchImpl(ExecContext* ctx,
                                            std::vector<Row>* out) {
  while (cur_ < extents_.size()) {
    KIMDB_ASSIGN_OR_RETURN(size_t n, extents_[cur_]->NextBatch(ctx, out));
    if (n > 0) return n;
    ++cur_;
  }
  return 0;
}

void HierarchyScan::CloseImpl(ExecContext* ctx) {
  for (auto& scan : extents_) scan->Close(ctx);
}

bool HierarchyScan::AcceptBatchResidual(const MatchFn* pred) {
  // Every child is an ExtentScan and accepts; fold defensively anyway --
  // a partially-fused hierarchy would still be correct (the Filter above
  // re-checks whatever reaches it when fusion is off) but never fast.
  bool all = true;
  for (auto& scan : extents_) all = scan->AcceptBatchResidual(pred) && all;
  return all;
}

std::vector<const Operator*> HierarchyScan::children() const {
  std::vector<const Operator*> out;
  out.reserve(extents_.size());
  for (const auto& scan : extents_) out.push_back(scan.get());
  return out;
}

// --- IndexScan --------------------------------------------------------------

Status IndexScan::OpenImpl(ExecContext* ctx) {
  candidates_.clear();
  pos_ = 0;
  KIMDB_ASSIGN_OR_RETURN(const IndexInfo* info,
                         indexes_->GetIndex(spec_.index_id));
  ctx->used_index.store(true, std::memory_order_relaxed);
  ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
  if (spec_.eq_key.has_value()) {
    KIMDB_RETURN_IF_ERROR(indexes_->LookupEq(*info, *spec_.eq_key,
                                             spec_.scope_class,
                                             spec_.hierarchy_scope,
                                             &candidates_));
  } else {
    KIMDB_RETURN_IF_ERROR(indexes_->LookupRange(
        *info, spec_.lo, spec_.lo_inclusive, spec_.hi, spec_.hi_inclusive,
        spec_.scope_class, spec_.hierarchy_scope, &candidates_));
  }
  // A nested index can report one object once per satisfying path.
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  ctx->index_candidates.fetch_add(candidates_.size(),
                                  std::memory_order_relaxed);
  return Status::OK();
}

Result<size_t> IndexScan::NextBatchImpl(ExecContext* ctx,
                                        std::vector<Row>* out) {
  if (pos_ >= candidates_.size()) return 0;
  // One budget poll covers the whole slice of the candidate vector.
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  size_t take = std::min(kBatchSize, candidates_.size() - pos_);
  for (size_t i = 0; i < take; ++i) {
    out->emplace_back().oid = candidates_[pos_++];
  }
  return out->size();
}

void IndexScan::CloseImpl(ExecContext*) { candidates_.clear(); }

std::string IndexScan::DescribeSpec(const Spec& spec) {
  std::string path;
  for (size_t i = 0; i < spec.path.size(); ++i) {
    if (i > 0) path += ".";
    path += spec.path[i];
  }
  std::string out = "IndexScan(path=" + path;
  if (spec.eq_key.has_value()) {
    out += ", key=" + spec.eq_key->ToString();
  } else {
    out += ", range=";
    out += spec.lo.has_value()
               ? (spec.lo_inclusive ? "[" : "(") + spec.lo->ToString()
               : "(-inf";
    out += ", ";
    out += spec.hi.has_value()
               ? spec.hi->ToString() + (spec.hi_inclusive ? "]" : ")")
               : "+inf)";
  }
  out += spec.hierarchy_scope ? ", scope=hierarchy" : ", scope=class";
  return out + ")";
}

std::string IndexScan::Describe() const { return DescribeSpec(spec_); }

// --- Filter -----------------------------------------------------------------

Status Filter::OpenImpl(ExecContext* ctx) {
  prefetch_armed_ = false;
  KIMDB_RETURN_IF_ERROR(child_->Open(ctx));
  // Fuse the predicate into a scan child: rows then arrive
  // pre-filtered and NextBatchImpl just relays slabs. Off under EXPLAIN
  // ANALYZE so per-operator row counts keep their unfused meaning (the
  // scan's span reports objects scanned, this one's rows that passed).
  fused_ = !ctx->analyze_enabled() && child_->AcceptBatchResidual(&pred_);
  return Status::OK();
}

Result<size_t> Filter::NextBatchImpl(ExecContext* ctx,
                                     std::vector<Row>* out) {
  if (fused_) {
    // The scan applied pred_ before a row ever left its page buffer. The
    // hop memo's batch scope is this relay call.
    ctx->ClearHopMemo();
    return child_->NextBatch(ctx, out);
  }
  while (true) {
    ctx->ClearHopMemo();
    // The child fills `out` directly and survivors compact toward the
    // front, so a matching row moves at most once -- and a batch where
    // everything matches not at all. Staging through a side buffer would
    // move every row twice, which dominates a warm scan (Row carries an
    // inline Object).
    KIMDB_ASSIGN_OR_RETURN(size_t n, child_->NextBatch(ctx, out));
    if (n == 0) return 0;
    // Residual-fetch prefetch: index candidates arrive as bare OIDs whose
    // heap pages the scan never touched. Stage every page of the batch
    // through one ReadAhead before the first point fetch, so the fetches
    // hit staged frames instead of paying a synchronous miss each. On a
    // warm object cache the fetches never reach a page at all, so staging
    // stays armed only while batches keep missing the cache.
    if (prefetch_armed_) {
      prefetch_.clear();
      for (const Row& row : *out) {
        if (row.obj.has_value()) continue;
        Result<RecordId> rid = store_->DirectoryLookup(row.oid);
        if (rid.ok()) prefetch_.push_back(rid->page_id);
      }
      if (prefetch_.size() > 1) {
        std::sort(prefetch_.begin(), prefetch_.end());
        prefetch_.erase(std::unique(prefetch_.begin(), prefetch_.end()),
                        prefetch_.end());
        store_->buffer_pool()->ReadAhead(prefetch_);
      }
    }
    const uint64_t misses_before =
        ctx->obj_cache_misses.load(std::memory_order_relaxed);
    size_t keep = 0;
    for (size_t i = 0; i < out->size(); ++i) {
      Row& row = (*out)[i];
      bool match = false;
      if (row.obj.has_value()) {
        KIMDB_ASSIGN_OR_RETURN(match, pred_(*row.obj, ctx));
      } else {
        // Late materialization: evaluate an index candidate against the
        // shared resident image -- no per-row Object copy; the row passes
        // downstream as a bare OID (see the Row contract in operator.h).
        ctx->objects_fetched.fetch_add(1, std::memory_order_relaxed);
        bool cache_hit = false;
        Result<std::shared_ptr<const Object>> shared =
            ctx->snapshot_active()
                ? store_->GetSharedSnapshot(row.oid, ctx->snapshot_ts(),
                                            &cache_hit)
                : store_->GetShared(row.oid, &cache_hit);
        (cache_hit ? ctx->obj_cache_hits : ctx->obj_cache_misses)
            .fetch_add(1, std::memory_order_relaxed);
        if (!shared.ok()) {
          // Deleted since the index probe: expected churn. Anything else
          // (I/O failure, corruption) must surface, not drop result rows.
          if (shared.status().IsNotFound()) continue;
          return shared.status();
        }
        KIMDB_ASSIGN_OR_RETURN(match, pred_(**shared, ctx));
      }
      if (!match) continue;
      if (keep != i) (*out)[keep] = std::move(row);
      ++keep;
    }
    prefetch_armed_ =
        ctx->obj_cache_misses.load(std::memory_order_relaxed) !=
        misses_before;
    if (keep > 0) {
      out->resize(keep);
      return keep;
    }
    // Whole batch filtered out: loop for the next one (the child's
    // NextBatch shell clears `out` again).
  }
}

void Filter::CloseImpl(ExecContext* ctx) {
  prefetch_.clear();
  child_->Close(ctx);
}

}  // namespace exec
}  // namespace kimdb
