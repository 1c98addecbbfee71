#include "query/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kimdb {

namespace {

const char* OpName(Expr::Op op) {
  switch (op) {
    case Expr::Op::kEq:
      return "=";
    case Expr::Op::kNe:
      return "!=";
    case Expr::Op::kLt:
      return "<";
    case Expr::Op::kLe:
      return "<=";
    case Expr::Op::kGt:
      return ">";
    case Expr::Op::kGe:
      return ">=";
    case Expr::Op::kContains:
      return "contains";
    case Expr::Op::kAnd:
      return "and";
    case Expr::Op::kOr:
      return "or";
    default:
      return "?";
  }
}

std::string JoinPath(const std::vector<std::string>& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ".";
    out += path[i];
  }
  return out;
}

}  // namespace

std::string Expr::ToString() const {
  switch (op) {
    case Op::kConst:
      return literal.ToString();
    case Op::kPath:
      return JoinPath(path);
    case Op::kMethod: {
      std::string out = method + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case Op::kNot:
      return "not (" + children[0]->ToString() + ")";
    default:
      return "(" + children[0]->ToString() + " " + OpName(op) + " " +
             children[1]->ToString() + ")";
  }
}

namespace {

/// Indents every line of `tree` by one level and appends it to `out`.
void AppendIndented(const std::string& tree, std::string* out) {
  size_t start = 0;
  while (start <= tree.size()) {
    size_t end = tree.find('\n', start);
    if (end == std::string::npos) end = tree.size();
    out->append("\n  ");
    out->append(tree, start, end - start);
    start = end + 1;
    if (end == tree.size()) break;
  }
}

}  // namespace

std::string QueryPlan::ToString() const {
  // Renders the same tree Lower() builds (operator Describe format plus
  // the same est_* annotations SetEstimates puts on the operators), so
  // EXPLAIN output is the executed pipeline shape.
  std::string root_ann, leaf_ann;
  if (cost_based) {
    char cbuf[48];
    std::snprintf(cbuf, sizeof(cbuf), " est_cost=%.1f)", est_cost);
    root_ann = " (est_rows=" + std::to_string(est_rows) + cbuf;
    leaf_ann = " (est_rows=" + std::to_string(est_input_rows) + ")";
  }
  std::string leaf;       // the access path's own line
  std::string leaf_kids;  // indented ExtentScan children (hierarchy only)
  if (index_scan) {
    exec::IndexScan::Spec spec;
    spec.index_id = index_id;
    spec.path = index_path;
    spec.eq_key = eq_key;
    spec.lo = lo;
    spec.hi = hi;
    spec.lo_inclusive = lo_inclusive;
    spec.hi_inclusive = hi_inclusive;
    spec.scope_class = target;
    spec.hierarchy_scope = hierarchy_scope;
    leaf = exec::IndexScan::DescribeSpec(spec);
  } else if (hierarchy_scope) {
    leaf = "HierarchyScan(" + target_name + ")";
    for (const std::string& name : scope_class_names) {
      leaf_kids += "\n  ExtentScan(" + name + ")";
    }
  } else {
    leaf = "ExtentScan(" + target_name + ")";
  }
  if (!residual) return leaf + root_ann + leaf_kids;
  std::string out = "Filter(" + residual->ToString() + ")" + root_ann;
  AppendIndented(leaf + leaf_ann + leaf_kids, &out);
  return out;
}

namespace {

// A conjunct of the form  path <cmp> const  (normalized so the path is on
// the left), usable for index selection.
struct Sargable {
  std::vector<std::string> path;
  Expr::Op op;
  Value key;
};

std::optional<Sargable> MatchSargable(const Expr& e) {
  auto flip = [](Expr::Op op) {
    switch (op) {
      case Expr::Op::kLt:
        return Expr::Op::kGt;
      case Expr::Op::kLe:
        return Expr::Op::kGe;
      case Expr::Op::kGt:
        return Expr::Op::kLt;
      case Expr::Op::kGe:
        return Expr::Op::kLe;
      default:
        return op;
    }
  };
  switch (e.op) {
    case Expr::Op::kEq:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
      break;
    default:
      return std::nullopt;
  }
  const Expr& a = *e.children[0];
  const Expr& b = *e.children[1];
  if (a.op == Expr::Op::kPath && b.op == Expr::Op::kConst) {
    return Sargable{a.path, e.op, b.literal};
  }
  if (a.op == Expr::Op::kConst && b.op == Expr::Op::kPath) {
    return Sargable{b.path, flip(e.op), a.literal};
  }
  return std::nullopt;
}

void FlattenConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->op == Expr::Op::kAnd) {
    FlattenConjuncts(e->children[0], out);
    FlattenConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc ? Expr::And(acc, c) : c;
  }
  return acc;
}

// --- cost model ------------------------------------------------------------
// Abstract units: reading one heap page costs kPageCost, decoding a row and
// evaluating a residual conjunct on it costs kRowCost, descending one B-tree
// level costs kProbeCost, point-fetching a candidate object costs kFetchCost
// when it misses the resident-object cache and kCachedFetchCost when it
// hits, and emitting a covered candidate (no fetch, no residual) costs
// kEmitCost. The ratios, not the absolute numbers, drive plan choice.
constexpr double kPageCost = 8.0;
constexpr double kRowCost = 1.0;
constexpr double kProbeCost = 2.0;
constexpr double kFetchCost = 6.0;
constexpr double kCachedFetchCost = 1.0;
constexpr double kEmitCost = 0.1;
// Fallback selectivities when no histogram covers a conjunct.
constexpr double kDefaultEqSelectivity = 0.1;
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultResidualSelectivity = 0.5;
constexpr double kDefaultRowsPerPage = 16.0;

}  // namespace

Result<QueryPlan> QueryEngine::Plan(const Query& q) const {
  const Catalog& cat = *store_->catalog();
  KIMDB_ASSIGN_OR_RETURN(const ClassDef* target_def, cat.GetClass(q.target));
  QueryPlan plan;
  plan.target = q.target;
  plan.hierarchy_scope = q.hierarchy_scope;
  plan.target_name = target_def->name;
  if (q.hierarchy_scope) {
    for (ClassId c : cat.Subtree(q.target)) {
      Result<const ClassDef*> def = cat.GetClass(c);
      plan.scope_class_names.push_back(def.ok() ? (*def)->name
                                                : std::to_string(c));
    }
  } else {
    plan.scope_class_names.push_back(target_def->name);
  }
  plan.residual = q.predicate;

  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(q.predicate, &conjuncts);

  // Every sargable conjunct with a usable index is a candidate access path;
  // the sequential scan is always the (plans_considered-th) last candidate.
  struct Candidate {
    Sargable s;
    const IndexInfo* idx;
  };
  std::vector<Candidate> candidates;
  for (const ExprPtr& c : conjuncts) {
    auto s = MatchSargable(*c);
    if (!s) continue;
    const IndexInfo* idx =
        indexes_ == nullptr
            ? nullptr
            : indexes_->FindIndexFor(q.target, s->path, q.hierarchy_scope);
    if (idx == nullptr) continue;
    candidates.push_back(Candidate{*s, idx});
  }
  plan.plans_considered = static_cast<uint32_t>(1 + candidates.size());

  // Cost-based pricing needs fresh statistics for the target class (the
  // `analyze <class>` verb installs them; enough mutation drift retires
  // them, see ClassStats::Fresh). Without them the rule-based fallback
  // below decides.
  std::optional<ClassStats> tstats =
      stats_ == nullptr ? std::nullopt : stats_->Get(q.target);
  const bool have_stats = tstats.has_value() && tstats->Fresh();
  if (stale_stats_hook_ && tstats.has_value() && tstats->analyzed &&
      !tstats->Fresh()) {
    // Drift just retired this class's snapshot: hand it to the background
    // re-analyzer so a later plan prices cost-based again.
    stale_stats_hook_(q.target);
  }

  const IndexInfo* chosen = nullptr;
  std::vector<std::string> chosen_path;

  if (have_stats) {
    // Exact scope cardinality off the directory's per-class live counters.
    std::vector<ClassId> scope_ids = q.hierarchy_scope
                                         ? cat.Subtree(q.target)
                                         : std::vector<ClassId>{q.target};
    uint64_t scope_rows = 0;
    for (ClassId c : scope_ids) scope_rows += store_->LiveCount(c);

    // Estimated heap pages in scope: analyze-time page counts scaled by
    // the live-count ratio (HeapFile::Pages() would do I/O at plan time).
    double est_pages = 0.0;
    for (ClassId c : scope_ids) {
      uint64_t rows_c = store_->LiveCount(c);
      if (rows_c == 0) continue;
      std::optional<ClassStats> cs =
          c == q.target ? tstats : stats_->Get(c);
      if (cs.has_value() && cs->analyzed && cs->extent_pages > 0 &&
          cs->live_objects > 0) {
        est_pages += static_cast<double>(cs->extent_pages) *
                     static_cast<double>(rows_c) /
                     static_cast<double>(cs->live_objects);
      } else {
        est_pages += std::max(
            1.0, static_cast<double>(rows_c) / kDefaultRowsPerPage);
      }
    }

    // Point-fetch discount: candidates resident in the object cache skip
    // the heap entirely, so the fetch leg of an index plan shrinks with
    // the measured hit rate (clamped -- a cold cache still pays full).
    ObjectCacheStats oc = store_->object_cache().stats();
    double hit_rate =
        oc.hits + oc.misses > 0
            ? static_cast<double>(oc.hits) /
                  static_cast<double>(oc.hits + oc.misses)
            : 0.5;
    hit_rate = std::clamp(hit_rate, 0.0, 0.95);
    const double fetch_cost =
        hit_rate * kCachedFetchCost + (1.0 - hit_rate) * kFetchCost;

    // Selectivity of one sargable conjunct: histogram when the analyzed
    // class carries one for the path, else 1/keys for equality on an
    // indexed path, else the textbook defaults.
    auto selectivity = [&](const Sargable& s,
                           const IndexInfo* idx) -> double {
      const std::string key = JoinPath(s.path);
      const ClassStats* src = nullptr;
      std::optional<ClassStats> other;
      if (idx != nullptr && idx->target_class != q.target) {
        other = stats_->Get(idx->target_class);
        if (other.has_value() && other->Fresh()) src = &*other;
      } else {
        src = &*tstats;
      }
      if (src != nullptr) {
        auto hit = src->path_hists.find(key);
        if (hit != src->path_hists.end() && !hit->second.empty()) {
          const EquiDepthHistogram& h = hit->second;
          switch (s.op) {
            case Expr::Op::kEq:
              return h.SelectivityEq(s.key);
            case Expr::Op::kLt:
              return h.SelectivityRange(std::nullopt, true, s.key, false);
            case Expr::Op::kLe:
              return h.SelectivityRange(std::nullopt, true, s.key, true);
            case Expr::Op::kGt:
              return h.SelectivityRange(s.key, false, std::nullopt, true);
            case Expr::Op::kGe:
              return h.SelectivityRange(s.key, true, std::nullopt, true);
            default:
              break;
          }
        }
      }
      if (s.op == Expr::Op::kEq) {
        if (idx != nullptr) {
          IndexManager::TreeStats t = indexes_->StatsFor(idx->id);
          if (t.keys > 0) {
            return std::min(1.0, 1.0 / static_cast<double>(t.keys));
          }
        }
        return kDefaultEqSelectivity;
      }
      return kDefaultRangeSelectivity;
    };

    // Overall predicate selectivity -> estimated result cardinality.
    double pred_sel = 1.0;
    double deref_steps = 0.0;  // path hops a scan pays per scoped object
    for (const ExprPtr& c : conjuncts) {
      auto s = MatchSargable(*c);
      if (s.has_value()) {
        const IndexInfo* idx = nullptr;
        for (const Candidate& cand : candidates) {
          if (cand.s.path == s->path && cand.s.op == s->op) {
            idx = cand.idx;
            break;
          }
        }
        pred_sel *= selectivity(*s, idx);
        if (s->path.size() > 1) deref_steps += s->path.size() - 1;
      } else {
        pred_sel *= kDefaultResidualSelectivity;
      }
    }
    pred_sel = std::clamp(pred_sel, 0.0, 1.0);

    // Price the sequential scan: every scope page + every scoped row, plus
    // the dereference fetches multi-segment predicate paths cost per row.
    const double scan_cost = est_pages * kPageCost +
                             static_cast<double>(scope_rows) *
                                 (kRowCost + deref_steps * fetch_cost);

    // Price each index candidate: a root-to-leaf probe plus the per-match
    // cost -- a covered equality emits OIDs, anything else point-fetches
    // the candidate and re-checks the residual.
    double best_cost = scan_cost;
    double best_matches = static_cast<double>(scope_rows);
    const Candidate* winner = nullptr;
    for (const Candidate& cand : candidates) {
      double sel = selectivity(cand.s, cand.idx);
      double est_matches = sel * static_cast<double>(scope_rows);
      IndexManager::TreeStats t = indexes_->StatsFor(cand.idx->id);
      bool covered = cand.s.op == Expr::Op::kEq && conjuncts.size() == 1;
      double per_match = covered ? kEmitCost : fetch_cost + kRowCost;
      double cost = kProbeCost * std::max(1, t.height) +
                    est_matches * per_match;
      if (cost < best_cost) {
        best_cost = cost;
        best_matches = est_matches;
        winner = &cand;
      }
    }

    plan.cost_based = true;
    plan.est_cost = best_cost;
    plan.est_rows = static_cast<uint64_t>(
        std::llround(pred_sel * static_cast<double>(scope_rows)));
    plan.est_input_rows = static_cast<uint64_t>(std::llround(best_matches));
    if (winner == nullptr) return plan;  // sequential scan priced cheapest
    chosen = winner->idx;
    chosen_path = winner->s.path;
  } else {
    // Rule-based fallback: first sargable conjunct with a usable index,
    // preferring equality matches over ranges.
    bool chosen_is_eq = false;
    for (const Candidate& cand : candidates) {
      bool is_eq = cand.s.op == Expr::Op::kEq;
      if (chosen == nullptr || (is_eq && !chosen_is_eq)) {
        chosen = cand.idx;
        chosen_path = cand.s.path;
        chosen_is_eq = is_eq;
      }
    }
  }
  if (chosen == nullptr) return plan;

  // Consume every conjunct on the chosen path; merge ranges.
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    auto s = MatchSargable(*c);
    if (!s || s->path != chosen_path) {
      residual.push_back(c);
      continue;
    }
    switch (s->op) {
      case Expr::Op::kEq:
        if (plan.eq_key.has_value() &&
            plan.eq_key->Compare(s->key) != 0) {
          // Contradictory equalities: keep as residual (yields empty).
          residual.push_back(c);
        } else {
          plan.eq_key = s->key;
        }
        break;
      case Expr::Op::kLt:
      case Expr::Op::kLe: {
        bool incl = s->op == Expr::Op::kLe;
        if (!plan.hi.has_value() || s->key.Compare(*plan.hi) < 0 ||
            (s->key.Compare(*plan.hi) == 0 && !incl)) {
          plan.hi = s->key;
          plan.hi_inclusive = incl;
        }
        break;
      }
      case Expr::Op::kGt:
      case Expr::Op::kGe: {
        bool incl = s->op == Expr::Op::kGe;
        if (!plan.lo.has_value() || s->key.Compare(*plan.lo) > 0 ||
            (s->key.Compare(*plan.lo) == 0 && !incl)) {
          plan.lo = s->key;
          plan.lo_inclusive = incl;
        }
        break;
      }
      default:
        residual.push_back(c);
    }
  }
  // NOTE on multi-valued paths: index consumption of *multiple* conjuncts
  // on one set-valued path can widen results (each conjunct is existential
  // over possibly different elements); re-checking them as residual keeps
  // the result exact, so range conjuncts stay in the residual when the
  // bounds came from more than one conjunct. For simplicity and safety we
  // always re-check consumed range conjuncts.
  for (const ExprPtr& c : conjuncts) {
    auto s = MatchSargable(*c);
    if (s && s->path == chosen_path && s->op != Expr::Op::kEq) {
      residual.push_back(c);
    }
  }
  // Deduplicate: conjuncts may have been added twice above.
  std::sort(residual.begin(), residual.end());
  residual.erase(std::unique(residual.begin(), residual.end()),
                 residual.end());

  plan.index_scan = true;
  plan.index_id = chosen->id;
  plan.index_path = chosen_path;
  plan.residual = AndAll(residual);
  return plan;
}

QueryStats StatsFromExecContext(const exec::ExecContext& ctx) {
  QueryStats s;
  s.objects_scanned = ctx.objects_scanned.load(std::memory_order_relaxed);
  s.index_candidates = ctx.index_candidates.load(std::memory_order_relaxed);
  s.predicates_evaluated =
      ctx.predicates_evaluated.load(std::memory_order_relaxed);
  s.ref_fetches = ctx.ref_fetches.load(std::memory_order_relaxed);
  s.obj_cache_hits = ctx.obj_cache_hits.load(std::memory_order_relaxed);
  s.obj_cache_misses = ctx.obj_cache_misses.load(std::memory_order_relaxed);
  s.used_index = ctx.used_index.load(std::memory_order_relaxed);
  return s;
}

exec::MatchFn QueryEngine::MatchFnFor(ExprPtr pred) const {
  if (!pred) return nullptr;
  return [this, pred = std::move(pred)](
             const Object& obj, exec::ExecContext* ctx) -> Result<bool> {
    // Matches accumulates into a local QueryStats, flushed to the
    // context's atomics afterwards. Visibility comes off the evaluating
    // context: snapshot queries must also hop path expressions at their
    // read timestamp, through the context's batch-scoped hop memo.
    ReadView view{ctx->snapshot_active(), ctx->snapshot_ts(), ctx};
    QueryStats local;
    Result<bool> match = Matches(obj, pred, &local, view);
    ctx->predicates_evaluated.fetch_add(local.predicates_evaluated,
                                        std::memory_order_relaxed);
    ctx->ref_fetches.fetch_add(local.ref_fetches, std::memory_order_relaxed);
    ctx->obj_cache_hits.fetch_add(local.obj_cache_hits,
                                  std::memory_order_relaxed);
    ctx->obj_cache_misses.fetch_add(local.obj_cache_misses,
                                    std::memory_order_relaxed);
    return match;
  };
}

Result<std::unique_ptr<exec::Operator>> QueryEngine::Lower(
    const Query& q, const QueryPlan& plan,
    const exec::ExecContext* ctx) const {
  bool use_index = plan.index_scan;
  if (use_index && ctx != nullptr && ctx->snapshot_active() &&
      store_->mvcc() != nullptr) {
    // Indexes reflect write-time state: an entry committed after the
    // snapshot (or removed since) would make an index plan see the wrong
    // world. While any scope class may carry version chains, run the
    // version-resolving scan instead; once the chains are pruned index
    // plans come back for free.
    const Catalog& cat = *store_->catalog();
    std::vector<ClassId> scope = q.hierarchy_scope
                                     ? cat.Subtree(q.target)
                                     : std::vector<ClassId>{q.target};
    for (ClassId c : scope) {
      if (store_->mvcc()->MayHaveVersions(c)) {
        use_index = false;
        break;
      }
    }
  }
  // Planner estimates surface in EXPLAIN only when the cost model priced
  // this exact shape: a snapshot-forced scan fallback executes a different
  // tree than the one costed, so it carries no annotations.
  const bool annotate = plan.cost_based && use_index == plan.index_scan;
  if (use_index) {
    exec::IndexScan::Spec spec;
    spec.index_id = plan.index_id;
    spec.path = plan.index_path;
    spec.eq_key = plan.eq_key;
    spec.lo = plan.lo;
    spec.hi = plan.hi;
    spec.lo_inclusive = plan.lo_inclusive;
    spec.hi_inclusive = plan.hi_inclusive;
    spec.scope_class = q.target;
    spec.hierarchy_scope = q.hierarchy_scope;
    std::unique_ptr<exec::Operator> scan =
        std::make_unique<exec::IndexScan>(indexes_, std::move(spec));
    if (!plan.residual) {  // covered query: no fetch, no filter
      if (annotate) scan->SetEstimates(plan.est_rows, plan.est_cost);
      return scan;
    }
    if (annotate) scan->SetEstimates(plan.est_input_rows);
    std::unique_ptr<exec::Operator> filter = std::make_unique<exec::Filter>(
        std::move(scan), store_, MatchFnFor(plan.residual),
        plan.residual->ToString());
    if (annotate) filter->SetEstimates(plan.est_rows, plan.est_cost);
    return filter;
  }

  const Catalog& cat = *store_->catalog();
  auto name_of = [&](ClassId c) -> std::string {
    Result<const ClassDef*> def = cat.GetClass(c);
    return def.ok() ? (*def)->name : std::to_string(c);
  };
  std::vector<ClassId> scope = q.hierarchy_scope
                                   ? cat.Subtree(q.target)
                                   : std::vector<ClassId>{q.target};
  std::unique_ptr<exec::Operator> scan;
  if (q.hierarchy_scope) {
    std::vector<std::unique_ptr<exec::ExtentScan>> extents;
    extents.reserve(scope.size());
    for (ClassId c : scope) {
      extents.push_back(
          std::make_unique<exec::ExtentScan>(store_, c, name_of(c)));
    }
    scan = std::make_unique<exec::HierarchyScan>(name_of(q.target),
                                                 std::move(extents));
  } else {
    scan = std::make_unique<exec::ExtentScan>(store_, q.target,
                                              name_of(q.target));
  }
  if (!q.predicate) {
    if (annotate) scan->SetEstimates(plan.est_rows, plan.est_cost);
    return scan;
  }
  if (annotate) scan->SetEstimates(plan.est_input_rows);
  std::unique_ptr<exec::Operator> filter = std::make_unique<exec::Filter>(
      std::move(scan), store_, MatchFnFor(q.predicate),
      q.predicate->ToString());
  if (annotate) filter->SetEstimates(plan.est_rows, plan.est_cost);
  return filter;
}

namespace {

/// Publishes what the planner decided onto the context's optimizer
/// counters (flushed into the obs registry by Database::FlushQueryMetrics).
void RecordPlanOutcome(const QueryPlan& plan, exec::ExecContext* ctx) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ctx->plans_considered.fetch_add(plan.plans_considered, kRelaxed);
  if (plan.index_scan) ctx->index_plans_chosen.fetch_add(1, kRelaxed);
  if (plan.cost_based) {
    ctx->cost_based_plans.fetch_add(1, kRelaxed);
    ctx->plan_est_rows.store(plan.est_rows, kRelaxed);
    ctx->plan_has_estimate.store(true, kRelaxed);
  }
}

}  // namespace

Result<std::vector<Oid>> QueryEngine::Execute(const Query& q,
                                              QueryStats* stats) const {
  exec::ExecContext ctx(store_->buffer_pool());
  KIMDB_ASSIGN_OR_RETURN(std::vector<Oid> result, Execute(q, &ctx));
  if (stats != nullptr) *stats = StatsFromExecContext(ctx);
  return result;
}

Result<std::vector<Oid>> QueryEngine::Execute(const Query& q,
                                              exec::ExecContext* ctx) const {
  // Pin a snapshot for the duration of the query (when the store runs
  // under a TxnManager): the whole plan -- scans, point fetches, path
  // hops -- reads one transaction-consistent state with zero lock-manager
  // traffic, however fast writers commit meanwhile. A caller that already
  // armed the context (e.g. reading at a checkout's pinned timestamp)
  // keeps its own pin.
  Snapshot snap;
  bool armed_here = false;
  if (!ctx->snapshot_active() && store_->mvcc() != nullptr) {
    snap = store_->mvcc()->AcquireSnapshot();
    ctx->set_snapshot(snap.read_ts());
    armed_here = true;
  }
  KIMDB_ASSIGN_OR_RETURN(QueryPlan plan, Plan(q));
  RecordPlanOutcome(plan, ctx);
  Result<std::unique_ptr<exec::Operator>> root =
      Lower(q, plan, ctx);
  Result<std::vector<Oid>> result =
      root.ok() ? exec::CollectOids(**root, ctx) : root.status();
  if (result.ok()) {
    ctx->result_rows.store(result->size(), std::memory_order_relaxed);
  }
  // Disarm before the pin dies so a reused context cannot read through a
  // retired timestamp.
  if (armed_here) ctx->clear_snapshot();
  return result;
}

Result<std::string> QueryEngine::Explain(const Query& q) const {
  KIMDB_ASSIGN_OR_RETURN(QueryPlan plan, Plan(q));
  KIMDB_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> root, Lower(q, plan));
  return exec::ExplainTree(*root);
}

Result<std::string> QueryEngine::ExplainAnalyze(const Query& q,
                                                exec::ExecContext* ctx) const {
  ctx->EnableAnalyze();
  // Same snapshot discipline as Execute: the analyzed run reads the same
  // consistent state a real execution would.
  Snapshot snap;
  bool armed_here = false;
  if (!ctx->snapshot_active() && store_->mvcc() != nullptr) {
    snap = store_->mvcc()->AcquireSnapshot();
    ctx->set_snapshot(snap.read_ts());
    armed_here = true;
  }
  KIMDB_ASSIGN_OR_RETURN(QueryPlan plan, Plan(q));
  RecordPlanOutcome(plan, ctx);
  Result<std::unique_ptr<exec::Operator>> root =
      Lower(q, plan, ctx);
  Result<std::vector<Oid>> rows =
      root.ok() ? exec::CollectOids(**root, ctx) : root.status();
  if (rows.ok()) {
    ctx->result_rows.store(rows->size(), std::memory_order_relaxed);
  }
  if (armed_here) ctx->clear_snapshot();
  KIMDB_RETURN_IF_ERROR(rows.status());
  std::string out = exec::ExplainAnalyzeTree(**root);
  out += "\nResult: " + std::to_string(rows->size()) + " rows";
  return out;
}

Result<std::string> QueryEngine::ExplainAnalyze(const Query& q) const {
  exec::ExecContext ctx(store_->buffer_pool());
  return ExplainAnalyze(q, &ctx);
}

Result<bool> QueryEngine::Matches(const Object& obj, const ExprPtr& pred,
                                  QueryStats* stats) const {
  return Matches(obj, pred, stats, ReadView{});
}

Result<bool> QueryEngine::Matches(const Object& obj, const ExprPtr& pred,
                                  QueryStats* stats,
                                  const ReadView& view) const {
  if (!pred) return true;
  QueryStats local;
  if (stats == nullptr) stats = &local;
  ++stats->predicates_evaluated;
  return EvalBool(obj, *pred, stats, view);
}

Status QueryEngine::EvalPath(const Object& obj,
                             const std::vector<std::string>& path,
                             std::vector<Value>* out, QueryStats* stats,
                             const ReadView& view) const {
  const Catalog& cat = *store_->catalog();
  // The frontier borrows the root and owns fetched children: copying the
  // root object here would charge every scanned object one deep copy per
  // predicate evaluation, which dominates extent-scan queries. Children
  // come from GetShared, so a cache hit costs a refcount bump, not a
  // deep copy per hop.
  std::vector<std::shared_ptr<const Object>> owned;
  std::vector<const Object*> frontier{&obj};
  for (size_t step = 0; step < path.size(); ++step) {
    bool last = step + 1 == path.size();
    std::vector<std::shared_ptr<const Object>> next;
    for (const Object* cur_p : frontier) {
      const Object& cur = *cur_p;
      Result<const AttributeDef*> attr =
          cat.ResolveAttr(cur.class_id(), path[step]);
      if (!attr.ok()) continue;  // attribute absent on this class: no value
      const Value& v = cur.Get((*attr)->id);
      if (v.is_null()) continue;
      if (last) {
        if (v.is_collection()) {
          for (const Value& e : v.elements()) {
            if (!e.is_null()) out->push_back(e);
          }
        } else {
          out->push_back(v);
        }
        continue;
      }
      // Intermediate step: dereference (fan out over set values). Under a
      // snapshot the hop lands on the version visible at read_ts, so a
      // path expression never mixes two points in time.
      auto deref = [&](const Value& ref) {
        if (ref.kind() != Value::Kind::kRef || ref.as_ref().is_nil()) return;
        ++stats->ref_fetches;
        // Batch mode: a slab of rows usually hops to few distinct targets
        // (many Vehicles, one Company), so the batch-scoped memo answers
        // repeats without another shared-cache lookup.
        if (view.hop_memo != nullptr) {
          if (const auto* memo = view.hop_memo->LookupHop(ref.as_ref())) {
            ++stats->obj_cache_hits;
            next.push_back(*memo);
            return;
          }
        }
        bool cache_hit = false;
        Result<std::shared_ptr<const Object>> child =
            view.snapshot ? store_->GetSharedSnapshot(ref.as_ref(),
                                                      view.read_ts, &cache_hit)
                          : store_->GetShared(ref.as_ref(), &cache_hit);
        if (cache_hit) {
          ++stats->obj_cache_hits;
        } else {
          ++stats->obj_cache_misses;
        }
        if (child.ok()) {
          if (view.hop_memo != nullptr) {
            view.hop_memo->MemoizeHop(ref.as_ref(), *child);
          }
          next.push_back(std::move(*child));
        }
      };
      if (v.is_collection()) {
        for (const Value& e : v.elements()) deref(e);
      } else {
        deref(v);
      }
    }
    if (last) break;
    owned = std::move(next);
    frontier.clear();
    frontier.reserve(owned.size());
    for (const auto& o : owned) frontier.push_back(o.get());
  }
  return Status::OK();
}

bool QueryEngine::CompareExists(Expr::Op op, const Value& lhs,
                                const Value& rhs) {
  auto expand = [](const Value& v) -> std::vector<Value> {
    if (v.is_collection()) return v.elements();
    return {v};
  };
  auto satisfies = [op](const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return false;
    int c = a.Compare(b);
    switch (op) {
      case Expr::Op::kEq:
        return c == 0;
      case Expr::Op::kNe:
        return c != 0;
      case Expr::Op::kLt:
        return c < 0;
      case Expr::Op::kLe:
        return c <= 0;
      case Expr::Op::kGt:
        return c > 0;
      case Expr::Op::kGe:
        return c >= 0;
      default:
        return false;
    }
  };
  for (const Value& a : expand(lhs)) {
    for (const Value& b : expand(rhs)) {
      if (satisfies(a, b)) return true;
    }
  }
  return false;
}

Result<Value> QueryEngine::Eval(const Object& obj, const Expr& e,
                                QueryStats* stats) const {
  return Eval(obj, e, stats, ReadView{});
}

Result<Value> QueryEngine::Eval(const Object& obj, const Expr& e,
                                QueryStats* stats,
                                const ReadView& view) const {
  QueryStats local;
  if (stats == nullptr) stats = &local;
  switch (e.op) {
    case Expr::Op::kConst:
      return e.literal;
    case Expr::Op::kPath: {
      std::vector<Value> vals;
      KIMDB_RETURN_IF_ERROR(EvalPath(obj, e.path, &vals, stats, view));
      if (vals.size() == 1) return vals[0];
      return Value::Set(std::move(vals));
    }
    case Expr::Op::kMethod: {
      if (methods_ == nullptr) {
        return Status::FailedPrecondition("no method registry attached");
      }
      std::vector<Value> args;
      for (const ExprPtr& c : e.children) {
        KIMDB_ASSIGN_OR_RETURN(Value v, Eval(obj, *c, stats, view));
        args.push_back(std::move(v));
      }
      MethodContext ctx{&obj, env_};
      return methods_->Invoke(*store_->catalog(), ctx, e.method, args);
    }
    default: {
      KIMDB_ASSIGN_OR_RETURN(bool b, EvalBool(obj, e, stats, view));
      return Value::Bool(b);
    }
  }
}

Result<bool> QueryEngine::EvalBool(const Object& obj, const Expr& e,
                                   QueryStats* stats,
                                   const ReadView& view) const {
  switch (e.op) {
    case Expr::Op::kAnd: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      if (!a) return false;
      return EvalBool(obj, *e.children[1], stats, view);
    }
    case Expr::Op::kOr: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      if (a) return true;
      return EvalBool(obj, *e.children[1], stats, view);
    }
    case Expr::Op::kNot: {
      KIMDB_ASSIGN_OR_RETURN(bool a,
                             EvalBool(obj, *e.children[0], stats, view));
      return !a;
    }
    case Expr::Op::kEq:
    case Expr::Op::kNe:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe:
    case Expr::Op::kContains: {
      KIMDB_ASSIGN_OR_RETURN(Value lhs,
                             Eval(obj, *e.children[0], stats, view));
      KIMDB_ASSIGN_OR_RETURN(Value rhs,
                             Eval(obj, *e.children[1], stats, view));
      if (e.op == Expr::Op::kContains) {
        return CompareExists(Expr::Op::kEq, lhs, rhs);
      }
      return CompareExists(e.op, lhs, rhs);
    }
    case Expr::Op::kConst:
      return !e.literal.is_null() &&
             e.literal.kind() == Value::Kind::kBool && e.literal.as_bool();
    case Expr::Op::kPath:
    case Expr::Op::kMethod: {
      KIMDB_ASSIGN_OR_RETURN(Value v, Eval(obj, e, stats, view));
      if (v.kind() == Value::Kind::kBool) return v.as_bool();
      if (v.is_collection()) return !v.elements().empty();
      return !v.is_null();
    }
  }
  return Status::Internal("unreachable expression op");
}

}  // namespace kimdb
