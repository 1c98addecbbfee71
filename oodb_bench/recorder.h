// Per-client recording for the benchmark: exact latency samples per
// op type (percentiles come from these, not from the engine's log2
// histograms) and, in traced windows, spans around every public call.

#ifndef OODB_BENCH_RECORDER_H_
#define OODB_BENCH_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace oodb_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The op types whose latency the benchmark reports. kCommit is the
/// closing step of a transaction: Set+Commit of an update on the OO1
/// workloads, the read-only Commit on vehicle-query.
enum OpType { kGet, kTraverse, kQueryIndex, kQueryScan, kCommit, kOpTypes };
inline constexpr const char* kOpNames[kOpTypes] = {
    "get", "traverse", "query_index", "query_scan", "commit"};

struct Span {
  const char* name;
  uint64_t id, parent, request;
  int64_t start_ns, end_ns;
  uint32_t thread;
};

/// Owned by one client thread; merged by the main thread after join.
class Recorder {
 public:
  Recorder(uint32_t thread, size_t span_cap)
      : thread_(thread), span_cap_(span_cap) {}

  // --- op accounting (set by the client loop) ----------------------------

  /// `tracing` arms spans for the op in flight.
  bool tracing = false;
  uint64_t attempted[kOpTypes] = {};
  uint64_t failed[kOpTypes] = {};

  /// Latencies (ns) of ops that ran wholly inside the timed phase.
  std::vector<uint32_t> samples[kOpTypes];

  void AddSample(OpType t, int64_t ns) {
    samples[t].push_back(ns > 0xFFFFFFFFll ? 0xFFFFFFFFu
                                           : static_cast<uint32_t>(ns));
  }

  // --- spans ---------------------------------------------------------------

  /// Starts a new request: spans recorded until the next call share its id.
  void NewRequest() { request_ = (uint64_t{thread_} << 40) | ++request_seq_; }

  uint64_t Open(int64_t* start) {
    uint64_t id = (uint64_t{thread_} << 40) | ++span_seq_;
    stack_.push_back(id);
    *start = NowNs();
    return id;
  }
  void Close(const char* name, uint64_t id, int64_t start) {
    stack_.pop_back();
    Add(name, id, stack_.empty() ? 0 : stack_.back(), start, NowNs());
  }
  /// A leaf span with explicit endpoints (a wire request: from its write
  /// to the arrival of its response).
  void Leaf(const char* name, int64_t start, int64_t end) {
    uint64_t id = (uint64_t{thread_} << 40) | ++span_seq_;
    Add(name, id, stack_.empty() ? 0 : stack_.back(), start, end);
  }

  struct Agg {
    const char* name;
    uint64_t count = 0;
    int64_t sum_ns = 0;
  };
  const std::vector<Agg>& aggregates() const { return aggs_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t spans_dropped() const { return dropped_; }

 private:
  void Add(const char* name, uint64_t id, uint64_t parent, int64_t start,
           int64_t end) {
    Agg* agg = nullptr;
    for (Agg& a : aggs_) {
      if (a.name == name) agg = &a;
    }
    if (agg == nullptr) agg = &aggs_.emplace_back(Agg{name});
    ++agg->count;
    agg->sum_ns += end - start;
    if (spans_.size() < span_cap_) {
      spans_.push_back(Span{name, id, parent, request_, start, end, thread_});
    } else {
      ++dropped_;
    }
  }

  uint32_t thread_;
  size_t span_cap_;
  uint64_t request_ = 0, request_seq_ = 0, span_seq_ = 0, dropped_ = 0;
  std::vector<uint64_t> stack_;
  std::vector<Agg> aggs_;
  std::vector<Span> spans_;
};

/// RAII span around one public call; free when the recorder is not tracing.
class SpanScope {
 public:
  SpanScope(Recorder* r, const char* name)
      : r_(r->tracing ? r : nullptr), name_(name) {
    if (r_ != nullptr) id_ = r_->Open(&start_);
  }
  ~SpanScope() {
    if (r_ != nullptr) r_->Close(name_, id_, start_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Recorder* r_;
  const char* name_;
  uint64_t id_ = 0;
  int64_t start_ = 0;
};

}  // namespace oodb_bench

#endif  // OODB_BENCH_RECORDER_H_
