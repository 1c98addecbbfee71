// oodb_bench: the end-to-end benchmark program.
//
//   oodb_bench --workload <oo1-in-process|oo1-served|vehicle-query>
//              --seed <n> --seconds <s> --trace <0|1> --dir <db dir>
//              [--spans <file>]
//
// Each run generates its inputs from the seed (gen.h), sets the database
// up several times (setup_s is the median), warms up, then drives a closed
// loop of clients for --seconds, every op type interleaved in one loop.
// Every result is checked against the generator's in-memory copy; the OO1
// workloads finally close and reopen the database and check that every
// part holds the last X its owner saw acknowledged.
//
// Output: one `{"detail": ...}` line (host facts, sizes, per-op counts,
// every metric) and, last, the result line
// `{"correct","attempted","failed","metrics"}`. --trace 1 alternates
// traced and untraced half-second windows and reports the per-layer
// metrics; --trace 0 reports the end-to-end ones.
//
// The benchmark calls only public entry points: the Database facade (and the
// subsystem accessors it hands out for index creation and statistics),
// net::Client against an in-process net::Server, and the metrics registry.
// Database and server options stay at their defaults.

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "gen.h"
#include "net/client.h"
#include "net/server.h"
#include "recorder.h"

namespace oodb_bench {
namespace {

using kimdb::AttrId;
using kimdb::ClassId;
using kimdb::Database;
using kimdb::DatabaseOptions;
using kimdb::Domain;
using kimdb::Object;
using kimdb::Oid;
using kimdb::Result;
using kimdb::Status;
using kimdb::Value;

// ---------------------------------------------------------------------------
// Workload sizes
// ---------------------------------------------------------------------------

// OO1: a heap larger than the default 1024-page buffer pool (1501 pages)
// and several times the 4 MiB object cache, so gets and traversals miss
// both.
constexpr size_t kParts = 120000;
constexpr int kTraverseDepth = 7;
// One closed-loop client per workload: more client threads than CPUs
// measure the scheduler, and with concurrent writers every PartId lookup
// ran as a full extent scan (see the README).
constexpr int kOo1Clients = 1;
// Figure 1: small enough that the heap fits the buffer pool and the
// decoded objects fit the object cache.
constexpr size_t kCompanies = 200;
constexpr size_t kVehicles = 8000;
constexpr double kDetroitFraction = 0.25;
constexpr int kVehicleClients = 1;
constexpr const char* kDetroitQuery =
    "select Vehicle where Manufacturer.Location = 'Detroit'";

// setup_s is the median of the run's set-ups: the one the clients use
// plus set-ups that are only timed and torn down. OO1 runs those after
// the timed phase; the vehicle set-up is short enough to run them on both
// sides of it.
constexpr int kOo1SetupsAfter = 3;
constexpr int kVehicleSetupsBefore = 8, kVehicleSetupsAfter = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr int64_t kTraceWindowNs = 500'000'000;
constexpr size_t kSpanCapPerClient = 50000;
constexpr size_t kLoadBatch = 2000;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "oodb_bench: %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "oodb_bench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Exact percentile (nearest rank) of nanosecond samples, in microseconds.
double PercentileUs(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank] / 1000.0;
}

std::string FsType(const std::string& dir) {
  struct statfs sfs {};
  if (statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

double LoadAvg1() {
  double l[1] = {0};
  return getloadavg(l, 1) == 1 ? l[0] : -1;
}

/// Puts `dir` on a tmpfs that only this process sees: a private mount
/// namespace, so the mount vanishes with the process and nothing outside
/// `dir` is touched. WAL flushes then cost what the kernel charges, not
/// what a shared disk does on a given second. Returns false where the
/// process may not create mount namespaces; the run then stays on
/// `dir`'s own filesystem, which the host facts record.
bool MountPrivateTmpfs(const std::string& dir) {
  if (unshare(CLONE_NEWNS) != 0) return false;
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
               "size=256m,mode=0700") == 0;
}

/// Pins the process to its last allowed CPU before any thread starts, so
/// every thread (client, server I/O thread and workers, the engine's
/// background threads) inherits the one CPU. On a virtual machine, waking
/// a thread on another, idle CPU costs an inter-processor interrupt whose
/// latency follows the host's load: a served GET's p25 read 59-64 us
/// spread over the CPUs against 21-24 us on one, and in process the
/// numbers did not change. Returns the CPU, or -1 if it cannot pin.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

void RemoveDbFiles(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path + ".db", ec);
  std::filesystem::remove(path + ".wal", ec);
}

AttrId Attr(Database* db, const char* cls, const char* name) {
  ClassId c = Must(db->FindClass(cls), "FindClass");
  return Must(db->catalog().ResolveAttr(c, name), "ResolveAttr")->id;
}

// ---------------------------------------------------------------------------
// Run control shared by the main thread and the clients
// ---------------------------------------------------------------------------

struct Control {
  enum Phase { kWarmup, kTimed, kStop };
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> tracing{false};
};

/// Per-client op counts of the timed phase, split by trace window.
struct OpCounts {
  uint64_t ops[2] = {0, 0};  // [untraced, traced]
  // Whole-op wall time and count per op type, [untraced, traced].
  int64_t op_ns[2][kOpTypes] = {};
  uint64_t op_n[2][kOpTypes] = {};
  uint64_t update_commits = 0;
  uint64_t index_queries = 0, index_rows = 0, index_used = 0;
  uint64_t scan_queries = 0, scan_rows = 0;
};

/// A client thread's per-op bookkeeping: samples of an op are kept only
/// when the op both started and ended inside the timed phase.
class OpScope {
 public:
  OpScope(Recorder* r, const Control& ctl)
      : r_(r), ctl_(ctl),
        timed_(ctl.phase.load(std::memory_order_acquire) == Control::kTimed) {
    traced_ = timed_ && ctl.tracing.load(std::memory_order_acquire);
    r_->tracing = traced_;
    r_->NewRequest();
    start_ = NowNs();
  }
  void Sample(OpType t, int64_t ns) { pending_.push_back({t, ns}); }
  /// Ends the op; returns true when it counts toward the timed phase.
  bool End(OpType counted_as, bool ok, OpCounts* counts) {
    ++r_->attempted[counted_as];
    if (!ok) ++r_->failed[counted_as];
    r_->tracing = false;
    bool keep =
        timed_ && ctl_.phase.load(std::memory_order_acquire) == Control::kTimed;
    if (!keep) return false;
    for (auto& [t, ns] : pending_) r_->AddSample(t, ns);
    const int w = traced_ ? 1 : 0;
    ++counts->ops[w];
    counts->op_ns[w][counted_as] += NowNs() - start_;
    ++counts->op_n[w][counted_as];
    return true;
  }

 private:
  Recorder* r_;
  const Control& ctl_;
  bool timed_;
  bool traced_ = false;
  int64_t start_ = 0;
  std::vector<std::pair<OpType, int64_t>> pending_;
};

/// Runs `run_one` over `cycle` until the stop phase. The cycle is
/// reshuffled on every pass, so a client never falls into a fixed order of
/// heavy and light ops.
template <typename Kind, typename Fn>
void RunCycles(std::vector<Kind>* cycle, Rng* rng, const Control& ctl,
               Fn run_one) {
  while (true) {
    for (size_t i = cycle->size(); i > 1; --i) {
      std::swap((*cycle)[i - 1], (*cycle)[rng->Uniform(i)]);
    }
    for (Kind k : *cycle) {
      if (ctl.phase.load(std::memory_order_acquire) == Control::kStop) return;
      run_one(k);
    }
  }
}

// ---------------------------------------------------------------------------
// OO1: shared set-up and oracle
// ---------------------------------------------------------------------------

struct Oo1Db {
  std::string path;
  Oo1Graph graph;
  std::unique_ptr<Database> db;
  std::unique_ptr<kimdb::net::Server> server;
  std::vector<Oid> oids;                          // by part index
  std::unordered_map<uint64_t, uint32_t> index_of;  // raw OID -> part
  std::vector<uint32_t> by_y;                     // part indexes sorted by Y
  AttrId a_part_id = 0, a_x = 0, a_y = 0, a_conns = 0;
};

std::unique_ptr<Database> OpenDb(const std::string& path) {
  DatabaseOptions opts;
  opts.path = path;
  return Must(Database::Open(opts), "Database::Open");
}

std::unique_ptr<Oo1Db> SetupOo1(const std::string& path, uint64_t seed,
                                bool served) {
  auto s = std::make_unique<Oo1Db>();
  s->path = path;
  RemoveDbFiles(path);
  s->graph = Oo1Graph::Generate(kParts, seed);
  s->db = OpenDb(path);
  Database* db = s->db.get();
  ClassId part = Must(
      db->CreateClass("Part", {},
                      {{"PartId", Domain::Int()},
                       {"X", Domain::Int()},
                       {"Y", Domain::Int()},
                       {"Connections",
                        Domain::SetOf(Domain::Ref(kimdb::kRootClassId))}}),
      "CreateClass Part");
  // Connections point forward, so parts are inserted first with
  // placeholder references of the same encoded size, then wired in place.
  // (Growing each record instead relocates it to a fresh page: that
  // load leaves ~2 parts per heap page.)
  const Value placeholder = Value::List(std::vector<Value>(
      3, Value::Ref(Oid(uint64_t{part} << 40))));
  s->oids.reserve(kParts);
  for (size_t lo = 0; lo < kParts; lo += kLoadBatch) {
    uint64_t txn = Must(db->Begin(), "Begin");
    for (size_t i = lo; i < std::min(kParts, lo + kLoadBatch); ++i) {
      s->oids.push_back(Must(
          db->Insert(txn, "Part",
                     {{"PartId", Value::Int(static_cast<int64_t>(i))},
                      {"X", Value::Int(s->graph.x[i])},
                      {"Y", Value::Int(s->graph.y[i])},
                      {"Connections", placeholder}}),
          "Insert Part"));
    }
    Must(db->Commit(txn), "Commit load");
  }
  for (size_t lo = 0; lo < kParts; lo += kLoadBatch) {
    uint64_t txn = Must(db->Begin(), "Begin");
    for (size_t i = lo; i < std::min(kParts, lo + kLoadBatch); ++i) {
      std::vector<Value> refs;
      for (uint32_t t : s->graph.connections[i]) {
        refs.push_back(Value::Ref(s->oids[t]));
      }
      Must(db->Set(txn, s->oids[i], "Connections", Value::List(refs)),
           "Set Connections");
    }
    Must(db->Commit(txn), "Commit connections");
  }
  Must(db->indexes().CreateIndex(kimdb::IndexKind::kClassHierarchy, part,
                                 {"PartId"}),
       "CreateIndex PartId");
  Must(db->AnalyzeClass("Part"), "analyze Part");
  for (size_t i = 0; i < kParts; ++i) {
    s->index_of.emplace(s->oids[i].raw(), static_cast<uint32_t>(i));
  }
  s->by_y.resize(kParts);
  for (size_t i = 0; i < kParts; ++i) s->by_y[i] = static_cast<uint32_t>(i);
  std::sort(s->by_y.begin(), s->by_y.end(), [&](uint32_t a, uint32_t b) {
    return s->graph.y[a] < s->graph.y[b];
  });
  s->a_part_id = Attr(db, "Part", "PartId");
  s->a_x = Attr(db, "Part", "X");
  s->a_y = Attr(db, "Part", "Y");
  s->a_conns = Attr(db, "Part", "Connections");
  if (served) {
    s->server = Must(kimdb::net::Server::Start(db, kimdb::net::ServerOptions{}),
                     "Server::Start");
  }
  return s;
}

void TeardownOo1(std::unique_ptr<Oo1Db> s) {
  if (s->server) s->server->Stop();
  s->server.reset();
  Must(s->db->Close(), "Close");
  s->db.reset();
  RemoveDbFiles(s->path);
}

/// Access path of one OO1 client: in-process facade calls or wire requests.
/// Both read the latest committed version outside any transaction, as the
/// server's GET does, so the two workloads do the same work per op.
class Oo1Backend {
 public:
  virtual ~Oo1Backend() = default;
  /// Reads `oids` in order (one pipelined batch when served).
  virtual bool Fetch(const std::vector<Oid>& oids, std::vector<Object>* out,
                     Recorder* r) = 0;
  virtual bool Query(const std::string& oql, std::vector<Oid>* out,
                     bool* used_index, Recorder* r) = 0;
  /// Sets X and commits; `*write_ns` times the Set+Commit step.
  virtual bool Update(Oid oid, int64_t x, int64_t* write_ns, Recorder* r) = 0;
};

class InProcessBackend : public Oo1Backend {
 public:
  explicit InProcessBackend(Database* db) : db_(db) {}

  bool Fetch(const std::vector<Oid>& oids, std::vector<Object>* out,
             Recorder* r) override {
    out->clear();
    for (Oid oid : oids) {
      SpanScope s(r, "core.get");
      Result<Object> obj = db_->store().Get(oid);
      if (!obj.ok()) return false;
      out->push_back(std::move(*obj));
    }
    return true;
  }
  bool Query(const std::string& oql, std::vector<Oid>* out, bool* used_index,
             Recorder* r) override {
    SpanScope s(r, "core.query");
    kimdb::QueryStats stats;
    Result<std::vector<Oid>> res = db_->ExecuteOql(oql, &stats);
    if (!res.ok()) return false;
    *out = std::move(*res);
    *used_index = stats.used_index;
    return true;
  }
  bool Update(Oid oid, int64_t x, int64_t* write_ns, Recorder* r) override {
    uint64_t txn;
    {
      SpanScope s(r, "core.begin");
      Result<uint64_t> t = db_->Begin();
      if (!t.ok()) return false;
      txn = *t;
    }
    int64_t t0 = NowNs();
    Status st;
    {
      SpanScope s(r, "core.set");
      st = db_->Set(txn, oid, "X", Value::Int(x));
    }
    if (!st.ok()) {
      (void)db_->Abort(txn);
      return false;
    }
    {
      SpanScope s(r, "core.commit");
      st = db_->Commit(txn);
    }
    *write_ns = NowNs() - t0;
    return st.ok();
  }

 private:
  Database* db_;
};

class ServedBackend : public Oo1Backend {
 public:
  explicit ServedBackend(std::unique_ptr<kimdb::net::Client> c)
      : client_(std::move(c)) {}

  bool Fetch(const std::vector<Oid>& oids, std::vector<Object>* out,
             Recorder* r) override {
    std::vector<kimdb::net::Request> reqs(oids.size());
    for (size_t i = 0; i < oids.size(); ++i) {
      reqs[i].type = kimdb::net::MsgType::kGet;
      reqs[i].oid = oids[i].raw();
    }
    std::vector<kimdb::net::Response> resps;
    if (!Send(reqs, &resps, nullptr, r)) return false;
    out->clear();
    for (const auto& resp : resps) {
      Result<Object> obj = Object::Decode(resp.object_bytes);
      if (!obj.ok()) return false;
      out->push_back(std::move(*obj));
    }
    return true;
  }
  bool Query(const std::string& oql, std::vector<Oid>* out, bool* used_index,
             Recorder* r) override {
    std::vector<kimdb::net::Request> reqs(1);
    reqs[0].type = kimdb::net::MsgType::kQuery;
    reqs[0].text = oql;
    std::vector<kimdb::net::Response> resps;
    if (!Send(reqs, &resps, nullptr, r)) return false;
    out->clear();
    for (uint64_t raw : resps[0].oids) out->push_back(Oid(raw));
    *used_index = false;  // not visible over the wire; see index_probes
    return true;
  }
  bool Update(Oid oid, int64_t x, int64_t* write_ns, Recorder* r) override {
    std::vector<kimdb::net::Request> begin(1);
    begin[0].type = kimdb::net::MsgType::kTxnBegin;
    std::vector<kimdb::net::Response> resps;
    if (!Send(begin, &resps, nullptr, r)) return false;
    uint64_t txn = resps[0].u64;
    std::vector<kimdb::net::Request> reqs(2);
    reqs[0].type = kimdb::net::MsgType::kTxnSet;
    reqs[0].txn = txn;
    reqs[0].oid = oid.raw();
    reqs[0].text = "X";
    reqs[0].value = Value::Int(x);
    reqs[1].type = kimdb::net::MsgType::kTxnCommit;
    reqs[1].txn = txn;
    return Send(reqs, &resps, write_ns, r);
  }

 private:
  /// Writes every request in one batch, then reads the responses. Fails on
  /// any non-OK status. `*total_ns` (optional) is the whole batch's time.
  /// Only a lone GET or TXN_BEGIN gets a "net.request" span: inside a
  /// pipelined batch a request's time is mostly its wait behind the
  /// requests ahead of it.
  bool Send(const std::vector<kimdb::net::Request>& reqs,
            std::vector<kimdb::net::Response>* out, int64_t* total_ns,
            Recorder* r) {
    buf_.clear();
    for (const auto& req : reqs) kimdb::net::EncodeRequest(req, &buf_);
    const bool timed = reqs.size() == 1 &&
                       (reqs[0].type == kimdb::net::MsgType::kGet ||
                        reqs[0].type == kimdb::net::MsgType::kTxnBegin);
    int64_t t0 = NowNs();
    if (!client_->SendRaw(buf_).ok()) return false;
    out->clear();
    bool ok = true;
    for (size_t i = 0; i < reqs.size(); ++i) {
      Result<kimdb::net::Response> resp = client_->ReceiveResponse();
      if (!resp.ok()) return false;
      if (timed && r->tracing) r->Leaf("net.request", t0, NowNs());
      if (resp->status != kimdb::StatusCode::kOk ||
          resp->type != reqs[i].type) {
        ok = false;
      }
      out->push_back(std::move(*resp));
    }
    if (total_ns != nullptr) *total_ns = NowNs() - t0;
    return ok;
  }

  std::unique_ptr<kimdb::net::Client> client_;
  std::string buf_;
};

/// One OO1 client: a fixed, seed-shuffled cycle of op kinds, and the
/// oracle checks for each.
class Oo1Client {
 public:
  enum Kind { kGetOp, kLookupOp, kTraverseOp, kUpdateOp, kScanOp };

  Oo1Client(const Oo1Db& s, std::unique_ptr<Oo1Backend> backend, int idx,
            uint64_t seed)
      : s_(s), be_(std::move(backend)), rng_(seed * 1000003 + idx + 1),
        rec_(static_cast<uint32_t>(idx + 1), kSpanCapPerClient) {
    lo_ = kParts * idx / kOo1Clients;
    hi_ = kParts * (idx + 1) / kOo1Clients;
    last_x_.assign(s.graph.x.begin() + lo_, s.graph.x.begin() + hi_);
    // One cycle: 40 gets, 10 lookups, 20 updates, 1 traversal, 1 scan.
    for (int i = 0; i < 40; ++i) cycle_.push_back(kGetOp);
    for (int i = 0; i < 10; ++i) cycle_.push_back(kLookupOp);
    for (int i = 0; i < 20; ++i) cycle_.push_back(kUpdateOp);
    cycle_.push_back(kTraverseOp);
    cycle_.push_back(kScanOp);
  }

  void Run(const Control& ctl) {
    RunCycles(&cycle_, &rng_, ctl, [&](Kind k) { RunOne(k, ctl); });
  }

  Recorder& recorder() { return rec_; }
  OpCounts& counts() { return counts_; }
  size_t lo() const { return lo_; }
  const std::vector<int64_t>& last_x() const { return last_x_; }

 private:
  /// Checks a fetched part against the graph: identity, immutable fields
  /// and, for parts this client owns, the last X it saw acknowledged.
  bool CheckPart(const Object& obj, uint32_t i) const {
    if (obj.Get(s_.a_part_id) != Value::Int(i)) return false;
    if (obj.Get(s_.a_y) != Value::Int(s_.graph.y[i])) return false;
    const Value& conns = obj.Get(s_.a_conns);
    if (!conns.is_collection() || conns.elements().size() != 3) return false;
    for (size_t c = 0; c < 3; ++c) {
      if (conns.elements()[c] !=
          Value::Ref(s_.oids[s_.graph.connections[i][c]])) {
        return false;
      }
    }
    if (i >= lo_ && i < hi_ && obj.Get(s_.a_x) != Value::Int(last_x_[i - lo_]))
      return false;
    return true;
  }

  void RunOne(Kind kind, const Control& ctl) {
    OpScope op(&rec_, ctl);
    int64_t t0 = NowNs();
    switch (kind) {
      case kGetOp: {
        uint32_t i = static_cast<uint32_t>(rng_.Uniform(kParts));
        bool ok;
        {
          SpanScope s(&rec_, "op.get");
          ok = be_->Fetch({s_.oids[i]}, &objs_, &rec_);
        }
        ok = ok && objs_.size() == 1 && CheckPart(objs_[0], i);
        op.Sample(kGet, NowNs() - t0);
        op.End(kGet, ok, &counts_);
        break;
      }
      case kLookupOp: {
        uint32_t k = static_cast<uint32_t>(rng_.Uniform(kParts));
        bool used = false, ok;
        {
          SpanScope s(&rec_, "op.query_index");
          ok = be_->Query("select Part where PartId = " + std::to_string(k),
                          &result_, &used, &rec_);
        }
        ok = ok && result_.size() == 1 && result_[0] == s_.oids[k];
        op.Sample(kQueryIndex, NowNs() - t0);
        if (op.End(kQueryIndex, ok, &counts_)) {
          ++counts_.index_queries;
          counts_.index_rows += result_.size();
          counts_.index_used += used ? 1 : 0;
        }
        break;
      }
      case kScanOp: {
        int64_t bound = 500 + static_cast<int64_t>(rng_.Uniform(1000));
        bool used = false, ok;
        {
          SpanScope s(&rec_, "op.query_scan");
          ok = be_->Query("select Part where Y < " + std::to_string(bound),
                          &result_, &used, &rec_);
        }
        ok = ok && CheckScan(bound);
        op.Sample(kQueryScan, NowNs() - t0);
        if (op.End(kQueryScan, ok, &counts_)) {
          ++counts_.scan_queries;
          counts_.scan_rows += result_.size();
        }
        break;
      }
      case kTraverseOp: {
        uint32_t root = static_cast<uint32_t>(rng_.Uniform(kParts));
        uint64_t want_visits, want_sum;
        s_.graph.Traverse(root, kTraverseDepth, &want_visits, &want_sum);
        t0 = NowNs();
        uint64_t visits = 0, sum = 0;
        bool ok;
        {
          SpanScope s(&rec_, "op.traverse");
          ok = true;
          level_.assign(1, s_.oids[root]);
          for (int d = 0; ok && d <= kTraverseDepth; ++d) {
            ok = be_->Fetch(level_, &objs_, &rec_);
            next_.clear();
            for (size_t j = 0; ok && j < objs_.size(); ++j) {
              auto it = s_.index_of.find(level_[j].raw());
              ok = it != s_.index_of.end() &&
                   objs_[j].Get(s_.a_part_id) == Value::Int(it->second);
              if (!ok) break;
              ++visits;
              sum += it->second;
              if (d == kTraverseDepth) continue;
              for (const Value& ref : objs_[j].Get(s_.a_conns).elements()) {
                next_.push_back(ref.as_ref());
              }
            }
            level_.swap(next_);
          }
        }
        ok = ok && visits == want_visits && sum == want_sum;
        op.Sample(kTraverse, NowNs() - t0);
        op.End(kTraverse, ok, &counts_);
        break;
      }
      case kUpdateOp: {
        size_t i = lo_ + rng_.Uniform(hi_ - lo_);
        int64_t x = static_cast<int64_t>(rng_.Uniform(100000));
        int64_t write_ns = 0;
        bool ok;
        {
          SpanScope s(&rec_, "op.update");
          ok = be_->Update(s_.oids[i], x, &write_ns, &rec_);
        }
        if (ok) last_x_[i - lo_] = x;
        op.Sample(kCommit, write_ns);
        if (op.End(kCommit, ok, &counts_)) ++counts_.update_commits;
        break;
      }
    }
  }

  /// The scan returns exactly the parts with Y < bound.
  bool CheckScan(int64_t bound) {
    auto end = std::partition_point(
        s_.by_y.begin(), s_.by_y.end(),
        [&](uint32_t i) { return s_.graph.y[i] < bound; });
    size_t want = static_cast<size_t>(end - s_.by_y.begin());
    if (result_.size() != want) return false;
    for (Oid oid : result_) {
      auto it = s_.index_of.find(oid.raw());
      if (it == s_.index_of.end() || s_.graph.y[it->second] >= bound)
        return false;
    }
    std::sort(result_.begin(), result_.end());
    return std::adjacent_find(result_.begin(), result_.end()) == result_.end();
  }

  const Oo1Db& s_;
  std::unique_ptr<Oo1Backend> be_;
  Rng rng_;
  Recorder rec_;
  OpCounts counts_;
  size_t lo_ = 0, hi_ = 0;
  std::vector<int64_t> last_x_;
  std::vector<Kind> cycle_;
  std::vector<Object> objs_;
  std::vector<Oid> result_, level_, next_;
};

// ---------------------------------------------------------------------------
// Figure 1: vehicles
// ---------------------------------------------------------------------------

struct VehicleDb {
  std::string path;
  VehicleSet data;
  std::unique_ptr<Database> db;
  std::vector<Oid> companies, vehicles;
  std::unordered_map<uint64_t, uint32_t> vehicle_of;  // raw OID -> vehicle
  std::vector<uint32_t> weight_count;                 // vehicles per Weight
  size_t detroit_count = 0;
  AttrId a_name = 0, a_location = 0, a_weight = 0, a_manufacturer = 0,
         a_payload = 0;
};

std::unique_ptr<VehicleDb> SetupVehicles(const std::string& path,
                                         uint64_t seed) {
  auto s = std::make_unique<VehicleDb>();
  s->path = path;
  RemoveDbFiles(path);
  s->data = VehicleSet::Generate(kCompanies, kVehicles, kDetroitFraction, seed);
  s->db = OpenDb(path);
  Database* db = s->db.get();
  ClassId company =
      Must(db->CreateClass("Company", {},
                           {{"Name", Domain::String()},
                            {"Location", Domain::String()}}),
           "CreateClass Company");
  Must(db->CreateClass("AutoCompany", {"Company"}, {}), "CreateClass");
  Must(db->CreateClass("TruckCompany", {"Company"}, {}), "CreateClass");
  Must(db->CreateClass("JapaneseAutoCompany", {"AutoCompany"}, {}),
       "CreateClass");
  ClassId vehicle = Must(
      db->CreateClass("Vehicle", {},
                      {{"Weight", Domain::Int()},
                       {"Manufacturer", Domain::Ref(company)}}),
      "CreateClass Vehicle");
  Must(db->CreateClass("Automobile", {"Vehicle"}, {}), "CreateClass");
  Must(db->CreateClass("DomesticAutomobile", {"Automobile"}, {}),
       "CreateClass");
  Must(db->CreateClass("Truck", {"Vehicle"}, {{"Payload", Domain::Int()}}),
       "CreateClass Truck");

  uint64_t txn = Must(db->Begin(), "Begin");
  for (size_t i = 0; i < kCompanies; ++i) {
    s->companies.push_back(Must(
        db->Insert(txn, VehicleSet::kCompanyClasses[i % 4],
                   {{"Name", Value::Str(VehicleSet::CompanyName(i))},
                    {"Location", Value::Str(s->data.company_location[i])}}),
        "Insert Company"));
  }
  Must(db->Commit(txn), "Commit companies");
  for (size_t lo = 0; lo < kVehicles; lo += kLoadBatch) {
    txn = Must(db->Begin(), "Begin");
    for (size_t i = lo; i < std::min(kVehicles, lo + kLoadBatch); ++i) {
      std::vector<std::pair<std::string, Value>> attrs = {
          {"Weight", Value::Int(s->data.weight[i])},
          {"Manufacturer",
           Value::Ref(s->companies[s->data.manufacturer[i]])}};
      if (s->data.payload[i] >= 0) {
        attrs.emplace_back("Payload", Value::Int(s->data.payload[i]));
      }
      s->vehicles.push_back(Must(
          db->Insert(txn, VehicleSet::kVehicleClasses[i % 4], attrs),
          "Insert Vehicle"));
    }
    Must(db->Commit(txn), "Commit vehicles");
  }
  Must(db->indexes().CreateIndex(kimdb::IndexKind::kClassHierarchy, vehicle,
                                 {"Weight"}),
       "CreateIndex Weight");
  Must(db->AnalyzeClass("Company"), "analyze Company");
  Must(db->AnalyzeClass("Vehicle"), "analyze Vehicle");
  for (size_t i = 0; i < kVehicles; ++i) {
    s->vehicle_of.emplace(s->vehicles[i].raw(), static_cast<uint32_t>(i));
  }
  s->weight_count.assign(10000, 0);
  for (int64_t w : s->data.weight) ++s->weight_count[static_cast<size_t>(w)];
  for (size_t i = 0; i < kVehicles; ++i) {
    s->detroit_count += s->data.InDetroit(i) ? 1 : 0;
  }
  s->a_name = Attr(db, "Company", "Name");
  s->a_location = Attr(db, "Company", "Location");
  s->a_weight = Attr(db, "Vehicle", "Weight");
  s->a_manufacturer = Attr(db, "Vehicle", "Manufacturer");
  s->a_payload = Attr(db, "Truck", "Payload");
  return s;
}

void TeardownVehicles(std::unique_ptr<VehicleDb> s) {
  Must(s->db->Close(), "Close");
  s->db.reset();
  RemoveDbFiles(s->path);
}

/// One read-only vehicle client: gets and Vehicle->Manufacturer traversals
/// in snapshot transactions, the §3.2 nested-predicate hierarchy query
/// (no usable index: a scan), and a selective Weight equality query the
/// cost model sends to the class-hierarchy index.
class VehicleClient {
 public:
  enum Kind { kGetOp, kTraverseOp, kIndexOp, kScanOp };

  VehicleClient(const VehicleDb& s, int idx, uint64_t seed)
      : s_(s), rng_(seed * 1000003 + idx + 101),
        rec_(static_cast<uint32_t>(idx + 1), kSpanCapPerClient) {
    for (int i = 0; i < 12; ++i) cycle_.push_back(kGetOp);
    for (int i = 0; i < 12; ++i) cycle_.push_back(kTraverseOp);
    for (int i = 0; i < 12; ++i) cycle_.push_back(kIndexOp);
    cycle_.push_back(kScanOp);
  }

  void Run(const Control& ctl) {
    RunCycles(&cycle_, &rng_, ctl, [&](Kind k) { RunOne(k, ctl); });
  }

  Recorder& recorder() { return rec_; }
  OpCounts& counts() { return counts_; }

 private:
  bool CheckVehicle(const Object& obj, uint32_t v) const {
    if (obj.oid() != s_.vehicles[v]) return false;
    if (obj.Get(s_.a_weight) != Value::Int(s_.data.weight[v])) return false;
    if (obj.Get(s_.a_manufacturer) !=
        Value::Ref(s_.companies[s_.data.manufacturer[v]])) {
      return false;
    }
    if (s_.data.payload[v] >= 0 &&
        obj.Get(s_.a_payload) != Value::Int(s_.data.payload[v])) {
      return false;
    }
    return true;
  }

  /// Get (and, for a traversal, the manufacturer) in one snapshot txn.
  bool ReadTxn(uint32_t v, bool traverse, OpScope* op) {
    Database* db = s_.db.get();
    uint64_t txn;
    {
      SpanScope s(&rec_, "core.begin");
      Result<uint64_t> t = db->Begin();
      if (!t.ok()) return false;
      txn = *t;
    }
    bool ok;
    {
      SpanScope s(&rec_, "core.get");
      Result<Object> obj = db->Get(txn, s_.vehicles[v]);
      ok = obj.ok() && CheckVehicle(*obj, v);
    }
    if (ok && traverse) {
      uint32_t c = s_.data.manufacturer[v];
      SpanScope s(&rec_, "core.get");
      Result<Object> comp = db->Get(txn, s_.companies[c]);
      ok = comp.ok() &&
           comp->Get(s_.a_name) == Value::Str(VehicleSet::CompanyName(c)) &&
           comp->Get(s_.a_location) == Value::Str(s_.data.company_location[c]);
    }
    int64_t t0 = NowNs();
    {
      SpanScope s(&rec_, "core.commit");
      ok = db->Commit(txn).ok() && ok;
    }
    op->Sample(kCommit, NowNs() - t0);
    return ok;
  }

  bool Query(const std::string& oql, bool* used) {
    SpanScope s(&rec_, "core.query");
    kimdb::QueryStats stats;
    Result<std::vector<Oid>> res = s_.db->ExecuteOql(oql, &stats);
    if (!res.ok()) return false;
    result_ = std::move(*res);
    *used = stats.used_index;
    return true;
  }

  /// The result is exactly the set of vehicles `want` selects.
  template <typename Pred>
  bool CheckSet(Pred want, size_t want_count) {
    if (result_.size() != want_count) return false;
    for (Oid oid : result_) {
      auto it = s_.vehicle_of.find(oid.raw());
      if (it == s_.vehicle_of.end() || !want(it->second)) return false;
    }
    std::sort(result_.begin(), result_.end());
    return std::adjacent_find(result_.begin(), result_.end()) == result_.end();
  }

  void RunOne(Kind kind, const Control& ctl) {
    OpScope op(&rec_, ctl);
    int64_t t0 = NowNs();
    switch (kind) {
      case kGetOp:
      case kTraverseOp: {
        uint32_t v = static_cast<uint32_t>(rng_.Uniform(kVehicles));
        bool traverse = kind == kTraverseOp;
        bool ok;
        {
          SpanScope s(&rec_, traverse ? "op.traverse" : "op.get");
          ok = ReadTxn(v, traverse, &op);
        }
        OpType t = traverse ? kTraverse : kGet;
        op.Sample(t, NowNs() - t0);
        op.End(t, ok, &counts_);
        break;
      }
      case kIndexOp: {
        int64_t k = static_cast<int64_t>(rng_.Uniform(10000));
        bool used = false, ok;
        {
          SpanScope s(&rec_, "op.query_index");
          ok = Query("select Vehicle where Weight = " + std::to_string(k),
                     &used);
        }
        ok = ok && CheckSet([&](uint32_t v) { return s_.data.weight[v] == k; },
                            s_.weight_count[static_cast<size_t>(k)]);
        op.Sample(kQueryIndex, NowNs() - t0);
        if (op.End(kQueryIndex, ok, &counts_)) {
          ++counts_.index_queries;
          counts_.index_rows += result_.size();
          counts_.index_used += used ? 1 : 0;
        }
        break;
      }
      case kScanOp: {
        // Paper §3.2: vehicles made by a company located in Detroit, over
        // the whole Vehicle hierarchy. No index covers the nested path.
        bool used = false, ok;
        {
          SpanScope s(&rec_, "op.query_scan");
          ok = Query(kDetroitQuery, &used);
        }
        ok = ok && CheckSet([&](uint32_t v) { return s_.data.InDetroit(v); },
                            s_.detroit_count);
        op.Sample(kQueryScan, NowNs() - t0);
        if (op.End(kQueryScan, ok, &counts_)) {
          ++counts_.scan_queries;
          counts_.scan_rows += result_.size();
        }
        break;
      }
    }
  }

  const VehicleDb& s_;
  Rng rng_;
  Recorder rec_;
  OpCounts counts_;
  std::vector<Kind> cycle_;
  std::vector<Oid> result_;
};

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--dir") a->dir = v;
    else if (k == "--spans") a->spans = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->dir.empty() &&
         a->seconds > 0;
}

struct Metric {
  std::string name, unit;
  double value;
};

/// What one run produced, ready to print.
struct Report {
  std::vector<Metric> end_to_end, per_layer;
  std::vector<std::pair<std::string, std::string>> detail;  // key -> JSON
  uint64_t attempted = 0, failed = 0;
};

/// Drives `clients` (each with Run(ctl), recorder(), counts()) through
/// warmup, the timed phase and stop. Returns timed seconds per window
/// kind and the registry snapshots bracketing the timed phase.
struct PhaseResult {
  double seconds[2] = {0, 0};  // [untraced, traced]
  kimdb::obs::MetricsSnapshot before, after;
  std::vector<double> chains;  // objectstore.versions_chains samples
  double probe_rtt_us = 0, probe_server_us = 0;  // see ProbeLoneGets
};

template <typename ClientT>
PhaseResult DrivePhases(std::vector<std::unique_ptr<ClientT>>& clients,
                        Database* db, const Args& args) {
  Control ctl;
  PhaseResult phase;
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&ctl, &c] { c->Run(ctl); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  phase.before = db->metrics().TakeSnapshot();
  int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  ctl.phase.store(Control::kTimed, std::memory_order_release);
  int64_t window_start = start;
  bool traced = false;
  if (!args.trace) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(end - start));
  }
  while (args.trace) {
    int64_t now = NowNs();
    if (now >= end) break;
    if (now - window_start >= kTraceWindowNs) {
      phase.seconds[traced ? 1 : 0] += (now - window_start) / 1e9;
      traced = !traced;
      window_start = now;
      ctl.tracing.store(traced, std::memory_order_release);
    }
    phase.chains.push_back(static_cast<double>(
        db->metrics().TakeSnapshot().Value("objectstore.versions_chains")));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  int64_t stop = NowNs();
  ctl.phase.store(Control::kStop, std::memory_order_release);
  phase.after = db->metrics().TakeSnapshot();
  phase.seconds[traced ? 1 : 0] += (stop - window_start) / 1e9;
  for (auto& t : threads) t.join();
  return phase;
}

/// Folds the clients' recorders and counts into end-to-end and per-layer
/// metrics.
template <typename ClientT>
void Summarize(std::vector<std::unique_ptr<ClientT>>& clients,
               const PhaseResult& phase, const Args& args, bool served,
               Report* rep) {
  std::vector<uint32_t> samples[kOpTypes];
  OpCounts tot;
  std::map<std::string, std::pair<uint64_t, int64_t>> spans;  // count, ns
  uint64_t kept_spans = 0, dropped_spans = 0;
  for (auto& c : clients) {
    Recorder& r = c->recorder();
    for (int t = 0; t < kOpTypes; ++t) {
      samples[t].insert(samples[t].end(), r.samples[t].begin(),
                        r.samples[t].end());
    }
    for (int t = 0; t < kOpTypes; ++t) {
      rep->attempted += r.attempted[t];
      rep->failed += r.failed[t];
    }
    for (const auto& a : r.aggregates()) {
      spans[a.name].first += a.count;
      spans[a.name].second += a.sum_ns;
    }
    kept_spans += r.spans().size();
    dropped_spans += r.spans_dropped();
    const OpCounts& oc = c->counts();
    for (int w = 0; w < 2; ++w) {
      tot.ops[w] += oc.ops[w];
      for (int t = 0; t < kOpTypes; ++t) {
        tot.op_ns[w][t] += oc.op_ns[w][t];
        tot.op_n[w][t] += oc.op_n[w][t];
      }
    }
    tot.update_commits += oc.update_commits;
    tot.index_queries += oc.index_queries;
    tot.index_rows += oc.index_rows;
    tot.index_used += oc.index_used;
    tot.scan_queries += oc.scan_queries;
    tot.scan_rows += oc.scan_rows;
  }
  const double ops_all = static_cast<double>(tot.ops[0] + tot.ops[1]);
  const double secs_all = phase.seconds[0] + phase.seconds[1];

  std::string ops_json = "{";
  for (int t = 0; t < kOpTypes; ++t) {
    uint64_t att = 0, fail = 0;
    for (auto& c : clients) {
      att += c->recorder().attempted[t];
      fail += c->recorder().failed[t];
    }
    ops_json += std::string(t ? "," : "") + Quote(kOpNames[t]) +
                ":{\"attempted\":" + std::to_string(att) +
                ",\"failed\":" + std::to_string(fail) +
                ",\"timed_samples\":" + std::to_string(samples[t].size());
    for (double q : {0.10, 0.25, 0.50, 0.90, 0.95, 0.99}) {
      // A tail percentile only with at least ten samples beyond it.
      if (q > 0.5 && (1.0 - q) * static_cast<double>(samples[t].size()) < 10)
        continue;
      char key[16];
      std::snprintf(key, sizeof key, ",\"p%02d_us\":",
                    static_cast<int>(q * 100));
      ops_json += key + Num(PercentileUs(&samples[t], q));
    }
    ops_json += "}";
  }
  ops_json += "}";
  rep->detail.emplace_back("ops", ops_json);

  // --- end to end (printed with --trace 0) --------------------------------
  auto& e2e = rep->end_to_end;
  // Latency is the 25th percentile of each op type's samples. A shared
  // host slows every op of a 100 ms stretch together, by up to 2x, for a
  // share of the run that differs from run to run; the p25 stays on the
  // unslowed speed until three quarters of the run is slowed, where the
  // p50 already moves when half is. The detail line keeps p50 to p99.
  auto p25 = [&](OpType t) { return PercentileUs(&samples[t], 0.25); };
  e2e.push_back({"ops_s", "1/s", Ratio(ops_all, secs_all)});
  e2e.push_back({"get_p25_us", "us", p25(kGet)});
  e2e.push_back({"traverse_p25_us", "us", p25(kTraverse)});
  e2e.push_back({"query_index_p25_us", "us", p25(kQueryIndex)});
  e2e.push_back({"query_scan_p25_us", "us", p25(kQueryScan)});
  e2e.push_back({"commit_p25_us", "us", p25(kCommit)});
  // Peak RSS up to the end of the timed phase: the set-ups timed after it
  // free and reallocate whole databases, which leaves a peak that depends
  // on how the allocator reuses the freed memory.
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  e2e.push_back(
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0});

  // --- per layer -----------------------------------------------------------
  kimdb::obs::MetricsSnapshot d =
      kimdb::obs::MetricsRegistry::Diff(phase.before, phase.after);
  auto v = [&](const char* name) {
    return static_cast<double>(d.Value(name));
  };
  auto mean_us = [&](const char* name) {
    kimdb::obs::HistogramData h = d.Hist(name);
    return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count)) /
           1000.0;
  };
  auto span_us = [&](const char* name) {
    auto it = spans.find(name);
    if (it == spans.end()) return 0.0;
    return Ratio(static_cast<double>(it->second.second),
                 static_cast<double>(it->second.first)) /
           1000.0;
  };
  const double commits = static_cast<double>(tot.update_commits);
  const double queries =
      static_cast<double>(tot.index_queries + tot.scan_queries);
  const double rows = static_cast<double>(tot.index_rows + tot.scan_rows);
  auto& pl = rep->per_layer;

  pl.push_back({"net.rtt_us", "us", served ? span_us("net.request") : 0.0});
  pl.push_back(
      {"net.server_us", "us", served ? mean_us("net.request_ns") : 0.0});
  pl.push_back({"net.probe_rtt_us", "us", phase.probe_rtt_us});
  pl.push_back({"net.probe_server_us", "us", phase.probe_server_us});
  pl.push_back({"net.outside_db_us", "us",
                phase.probe_rtt_us - phase.probe_server_us});
  pl.push_back(
      {"net.requests_per_op", "count", Ratio(v("net.requests"), ops_all)});
  pl.push_back({"net.bytes_per_request", "B",
                Ratio(v("net.bytes_in") + v("net.bytes_out"),
                      v("net.requests"))});
  {
    kimdb::obs::HistogramData h = d.Hist("net.pipeline_depth");
    pl.push_back({"net.pipeline_depth_mean", "count",
                  Ratio(static_cast<double>(h.sum),
                        static_cast<double>(h.count))});
  }

  pl.push_back({"core.get_us", "us", span_us("core.get")});
  pl.push_back({"core.query_us", "us", span_us("core.query")});
  pl.push_back({"core.begin_us", "us", span_us("core.begin")});
  pl.push_back({"core.set_us", "us", span_us("core.set")});
  pl.push_back({"core.commit_us", "us", span_us("core.commit")});

  pl.push_back({"query.exec_us", "us", mean_us("query.exec_ns")});
  pl.push_back({"query.objects_scanned_per_row", "count",
                Ratio(v("query.objects_scanned"), rows)});
  pl.push_back({"query.predicates_per_row", "count",
                Ratio(v("query.predicates_evaluated"), rows)});
  pl.push_back({"query.ref_fetches_per_query", "count",
                Ratio(v("query.ref_fetches"), queries)});
  // Over the wire QueryStats is not returned; an index plan probes the
  // index once per lookup, so probes per lookup stands in for the share.
  pl.push_back({"query.index_used_frac", "frac",
                served ? Ratio(v("query.index_probes"),
                               static_cast<double>(tot.index_queries))
                       : Ratio(static_cast<double>(tot.index_used),
                               static_cast<double>(tot.index_queries))});
  pl.push_back({"optimizer.index_plan_frac", "frac",
                Ratio(v("optimizer.index_plans_chosen"),
                      static_cast<double>(tot.index_queries))});
  pl.push_back({"optimizer.auto_analyze_runs", "count",
                v("optimizer.auto_analyze_runs")});

  pl.push_back({"index.probes_per_query", "count",
                Ratio(v("query.index_probes"),
                      static_cast<double>(tot.index_queries))});
  pl.push_back({"index.candidates_per_row", "count",
                Ratio(v("query.index_candidates"),
                      static_cast<double>(tot.index_rows))});
  pl.push_back({"index.maintenance_ops_per_commit", "count",
                Ratio(v("index.maintenance_ops"), commits)});

  pl.push_back({"objectstore.cache_hit_rate", "frac",
                Ratio(v("objectstore.cache_hits"),
                      v("objectstore.cache_hits") +
                          v("objectstore.cache_misses"))});
  pl.push_back({"objectstore.cache_evictions_per_op", "count",
                Ratio(v("objectstore.cache_evictions"), ops_all)});
  pl.push_back({"objectstore.versions_installed_per_commit", "count",
                Ratio(v("objectstore.versions_installed"), commits)});
  pl.push_back({"objectstore.versions_pruned_per_commit", "count",
                Ratio(v("objectstore.versions_pruned"), commits)});
  {
    double sum = 0;
    for (double c : phase.chains) sum += c;
    pl.push_back({"objectstore.chains_mean", "count",
                  Ratio(sum, static_cast<double>(phase.chains.size()))});
  }
  pl.push_back({"objectstore.class_write_waits_per_commit", "count",
                Ratio(v("objectstore.class_write_waits"), commits)});

  pl.push_back({"txn.commit_us", "us", mean_us("txn.commit_ns")});
  pl.push_back({"txn.aborted_frac", "frac",
                Ratio(v("txn.aborted"), v("txn.begun"))});
  pl.push_back(
      {"txn.snapshot_conflicts", "count", v("txn.snapshot_conflicts")});
  pl.push_back(
      {"lock.waits_per_commit", "count", Ratio(v("lock.waits"), commits)});

  pl.push_back({"wal.commits_per_fsync", "count",
                Ratio(commits, v("wal.fsyncs"))});
  pl.push_back({"wal.records_per_fsync", "count",
                Ratio(v("wal.appends"), v("wal.fsyncs"))});
  pl.push_back(
      {"wal.bytes_per_commit", "B", Ratio(v("wal.file_bytes"), commits)});
  pl.push_back({"wal.reserve_us", "us", mean_us("wal.reserve_ns")});
  pl.push_back({"wal.append_us", "us", mean_us("wal.append_ns")});
  pl.push_back({"wal.fsync_us", "us", mean_us("wal.fsync_ns")});

  const double bp_hits = v("bufferpool.hits"), bp_miss = v("bufferpool.misses");
  pl.push_back(
      {"bufferpool.hit_rate", "frac", Ratio(bp_hits, bp_hits + bp_miss)});
  pl.push_back({"bufferpool.disk_reads_per_op", "count",
                Ratio(v("bufferpool.disk_reads"), ops_all)});
  pl.push_back({"bufferpool.evictions_per_op", "count",
                Ratio(v("bufferpool.evictions"), ops_all)});
  pl.push_back({"bufferpool.shard_lock_waits_per_op", "count",
                Ratio(v("bufferpool.shard_lock_waits"), ops_all)});
  pl.push_back({"bufferpool.readahead_hit_frac", "frac",
                Ratio(v("bufferpool.readahead_hits"),
                      v("bufferpool.readahead_issued"))});

  // Throughput of the whole run's op mix if every op ran as in the
  // untraced (traced) windows: each op type's mean time in that window
  // kind, weighted by its count over both. A half-second window holds too
  // few of a workload's heavy ops for the windows' own op counts to
  // compare. Op types missing from either window kind are left out.
  auto mix_ops_s = [&](int w) {
    double ops = 0, ns = 0;
    for (int t = 0; t < kOpTypes; ++t) {
      if (tot.op_n[0][t] == 0 || tot.op_n[1][t] == 0) continue;
      const double n = static_cast<double>(tot.op_n[0][t] + tot.op_n[1][t]);
      ops += n;
      ns += n * Ratio(static_cast<double>(tot.op_ns[w][t]),
                      static_cast<double>(tot.op_n[w][t]));
    }
    return Ratio(ops * 1e9, ns);
  };
  const double ops_s_untraced = mix_ops_s(0);
  const double ops_s_traced = mix_ops_s(1);
  pl.push_back({"trace.ops_s_untraced", "1/s", ops_s_untraced});
  pl.push_back({"trace.ops_s_traced", "1/s", ops_s_traced});
  pl.push_back({"trace.overhead_pct", "%",
                args.trace ? 100.0 * (1.0 - Ratio(ops_s_traced, ops_s_untraced))
                           : 0.0});
  pl.push_back({"trace.spans", "count",
                static_cast<double>(kept_spans + dropped_spans)});

  rep->detail.emplace_back(
      "counts",
      "{\"update_commits\":" + std::to_string(tot.update_commits) +
          ",\"index_queries\":" + std::to_string(tot.index_queries) +
          ",\"index_rows\":" + std::to_string(tot.index_rows) +
          ",\"scan_queries\":" + std::to_string(tot.scan_queries) +
          ",\"scan_rows\":" + std::to_string(tot.scan_rows) +
          ",\"spans_kept\":" + std::to_string(kept_spans) +
          ",\"spans_dropped\":" + std::to_string(dropped_spans) + "}");
}

template <typename ClientT>
void WriteSpans(std::vector<std::unique_ptr<ClientT>>& clients,
                const std::string& path) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "oodb_bench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  for (auto& c : clients) {
    for (const Span& s : c->recorder().spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"thread\":%u}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.thread);
    }
  }
  std::fclose(f);
}

/// Mean wall time of ExplainOql (parse + plan) over the workload's query
/// shapes, timed after the load phase so it does not disturb it.
double ParsePlanUs(Database* db, const std::vector<std::string>& queries) {
  const int kRounds = 50;
  int64_t t0 = NowNs();
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& q : queries) Must(db->ExplainOql(q), "ExplainOql");
  }
  return (NowNs() - t0) / 1000.0 / (kRounds * queries.size());
}

std::vector<double> g_setup_s;

/// Runs one set-up and records its wall time.
template <typename SetupFn>
auto TimedSetup(SetupFn setup) {
  int64_t t0 = NowNs();
  auto inst = setup();
  g_setup_s.push_back((NowNs() - t0) / 1e9);
  return inst;
}

/// Set-ups that are only timed and torn down again.
template <typename SetupFn, typename TeardownFn>
void ExtraSetups(int n, SetupFn setup, TeardownFn teardown) {
  for (int i = 0; i < n; ++i) teardown(TimedSetup(setup));
}

/// Wire and front-end cost of a lone request. Once the clients have
/// stopped, one extra connection sends sequential GETs, so the registry's
/// net.request_ns covers exactly the requests the client timed. Each GET
/// is checked against the graph.
void ProbeLoneGets(const Oo1Db& s, uint64_t seed, PhaseResult* phase,
                   Report* rep) {
  constexpr int kProbeGets = 2000;
  auto client = Must(kimdb::net::Client::Connect("127.0.0.1", s.server->port()),
                     "Client::Connect");
  Must(client->Hello("oodb_bench probe"), "Hello");
  Rng rng(seed * 1000003 + 977);
  kimdb::obs::MetricsSnapshot before = s.db->metrics().TakeSnapshot();
  int64_t rtt_ns = 0;
  for (int k = 0; k < kProbeGets; ++k) {
    uint32_t i = static_cast<uint32_t>(rng.Uniform(kParts));
    int64_t t0 = NowNs();
    Result<std::string> bytes = client->Get(s.oids[i].raw());
    rtt_ns += NowNs() - t0;
    Result<Object> obj =
        bytes.ok() ? Object::Decode(*bytes) : Result<Object>(bytes.status());
    ++rep->attempted;
    if (!obj.ok() || obj->Get(s.a_part_id) != Value::Int(i) ||
        obj->Get(s.a_y) != Value::Int(s.graph.y[i])) {
      ++rep->failed;
    }
  }
  kimdb::obs::HistogramData h =
      kimdb::obs::MetricsRegistry::Diff(before, s.db->metrics().TakeSnapshot())
          .Hist("net.request_ns");
  phase->probe_rtt_us = rtt_ns / 1000.0 / kProbeGets;
  phase->probe_server_us =
      Ratio(static_cast<double>(h.sum), static_cast<double>(h.count)) / 1000.0;
}

void RunOo1(const Args& args, bool served, Report* rep) {
  const std::string path = args.dir + "/oo1";
  auto setup = [&] { return SetupOo1(path, args.seed, served); };
  std::unique_ptr<Oo1Db> s = TimedSetup(setup);
  Database* db = s->db.get();

  std::vector<std::unique_ptr<Oo1Client>> clients;
  for (int c = 0; c < kOo1Clients; ++c) {
    std::unique_ptr<Oo1Backend> be;
    if (served) {
      auto client = Must(
          kimdb::net::Client::Connect("127.0.0.1", s->server->port()),
          "Client::Connect");
      Must(client->Hello("oodb_bench"), "Hello");
      be = std::make_unique<ServedBackend>(std::move(client));
    } else {
      be = std::make_unique<InProcessBackend>(db);
    }
    clients.push_back(
        std::make_unique<Oo1Client>(*s, std::move(be), c, args.seed));
  }
  PhaseResult phase = DrivePhases(clients, db, args);
  if (served && args.trace) ProbeLoneGets(*s, args.seed, &phase, rep);
  Summarize(clients, phase, args, served, rep);
  rep->per_layer.push_back(
      {"lang.parse_plan_us", "us",
       ParsePlanUs(db, {"select Part where PartId = 17",
                        "select Part where Y < 1000"})});
  WriteSpans(clients, args.spans);

  const uint64_t heap_pages = db->buffer_pool().disk()->num_pages();
  const uint64_t cache_bytes = static_cast<uint64_t>(
      db->metrics().TakeSnapshot().Value("objectstore.cache_resident_bytes"));

  // Durability: close, reopen, and check every part holds the last X its
  // owner saw acknowledged (one verification op per part).
  std::vector<int64_t> want_x = s->graph.x;
  for (auto& c : clients) {
    std::copy(c->last_x().begin(), c->last_x().end(),
              want_x.begin() + static_cast<ptrdiff_t>(c->lo()));
  }
  std::vector<Oid> oids = s->oids;
  AttrId a_x = s->a_x, a_part_id = s->a_part_id;
  clients.clear();
  if (s->server) s->server->Stop();
  s->server.reset();
  Must(s->db->Close(), "Close");
  s->db.reset();
  std::unique_ptr<Database> reopened = OpenDb(path);
  uint64_t txn = Must(reopened->Begin(), "Begin");
  uint64_t bad = 0;
  for (size_t i = 0; i < kParts; ++i) {
    Result<Object> obj = reopened->Get(txn, oids[i]);
    if (!obj.ok() || obj->Get(a_x) != Value::Int(want_x[i]) ||
        obj->Get(a_part_id) != Value::Int(static_cast<int64_t>(i))) {
      ++bad;
    }
  }
  Must(reopened->Commit(txn), "Commit");
  Must(reopened->Close(), "Close");
  reopened.reset();
  RemoveDbFiles(path);
  rep->attempted += kParts;
  rep->failed += bad;
  ExtraSetups(kOo1SetupsAfter, setup, TeardownOo1);

  rep->detail.emplace_back(
      "sizes", "{\"parts\":" + std::to_string(kParts) +
                   ",\"clients\":" + std::to_string(kOo1Clients) +
                   ",\"db_pages\":" + std::to_string(heap_pages) +
                   ",\"buffer_pool_pages\":" +
                   std::to_string(DatabaseOptions{}.buffer_pool_pages) +
                   ",\"object_cache_budget_bytes\":" +
                   std::to_string(DatabaseOptions{}.object_cache_bytes) +
                   ",\"object_cache_resident_bytes\":" +
                   std::to_string(cache_bytes) +
                   ",\"reopen_mismatches\":" + std::to_string(bad) + "}");
}

void RunVehicles(const Args& args, Report* rep) {
  const std::string path = args.dir + "/vehicle";
  auto setup = [&] { return SetupVehicles(path, args.seed); };
  ExtraSetups(kVehicleSetupsBefore, setup, TeardownVehicles);
  std::unique_ptr<VehicleDb> s = TimedSetup(setup);
  Database* db = s->db.get();
  std::vector<std::unique_ptr<VehicleClient>> clients;
  for (int c = 0; c < kVehicleClients; ++c) {
    clients.push_back(std::make_unique<VehicleClient>(*s, c, args.seed));
  }
  PhaseResult phase = DrivePhases(clients, db, args);
  Summarize(clients, phase, args, /*served=*/false, rep);
  rep->per_layer.push_back(
      {"lang.parse_plan_us", "us",
       ParsePlanUs(db, {"select Vehicle where Weight = 4242", kDetroitQuery})});
  WriteSpans(clients, args.spans);
  const uint64_t heap_pages = db->buffer_pool().disk()->num_pages();
  const uint64_t cache_bytes = static_cast<uint64_t>(
      db->metrics().TakeSnapshot().Value("objectstore.cache_resident_bytes"));
  clients.clear();
  TeardownVehicles(std::move(s));
  ExtraSetups(kVehicleSetupsAfter, setup, TeardownVehicles);
  rep->detail.emplace_back(
      "sizes", "{\"vehicles\":" + std::to_string(kVehicles) +
                   ",\"companies\":" + std::to_string(kCompanies) +
                   ",\"clients\":" + std::to_string(kVehicleClients) +
                   ",\"db_pages\":" + std::to_string(heap_pages) +
                   ",\"buffer_pool_pages\":" +
                   std::to_string(DatabaseOptions{}.buffer_pool_pages) +
                   ",\"object_cache_budget_bytes\":" +
                   std::to_string(DatabaseOptions{}.object_cache_bytes) +
                   ",\"object_cache_resident_bytes\":" +
                   std::to_string(cache_bytes) + "}");
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += std::string(i ? "," : "") + Quote(ms[i].name) + ":{\"value\":" +
           Num(ms[i].value) + ",\"unit\":" + Quote(ms[i].unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oodb_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --dir <db dir> [--spans <file>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  MountPrivateTmpfs(args.dir);
  const int cpu = PinToOneCpu();
  const double load_before = LoadAvg1();
  const std::string fs = FsType(args.dir);

  Report rep;
  if (args.workload == "oo1-in-process") {
    RunOo1(args, /*served=*/false, &rep);
  } else if (args.workload == "oo1-served") {
    RunOo1(args, /*served=*/true, &rep);
  } else if (args.workload == "vehicle-query") {
    RunVehicles(args, &rep);
  } else {
    std::fprintf(stderr, "oodb_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  rep.end_to_end.insert(rep.end_to_end.begin(),
                        {"setup_s", "s", Median(g_setup_s)});

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) out += ",";
      out += Num(v[i]);
    }
    return out + "]";
  };
  std::string detail = "{\"workload\":" + Quote(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"seconds\":" + Num(args.seconds) +
                       ",\"trace\":" + (args.trace ? "1" : "0") +
                       ",\"host\":{\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"build_type\":" + Quote(OODB_BENCH_BUILD_TYPE) +
                       ",\"db_fs\":" + Quote(fs) +
                       ",\"db_on_tmpfs\":" +
                       (fs == "tmpfs" ? "true" : "false") +
                       ",\"loadavg1_before\":" + Num(load_before) +
                       ",\"loadavg1_after\":" + Num(LoadAvg1()) +
                       ",\"pinned_cpu\":" + std::to_string(cpu) +
                       "},\"setup_runs_s\":" + list(g_setup_s);
  for (const auto& [k, json] : rep.detail) {
    detail += "," + Quote(k) + ":" + json;
  }
  detail += ",\"end_to_end\":" + MetricsJson(rep.end_to_end) +
            ",\"per_layer\":" + MetricsJson(rep.per_layer) + "}";
  std::printf("{\"detail\":%s}\n", detail.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              rep.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              MetricsJson(args.trace ? rep.per_layer : rep.end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace oodb_bench

int main(int argc, char** argv) { return oodb_bench::Main(argc, argv); }
