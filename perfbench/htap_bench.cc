// htap_bench: fixed-work HTAP benchmark.
//
// Drives the fibench and subench suites through engine::Database/Session on
// the engine clock only: every session runs with simulated charging off,
// replication has no artificial lag, routing is the deterministic
// cost-based router, and each run executes a fixed, seeded amount of work.
// Every class follows a precomputed arrival schedule (a waiting lane
// sleeps until the next due time). One process sets up one database and
// measures one window; run.py runs several windows per benchmark run and
// reports medians. After the window the process checks that every suite
// analytical query returns the same result on the analytical path and
// inside a transaction on the row store.
//
//   htap_bench --workload fi-htap --seed 1 --seconds 4 --trace 0
//              [--window K] [--scratch DIR] [--setup-only 1]
//
// Prints one JSON document on stdout (built at the end of Main); run.py
// turns it into the result line. Workload rationale: WORKLOADS.md.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchfw/workload.h"
#include "benchmarks/common.h"
#include "benchmarks/fibench/fibench.h"
#include "benchmarks/subench/subench.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/profile.h"
#include "engine/session.h"
#include "perfbench/stats.h"

namespace perfbench {
namespace {

using olxp::Rng;
using olxp::Status;
using olxp::StatusCode;
using olxp::Value;
namespace engine = olxp::engine;
namespace benchfw = olxp::benchfw;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------- workloads --------------------------------

enum class Cls { kOltp, kOlap, kHybrid, kProbe, kVacuum };
constexpr Cls kAllCls[] = {Cls::kOltp, Cls::kOlap, Cls::kHybrid, Cls::kProbe,
                           Cls::kVacuum};

const char* ClsName(Cls c) {
  switch (c) {
    case Cls::kOltp:
      return "oltp";
    case Cls::kOlap:
      return "olap";
    case Cls::kHybrid:
      return "hybrid";
    case Cls::kProbe:
      return "probe";
    case Cls::kVacuum:
      return "vacuum";
  }
  return "?";
}

/// One schedule of requests: request i is due at offset_us + i / rate
/// seconds after the window opens, and a window has rate * seconds of them.
struct ClassSpec {
  Cls cls;
  double rate;
  int64_t offset_us = 0;
};

ClassSpec Paced(Cls cls, double rate, double offset_ms) {
  return {cls, rate, static_cast<int64_t>(offset_ms * 1000)};
}

/// Vacuum passes run from the schedule instead of the engine's background
/// thread, so every run makes the same number of passes at the same
/// points of the window (the background thread's period drifts with pass
/// length). 20/s is the engine's default 50 ms cadence.
const ClassSpec kVacuumSpec = Paced(Cls::kVacuum, 20, 12.5);

/// A lane is one client thread; it serves the merged schedules of the
/// classes it lists (indexes into WorkloadSpec::classes). Two lanes that
/// list one paced class share its arrival schedule.
struct WorkloadSpec {
  std::string suite;  // "fi" or "su"
  engine::EngineProfile profile;
  benchfw::LoadParams load;
  std::vector<ClassSpec> classes;
  std::vector<std::vector<int>> lanes;
};

engine::EngineProfile EngineClockProfile(engine::EngineProfile p) {
  // Engine clock only: no simulated replication delay, no address-seeded
  // stochastic routing, serial vectorized execution.
  p.replication_lag_micros = 0;
  p.olap_row_fraction = 0;
  p.exec_threads = 1;
  p.vacuum_interval_us = 0;  // passes come from kVacuumSpec
  return p;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name) {
  WorkloadSpec w;
  if (name == "fi-htap") {
    w.suite = "fi";
    w.profile = EngineClockProfile(engine::EngineProfile::TiDbLike());
    w.load.scale = 10;  // 10k customers
    // Offsets keep the classes' due times apart: requests of different
    // classes that all fired on one shared grid would start together
    // every period, which no real arrival stream does, and their
    // collisions (and the scheduler's wake-up placement) made analytical
    // latency bimodal from run to run.
    w.classes = {Paced(Cls::kOltp, 1000, 0.25), Paced(Cls::kOlap, 10, 0),
                 Paced(Cls::kHybrid, 20, 25), Paced(Cls::kProbe, 100, 7.5),
                 kVacuumSpec};
    w.lanes = {{0}, {1}, {2}, {3}, {4}};
  } else if (name == "su-unified") {
    w.suite = "su";
    w.profile = EngineClockProfile(engine::EngineProfile::MemSqlLike());
    w.load.scale = 4;  // warehouses
    w.load.items = 10000;
    w.classes = {Paced(Cls::kOltp, 200, 0.25), Paced(Cls::kOlap, 10, 0),
                 Paced(Cls::kHybrid, 10, 50), Paced(Cls::kProbe, 20, 37.5),
                 kVacuumSpec};
    // Two lanes share the OLTP schedule; the cheap commit probe rides
    // with the hybrid class so the run stays at four client threads.
    w.lanes = {{0}, {0}, {1}, {2, 3}, {4}};
  } else if (name == "fi-durable") {
    w.suite = "fi";
    w.profile = EngineClockProfile(engine::EngineProfile::TiDbLike());
    w.profile.durability = olxp::storage::DurabilityMode::kGroup;
    // A 500 us group-commit window (the default is 100 us) keeps the
    // host's fsync latency, which drifted from 70 to 110 us between sets
    // of runs, a small part of commit latency.
    w.profile.group_commit_window_us = 500;
    w.load.scale = 10;
    // OLTP at 1500/s on three lanes sharing one schedule: every commit
    // waits for a group-commit fsync. Closed-loop clients measured
    // capacity instead, but that capacity followed the host's fsync
    // latency (3.7k to 6.8k tps across runs of one build). At 3000/s the
    // lanes were busy enough that a few seconds of host steal left a
    // backlog that lasted the rest of the window. One lane of analytics
    // makes every end-to-end metric exist here too.
    w.classes = {Paced(Cls::kOltp, 1500, 0.25), Paced(Cls::kOlap, 10, 0),
                 Paced(Cls::kHybrid, 10, 50), Paced(Cls::kProbe, 10, 25),
                 kVacuumSpec};
    w.lanes = {{0}, {0}, {0}, {1, 2, 3}, {4}};
  } else {
    return std::nullopt;
  }
  w.load.load_threads = 1;
  return w;
}

benchfw::BenchmarkSuite MakeSuite(const WorkloadSpec& w, uint64_t seed) {
  benchfw::LoadParams params = w.load;
  params.seed = seed;
  return w.suite == "fi" ? olxp::benchmarks::MakeFibenchmark(params)
                         : olxp::benchmarks::MakeSubenchmark(params);
}

const std::vector<benchfw::TxnProfile>& ProfilesOf(
    const benchfw::BenchmarkSuite& suite, Cls c) {
  static const std::vector<benchfw::TxnProfile> kNone;
  switch (c) {
    case Cls::kOltp:
      return suite.transactions;
    case Cls::kOlap:
      return suite.queries;
    case Cls::kHybrid:
      return suite.hybrids;
    case Cls::kProbe:
    case Cls::kVacuum:
      return kNone;
  }
  return kNone;
}

// -------------------------------- tracing ---------------------------------

/// One timed interval recorded by the benchmark around a call into the
/// engine. Spans of one request share `op` (its schedule position);
/// `parent` is the index of the enclosing span in the same lane, or -1.
struct Span {
  int name;
  int64_t op;
  int parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Span names are interned before the lanes start; lanes only read it.
struct SpanNames {
  std::vector<std::string> names;
  int Intern(const std::string& n) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<int>(i);
    }
    names.push_back(n);
    return static_cast<int>(names.size()) - 1;
  }
  int Find(const std::string& n) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<int>(i);
    }
    return -1;
  }
};

// ------------------------------- the window -------------------------------

enum class Outcome : uint8_t { kPending, kCommitted, kRolledBack, kFailed };

struct OpRecord {
  int profile = -1;
  int attempts = 0;
  Outcome outcome = Outcome::kPending;
  int64_t due_ns = 0;
  int64_t free_ns = 0;  // when the lane finished its previous request
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int64_t commit_ns = 0;  // probe: when its write was acknowledged
};

struct ClassRun {
  ClassSpec spec;
  int tag = 0;  // position in WorkloadSpec::classes (seeds its requests)
  int64_t n_ops = 0;
  std::atomic<int64_t> next{0};
  std::vector<OpRecord> records;
};

struct Window {
  engine::Database* db = nullptr;
  const benchfw::BenchmarkSuite* suite = nullptr;
  uint64_t seed = 0;
  int window = 0;  // which of the run's windows: selects its requests
  bool trace = false;
  int64_t t0_ns = 0;
  std::vector<std::unique_ptr<ClassRun>> classes;
  std::vector<int> op_span;                   // per class: "op.<class>"
  std::vector<std::vector<int>> body_span;    // per class, per profile
  int probe_commit_span = -1, probe_wait_span = -1;
};

constexpr int kMaxRetries = 32;
constexpr int64_t kProbeTimeoutNs = 5'000'000'000;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t OpSeed(uint64_t seed, int tag, int64_t idx) {
  return Mix(Mix(seed) ^ Mix(static_cast<uint64_t>(tag) << 40) ^
             static_cast<uint64_t>(idx));
}

/// Watermark analytical reads observe: the replica's apply frontier on a
/// separated store; on a unified store analytics read the row store, which
/// sees every published commit.
uint64_t AnalyticsVisibleTs(engine::Database& db) {
  return db.profile().architecture == engine::StoreArchitecture::kSeparated
             ? db.column_store().replicated_ts()
             : db.oracle().Current();
}

void RunSuiteOp(Window& w, ClassRun& c, int64_t idx, engine::Session& s,
                OpRecord& rec, bool traced, std::vector<Span>* spans,
                int op_span_idx) {
  // Window k serves requests k*n .. k*n + n-1 of the run's sequence, so
  // the windows of one run send different requests.
  const uint64_t op_seed = OpSeed(w.seed, c.tag, w.window * c.n_ops + idx);
  const auto& profiles = ProfilesOf(*w.suite, c.spec.cls);
  Rng pick(op_seed);
  rec.profile = benchfw::PickWeighted(profiles, pick);
  const benchfw::TxnProfile& p = profiles[rec.profile];
  Status st;
  do {
    // Every attempt draws the same parameters, so a retry repeats the
    // request instead of sending a new one.
    Rng rng(Mix(op_seed ^ 0x6a09e667f3bcc909ULL));
    const int64_t a0 = traced ? NowNs() : 0;
    st = p.body(s, rng);
    if (traced) {
      spans->push_back({w.body_span[c.tag][rec.profile], idx, op_span_idx,
                        a0, NowNs()});
    }
    ++rec.attempts;
  } while (!st.ok() && st.IsRetryable() && rec.attempts <= kMaxRetries);
  if (st.ok()) {
    rec.outcome = Outcome::kCommitted;
  } else if (st.code() == StatusCode::kAborted) {
    rec.outcome = Outcome::kRolledBack;  // business rule, not a failure
  } else {
    rec.outcome = Outcome::kFailed;
    std::fprintf(stderr, "%s %s #%lld failed: %s\n", ClsName(c.spec.cls),
                 p.name.c_str(), static_cast<long long>(idx),
                 st.ToString().c_str());
  }
}

void RunProbe(Window& w, int64_t idx, engine::Session& s, OpRecord& rec,
              bool traced, std::vector<Span>* spans, int op_span_idx) {
  rec.profile = 0;
  rec.attempts = 1;
  const int64_t t_sent = rec.sent_ns;
  Status st = olxp::benchmarks::Exec(
      s, "UPDATE bench_probe SET seq = ? WHERE id = 1", {Value::Int(idx + 1)});
  rec.commit_ns = NowNs();
  if (!st.ok()) {
    rec.outcome = Outcome::kFailed;
    std::fprintf(stderr, "probe #%lld failed: %s\n",
                 static_cast<long long>(idx), st.ToString().c_str());
    return;
  }
  const uint64_t target = w.db->oracle().Current();
  while (AnalyticsVisibleTs(*w.db) < target) {
    if (NowNs() - t_sent > kProbeTimeoutNs) {
      rec.outcome = Outcome::kFailed;
      std::fprintf(stderr, "probe #%lld: write never became visible\n",
                   static_cast<long long>(idx));
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  rec.outcome = Outcome::kCommitted;
  if (traced) {
    spans->push_back({w.probe_commit_span, idx, op_span_idx, t_sent,
                      rec.commit_ns});
    spans->push_back({w.probe_wait_span, idx, op_span_idx, rec.commit_ns,
                      NowNs()});
  }
}

void RunLane(Window& w, const std::vector<int>& lane_classes,
             std::vector<Span>* spans) {
  auto session = w.db->CreateSession();
  session->set_charging_enabled(false);
  int64_t free_ns = w.t0_ns;
  for (;;) {
    ClassRun* best = nullptr;
    int64_t best_idx = 0, best_due = 0;
    for (int ci : lane_classes) {
      ClassRun* c = w.classes[ci].get();
      const int64_t i = c->next.load(std::memory_order_relaxed);
      if (i >= c->n_ops) continue;
      const int64_t due =
          w.t0_ns + c->spec.offset_us * 1000 +
          static_cast<int64_t>(static_cast<double>(i) * 1e9 / c->spec.rate);
      if (best == nullptr || due < best_due) {
        best = c;
        best_idx = i;
        best_due = due;
      }
    }
    if (best == nullptr) break;
    if (!best->next.compare_exchange_strong(best_idx, best_idx + 1)) continue;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(best_due)));
    OpRecord& rec = best->records[best_idx];
    rec.sent_ns = NowNs();
    rec.due_ns = best_due;
    rec.free_ns = free_ns;
    // In a traced run every other request records spans; the untraced
    // half measures what tracing costs (trace.overhead_pct).
    const bool traced = w.trace && best_idx % 2 == 0;
    const int op_span_idx = traced ? static_cast<int>(spans->size()) : -1;
    if (traced) {
      spans->push_back({w.op_span[best->tag], best_idx, -1, rec.sent_ns, 0});
    }
    if (best->spec.cls == Cls::kProbe) {
      RunProbe(w, best_idx, *session, rec, traced, spans, op_span_idx);
    } else if (best->spec.cls == Cls::kVacuum) {
      w.db->RunVacuum();
      rec.profile = 0;
      rec.attempts = 1;
      rec.outcome = Outcome::kCommitted;
    } else {
      RunSuiteOp(w, *best, best_idx, *session, rec, traced, spans,
                 op_span_idx);
    }
    rec.done_ns = NowNs();
    if (traced) (*spans)[op_span_idx].end_ns = rec.done_ns;
    free_ns = rec.done_ns;
  }
}

// -------------------------------- set-up ----------------------------------

/// Phase boundaries of one set-up (steady-clock ns): schema, load,
/// replica catch-up, vacuum.
struct SetupTimes {
  int64_t ns[5] = {};
  double Phase(int i) const { return (ns[i + 1] - ns[i]) / 1e9; }
  double Total() const { return (ns[4] - ns[0]) / 1e9; }
};

constexpr const char* kSetupPhases[] = {"setup.schema", "setup.load",
                                        "setup.catchup", "setup.vacuum"};

std::string WalDir(const std::string& scratch) {
  return scratch + "/wal-" + std::to_string(getpid());
}

/// Builds a loaded database: schema (plus the freshness probe's one-row
/// table), single-threaded load, replica catch-up and one vacuum pass.
olxp::StatusOr<std::unique_ptr<engine::Database>> SetUp(
    const WorkloadSpec& w, const benchfw::BenchmarkSuite& suite,
    const std::string& wal_dir, SetupTimes* t) {
  engine::EngineProfile profile = w.profile;
  if (profile.durability != olxp::storage::DurabilityMode::kOff) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    profile.wal_dir = wal_dir;
  }
  auto db = std::make_unique<engine::Database>(profile);
  OLXP_RETURN_NOT_OK(db->recovery_status());
  t->ns[0] = NowNs();
  {
    auto s = db->CreateSession();
    s->set_charging_enabled(false);
    OLXP_RETURN_NOT_OK(suite.create_schema(*s));
    OLXP_RETURN_NOT_OK(olxp::benchmarks::Exec(
        *s, "CREATE TABLE bench_probe (id INT PRIMARY KEY, seq INT)"));
    OLXP_RETURN_NOT_OK(olxp::benchmarks::Exec(
        *s, "INSERT INTO bench_probe VALUES (1, 0)"));
  }
  t->ns[1] = NowNs();
  OLXP_RETURN_NOT_OK(suite.load(*db, suite.load_params));
  t->ns[2] = NowNs();
  db->WaitReplicaCaughtUp();
  t->ns[3] = NowNs();
  db->RunVacuum();
  t->ns[4] = NowNs();
  return db;
}

/// Steal and total CPU time of the host's processors so far (the first
/// line of /proc/stat, in clock ticks). Steal is time a virtual machine's
/// processors were ready but the hypervisor ran someone else.
struct CpuTicks {
  double steal = 0, total = 0;
};

CpuTicks HostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double RssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --------------------------- correctness check ----------------------------

/// The suites' analytical queries with fixed parameters. `limit_key` lists
/// the ORDER BY columns of a query with LIMIT: rows tied with the last row
/// on those columns may legitimately differ between stores.
struct CheckQuery {
  std::string name;
  std::string sql;
  std::vector<Value> params;
  std::vector<int> limit_key;
};

std::vector<CheckQuery> CheckQueries(const std::string& suite) {
  if (suite == "fi") {
    return {
        {"Q1",
         "SELECT a.custid, a.name, c.bal FROM account a JOIN checking c "
         "ON c.custid = a.custid WHERE c.bal > ? ORDER BY c.bal DESC "
         "LIMIT 100",
         {Value::Double(1000.0)},
         {2}},
        {"Q2",
         "SELECT COUNT(*), SUM(sv.bal + ck.bal), AVG(sv.bal + ck.bal), "
         "MIN(sv.bal + ck.bal), MAX(sv.bal + ck.bal) FROM saving sv "
         "JOIN checking ck ON ck.custid = sv.custid",
         {},
         {}},
        {"Q3", "SELECT custid, bal FROM saving ORDER BY bal DESC LIMIT 10",
         {}, {1}},
        {"Q4",
         "SELECT COUNT(*) FROM checking WHERE bal < 0 AND custid IN "
         "(SELECT custid FROM saving WHERE bal < 100)",
         {},
         {}},
    };
  }
  return {
      {"Q1",
       "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), "
       "AVG(ol_quantity), AVG(ol_amount), COUNT(*) FROM order_line "
       "GROUP BY ol_number ORDER BY ol_number",
       {},
       {}},
      {"Q2",
       "SELECT c_credit, COUNT(*), AVG(c_balance), MIN(c_balance), "
       "MAX(c_balance) FROM customer GROUP BY c_credit ORDER BY c_credit",
       {},
       {}},
      {"Q3",
       "SELECT h_w_id, COUNT(*), SUM(h_amount), AVG(h_amount) FROM history "
       "GROUP BY h_w_id ORDER BY h_w_id",
       {},
       {}},
      {"Q4",
       "SELECT w.w_id, MAX(w.w_ytd), SUM(d.d_ytd) FROM warehouse w "
       "JOIN district d ON d.d_w_id = w.w_id GROUP BY w.w_id "
       "ORDER BY w.w_id",
       {},
       {}},
      {"Q5",
       "SELECT ol_i_id, SUM(ol_amount) AS rev FROM order_line "
       "GROUP BY ol_i_id ORDER BY rev DESC LIMIT 10",
       {},
       {1}},
      {"Q6",
       "SELECT s_w_id, COUNT(*) FROM stock WHERE s_quantity < ? "
       "GROUP BY s_w_id ORDER BY s_w_id",
       {Value::Int(30)},
       {}},
      {"Q7",
       "SELECT c.c_credit, COUNT(*), AVG(o.o_ol_cnt) FROM orders o "
       "JOIN customer c ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id "
       "AND c.c_id = o.o_c_id GROUP BY c.c_credit",
       {},
       {}},
      {"Q8",
       "SELECT o_w_id, COUNT(*) FROM orders WHERE o_carrier_id IS NULL "
       "GROUP BY o_w_id ORDER BY o_w_id",
       {},
       {}},
      {"Q9",
       "SELECT CASE WHEN i_price < 50 THEN 0 ELSE 1 END AS band, "
       "COUNT(*), AVG(i_price) FROM item GROUP BY "
       "CASE WHEN i_price < 50 THEN 0 ELSE 1 END ORDER BY band",
       {},
       {}},
  };
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == olxp::ValueType::kDouble ||
      b.type() == olxp::ValueType::kDouble) {
    if (!a.is_numeric() || !b.is_numeric()) return false;
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.Compare(b) == 0;
}

bool SameRow(const olxp::Row& a, const olxp::Row& b,
             const std::vector<int>* cols = nullptr) {
  if (a.size() != b.size()) return false;
  if (cols != nullptr) {
    for (int c : *cols) {
      if (!SameValue(a[c], b[c])) return false;
    }
    return true;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

bool SameMultiset(std::vector<olxp::Row> a, std::vector<olxp::Row> b) {
  if (a.size() != b.size()) return false;
  auto less = [](const olxp::Row& x, const olxp::Row& y) {
    for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
      const int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a[i], b[i])) return false;
  }
  return true;
}

/// Multiset equality, except that under ORDER BY ... LIMIT the rows tied
/// with the last row on the sort key only have to agree on that key.
bool SameResult(const olxp::sql::ResultSet& a, const olxp::sql::ResultSet& b,
                const std::vector<int>& limit_key) {
  if (a.rows.size() != b.rows.size()) return false;
  if (limit_key.empty() || a.rows.empty()) return SameMultiset(a.rows, b.rows);
  const olxp::Row& edge_a = a.rows.back();
  if (!SameRow(edge_a, b.rows.back(), &limit_key)) return false;
  std::vector<olxp::Row> strict_a, strict_b;
  size_t tied_a = 0, tied_b = 0;
  for (const olxp::Row& r : a.rows) {
    if (SameRow(r, edge_a, &limit_key)) {
      ++tied_a;
    } else {
      strict_a.push_back(r);
    }
  }
  for (const olxp::Row& r : b.rows) {
    if (SameRow(r, edge_a, &limit_key)) {
      ++tied_b;
    } else {
      strict_b.push_back(r);
    }
  }
  return tied_a == tied_b && SameMultiset(strict_a, strict_b);
}

/// What the end-of-run check compared. A standalone query the cost router
/// sends back to the row store (a selective indexed shape) compares the row
/// store with itself, so it is listed apart from the queries that ran on
/// the replica.
struct CheckReport {
  std::vector<std::string> problems;
  std::vector<std::string> across_stores;   // replica vs row store
  std::vector<std::string> row_store_only;  // both runs on the row store
};

/// Runs every suite analytical query standalone (the analytical path: the
/// replica on a separated store) and inside an explicit transaction (the
/// row store), and reports each mismatch. On a separated store at least
/// one query must have run on the replica.
CheckReport CheckAnalyticalResults(engine::Database& db,
                                   const std::string& suite) {
  CheckReport report;
  db.WaitReplicaCaughtUp();
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  for (const CheckQuery& q : CheckQueries(suite)) {
    auto standalone = s->Execute(q.sql, q.params);
    const bool on_replica =
        s->last_route() == engine::RoutedStore::kColumnStore;
    Status begin = s->Begin();
    auto in_txn = s->Execute(q.sql, q.params);
    Status commit = s->InTransaction() ? s->Commit() : Status::OK();
    if (!standalone.ok() || !begin.ok() || !in_txn.ok() || !commit.ok()) {
      report.problems.push_back(q.name + ": query failed");
      continue;
    }
    (on_replica ? report.across_stores : report.row_store_only)
        .push_back(q.name);
    if (standalone->rows.empty()) {
      report.problems.push_back(q.name + ": empty result");
    } else if (!SameResult(*standalone, *in_txn, q.limit_key)) {
      report.problems.push_back(q.name +
                                ": analytical path and row store disagree");
    }
  }
  if (db.profile().architecture == engine::StoreArchitecture::kSeparated &&
      report.across_stores.empty()) {
    report.problems.push_back("no analytical query ran on the replica");
  }
  return report;
}

// ------------------------------- reporting --------------------------------

struct Counters {
  olxp::obs::MetricsSnapshot snap;
  std::map<std::string, olxp::LatencyHistogram> hists;

  int64_t C(const std::string& n) const {
    auto it = snap.counters.find(n);
    return it == snap.counters.end() ? 0 : it->second;
  }
};

const char* kWindowHistograms[] = {"session.statement_us", "wal.fsync_us"};

Counters ReadCounters(engine::Database& db) {
  db.column_store().PublishMetrics(&db.metrics());
  Counters c;
  c.snap = db.metrics().Snapshot();
  for (const char* h : kWindowHistograms) {
    c.hists[h] = db.metrics().GetHistogram(h)->Snapshot();
  }
  return c;
}

/// Median of the samples recorded into histogram `name` during the window.
double WindowP50(const Counters& before, const Counters& after,
                 const std::string& name) {
  const olxp::LatencyHistogram& h0 = before.hists.at(name);
  const olxp::LatencyHistogram& h1 = after.hists.at(name);
  if (h1.count() <= h0.count()) return 0;
  auto cdf = [](const olxp::LatencyHistogram& h) {
    return [&h](double x) {
      if (h.count() == 0) return 0.0;
      return CdfFromQuantiles([&h](double p) { return h.Percentile(p); }, x);
    };
  };
  return WindowQuantile(cdf(h0), h0.count(), cdf(h1), h1.count(), 0.5, 0,
                        static_cast<double>(h1.max()) + 1);
}

double ColumnGaugeSum(const Counters& c, const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, v] : c.snap.gauges) {
    if (name.rfind("column.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        name.find("bench_probe") == std::string::npos) {
      sum += static_cast<double>(v);
    }
  }
  return sum;
}

class JsonObject {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(k, buf);
  }
  void Int(const std::string& k, int64_t v) { Raw(k, std::to_string(v)); }
  void Bool(const std::string& k, bool v) { Raw(k, v ? "true" : "false"); }
  void Str(const std::string& k, const std::string& v) {
    Raw(k, "\"" + olxp::obs::JsonEscape(v) + "\"");
  }
  void Raw(const std::string& k, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + olxp::obs::JsonEscape(k) + "\":" + json;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

struct ClassSamples {
  std::vector<std::vector<double>> profile_us;  // latencies, per profile
  std::vector<double> latency_traced_us, latency_untraced_us;
  std::vector<double> send_lag_us;
  std::vector<double> commit_us, apply_wait_us;  // probe steps
  int64_t attempted = 0, committed = 0, rolled_back = 0, failed = 0,
          retries = 0;
  int64_t first_due_ns = 0, last_done_ns = 0;
};

int Main(int argc, char** argv) {
  std::string workload, scratch = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0, setup_only = 0, window = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--scratch") {
      scratch = v;
    } else if (k == "--window") {
      window = std::atoi(v.c_str());
    } else if (k == "--setup-only") {
      setup_only = std::atoi(v.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  auto spec = MakeWorkload(workload);
  if (!spec || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: htap_bench --workload fi-htap|su-unified|fi-durable "
                 "--seed N --seconds S --trace 0|1 [--window K] "
                 "[--scratch DIR] [--setup-only 1]\n");
    return 2;
  }
  // Sleeps wake within microseconds instead of the default 50 us slack;
  // threads created later (lanes, engine background threads) inherit it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::filesystem::create_directories(scratch);

  const benchfw::BenchmarkSuite suite = MakeSuite(*spec, seed);
  SpanNames names;

  // One set-up per process (run.py may time extra set-ups in separate
  // --setup-only processes), so the window always runs on a heap that only
  // its own database has used.
  SetupTimes setup;
  auto built = SetUp(*spec, suite, WalDir(scratch), &setup);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<engine::Database> db = std::move(*built);
  const double rss_mb = RssMb();
  JsonObject setup_json;
  setup_json.Num("total_s", setup.Total());
  setup_json.Num("load_s", setup.Phase(1));
  setup_json.Num("catchup_s", setup.Phase(2));
  setup_json.Num("vacuum_s", setup.Phase(3));
  if (setup_only) {
    JsonObject out;
    out.Raw("setup", setup_json.Done());
    std::printf("%s\n", out.Done().c_str());
    db.reset();
    std::filesystem::remove_all(WalDir(scratch));
    return 0;
  }

  // ---- the window ----
  Window w;
  w.db = db.get();
  w.suite = &suite;
  w.seed = seed;
  w.window = window;
  w.trace = trace != 0;
  for (size_t ci = 0; ci < spec->classes.size(); ++ci) {
    auto c = std::make_unique<ClassRun>();
    c->spec = spec->classes[ci];
    c->tag = static_cast<int>(ci);
    c->n_ops =
        static_cast<int64_t>(std::ceil(c->spec.rate * seconds - 1e-9));
    c->records.resize(c->n_ops);
    const char* cls = ClsName(c->spec.cls);
    w.op_span.push_back(names.Intern(std::string("op.") + cls));
    std::vector<int> per_profile;
    for (const auto& p : ProfilesOf(suite, c->spec.cls)) {
      per_profile.push_back(names.Intern(spec->suite + "." + cls + "." +
                                         p.name));
    }
    w.body_span.push_back(per_profile);
    w.classes.push_back(std::move(c));
  }
  w.probe_commit_span = names.Intern("probe.commit");
  w.probe_wait_span = names.Intern("probe.apply_wait");

  const Counters before = ReadCounters(*db);
  const CpuTicks cpu_before = HostCpuTicks();
  w.t0_ns = NowNs() + 5'000'000;  // lanes start before the first due time
  std::vector<std::vector<Span>> lane_spans(spec->lanes.size());
  {
    std::vector<std::thread> lanes;
    for (size_t l = 0; l < spec->lanes.size(); ++l) {
      lanes.emplace_back(RunLane, std::ref(w), std::cref(spec->lanes[l]),
                         &lane_spans[l]);
    }
    for (auto& t : lanes) t.join();
  }
  const int64_t window_end_ns = NowNs();
  const Counters after = ReadCounters(*db);
  const CpuTicks cpu_after = HostCpuTicks();

  // ---- correctness ----
  const CheckReport check = CheckAnalyticalResults(*db, spec->suite);
  std::vector<std::string> problems = check.problems;

  // ---- per-class samples ----
  std::map<Cls, ClassSamples> by_cls;
  for (const auto& c : w.classes) {
    ClassSamples& cs = by_cls[c->spec.cls];
    cs.profile_us.resize(
        std::max<size_t>(1, ProfilesOf(suite, c->spec.cls).size()));
    for (int64_t i = 0; i < c->n_ops; ++i) {
      const OpRecord& r = c->records[i];
      ++cs.attempted;
      if (r.outcome == Outcome::kPending || r.outcome == Outcome::kFailed) {
        ++cs.failed;
        continue;
      }
      cs.retries += r.attempts - 1;
      if (r.outcome == Outcome::kCommitted) ++cs.committed;
      if (r.outcome == Outcome::kRolledBack) ++cs.rolled_back;
      // A probe's latency is its freshness: from issue to visible, without
      // the time it queued behind the lane's previous request.
      const double lat_us =
          (c->spec.cls == Cls::kProbe
               ? r.done_ns - r.sent_ns
               : DueLatency(r.due_ns, r.free_ns, r.sent_ns, r.done_ns)) /
          1e3;
      if (c->spec.cls == Cls::kProbe) {
        cs.commit_us.push_back((r.commit_ns - r.sent_ns) / 1e3);
        cs.apply_wait_us.push_back((r.done_ns - r.commit_ns) / 1e3);
      }
      cs.profile_us[r.profile].push_back(lat_us);
      (i % 2 == 0 ? cs.latency_traced_us : cs.latency_untraced_us)
          .push_back(lat_us);
      cs.send_lag_us.push_back(SendLag(r.due_ns, r.free_ns, r.sent_ns) /
                               1e3);
      if (cs.first_due_ns == 0 || r.due_ns < cs.first_due_ns) {
        cs.first_due_ns = r.due_ns;
      }
      cs.last_done_ns = std::max(cs.last_done_ns, r.done_ns);
    }
  }

  int64_t attempted = 0, failed = 0, txn_commits = 0, txn_ops = 0,
          rollbacks = 0, retries = 0, completed = 0;
  std::vector<double> send_lag;
  for (auto& [cls, cs] : by_cls) {
    send_lag.insert(send_lag.end(), cs.send_lag_us.begin(),
                    cs.send_lag_us.end());
    if (cls == Cls::kVacuum) continue;  // maintenance, not a request
    attempted += cs.attempted;
    failed += cs.failed;
    completed += cs.attempted - cs.failed;
    retries += cs.retries;
    if (cls != Cls::kOlap) txn_commits += cs.committed;
    if (cls == Cls::kOltp || cls == Cls::kHybrid) {
      txn_ops += cs.attempted;
      rollbacks += cs.rolled_back;
    }
  }

  // ---- end-to-end metrics ----
  ClassSamples& oltp = by_cls[Cls::kOltp];
  ClassSamples& probe = by_cls[Cls::kProbe];
  JsonObject e2e;
  e2e.Num("setup_s", setup.Total());
  e2e.Num("loaded_rss_mb", rss_mb);
  e2e.Num("oltp_tps",
          Share(static_cast<double>(oltp.committed),
                (oltp.last_done_ns - oltp.first_due_ns) / 1e9));
  auto mix_latency = [&](Cls c) {
    std::vector<double> weights;
    for (const auto& p : ProfilesOf(suite, c)) weights.push_back(p.weight);
    if (weights.empty()) weights.push_back(1);  // the probe: one profile
    return MixLatency(weights, by_cls[c].profile_us,
                      c == Cls::kOlap ? ProfileStat::kTrimmedMean
                                      : ProfileStat::kMedian);
  };
  e2e.Num("oltp_latency_us", mix_latency(Cls::kOltp));
  e2e.Num("olap_latency_us", mix_latency(Cls::kOlap));
  e2e.Num("hybrid_latency_us", mix_latency(Cls::kHybrid));
  e2e.Num("freshness_p50_us", mix_latency(Cls::kProbe));

  // ---- per-layer metrics ----
  auto d = [&](const std::string& n) {
    return static_cast<double>(after.C(n) - before.C(n));
  };
  JsonObject layer;
  // Every suite profile gets a span metric on every workload (0 where the
  // workload runs the other suite), so all runs report one metric set.
  for (const char* any_of_suite : {"fi-htap", "su-unified"}) {
    const WorkloadSpec ws = *MakeWorkload(any_of_suite);
    const benchfw::BenchmarkSuite names_of = MakeSuite(ws, seed);
    for (Cls c : {Cls::kOltp, Cls::kOlap, Cls::kHybrid}) {
      for (const auto& p : ProfilesOf(names_of, c)) {
        const std::string key = ws.suite + "." + ClsName(c) + "." + p.name;
        std::vector<double> durs;
        const int id = names.Find(key);
        for (const auto& spans : lane_spans) {
          for (const Span& sp : spans) {
            if (sp.name == id) durs.push_back((sp.end_ns - sp.start_ns) / 1e3);
          }
        }
        layer.Num("span." + key + ".p50_us", Quantile(durs, 0.5));
      }
    }
  }
  const double routed =
      d("router.route.row") + d("router.route.column_vectorized") +
      d("router.route.column_interpreter");
  layer.Num("engine.statements_per_op",
            Share(d("session.statements"), static_cast<double>(completed)));
  layer.Num("engine.statement_p50_us",
            WindowP50(before, after, "session.statement_us"));
  layer.Num("engine.route.row_share", Share(d("router.route.row"), routed));
  layer.Num("engine.route.column_vectorized_share",
            Share(d("router.route.column_vectorized"), routed));
  layer.Num("engine.route.column_interpreter_share",
            Share(d("router.route.column_interpreter"), routed));
  layer.Num("engine.route.cost_override_share",
            Share(d("router.cost_overrides_to_row"), routed));
  const double commits = static_cast<double>(txn_commits);
  layer.Num("lock.acquires_per_commit", Share(d("lock.acquires"), commits));
  layer.Num("lock.waits_per_commit", Share(d("lock.waits"), commits));
  layer.Num("lock.wait_us_per_commit",
            Share(d("lock.wait_ns") / 1e3, commits));
  layer.Num("lock.timeouts", d("lock.timeouts"));
  layer.Num("txn.retries_per_commit", Share(retries, commits));
  layer.Num("txn.rollback_share", Share(rollbacks, txn_ops));
  layer.Num("wal.commits_per_fsync", Share(d("wal.appends"), d("wal.fsyncs")));
  layer.Num("wal.bytes_per_commit",
            Share(d("wal.bytes_written"), d("wal.appends")));
  layer.Num("wal.fsync_p50_us", WindowP50(before, after, "wal.fsync_us"));
  layer.Num("repl.records_per_batch",
            Share(d("repl.records_applied"), d("repl.apply_batches")));
  layer.Num("freshness.commit_p50_us", Quantile(probe.commit_us, 0.5));
  layer.Num("freshness.apply_wait_p50_us",
            Quantile(probe.apply_wait_us, 0.5));
  double versions = 0, index_entries = 0, rows = 0, col_rows = 0;
  for (int id : db->row_store().TableIds()) {
    const auto* t = db->row_store().table(id);
    if (t->schema().name() == "bench_probe") continue;
    versions += static_cast<double>(t->TotalVersionCount());
    index_entries += static_cast<double>(t->IndexEntryCount());
    rows += static_cast<double>(t->ApproxRowCount());
    if (const auto* ct = db->column_store().table(id)) {
      col_rows += static_cast<double>(ct->LiveRowCount());
    }
  }
  layer.Num("row_store.versions_per_row", Share(versions, rows));
  layer.Num("row_store.index_entries_per_row", Share(index_entries, rows));
  layer.Num("column_store.bytes_per_row",
            Share(ColumnGaugeSum(after, ".bytes_encoded"), col_rows));
  const double skipped = ColumnGaugeSum(after, ".blocks_skipped") -
                         ColumnGaugeSum(before, ".blocks_skipped");
  const double scanned = ColumnGaugeSum(after, ".blocks_scanned") -
                         ColumnGaugeSum(before, ".blocks_scanned");
  layer.Num("column_store.block_skip_share",
            Share(skipped, skipped + scanned));
  layer.Num("vacuum.passes", d("vacuum.passes"));
  {
    std::vector<double> pass_us;
    for (const auto& c : w.classes) {
      if (c->spec.cls != Cls::kVacuum) continue;
      for (const OpRecord& r : c->records) {
        pass_us.push_back((r.done_ns - r.sent_ns) / 1e3);
      }
    }
    layer.Num("vacuum.pass_p50_us", Quantile(pass_us, 0.5));
  }
  layer.Num("vacuum.versions_reclaimed_per_commit",
            Share(d("vacuum.versions_reclaimed"), commits));
  layer.Num("generator.send_lag_p99_us", Quantile(send_lag, 0.99));
  layer.Num("setup.load_s", setup.Phase(1));
  layer.Num("setup.catchup_s", setup.Phase(2));
  layer.Num("setup.vacuum_s", setup.Phase(3));
  {
    // Traced vs untraced requests of the same run and class.
    ClassSamples& c = oltp;
    const double untraced = Quantile(c.latency_untraced_us, 0.5);
    layer.Num("trace.overhead_pct",
              w.trace ? 100.0 * Share(Quantile(c.latency_traced_us, 0.5) -
                                          untraced,
                                      untraced)
                      : 0.0);
  }

  // ---- spans out ----
  if (w.trace) {
    const std::string path = scratch + "/spans-" + workload + "-" +
                             std::to_string(seed) + ".jsonl";
    std::ofstream out(path);
    auto emit = [&](int lane, const std::string& name, const Span& s) {
      out << "{\"lane\":" << lane << ",\"name\":\"" << name
          << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    };
    // Set-up phases run on the main thread, written as lane -1.
    for (int i = 0; i < 4; ++i) {
      emit(-1, kSetupPhases[i], Span{0, 0, -1, setup.ns[i], setup.ns[i + 1]});
    }
    for (size_t l = 0; l < lane_spans.size(); ++l) {
      for (const Span& s : lane_spans[l]) {
        emit(static_cast<int>(l), names.names[s.name], s);
      }
    }
  }

  // ---- result ----
  JsonObject counts;
  counts.Int("attempted", attempted);
  counts.Int("failed", failed);
  counts.Int("rollbacks", rollbacks);
  counts.Int("retries", retries);
  counts.Num("window_s", (window_end_ns - w.t0_ns) / 1e9);
  counts.Num("host_steal_share", Share(cpu_after.steal - cpu_before.steal,
                                       cpu_after.total - cpu_before.total));
  JsonObject per_cls;
  for (Cls c : kAllCls) {
    const ClassSamples& cs = by_cls[c];
    JsonObject o;
    o.Int("attempted", cs.attempted);
    o.Int("committed", cs.committed);
    o.Int("rolled_back", cs.rolled_back);
    o.Int("failed", cs.failed);
    o.Int("retries", cs.retries);
    per_cls.Raw(ClsName(c), o.Done());
  }
  counts.Raw("classes", per_cls.Done());
  // Every completed request's latency, one list per profile, so that
  // run.py can take the tails over the samples of all of a run's windows.
  JsonObject samples;
  for (Cls c : {Cls::kOltp, Cls::kOlap, Cls::kHybrid, Cls::kProbe}) {
    std::string lists = "[";
    for (const auto& profile : by_cls[c].profile_us) {
      std::string list = lists.size() > 1 ? ",[" : "[";
      for (double v : profile) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.1f",
                      list.back() == '[' ? "" : ",", v);
        list += buf;
      }
      lists += list + "]";
    }
    samples.Raw(ClsName(c), lists + "]");
  }
  auto json_list = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ",\"" : "\"") + olxp::obs::JsonEscape(v[i]) + "\"";
    }
    return out + "]";
  };
  JsonObject check_json;
  check_json.Raw("across_stores", json_list(check.across_stores));
  check_json.Raw("row_store_only", json_list(check.row_store_only));
  JsonObject build;
#if defined(__clang__)
  build.Str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  build.Str("compiler", std::string("gcc ") + __VERSION__);
#else
  build.Str("compiler", "unknown");
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  build.Str("build_type", "optimized, NDEBUG");
#elif defined(__OPTIMIZE__)
  build.Str("build_type", "optimized, asserts on");
#else
  build.Str("build_type", "unoptimized");
#endif
  build.Int("hardware_concurrency",
            static_cast<int64_t>(std::thread::hardware_concurrency()));

  JsonObject result;
  result.Str("workload", workload);
  result.Int("seed", static_cast<int64_t>(seed));
  result.Int("window", window);
  result.Num("seconds", seconds);
  result.Bool("correct", problems.empty());
  result.Raw("problems", json_list(problems));
  result.Raw("check", check_json.Done());
  result.Raw("counts", counts.Done());
  result.Raw("setup", setup_json.Done());
  result.Raw("end_to_end", e2e.Done());
  result.Raw("per_layer", layer.Done());
  result.Raw("build", build.Done());
  result.Raw("samples", samples.Done());
  std::printf("%s\n", result.Done().c_str());

  db.reset();
  std::filesystem::remove_all(WalDir(scratch));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
