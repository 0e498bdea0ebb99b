// google-benchmark micro benchmarks for the substrates: MVCC table
// operations, lock manager, histogram, SQL parse/compile/execute. These are
// the ablation-style numbers backing the latency model calibration in
// DESIGN.md (what one storage operation costs before simulated charges).
#include <benchmark/benchmark.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "sql/parser.h"
#include "storage/lock_manager.h"
#include "storage/oracle.h"
#include "storage/table.h"

namespace olxp {
namespace {

storage::TableSchema KvSchema() {
  return storage::TableSchema(
      "kv",
      {{"k", ValueType::kInt, false}, {"v", ValueType::kString, true}},
      {0});
}

void BM_TableInstall(benchmark::State& state) {
  storage::MvccTable table(0, KvSchema());
  storage::TimestampOracle oracle;
  int64_t k = 0;
  for (auto _ : state) {
    // Fresh keys with a monotone oracle cannot fail the ascending-ts check.
    (void)table.InstallVersion({Value::Int(k)}, oracle.Advance(), false,
                               {Value::Int(k), Value::String("payload")});
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInstall);

// Installs under one secondary-index key shared by every row (fibench
// loads every balance as 1000.0). Each install re-checks the row's (key, pk)
// index entry, so its cost must not grow with the rows sharing the key.
void BM_TableInstallSameIndexKey(benchmark::State& state) {
  storage::TableSchema schema = KvSchema();
  if (!schema.AddIndex({"by_v", {1}, false}).ok()) {
    state.SkipWithError("AddIndex failed");
    return;
  }
  storage::MvccTable table(0, schema);
  storage::TimestampOracle oracle;
  const int64_t n = state.range(0);
  auto install = [&](int64_t k) {
    // A monotone oracle cannot fail the ascending-ts check.
    (void)table.InstallVersion({Value::Int(k)}, oracle.Advance(), false,
                               {Value::Int(k), Value::String("constant")});
  };
  for (int64_t k = 0; k < n; ++k) install(k);
  int64_t k = 0;
  for (auto _ : state) {
    install(k);
    if (++k == n) {
      // Trim each chain back to one version once per sweep so memory stays
      // flat however many iterations the run takes.
      state.PauseTiming();
      table.VacuumBelow(oracle.Current(), 4096);
      state.ResumeTiming();
      k = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInstallSameIndexKey)->Arg(1000)->Arg(100000);

void BM_TableGet(benchmark::State& state) {
  storage::MvccTable table(0, KvSchema());
  storage::TimestampOracle oracle;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    // Fresh keys with a monotone oracle cannot fail the ascending-ts check.
    (void)table.InstallVersion({Value::Int(i)}, oracle.Advance(), false,
                               {Value::Int(i), Value::String("payload")});
  }
  Rng rng(1);
  uint64_t ts = oracle.Current();
  for (auto _ : state) {
    auto row = table.Get({Value::Int(rng.Uniform(int64_t{0}, int64_t{n - 1}))},
                         ts);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableGet)->Arg(1000)->Arg(100000);

void BM_TableScan(benchmark::State& state) {
  storage::MvccTable table(0, KvSchema());
  storage::TimestampOracle oracle;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    // Fresh keys with a monotone oracle cannot fail the ascending-ts check.
    (void)table.InstallVersion({Value::Int(i)}, oracle.Advance(), false,
                               {Value::Int(i), Value::String("payload")});
  }
  uint64_t ts = oracle.Current();
  for (auto _ : state) {
    int64_t count = 0;
    table.Scan(ts, [&](const Row&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TableScan)->Arg(1000)->Arg(100000);

void BM_LockAcquireRelease(benchmark::State& state) {
  storage::LockManager locks;
  Row key = {Value::Int(7)};
  uint64_t txn = 1;
  for (auto _ : state) {
    Status st = locks.Acquire(txn, 0, key, 1000);
    benchmark::DoNotOptimize(st);
    locks.Release(txn, 0, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (auto _ : state) {
    hist.Record(static_cast<int64_t>(rng.Uniform(int64_t{1}, int64_t{100000})));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SqlParse(benchmark::State& state) {
  const char* sql =
      "SELECT c.c_credit, COUNT(*), AVG(o.o_ol_cnt) FROM orders o JOIN "
      "customer c ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id AND "
      "c.c_id = o.o_c_id WHERE o.o_id > 10 GROUP BY c.c_credit "
      "ORDER BY 2 DESC LIMIT 5";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

void BM_PointSelectEndToEnd(benchmark::State& state) {
  engine::Database db(engine::EngineProfile::MemSqlLike());
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  (void)session->Execute(
      "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))");
  for (int i = 0; i < 10000; ++i) {
    (void)session->Execute("INSERT INTO kv VALUES (?, ?)",
                           {Value::Int(i), Value::String("payload")});
  }
  Rng rng(1);
  for (auto _ : state) {
    auto rs = session->Execute(
        "SELECT v FROM kv WHERE k = ?",
        {Value::Int(rng.Uniform(int64_t{0}, int64_t{9999}))});
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointSelectEndToEnd);

/// Row-store analytical queries on the unified store (the interpreter):
/// `narrow` groups 20k three-column rows into 16 groups; `wide` runs the
/// same query over rows that also carry six CHAR(24) columns the query
/// never reads; `topk` groups into 10k groups and keeps the top 10.
enum class AggShape { kNarrow, kWide, kTopK };

void BM_AggregateQueryEndToEnd(benchmark::State& state, AggShape shape) {
  constexpr int kRows = 20000;
  engine::Database db(engine::EngineProfile::MemSqlLike());
  auto session = db.CreateSession();
  session->set_charging_enabled(false);
  const bool wide = shape == AggShape::kWide;
  (void)session->Execute(
      wide ? "CREATE TABLE t (k INT PRIMARY KEY, grp INT, x DOUBLE, "
             "c1 CHAR(24), c2 CHAR(24), c3 CHAR(24), c4 CHAR(24), "
             "c5 CHAR(24), c6 CHAR(24))"
           : "CREATE TABLE t (k INT PRIMARY KEY, grp INT, x DOUBLE)");
  const int groups = shape == AggShape::kTopK ? 10000 : 16;
  Rng rng(1);
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row = {Value::Int(i), Value::Int(i % groups),
                              Value::Double(rng.NextDouble())};
    if (wide) {
      for (int c = 0; c < 6; ++c) {
        row.push_back(Value::String(std::string(24, static_cast<char>(
                                                        'a' + (i + c) % 26))));
      }
    }
    (void)session->Execute(
        wide ? "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
             : "INSERT INTO t VALUES (?, ?, ?)",
        row);
  }
  const char* sql = shape == AggShape::kTopK
                        ? "SELECT grp, SUM(x) AS s FROM t GROUP BY grp "
                          "ORDER BY s DESC LIMIT 10"
                        : "SELECT grp, COUNT(*), SUM(x), AVG(x) FROM t "
                          "GROUP BY grp ORDER BY grp";
  for (auto _ : state) {
    auto rs = session->Execute(sql);
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_AggregateQueryEndToEnd, narrow, AggShape::kNarrow);
BENCHMARK_CAPTURE(BM_AggregateQueryEndToEnd, wide, AggShape::kWide);
BENCHMARK_CAPTURE(BM_AggregateQueryEndToEnd, topk, AggShape::kTopK);

}  // namespace
}  // namespace olxp

BENCHMARK_MAIN();
