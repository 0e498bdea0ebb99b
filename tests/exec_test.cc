// Parity and routing tests for the vectorized columnar execution engine
// (src/exec/): every analytical query shape must produce exactly the same
// result set through the vectorized engine and the row-at-a-time
// interpreter, including after deletes recycle column-store slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/session.h"
#include "tests/result_strings.h"

namespace olxp {
namespace {

engine::EngineProfile TestProfile() {
  auto p = engine::EngineProfile::TiDbLike();
  p.olap_row_fraction = 0.0;    // deterministic routing
  p.cost_based_routing = false;  // parity tests pin execution to the replica
  p.replication_lag_micros = 0;
  return p;
}

/// Runs `sql` through the vectorized engine — at exec_threads 1, 2 and 8 —
/// and the interpreter, asserting identical results everywhere: every
/// thread count must match the interpreter, and the parallel runs must
/// match the serial run row-for-row (morsel partials merge in scan order,
/// so even "unordered" output order is reproduced exactly). `ordered`
/// compares against the interpreter row-for-row; otherwise that comparison
/// uses sorted multisets (hash-group output order is engine-dependent).
void ExpectParity(engine::Database& db, engine::Session& s,
                  const std::string& sql,
                  std::initializer_list<Value> params = {},
                  bool ordered = false, bool expect_vectorized = true) {
  SCOPED_TRACE(sql);
  const int orig_threads = db.profile().exec_threads;

  db.set_vectorized_execution(false);
  auto interp = s.Execute(sql, params);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  EXPECT_FALSE(s.last_vectorized());
  std::vector<std::string> b = Stringify(*interp);
  if (!ordered) std::sort(b.begin(), b.end());

  db.set_vectorized_execution(true);
  std::vector<std::string> serial_rows;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto vec = s.Execute(sql, params);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(s.last_vectorized(), expect_vectorized);
    EXPECT_EQ(s.last_route(), engine::RoutedStore::kColumnStore);

    EXPECT_EQ(vec->column_names, interp->column_names);
    std::vector<std::string> a = Stringify(*vec);
    if (threads == 1) {
      serial_rows = a;
    } else {
      EXPECT_EQ(a, serial_rows);  // parallel == serial, including order
    }
    if (!ordered) std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b);
  }
  db.set_exec_threads(orig_threads);
}

/// The Stringify form of one row.
std::string RowString(const Row& row) {
  sql::ResultSet rs;
  rs.rows.push_back(row);
  return Stringify(rs)[0];
}

/// Rows of `sql` (which must succeed).
std::vector<Row> Rows(engine::Session& s, const std::string& sql) {
  auto rs = s.Execute(sql);
  EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  return rs.ok() ? rs->rows : std::vector<Row>{};
}

/// Checks `sql` against hand-computed `expected` rows in every engine: the
/// interpreter over the row store (a transaction pins it there), then
/// ExpectParity's interpreter over the replica and vectorized sweep.
/// `ordered` compares lists, otherwise sorted multisets.
void ExpectRows(engine::Database& db, engine::Session& s,
                const std::string& sql, std::vector<std::string> expected,
                bool ordered) {
  SCOPED_TRACE(sql);
  if (!ordered) std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(s.Begin().ok());
  auto row_store = s.Execute(sql);
  ASSERT_TRUE(row_store.ok()) << row_store.status().ToString();
  EXPECT_EQ(s.last_route(), engine::RoutedStore::kRowStore);
  ASSERT_TRUE(s.Commit().ok());
  db.set_vectorized_execution(false);
  auto replica = s.Execute(sql);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  for (const sql::ResultSet* rs : {&*row_store, &*replica}) {
    std::vector<std::string> got = Stringify(*rs);
    if (!ordered) std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
  ExpectParity(db, s, sql, {}, ordered);
}

/// Parameterized over EngineProfile::columnar_encoding: every parity shape
/// runs once with sealed blocks compressed (dictionary/RLE/bit-packing)
/// and once with boxed raw blocks, at each swept thread count — results
/// must be bit-identical across the whole {raw, encoded} × {1, 2, 8} grid.
class ExecParityTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto p = TestProfile();
    p.columnar_encoding = GetParam();
    db_ = std::make_unique<engine::Database>(p);
    s_ = db_->CreateSession();
    s_->set_charging_enabled(false);
    ASSERT_TRUE(s_->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT, "
                            "c DOUBLE, d VARCHAR, e INT)")
                    .ok());
    Rng rng(42);
    const char* tags[] = {"alpha", "beta", "gamma", "ab_x", "ab_y"};
    for (int a = 1; a <= 997; ++a) {
      std::vector<Value> row;
      row.push_back(Value::Int(a));
      // NULLs sprinkled through every non-key column.
      row.push_back(a % 17 == 0 ? Value::Null()
                                : Value::Int(rng.Uniform(int64_t{0},
                                                         int64_t{1000})));
      row.push_back(a % 23 == 0 ? Value::Null()
                                : Value::Double(rng.Uniform(0.0, 1.0)));
      row.push_back(a % 29 == 0 ? Value::Null()
                                : Value::String(tags[a % 5]));
      row.push_back(Value::Int(a % 7));
      auto st = s_->Execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
    db_->WaitReplicaCaughtUp();
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Session> s_;
};

INSTANTIATE_TEST_SUITE_P(
    Storage, ExecParityTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? std::string("Encoded") : std::string("Raw");
    });

TEST_P(ExecParityTest, FiltersAndProjections) {
  ExpectParity(*db_, *s_, "SELECT * FROM t WHERE b > 500");
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b BETWEEN 100 AND 300 "
                          "AND c < 0.5");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE d LIKE 'ab%'");
  ExpectParity(*db_, *s_, "SELECT a, b FROM t WHERE b IN (1, 2, 3, 4, 5)");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE b IS NULL");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE d IS NOT NULL AND e = 3");
  ExpectParity(*db_, *s_, "SELECT -b, b + e, b * 2, b / 4, b % 5 FROM t "
                          "WHERE a <= 50");
  ExpectParity(*db_, *s_,
               "SELECT a, CASE WHEN b < 100 THEN 'lo' WHEN b < 500 THEN "
               "'mid' ELSE 'hi' END FROM t WHERE b IS NOT NULL");
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE NOT (b < 500) OR e = 1");
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t WHERE b > ?",
               {Value::Int(250)});
}

TEST_P(ExecParityTest, Aggregates) {
  ExpectParity(*db_, *s_, "SELECT COUNT(*) FROM t");
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), COUNT(b), SUM(b), AVG(c), MIN(b), MAX(c), "
               "MIN(d), MAX(d) FROM t");
  ExpectParity(*db_, *s_, "SELECT SUM(b + e), AVG(b * 2), COUNT(c) FROM t "
                          "WHERE e <> 0");
  // Global aggregate over empty input still yields one row.
  ExpectParity(*db_, *s_, "SELECT SUM(b), COUNT(*) FROM t WHERE b > 100000");
}

TEST_P(ExecParityTest, GroupByHavingOrderLimit) {
  ExpectParity(*db_, *s_, "SELECT d, COUNT(*), SUM(b) FROM t GROUP BY d "
                          "ORDER BY d", {}, /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT e, AVG(b) FROM t GROUP BY e "
                          "HAVING COUNT(*) > 10 ORDER BY e", {},
               /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT a % 10, COUNT(*) FROM t GROUP BY a % 10");
  ExpectParity(*db_, *s_, "SELECT e, SUM(b) AS total FROM t GROUP BY e "
                          "ORDER BY total DESC LIMIT 3", {},
               /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT DISTINCT e FROM t");
  ExpectParity(*db_, *s_, "SELECT b, c FROM t WHERE b IS NOT NULL "
                          "ORDER BY a LIMIT 20", {}, /*ordered=*/true);
  ExpectParity(*db_, *s_, "SELECT a FROM t WHERE e = 2 LIMIT 5", {},
               /*ordered=*/true);
}

TEST_P(ExecParityTest, UnprojectedSlotsAndGroupRepresentatives) {
  // Every engine scans t in a order (pk order on the row store, insertion
  // order on the replica), so a group's representative is its lowest a.
  const std::vector<Row> base =
      Rows(*s_, "SELECT a, b, c, d, e FROM t ORDER BY a");
  ASSERT_EQ(base.size(), 997u);
  struct Agg {
    int64_t first_a = 0;
    int64_t count = 0;
    int64_t sum_b = 0;
  };
  std::map<int64_t, Agg> by_e;
  for (const Row& r : base) {
    Agg& g = by_e[r[4].AsInt()];
    if (g.count++ == 0) g.first_a = r[0].AsInt();
    if (!r[1].is_null()) g.sum_b += r[1].AsInt();
  }

  // A raw non-key slot projected from the representative tuple.
  std::vector<std::string> want;
  for (const auto& [e, g] : by_e) {
    want.push_back(
        RowString({Value::Int(e), Value::Int(g.first_a), Value::Int(g.count)}));
  }
  ExpectRows(*db_, *s_, "SELECT e, a, COUNT(*) FROM t GROUP BY e ORDER BY e",
             want, /*ordered=*/true);

  // HAVING and ORDER BY on the unprojected key slot.
  want.clear();
  for (auto it = by_e.rbegin(); it != by_e.rend(); ++it) {
    if (it->first == 3) continue;
    want.push_back(RowString(
        {Value::Int(it->second.count), Value::Int(it->second.sum_b)}));
  }
  ExpectRows(*db_, *s_,
             "SELECT COUNT(*), SUM(b) FROM t GROUP BY e HAVING e <> 3 "
             "ORDER BY e DESC",
             want, /*ordered=*/true);

  // HAVING and ORDER BY on an unprojected non-key slot (the
  // representative's a).
  std::vector<std::pair<int64_t, int64_t>> by_first;  // (first a, e)
  for (const auto& [e, g] : by_e) {
    if (g.first_a > 3) by_first.emplace_back(g.first_a, e);
  }
  std::sort(by_first.begin(), by_first.end());
  want.clear();
  for (const auto& [first_a, e] : by_first) {
    want.push_back(RowString({Value::Int(e), Value::Int(by_e[e].count)}));
  }
  ExpectRows(*db_, *s_,
             "SELECT e, COUNT(*) FROM t GROUP BY e HAVING a > 3 ORDER BY a",
             want, /*ordered=*/true);

  // Filter and ORDER BY on unprojected slots of a plain scan.
  std::vector<Row> picked;
  for (const Row& r : base) {
    if (r[4].AsInt() == 2) picked.push_back(r);
  }
  std::stable_sort(picked.begin(), picked.end(),
                   [](const Row& x, const Row& y) {
                     return x[2].Compare(y[2]) > 0;
                   });
  want.clear();
  for (size_t i = 0; i < 5; ++i) want.push_back(RowString({picked[i][0]}));
  ExpectRows(*db_, *s_, "SELECT a FROM t WHERE e = 2 ORDER BY c DESC LIMIT 5",
             want, /*ordered=*/true);
}

TEST_P(ExecParityTest, UpdateAndDeleteWriteWholeRows) {
  // UPDATE and DELETE collect their matches through the single-table scan
  // (full, pk range and pk point paths here); the rewritten rows must keep
  // every column the statement does not assign.
  std::vector<Row> rows = Rows(*s_, "SELECT a, b, c, d, e FROM t");
  auto upd = s_->Execute("UPDATE t SET b = b + 1000 WHERE e = 3");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  auto upd_range =
      s_->Execute("UPDATE t SET c = 0.5 WHERE a BETWEEN 100 AND 120");
  ASSERT_TRUE(upd_range.ok()) << upd_range.status().ToString();
  auto del = s_->Execute("DELETE FROM t WHERE e = 4 AND b > 500");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  auto del_point = s_->Execute("DELETE FROM t WHERE a = 10");
  ASSERT_TRUE(del_point.ok()) << del_point.status().ToString();
  db_->WaitReplicaCaughtUp();

  int64_t updated = 0, ranged = 0, deleted = 0;
  std::vector<std::string> want;
  for (Row& r : rows) {
    const int64_t a = r[0].AsInt();
    const int64_t e = r[4].AsInt();
    if (e == 3) {
      ++updated;
      if (!r[1].is_null()) r[1] = Value::Int(r[1].AsInt() + 1000);
    }
    if (a >= 100 && a <= 120) {
      ++ranged;
      r[2] = Value::Double(0.5);
    }
    if ((e == 4 && !r[1].is_null() && r[1].AsInt() > 500) || a == 10) {
      ++deleted;
      continue;
    }
    want.push_back(RowString(r));
  }
  EXPECT_EQ(upd->affected_rows, updated);
  EXPECT_EQ(upd_range->affected_rows, ranged);
  EXPECT_EQ(del->affected_rows + del_point->affected_rows, deleted);
  ExpectRows(*db_, *s_, "SELECT a, b, c, d, e FROM t", want,
             /*ordered=*/false);
}

TEST_P(ExecParityTest, OrderByLimitTiesKeepTheStableOrderPrefix) {
  // ORDER BY e has ~142 rows per key; ties keep emission (a) order, and
  // LIMIT k must return exactly the first k rows of that stable order.
  std::vector<Row> base = Rows(*s_, "SELECT a, e FROM t ORDER BY a");
  ASSERT_EQ(base.size(), 997u);
  for (bool desc : {false, true}) {
    std::vector<Row> sorted = base;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const Row& x, const Row& y) {
                       int c = x[1].Compare(y[1]);
                       return desc ? c > 0 : c < 0;
                     });
    for (size_t limit : {size_t{0}, size_t{7}, size_t{300}, size_t{997},
                         size_t{2000}}) {
      std::vector<std::string> want;
      for (size_t i = 0; i < std::min(limit, sorted.size()); ++i) {
        want.push_back(RowString(sorted[i]));
      }
      ExpectRows(*db_, *s_,
                 std::string("SELECT a, e FROM t ORDER BY e") +
                     (desc ? " DESC" : "") + " LIMIT " +
                     std::to_string(limit),
                 want, /*ordered=*/true);
    }
  }
  // Grouped top-k with every key tied: groups keep first-seen order.
  ExpectRows(*db_, *s_,
             "SELECT e, COUNT(*) FROM t WHERE a <= 700 GROUP BY e "
             "ORDER BY 2 LIMIT 3",
             {"1|100|", "2|100|", "3|100|"}, /*ordered=*/true);
}

TEST_P(ExecParityTest, PostDeleteSlotReuseParity) {
  // Delete a third of the rows, then insert fresh keys that recycle the
  // freed column-store slots; the vectorized scan must skip dead slots and
  // see recycled ones exactly like the interpreter.
  ASSERT_TRUE(s_->Execute("DELETE FROM t WHERE a % 3 = 0").ok());
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_, "SELECT COUNT(*), SUM(b), MIN(a), MAX(a) FROM t");

  for (int a = 2000; a < 2200; ++a) {
    ASSERT_TRUE(s_->Execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                            {Value::Int(a), Value::Int(a - 2000),
                             Value::Double(0.25), Value::String("reused"),
                             Value::Int(a % 7)})
                    .ok());
  }
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_, "SELECT COUNT(*), SUM(b) FROM t");
  ExpectParity(*db_, *s_, "SELECT * FROM t WHERE d = 'reused'");
  ExpectParity(*db_, *s_, "SELECT d, COUNT(*) FROM t GROUP BY d");
}

TEST_P(ExecParityTest, UnsupportedShapesFallBackToInterpreter) {
  ASSERT_TRUE(s_->Execute("CREATE TABLE u (k INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(s_->Execute("INSERT INTO u VALUES (1, 10), (2, 20)").ok());
  db_->WaitReplicaCaughtUp();
  db_->set_vectorized_execution(true);

  // Equi-joins vectorize (the hash-join path); parity is checked in the
  // join suite below. Non-equi joins have no hash key: interpreter.
  auto equi = s_->Execute("SELECT COUNT(*) FROM t, u WHERE t.e = u.k");
  ASSERT_TRUE(equi.ok()) << equi.status().ToString();
  EXPECT_TRUE(s_->last_vectorized());
  auto nonequi = s_->Execute("SELECT COUNT(*) FROM t, u WHERE t.e < u.k");
  ASSERT_TRUE(nonequi.ok()) << nonequi.status().ToString();
  EXPECT_FALSE(s_->last_vectorized());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);

  // Subquery: detected by CanVectorize, interpreter serves it.
  auto sub = s_->Execute("SELECT a FROM t WHERE b = (SELECT MAX(v) FROM u)");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_FALSE(s_->last_vectorized());

  // Inside a transaction everything pins to the row store.
  ASSERT_TRUE(s_->Begin().ok());
  auto txn_q = s_->Execute("SELECT SUM(b) FROM t");
  ASSERT_TRUE(txn_q.ok());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
  EXPECT_FALSE(s_->last_vectorized());
  ASSERT_TRUE(s_->Commit().ok());
}

TEST_P(ExecParityTest, MixedTypeCaseFallsBackToInterpreter) {
  // CASE branches with different payload families (INT column vs DOUBLE
  // column) must not be promoted to one vector type: the interpreter
  // returns each row with its picked branch's own type, so the vectorized
  // engine refuses the chunk and the statement falls back.
  db_->set_vectorized_execution(true);
  auto rs = s_->Execute("SELECT a, CASE WHEN e > 3 THEN b ELSE c END "
                        "FROM t WHERE b IS NOT NULL AND c IS NOT NULL");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(s_->last_vectorized());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
  ExpectParity(*db_, *s_,
               "SELECT a, CASE WHEN e > 3 THEN b ELSE c END FROM t "
               "WHERE b IS NOT NULL AND c IS NOT NULL",
               {}, /*ordered=*/false, /*expect_vectorized=*/false);
}

TEST(ExecParityChunks, CrossChunkCaseTypeFlipKeepsMinMaxExact) {
  // An expression's vector type can flip between scan chunks when one CASE
  // branch is all-NULL in a chunk: slots 0..1023 hold only DOUBLE values
  // (2.4 / 1.6), slots 1024.. hold only INT values (2). MIN must compare
  // 2 < 2.4 exactly — an int-rounded comparison would keep 2.4.
  engine::Database db(TestProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE m (k INT PRIMARY KEY, i INT, "
                         "d1 DOUBLE, d2 DOUBLE, g INT)")
                  .ok());
  for (int k = 0; k < 1500; ++k) {
    std::vector<Value> row;
    row.push_back(Value::Int(k));
    if (k < 1024) {
      row.push_back(Value::Null());
      row.push_back(Value::Double(2.4));
      row.push_back(Value::Double(1.6));
    } else {
      row.push_back(Value::Int(2));
      row.push_back(Value::Null());
      row.push_back(Value::Null());
    }
    row.push_back(Value::Int(k % 3));
    ASSERT_TRUE(s->Execute("INSERT INTO m VALUES (?, ?, ?, ?, ?)", row).ok());
  }
  db.WaitReplicaCaughtUp();

  db.set_vectorized_execution(true);
  auto rs = s->Execute(
      "SELECT g, MIN(CASE WHEN i IS NULL THEN d1 ELSE i END), "
      "MAX(CASE WHEN i IS NULL THEN d2 ELSE i END) FROM m GROUP BY g "
      "ORDER BY g");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(s->last_vectorized());
  ASSERT_EQ(rs->rows.size(), 3u);
  for (const Row& r : rs->rows) {
    EXPECT_EQ(r[1].ToString(), "2");    // INT 2 < DOUBLE 2.4
    EXPECT_EQ(r[2].ToString(), "2");    // INT 2 > DOUBLE 1.6
  }
  ExpectParity(db, *s,
               "SELECT g, MIN(CASE WHEN i IS NULL THEN d1 ELSE i END), "
               "MAX(CASE WHEN i IS NULL THEN d2 ELSE i END) FROM m "
               "GROUP BY g ORDER BY g",
               {}, /*ordered=*/true);

  // One mixed INT/DOUBLE argument under every aggregate kind: only MIN and
  // MAX track extremes, and they must still pick the exact winner (INT 2
  // below DOUBLE 2.4); SUM/AVG/COUNT are unaffected by the gating.
  const std::string mixed = "CASE WHEN i IS NULL THEN d1 ELSE i END";
  const std::string q = "SELECT g, MIN(" + mixed + "), MAX(" + mixed +
                        "), SUM(" + mixed + "), COUNT(" + mixed + "), AVG(" +
                        mixed + ") FROM m GROUP BY g ORDER BY g";
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "interpreter");
    db.set_vectorized_execution(vectorized);
    auto mm = s->Execute(q);
    ASSERT_TRUE(mm.ok()) << mm.status().ToString();
    EXPECT_EQ(s->last_vectorized(), vectorized);
    ASSERT_EQ(mm->rows.size(), 3u);
    for (int64_t g = 0; g < 3; ++g) {
      int64_t doubles = 0, ints = 0;
      for (int k = 0; k < 1500; ++k) {
        if (k % 3 == g) ++(k < 1024 ? doubles : ints);
      }
      const Row& r = mm->rows[g];
      EXPECT_EQ(r[1].type(), ValueType::kInt);
      EXPECT_EQ(r[1].ToString(), "2");
      EXPECT_EQ(r[2].type(), ValueType::kDouble);
      EXPECT_EQ(r[2].ToString(), "2.4");
      EXPECT_NEAR(r[3].AsDouble(), 2.4 * doubles + 2.0 * ints, 1e-9);
      EXPECT_EQ(r[4].AsInt(), doubles + ints);
      EXPECT_NEAR(r[5].AsDouble(),
                  (2.4 * doubles + 2.0 * ints) / (doubles + ints), 1e-12);
    }
  }
  ExpectParity(db, *s, q, {}, /*ordered=*/true);
}

TEST_P(ExecParityTest, StringPredicateFallsBackInsteadOfCrashing) {
  // A bare string-typed WHERE conjunct has no vector truthiness; the
  // engine must hand the statement to the interpreter, not misread the
  // string vector as booleans.
  db_->set_vectorized_execution(true);
  auto rs = s_->Execute("SELECT COUNT(*) FROM t WHERE d");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(s_->last_vectorized());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kColumnStore);
}

TEST_P(ExecParityTest, SnapshotWatermarkIsReported) {
  db_->set_vectorized_execution(true);
  auto rs = s_->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(s_->last_vectorized());
  // The replica is fully caught up, so the statement executed "as of" the
  // current replication watermark.
  EXPECT_EQ(s_->last_snapshot_ts(), db_->column_store().replicated_ts());
  EXPECT_GT(s_->last_snapshot_ts(), 0u);
}

// ------------------------- hash-join parity suite --------------------------

/// Star-ish schema: `cust` (dimension), `ord` (fact, with NULL join keys
/// sprinkled in), `item` (second dimension). Every query below must produce
/// identical results through the vectorized hash join and the interpreter's
/// nested-loop join.
class JoinParityTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto p = TestProfile();
    p.columnar_encoding = GetParam();
    db_ = std::make_unique<engine::Database>(p);
    s_ = db_->CreateSession();
    s_->set_charging_enabled(false);
    ASSERT_TRUE(s_->Execute("CREATE TABLE cust (id INT PRIMARY KEY, "
                            "region INT, name VARCHAR, credit DOUBLE)")
                    .ok());
    ASSERT_TRUE(s_->Execute("CREATE TABLE ord (oid INT PRIMARY KEY, "
                            "cust_id INT, item_id INT, qty INT, "
                            "amount DOUBLE)")
                    .ok());
    ASSERT_TRUE(s_->Execute("CREATE TABLE item (iid INT PRIMARY KEY, "
                            "grp INT, price DOUBLE)")
                    .ok());
    Rng rng(7);
    const char* names[] = {"ada", "bo", "cy", "dee", "eli"};
    for (int id = 1; id <= 211; ++id) {
      ASSERT_TRUE(
          s_->Execute("INSERT INTO cust VALUES (?, ?, ?, ?)",
                      {Value::Int(id), Value::Int(id % 7),
                       Value::String(names[id % 5]),
                       Value::Double(rng.Uniform(0.0, 1.0))})
              .ok());
    }
    for (int iid = 0; iid < 50; ++iid) {
      ASSERT_TRUE(s_->Execute("INSERT INTO item VALUES (?, ?, ?)",
                              {Value::Int(iid), Value::Int(iid % 4),
                               Value::Double((iid % 5) + 1.0)})
                      .ok());
    }
    for (int oid = 1; oid <= 853; ++oid) {
      std::vector<Value> row;
      row.push_back(Value::Int(oid));
      // NULL join keys and dangling references (cust ids above 211) must
      // drop the row from the join in both engines.
      row.push_back(oid % 19 == 0
                        ? Value::Null()
                        : Value::Int(rng.Uniform(int64_t{1}, int64_t{260})));
      row.push_back(Value::Int(rng.Uniform(int64_t{0}, int64_t{199})));
      row.push_back(Value::Int(rng.Uniform(int64_t{1}, int64_t{5})));
      row.push_back(Value::Double(rng.Uniform(1.0, 300.0)));
      ASSERT_TRUE(
          s_->Execute("INSERT INTO ord VALUES (?, ?, ?, ?, ?)", row).ok());
    }
    db_->WaitReplicaCaughtUp();
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Session> s_;
};

INSTANTIATE_TEST_SUITE_P(
    Storage, JoinParityTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? std::string("Encoded") : std::string("Raw");
    });

TEST_P(JoinParityTest, TwoTableEquiJoins) {
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o, cust c "
               "WHERE o.cust_id = c.id");
  ExpectParity(*db_, *s_,
               "SELECT o.oid, c.name FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.region = 2 AND o.qty > 2");
  ExpectParity(*db_, *s_,
               "SELECT o.oid, o.amount * c.credit FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.credit > 0.25");
  // Join key flipped around the equality: same plan either way.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM cust c JOIN ord o ON c.id = o.cust_id");
}

TEST_P(JoinParityTest, JoinAggregatesAndOrdering) {
  ExpectParity(*db_, *s_,
               "SELECT c.region, COUNT(*), SUM(o.amount), MAX(o.qty) "
               "FROM ord o JOIN cust c ON o.cust_id = c.id "
               "GROUP BY c.region ORDER BY c.region",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT c.name, AVG(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id GROUP BY c.name "
               "HAVING COUNT(*) > 10 ORDER BY c.name",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT o.oid, c.name FROM ord o JOIN cust c "
               "ON o.cust_id = c.id WHERE c.credit > 0.5 "
               "ORDER BY o.oid LIMIT 20",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT DISTINCT c.region FROM ord o JOIN cust c "
               "ON o.cust_id = c.id");
  // ~120 rows per region: tied keys keep the plan's driving order (cust,
  // the smaller side, so the vectorized join must not swap sides), and
  // LIMIT takes the prefix of that stable order.
  ExpectParity(*db_, *s_,
               "SELECT c.region, o.oid FROM cust c JOIN ord o "
               "ON o.cust_id = c.id ORDER BY c.region",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT c.region, COUNT(*) FROM cust c JOIN ord o "
               "ON o.cust_id = c.id GROUP BY c.region ORDER BY 2 LIMIT 3",
               {}, /*ordered=*/true);
}

TEST_P(JoinParityTest, ThreeTableJoin) {
  ExpectParity(*db_, *s_,
               "SELECT i.grp, COUNT(*), SUM(o.qty * i.price) "
               "FROM ord o JOIN cust c ON o.cust_id = c.id "
               "JOIN item i ON i.iid = o.item_id % 50 "
               "WHERE c.region <> 1 GROUP BY i.grp ORDER BY i.grp",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id JOIN item i ON i.iid = o.item_id % 50 "
               "AND i.grp = o.qty % 4");
}

TEST_P(JoinParityTest, CompositeAndCrossFamilyKeys) {
  // Composite hash key (two equi conjuncts on one step).
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id AND o.qty = c.region");
  // DOUBLE build key probed with an INT expression: Value semantics equate
  // integral doubles with ints, and so must the hash table.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(i.price) FROM ord o JOIN item i "
               "ON i.price = o.qty");
  // Equi key plus a non-equi residual re-checked after the join.
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id AND o.amount > c.credit * 100");
}

TEST_P(JoinParityTest, GroupRepresentativeSlotsMatchInterpreter) {
  // c.credit is not a GROUP BY key: its per-group value comes from the
  // group's first joined tuple, which depends on the driving order. cust is
  // the smaller side here, so a bare smaller-side build swap would stream
  // ord and pick different representatives than the interpreter — the
  // engine must keep the plan's driving order for such shapes.
  ExpectParity(*db_, *s_,
               "SELECT c.region, c.credit, COUNT(*) FROM cust c "
               "JOIN ord o ON o.cust_id = c.id GROUP BY c.region "
               "ORDER BY c.region",
               {}, /*ordered=*/true);
  ExpectParity(*db_, *s_,
               "SELECT c.region, SUM(o.amount) FROM cust c "
               "JOIN ord o ON o.cust_id = c.id GROUP BY c.region "
               "HAVING MAX(o.qty) > 1 ORDER BY c.region",
               {}, /*ordered=*/true);
}

TEST_P(JoinParityTest, InnerKeyReadsUnprojectedOuterSlot) {
  // cust is probed by pk with o.cust_id, which no projection reads, and
  // o.qty only filters: the interpreter's needed-slot fill must still
  // carry both into the tuple.
  std::map<int64_t, Row> cust;  // id -> (id, region, name)
  for (Row& r : Rows(*s_, "SELECT id, region, name FROM cust")) {
    cust[r[0].AsInt()] = r;
  }
  std::vector<std::string> want;
  std::map<int64_t, std::pair<int64_t, int64_t>> by_region;  // count, qty
  for (const Row& o : Rows(*s_, "SELECT oid, cust_id, qty FROM ord")) {
    if (o[1].is_null()) continue;
    auto it = cust.find(o[1].AsInt());
    if (it == cust.end()) continue;
    if (o[2].AsInt() == 3) want.push_back(RowString({o[0], it->second[2]}));
    auto& agg = by_region[it->second[1].AsInt()];
    ++agg.first;
    agg.second += o[2].AsInt();
  }
  ASSERT_FALSE(want.empty());
  ExpectRows(*db_, *s_,
             "SELECT o.oid, c.name FROM ord o JOIN cust c "
             "ON c.id = o.cust_id WHERE o.qty = 3",
             want, /*ordered=*/false);
  want.clear();
  for (const auto& [region, agg] : by_region) {
    want.push_back(RowString(
        {Value::Int(region), Value::Int(agg.first), Value::Int(agg.second)}));
  }
  ExpectRows(*db_, *s_,
             "SELECT c.region, COUNT(*), SUM(o.qty) FROM ord o JOIN cust c "
             "ON c.id = o.cust_id GROUP BY c.region ORDER BY c.region",
             want, /*ordered=*/true);
}

TEST_P(JoinParityTest, NullKeysNeverJoin) {
  // The NULL cust_ids must not match anything (NULL = NULL is false).
  db_->set_vectorized_execution(true);
  auto joined = s_->Execute(
      "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id "
      "AND c.id IS NULL");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_TRUE(s_->last_vectorized());
  EXPECT_EQ(joined->rows[0][0].AsInt(), 0);
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id");
}

TEST_P(JoinParityTest, PostDeleteSlotReuseParity) {
  // Free build-side slots and recycle them: the hash build must skip dead
  // slots and see recycled ones exactly like the interpreter.
  ASSERT_TRUE(s_->Execute("DELETE FROM cust WHERE id % 3 = 0").ok());
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_,
               "SELECT COUNT(*), SUM(o.amount) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id");
  for (int id = 500; id < 560; ++id) {
    ASSERT_TRUE(s_->Execute("INSERT INTO cust VALUES (?, ?, ?, ?)",
                            {Value::Int(id), Value::Int(id % 7),
                             Value::String("reborn"), Value::Double(0.5)})
                    .ok());
  }
  db_->WaitReplicaCaughtUp();
  ExpectParity(*db_, *s_,
               "SELECT c.name, COUNT(*) FROM ord o JOIN cust c "
               "ON o.cust_id = c.id GROUP BY c.name");
}

TEST_P(JoinParityTest, JoinInsideTransactionPinsToRowStore) {
  ASSERT_TRUE(s_->Begin().ok());
  auto rs = s_->Execute(
      "SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust_id = c.id");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(s_->last_route(), engine::RoutedStore::kRowStore);
  EXPECT_FALSE(s_->last_vectorized());
  ASSERT_TRUE(s_->Commit().ok());
}

/// The acceptance shape: a 2-table equi-join + aggregate over a >=100k-row
/// build side routes to the replica, runs vectorized, and matches the
/// interpreter exactly.
TEST(JoinAtScale, LargeBuildSideVectorizesWithParity) {
  engine::Database db(TestProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE dim (id INT PRIMARY KEY, bucket INT)")
                  .ok());
  ASSERT_TRUE(s->Execute("CREATE TABLE fact (fid INT PRIMARY KEY, "
                         "dim_id INT, v INT)")
                  .ok());
  constexpr int kDim = 100000;
  constexpr int kFact = 120000;
  Rng rng(11);
  for (int i = 0; i < kDim; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO dim VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i % 97)})
                    .ok());
  }
  for (int i = 0; i < kFact; ++i) {
    ASSERT_TRUE(
        s->Execute("INSERT INTO fact VALUES (?, ?, ?)",
                   {Value::Int(i),
                    Value::Int(rng.Uniform(int64_t{0}, int64_t{kDim - 1})),
                    Value::Int(i % 1000)})
            .ok());
  }
  db.WaitReplicaCaughtUp();

  const std::string q =
      "SELECT d.bucket, COUNT(*), SUM(f.v) FROM fact f JOIN dim d "
      "ON f.dim_id = d.id GROUP BY d.bucket ORDER BY d.bucket";
  db.set_vectorized_execution(false);
  auto interp = s->Execute(q);
  ASSERT_TRUE(interp.ok()) << interp.status().ToString();
  EXPECT_FALSE(s->last_vectorized());

  // The at-scale join must agree with the interpreter at every lane count
  // (serial probe and morsel-parallel probe over the shared build table).
  db.set_vectorized_execution(true);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    db.set_exec_threads(threads);
    auto vec = s->Execute(q);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
    EXPECT_TRUE(s->last_vectorized());
    ASSERT_EQ(vec->rows.size(), 97u);
    EXPECT_EQ(Stringify(*vec), Stringify(*interp));
  }
}

TEST(ExecRouting, IndexedJoinDriverRoutesToRowStore) {
  auto profile = TestProfile();
  profile.cost_based_routing = true;
  engine::Database db(profile);
  // This test asserts the SERIAL cost crossover; pin it even when the
  // environment (CI's OLXP_EXEC_THREADS) forces a pool onto every
  // instance. Parallel routing is covered in parallel_exec_test.cc.
  db.set_exec_threads(1);
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE a (k INT PRIMARY KEY, r INT)").ok());
  ASSERT_TRUE(s->Execute("CREATE TABLE b (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 400; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO a VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k % 50)})
                    .ok());
    ASSERT_TRUE(s->Execute("INSERT INTO b VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k * 3)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Full-scan join: the replica (vectorized hash join) wins.
  ASSERT_TRUE(
      s->Execute("SELECT SUM(b.v) FROM a, b WHERE a.r = b.k").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);
  EXPECT_TRUE(s->last_vectorized());

  // Point-driven join (pk point on the driver, pk seek per inner row):
  // seek-dominated on the row store, far below two full replica sweeps.
  ASSERT_TRUE(s->Execute("SELECT SUM(b.v) FROM a, b WHERE a.k = 7 "
                         "AND b.k = a.r")
                  .ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
}

TEST(ExecRouting, CostBasedRouterPrefersRowStoreForIndexedShapes) {
  auto profile = TestProfile();
  profile.cost_based_routing = true;
  engine::Database db(profile);
  db.set_exec_threads(1);  // serial crossover (see note above)
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE r (k INT PRIMARY KEY, v INT)").ok());
  for (int k = 0; k < 500; ++k) {
    ASSERT_TRUE(s->Execute("INSERT INTO r VALUES (?, ?)",
                           {Value::Int(k), Value::Int(k * 2)})
                    .ok());
  }
  db.WaitReplicaCaughtUp();

  // Full-table analytical scan: replica wins.
  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM r").ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kColumnStore);

  // Pk-range shape: the row store serves it through the ordered pk index
  // for far less than a full replica sweep, so the cost router picks it.
  ASSERT_TRUE(s->Execute("SELECT SUM(v) FROM r WHERE k >= 10 AND k <= 20")
                  .ok());
  EXPECT_EQ(s->last_route(), engine::RoutedStore::kRowStore);
}

}  // namespace
}  // namespace olxp
