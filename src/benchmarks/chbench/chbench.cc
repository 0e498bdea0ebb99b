#include "benchmarks/chbench/chbench.h"

#include <vector>

#include "benchmarks/common.h"
#include "benchmarks/subench/subench.h"
#include "common/rng.h"
#include "common/strings.h"

namespace olxp::benchmarks {

// Reuses the TPC-C DDL, loader and transactions from subenchmark (CH-bench
// "launches the online transactions adopted from TPC-C").
void AddSubenchWorkloads(benchfw::BenchmarkSuite* suite);

namespace {

using benchfw::TxnProfile;

/// The three TPC-H tables stitched onto the TPC-C schema. Online
/// transactions never touch them — by design of CH-benCHmark, and that is
/// exactly the flaw §III-B2 quantifies.
const char* kStitchDdl[] = {
    "CREATE TABLE supplier ("
    " su_suppkey INT PRIMARY KEY, su_name VARCHAR(25),"
    " su_address VARCHAR(40), su_nationkey INT, su_phone VARCHAR(15),"
    " su_acctbal DOUBLE, su_comment VARCHAR(100))",

    "CREATE TABLE nation ("
    " n_nationkey INT PRIMARY KEY, n_name VARCHAR(25), n_regionkey INT,"
    " n_comment VARCHAR(100))",

    "CREATE TABLE region ("
    " r_regionkey INT PRIMARY KEY, r_name VARCHAR(25),"
    " r_comment VARCHAR(100))",
};

Status LoadStitchTables(engine::Database& db,
                        const benchfw::LoadParams& params) {
  auto session = db.CreateSession();
  engine::Session& s = *session;
  s.set_charging_enabled(false);
  Rng rng(params.seed * 4241);

  static const char* kRegionNames[kChRegions] = {
      "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
  for (int r = 0; r < kChRegions; ++r) {
    OLXP_RETURN_NOT_OK(Exec(s, "INSERT INTO region VALUES (?, ?, ?)",
                            {Value::Int(r), Value::String(kRegionNames[r]),
                             Value::String(rng.AlnumString(40, 80))}));
  }
  for (int n = 0; n < kChNations; ++n) {
    OLXP_RETURN_NOT_OK(Exec(
        s, "INSERT INTO nation VALUES (?, ?, ?, ?)",
        {Value::Int(n), Value::String("nation-" + std::to_string(n)),
         Value::Int(n % kChRegions), Value::String(rng.AlnumString(40, 80))}));
  }
  for (int su = 0; su < kChSuppliers; ++su) {
    OLXP_RETURN_NOT_OK(Exec(
        s, "INSERT INTO supplier VALUES (?, ?, ?, ?, ?, ?, ?)",
        {Value::Int(su), Value::String(StrFormat("Supplier#%09d", su)),
         Value::String(rng.AlnumString(20, 40)), Value::Int(su % kChNations),
         Value::String(rng.DigitString(15)),
         Value::Double(rng.Uniform(-999.99, 9999.99)),
         Value::String(rng.AlnumString(40, 100))}));
  }
  return Status::OK();
}

/// One fixed-text CH query. Queries that take parameters draw them inline
/// from the Rng to keep this table declarative.
struct ChQuery {
  const char* name;
  const char* sql;
};

// Simplified but join-faithful renderings of the 22 CH-benCHmark queries
// against our SQL dialect. Supplier linkage follows CH's convention
// su_suppkey = (s_w_id * s_i_id) mod #suppliers; customer-nation linkage
// uses (c_w_id * 10 + c_d_id) mod #nations.
// Table-access tags (S/N/R) preserve the paper's 10/9/3 mix.
const ChQuery kChQueries[] = {
    {"Q01",  // order_line aggregate
     "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), AVG(ol_quantity), "
     "AVG(ol_amount), COUNT(*) FROM order_line GROUP BY ol_number "
     "ORDER BY ol_number"},
    {"Q02",  // [S][N][R] min-stock suppliers per region
     "SELECT su.su_suppkey, n.n_name, COUNT(*), MIN(st.s_quantity) "
     "FROM stock st JOIN supplier su ON su.su_suppkey = "
     "(st.s_w_id * st.s_i_id) % 100 JOIN nation n ON n.n_nationkey = "
     "su.su_nationkey JOIN region r ON r.r_regionkey = n.n_regionkey "
     "WHERE r.r_name LIKE 'E%' GROUP BY su.su_suppkey, n.n_name "
     "ORDER BY su.su_suppkey LIMIT 50"},
    {"Q03",  // unshipped orders
     "SELECT o.o_id, o.o_w_id, o.o_d_id, SUM(ol.ol_amount) AS revenue "
     "FROM orders o JOIN order_line ol ON ol.ol_w_id = o.o_w_id AND "
     "ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id WHERE "
     "o.o_carrier_id IS NULL GROUP BY o.o_id, o.o_w_id, o.o_d_id "
     "ORDER BY revenue DESC LIMIT 20"},
    {"Q04",  // order count by delivery state
     "SELECT o_ol_cnt, COUNT(*) FROM orders GROUP BY o_ol_cnt "
     "ORDER BY o_ol_cnt"},
    {"Q05",  // [S][N][R] revenue per nation
     "SELECT n.n_name, SUM(ol.ol_amount) AS revenue FROM order_line ol "
     "JOIN stock st ON st.s_w_id = ol.ol_supply_w_id AND "
     "st.s_i_id = ol.ol_i_id JOIN supplier su ON su.su_suppkey = "
     "(st.s_w_id * st.s_i_id) % 100 JOIN nation n ON n.n_nationkey = "
     "su.su_nationkey JOIN region r ON r.r_regionkey = n.n_regionkey "
     "GROUP BY n.n_name ORDER BY revenue DESC"},
    {"Q06",  // big-quantity revenue
     "SELECT SUM(ol_amount) FROM order_line WHERE ol_quantity BETWEEN 1 "
     "AND 100000"},
    {"Q07",  // [S][N] supply volume per nation
     "SELECT su.su_nationkey, SUM(ol.ol_amount) FROM order_line ol "
     "JOIN stock st ON st.s_w_id = ol.ol_supply_w_id AND st.s_i_id = "
     "ol.ol_i_id JOIN supplier su ON su.su_suppkey = "
     "(st.s_w_id * st.s_i_id) % 100 JOIN nation n ON n.n_nationkey = "
     "su.su_nationkey GROUP BY su.su_nationkey ORDER BY su.su_nationkey"},
    {"Q08",  // [S][N][R] market share
     "SELECT n.n_name, AVG(ol.ol_amount) FROM order_line ol JOIN stock st "
     "ON st.s_w_id = ol.ol_supply_w_id AND st.s_i_id = ol.ol_i_id "
     "JOIN supplier su ON su.su_suppkey = (st.s_w_id * st.s_i_id) % 100 "
     "JOIN nation n ON n.n_nationkey = su.su_nationkey JOIN region r ON "
     "r.r_regionkey = n.n_regionkey WHERE r.r_name LIKE 'A%' "
     "GROUP BY n.n_name"},
    {"Q09",  // [S][N] profit by nation
     "SELECT n.n_name, SUM(ol.ol_amount) - COUNT(*) AS profit FROM "
     "order_line ol JOIN item i ON i.i_id = ol.ol_i_id JOIN stock st ON "
     "st.s_w_id = ol.ol_supply_w_id AND st.s_i_id = ol.ol_i_id JOIN "
     "supplier su ON su.su_suppkey = (st.s_w_id * st.s_i_id) % 100 JOIN "
     "nation n ON n.n_nationkey = su.su_nationkey GROUP BY n.n_name "
     "ORDER BY profit DESC"},
    {"Q10",  // [N] returned items by customer nation
     "SELECT n.n_name, COUNT(*), SUM(c.c_balance) FROM customer c JOIN "
     "nation n ON n.n_nationkey = (c.c_w_id * 10 + c.c_d_id) % 25 WHERE "
     "c.c_balance < 0 GROUP BY n.n_name"},
    {"Q11",  // [S] important stock per supplier
     "SELECT su.su_suppkey, SUM(st.s_order_cnt) AS cnt FROM stock st JOIN "
     "supplier su ON su.su_suppkey = (st.s_w_id * st.s_i_id) % 100 "
     "GROUP BY su.su_suppkey ORDER BY cnt DESC LIMIT 20"},
    {"Q12",  // shipping priority
     "SELECT o_carrier_id, COUNT(*) FROM orders WHERE o_carrier_id IS NOT "
     "NULL GROUP BY o_carrier_id ORDER BY o_carrier_id"},
    {"Q13",  // customer order distribution
     "SELECT c_payment_cnt, COUNT(*) FROM customer GROUP BY c_payment_cnt "
     "ORDER BY c_payment_cnt"},
    {"Q14",  // promo-ish revenue share
     "SELECT 100.0 * SUM(ol_amount) / (1 + COUNT(*)) FROM order_line "
     "WHERE ol_quantity > 3"},
    {"Q15",  // [S] top supplier by revenue
     "SELECT su.su_suppkey, su.su_name, SUM(ol.ol_amount) AS total FROM "
     "order_line ol JOIN stock st ON st.s_w_id = ol.ol_supply_w_id AND "
     "st.s_i_id = ol.ol_i_id JOIN supplier su ON su.su_suppkey = "
     "(st.s_w_id * st.s_i_id) % 100 GROUP BY su.su_suppkey, su.su_name "
     "ORDER BY total DESC LIMIT 10"},
    {"Q16",  // [S] supplier-part counts
     "SELECT i.i_im_id / 1000, COUNT(*) FROM item i, supplier su WHERE "
     "su.su_suppkey = i.i_im_id % 100 AND su.su_acctbal > 0 GROUP BY "
     "i.i_im_id / 1000 ORDER BY 1"},
    {"Q17",  // small-quantity items
     "SELECT SUM(ol.ol_amount) / 2.0 FROM order_line ol JOIN item i ON "
     "i.i_id = ol.ol_i_id WHERE i.i_price < (SELECT AVG(i_price) FROM "
     "item)"},
    {"Q18",  // large-volume customers
     "SELECT c.c_id, c.c_w_id, SUM(ol.ol_amount) AS spend FROM customer c "
     "JOIN orders o ON o.o_w_id = c.c_w_id AND o.o_d_id = c.c_d_id AND "
     "o.o_c_id = c.c_id JOIN order_line ol ON ol.ol_w_id = o.o_w_id AND "
     "ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id GROUP BY c.c_id, "
     "c.c_w_id ORDER BY spend DESC LIMIT 10"},
    {"Q19",  // discounted revenue
     "SELECT SUM(ol.ol_amount) FROM order_line ol JOIN item i ON i.i_id = "
     "ol.ol_i_id WHERE i.i_price BETWEEN 10 AND 60 AND ol.ol_quantity "
     "BETWEEN 1 AND 10"},
    {"Q20",  // [S][N] promotion candidates
     "SELECT su.su_name, su.su_address FROM supplier su JOIN nation n ON "
     "n.n_nationkey = su.su_nationkey WHERE su.su_suppkey IN (SELECT "
     "(s_w_id * s_i_id) % 100 FROM stock WHERE s_quantity > 50) ORDER BY "
     "su.su_name LIMIT 20"},
    {"Q21",  // [S][N] suppliers who kept orders waiting
     "SELECT su.su_name, COUNT(*) FROM order_line ol JOIN stock st ON "
     "st.s_w_id = ol.ol_supply_w_id AND st.s_i_id = ol.ol_i_id JOIN "
     "supplier su ON su.su_suppkey = (st.s_w_id * st.s_i_id) % 100 JOIN "
     "nation n ON n.n_nationkey = su.su_nationkey WHERE ol.ol_delivery_d "
     "IS NULL GROUP BY su.su_name ORDER BY 2 DESC LIMIT 20"},
    {"Q22",  // [N] global sales opportunity
     "SELECT n.n_nationkey, COUNT(*), AVG(c.c_balance) FROM customer c "
     "JOIN nation n ON n.n_nationkey = (c.c_w_id * 10 + c.c_d_id) % 25 "
     "WHERE c.c_balance > (SELECT AVG(c_balance) FROM customer) "
     "GROUP BY n.n_nationkey ORDER BY n.n_nationkey"},
};

}  // namespace

benchfw::BenchmarkSuite MakeChBenchmark(benchfw::LoadParams params) {
  // Start from subenchmark (TPC-C DDL + loader + transactions)...
  benchfw::BenchmarkSuite suite = MakeSubenchmark(params);
  suite.name = "ch-benchmark";
  suite.domain = "stitched";
  suite.has_hybrid_txn = false;
  suite.has_real_time_query = false;
  suite.semantically_consistent_schema = false;
  suite.general_benchmark = true;
  suite.domain_specific_benchmark = false;

  // ...then stitch the TPC-H side tables onto schema and loader...
  auto base_schema = suite.create_schema;
  suite.create_schema = [base_schema](engine::Session& s) -> Status {
    OLXP_RETURN_NOT_OK(base_schema(s));
    for (const char* ddl : kStitchDdl) {
      OLXP_RETURN_NOT_OK(Exec(s, ddl));
    }
    return Status::OK();
  };
  auto base_load = suite.load;
  suite.load = [base_load](engine::Database& db,
                           const benchfw::LoadParams& p) -> Status {
    OLXP_RETURN_NOT_OK(LoadStitchTables(db, p));
    return base_load(db, p);
  };

  // ...replace the analytical side with the 22 CH queries and drop hybrids
  // (CH-benCHmark has none).
  suite.queries.clear();
  for (const ChQuery& q : kChQueries) {
    const char* sql = q.sql;
    suite.queries.push_back(TxnProfile{
        q.name, 1.0, true,
        [sql](engine::Session& s, Rng&) -> Status {
          auto rs = s.Execute(sql);
          return rs.ok() ? Status::OK() : rs.status();
        }});
  }
  suite.hybrids.clear();
  return suite;
}

}  // namespace olxp::benchmarks
