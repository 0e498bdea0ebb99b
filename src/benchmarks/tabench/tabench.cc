#include "benchmarks/tabench/tabench.h"

#include <thread>
#include <vector>

#include "benchmarks/common.h"
#include "common/rng.h"
#include "common/strings.h"

namespace olxp::benchmarks {

namespace {

using benchfw::TxnProfile;

/// 4 tables, 51 columns (34 + 6 + 6 + 5), 5 secondary indexes. SUBSCRIBER's
/// composite primary key (s_id, sub_nbr) is the paper's modification; note
/// there is deliberately NO index on sub_nbr alone.
const char* kTabenchDdl[] = {
    "CREATE TABLE subscriber ("
    " s_id INT, sub_nbr VARCHAR(15),"
    " bit_1 INT, bit_2 INT, bit_3 INT, bit_4 INT, bit_5 INT,"
    " bit_6 INT, bit_7 INT, bit_8 INT, bit_9 INT, bit_10 INT,"
    " hex_1 INT, hex_2 INT, hex_3 INT, hex_4 INT, hex_5 INT,"
    " hex_6 INT, hex_7 INT, hex_8 INT, hex_9 INT, hex_10 INT,"
    " byte2_1 INT, byte2_2 INT, byte2_3 INT, byte2_4 INT, byte2_5 INT,"
    " byte2_6 INT, byte2_7 INT, byte2_8 INT, byte2_9 INT, byte2_10 INT,"
    " msc_location INT, vlr_location INT,"
    " PRIMARY KEY (s_id, sub_nbr))",

    "CREATE TABLE access_info ("
    " s_id INT, ai_type INT, data1 INT, data2 INT,"
    " data3 VARCHAR(3), data4 VARCHAR(5),"
    " PRIMARY KEY (s_id, ai_type))",

    "CREATE TABLE special_facility ("
    " s_id INT, sf_type INT, is_active INT, error_cntrl INT,"
    " data_a INT, data_b VARCHAR(5),"
    " PRIMARY KEY (s_id, sf_type))",

    "CREATE TABLE call_forwarding ("
    " s_id INT, sf_type INT, start_time INT, end_time INT,"
    " numberx VARCHAR(15),"
    " PRIMARY KEY (s_id, sf_type, start_time))",

    "CREATE INDEX idx_ai_sid ON access_info (s_id)",
    "CREATE INDEX idx_sf_active ON special_facility (s_id, is_active)",
    "CREATE INDEX idx_cf_sid ON call_forwarding (s_id, sf_type)",
    "CREATE INDEX idx_sub_vlr ON subscriber (vlr_location)",
    "CREATE INDEX idx_sub_msc ON subscriber (msc_location)",
};

Status CreateTabenchSchema(engine::Session& s) {
  for (const char* ddl : kTabenchDdl) {
    OLXP_RETURN_NOT_OK(Exec(s, ddl));
  }
  return Status::OK();
}

std::string SubNbr(int64_t s_id) { return StrFormat("%015lld",
                                                    static_cast<long long>(
                                                        s_id)); }

Status LoadTabench(engine::Database& db, const benchfw::LoadParams& params) {
  const int subscribers = params.scale * 1000;
  std::vector<std::thread> threads;
  std::vector<Status> results(params.load_threads, Status::OK());
  int per = (subscribers + params.load_threads - 1) / params.load_threads;
  for (int t = 0; t < params.load_threads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db.CreateSession();
      engine::Session& s = *session;
      s.set_charging_enabled(false);
      Rng rng(params.seed * 977 + t);
      int begin = 1 + t * per;
      int end = std::min(subscribers + 1, begin + per);
      auto load_range = [&]() -> Status {
        OLXP_RETURN_NOT_OK(s.Begin());
        for (int id = begin; id < end; ++id) {
          std::vector<Value> sub;
          sub.push_back(Value::Int(id));
          sub.push_back(Value::String(SubNbr(id)));
          for (int b = 0; b < 10; ++b) {
            sub.push_back(Value::Int(rng.Uniform(int64_t{0}, int64_t{1})));
          }
          for (int h = 0; h < 10; ++h) {
            sub.push_back(Value::Int(rng.Uniform(int64_t{0}, int64_t{15})));
          }
          for (int b2 = 0; b2 < 10; ++b2) {
            sub.push_back(Value::Int(rng.Uniform(int64_t{0}, int64_t{255})));
          }
          sub.push_back(Value::Int(rng.Uniform(int64_t{1}, int64_t{1 << 16})));
          sub.push_back(Value::Int(rng.Uniform(int64_t{1}, int64_t{1 << 16})));
          auto rs = s.Execute(
              "INSERT INTO subscriber VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
              " ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
              " ?, ?, ?, ?)",
              std::span<const Value>(sub));
          if (!rs.ok()) return rs.status();

          // 1-4 ACCESS_INFO rows.
          int ai_cnt = static_cast<int>(rng.Uniform(int64_t{1}, int64_t{4}));
          for (int ai = 1; ai <= ai_cnt; ++ai) {
            OLXP_RETURN_NOT_OK(Exec(
                s, "INSERT INTO access_info VALUES (?, ?, ?, ?, ?, ?)",
                {Value::Int(id), Value::Int(ai),
                 Value::Int(rng.Uniform(int64_t{0}, int64_t{255})),
                 Value::Int(rng.Uniform(int64_t{0}, int64_t{255})),
                 Value::String(rng.AlnumString(3)),
                 Value::String(rng.AlnumString(5))}));
          }
          // 1-4 SPECIAL_FACILITY rows, each with 0-3 CALL_FORWARDING rows.
          int sf_cnt = static_cast<int>(rng.Uniform(int64_t{1}, int64_t{4}));
          for (int sf = 1; sf <= sf_cnt; ++sf) {
            OLXP_RETURN_NOT_OK(Exec(
                s,
                "INSERT INTO special_facility VALUES (?, ?, ?, ?, ?, ?)",
                {Value::Int(id), Value::Int(sf),
                 Value::Int(rng.Chance(0.85) ? 1 : 0),
                 Value::Int(rng.Uniform(int64_t{0}, int64_t{255})),
                 Value::Int(rng.Uniform(int64_t{0}, int64_t{255})),
                 Value::String(rng.AlnumString(5))}));
            int cf_cnt = static_cast<int>(rng.Uniform(int64_t{0}, int64_t{3}));
            for (int cf = 0; cf < cf_cnt; ++cf) {
              OLXP_RETURN_NOT_OK(Exec(
                  s, "INSERT INTO call_forwarding VALUES (?, ?, ?, ?, ?)",
                  {Value::Int(id), Value::Int(sf), Value::Int(cf * 8),
                   Value::Int(cf * 8 + rng.Uniform(int64_t{1}, int64_t{8})),
                   Value::String(rng.DigitString(15))}));
            }
          }
          if ((id - begin) % 100 == 99) {
            OLXP_RETURN_NOT_OK(s.Commit());
            OLXP_RETURN_NOT_OK(s.Begin());
          }
        }
        return s.Commit();
      };
      if (begin < end) results[t] = load_range();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : results) OLXP_RETURN_NOT_OK(st);
  return Status::OK();
}

int64_t RandSub(Rng& rng, int subscribers) {
  return rng.NURand(65535, 1, subscribers);
}

// ------------------------------ OLTP bodies ------------------------------

/// GetSubscriberData (read-only): full-row point read through the composite
/// pk (both components known).
Status GetSubscriberDataBody(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  auto rs = Query(
      s, "SELECT * FROM subscriber WHERE s_id = ? AND sub_nbr = ?",
      {Value::Int(id), Value::String(SubNbr(id))});
  return rs.ok() ? Status::OK() : rs.status();
}

/// GetNewDestination (read-only): join SPECIAL_FACILITY x CALL_FORWARDING.
Status GetNewDestinationBody(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  const int64_t start = rng.Uniform(int64_t{0}, int64_t{2}) * 8;
  auto rs = Query(
      s, "SELECT cf.numberx FROM special_facility sf, call_forwarding cf "
         "WHERE sf.s_id = ? AND sf.sf_type = ? AND sf.is_active = 1 AND "
         "cf.s_id = sf.s_id AND cf.sf_type = sf.sf_type AND "
         "cf.start_time <= ? AND cf.end_time > ?",
      {Value::Int(id), Value::Int(sf), Value::Int(start), Value::Int(start)});
  return rs.ok() ? Status::OK() : rs.status();
}

/// GetAccessData (read-only).
Status GetAccessDataBody(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t ai = rng.Uniform(int64_t{1}, int64_t{4});
  auto rs = Query(
      s, "SELECT data1, data2, data3, data4 FROM access_info WHERE "
         "s_id = ? AND ai_type = ?",
      {Value::Int(id), Value::Int(ai)});
  return rs.ok() ? Status::OK() : rs.status();
}

/// UpdateSubscriberData: flip a bit + special-facility data.
Status UpdateSubscriberDataBody(engine::Session& s, Rng& rng,
                                int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  return InTxn(s, [&]() -> Status {
    OLXP_RETURN_NOT_OK(Exec(
        s, "UPDATE subscriber SET bit_1 = ? WHERE s_id = ? AND sub_nbr = ?",
        {Value::Int(rng.Uniform(int64_t{0}, int64_t{1})), Value::Int(id),
         Value::String(SubNbr(id))}));
    return Exec(
        s, "UPDATE special_facility SET data_a = ? WHERE s_id = ? AND "
           "sf_type = ?",
        {Value::Int(rng.Uniform(int64_t{0}, int64_t{255})), Value::Int(id),
         Value::Int(sf)});
  });
}

/// UpdateLocation: the sub_nbr-only lookup cannot use the composite pk —
/// slow query (full scan on the row store).
Status UpdateLocationBody(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t vlr = rng.Uniform(int64_t{1}, int64_t{1 << 16});
  return InTxn(s, [&]() -> Status {
    return Exec(s, "UPDATE subscriber SET vlr_location = ? WHERE sub_nbr = ?",
                {Value::Int(vlr), Value::String(SubNbr(id))});
  });
}

/// InsertCallForwarding.
Status InsertCallForwardingBody(engine::Session& s, Rng& rng,
                                int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  const int64_t start = rng.Uniform(int64_t{0}, int64_t{2}) * 8;
  return InTxn(s, [&]() -> Status {
    auto facs = Query(
        s, "SELECT sf_type FROM special_facility WHERE s_id = ?",
        {Value::Int(id)});
    if (!facs.ok()) return facs.status();
    Status st = Exec(
        s, "INSERT INTO call_forwarding VALUES (?, ?, ?, ?, ?)",
        {Value::Int(id), Value::Int(sf), Value::Int(start),
         Value::Int(start + rng.Uniform(int64_t{1}, int64_t{8})),
         Value::String(rng.DigitString(15))});
    if (st.code() == StatusCode::kAlreadyExists) {
      return Status::Aborted("duplicate call forwarding");
    }
    return st;
  });
}

/// DeleteCallForwarding: contains the paper's slow query —
/// "SELECT s_id FROM SUBSCRIBER WHERE sub_nbr = ?" against the composite
/// primary key (§VI-C1).
Status DeleteCallForwardingBody(engine::Session& s, Rng& rng,
                                int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  const int64_t start = rng.Uniform(int64_t{0}, int64_t{2}) * 8;
  return InTxn(s, [&]() -> Status {
    auto sid = Query(s, "SELECT s_id FROM subscriber WHERE sub_nbr = ?",
                     {Value::String(SubNbr(id))});
    if (!sid.ok()) return sid.status();
    if (sid->rows.empty()) return Status::Aborted("unknown subscriber");
    Status st = Exec(
        s, "DELETE FROM call_forwarding WHERE s_id = ? AND sf_type = ? AND "
           "start_time = ?",
        {Value::Int(sid->rows[0][0].AsInt()), Value::Int(sf),
         Value::Int(start)});
    if (st.code() == StatusCode::kNotFound) {
      return Status::Aborted("no matching call forwarding");
    }
    return st;
  });
}

// --------------------------- analytical queries --------------------------

/// Q1: active special-facility ratio per type.
Status TQ1(engine::Session& s, Rng&) {
  auto rs = Query(
      s, "SELECT sf_type, COUNT(*), SUM(is_active), AVG(is_active) FROM "
         "special_facility GROUP BY sf_type ORDER BY sf_type");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q2: subscriber density per VLR location band.
Status TQ2(engine::Session& s, Rng&) {
  auto rs = Query(
      s, "SELECT vlr_location / 8192, COUNT(*) FROM subscriber "
         "GROUP BY vlr_location / 8192 ORDER BY 1");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q3: Start Time Query — average call-forwarding start time (the paper's
/// load-forecasting example, arithmetic included).
Status TQ3(engine::Session& s, Rng&) {
  auto rs = Query(
      s, "SELECT AVG(start_time), AVG(end_time - start_time), COUNT(*) "
         "FROM call_forwarding");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q4: access-data aggregates joined with subscribers.
Status TQ4(engine::Session& s, Rng&) {
  auto rs = Query(
      s, "SELECT ai.ai_type, COUNT(*), AVG(ai.data1 + ai.data2) FROM "
         "access_info ai JOIN subscriber su ON su.s_id = ai.s_id "
         "GROUP BY ai.ai_type ORDER BY ai.ai_type");
  return rs.ok() ? Status::OK() : rs.status();
}

/// Q5: forwarding coverage per facility type (join + sub-selection).
Status TQ5(engine::Session& s, Rng&) {
  auto rs = Query(
      s, "SELECT sf.sf_type, COUNT(*) FROM special_facility sf WHERE "
         "sf.is_active = 1 AND sf.s_id IN (SELECT s_id FROM "
         "call_forwarding WHERE end_time - start_time > 4) "
         "GROUP BY sf.sf_type ORDER BY sf.sf_type");
  return rs.ok() ? Status::OK() : rs.status();
}

// --------------------------- hybrid transactions --------------------------

/// X1 (read-only): subscriber-data read anchored on a real-time active
/// facility count.
Status TX1(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  return InTxn(s, [&]() -> Status {
    auto active = Query(
        s, "SELECT COUNT(*) FROM special_facility WHERE is_active = 1");
    if (!active.ok()) return active.status();
    auto sub = Query(
        s, "SELECT s_id, vlr_location FROM subscriber WHERE s_id = ? AND "
           "sub_nbr = ?",
        {Value::Int(id), Value::String(SubNbr(id))});
    return sub.ok() ? Status::OK() : sub.status();
  });
}

/// X2 (read-only): destination lookup with a real-time forwarding-load
/// aggregate.
Status TX2(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  return InTxn(s, [&]() -> Status {
    auto load = Query(s, "SELECT AVG(start_time) FROM call_forwarding");
    if (!load.ok()) return load.status();
    auto cf = Query(s, "SELECT numberx FROM call_forwarding WHERE s_id = ?",
                    {Value::Int(id)});
    return cf.ok() ? Status::OK() : cf.status();
  });
}

/// X3: location update guided by a real-time density aggregate (write).
Status TX3(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t vlr = rng.Uniform(int64_t{1}, int64_t{1 << 16});
  return InTxn(s, [&]() -> Status {
    auto density = Query(
        s, "SELECT COUNT(*) FROM subscriber WHERE vlr_location = ?",
        {Value::Int(vlr)});
    if (!density.ok()) return density.status();
    return Exec(
        s, "UPDATE subscriber SET vlr_location = ? WHERE s_id = ? AND "
           "sub_nbr = ?",
        {Value::Int(vlr), Value::Int(id), Value::String(SubNbr(id))});
  });
}

/// X4: call-forwarding insert after a real-time duration aggregate (write).
Status TX4(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  const int64_t start = rng.Uniform(int64_t{0}, int64_t{2}) * 8 + 1;
  return InTxn(s, [&]() -> Status {
    auto dur = Query(
        s, "SELECT AVG(end_time - start_time) FROM call_forwarding");
    if (!dur.ok()) return dur.status();
    Status st = Exec(
        s, "INSERT INTO call_forwarding VALUES (?, ?, ?, ?, ?)",
        {Value::Int(id), Value::Int(sf), Value::Int(start),
         Value::Int(start + 4), Value::String(rng.DigitString(15))});
    if (st.code() == StatusCode::kAlreadyExists) {
      return Status::Aborted("duplicate call forwarding");
    }
    return st;
  });
}

/// X5: facility flip with a real-time error-control scan (write).
Status TX5(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  const int64_t sf = rng.Uniform(int64_t{1}, int64_t{4});
  return InTxn(s, [&]() -> Status {
    auto err = Query(s, "SELECT AVG(error_cntrl) FROM special_facility");
    if (!err.ok()) return err.status();
    return Exec(
        s, "UPDATE special_facility SET is_active = 1 - is_active WHERE "
           "s_id = ? AND sf_type = ?",
        {Value::Int(id), Value::Int(sf)});
  });
}

/// X6: the paper's Fuzzy Search Transaction — real-time LIKE sub-string
/// search over subscriber numbers, then a profile update (write).
Status TX6(engine::Session& s, Rng& rng, int subscribers) {
  const int64_t id = RandSub(rng, subscribers);
  // Middle-digits fuzzy pattern, e.g. '%0042%'.
  std::string fragment = SubNbr(id).substr(9, 4);
  return InTxn(s, [&]() -> Status {
    auto fuzzy = Query(
        s, "SELECT s_id, sub_nbr, msc_location FROM subscriber WHERE "
           "sub_nbr LIKE ?",
        {Value::String("%" + fragment + "%")});
    if (!fuzzy.ok()) return fuzzy.status();
    return Exec(
        s, "UPDATE subscriber SET msc_location = msc_location + 1 WHERE "
           "s_id = ? AND sub_nbr = ?",
        {Value::Int(id), Value::String(SubNbr(id))});
  });
}

}  // namespace

benchfw::BenchmarkSuite MakeTabenchmark(benchfw::LoadParams params) {
  benchfw::BenchmarkSuite suite;
  suite.load_params = params;
  suite.name = "tabenchmark";
  suite.domain = "telecom";
  suite.create_schema = CreateTabenchSchema;
  suite.load = LoadTabench;
  suite.has_hybrid_txn = true;
  suite.has_real_time_query = true;
  suite.semantically_consistent_schema = true;
  suite.general_benchmark = false;
  suite.domain_specific_benchmark = true;

  const int subscribers = params.scale * 1000;
  auto mk = [subscribers](Status (*fn)(engine::Session&, Rng&, int)) {
    return [fn, subscribers](engine::Session& s, Rng& r) {
      return fn(s, r, subscribers);
    };
  };

  // 80% read-only: GetSubscriberData + GetNewDestination + GetAccessData.
  suite.transactions = {
      {"GetSubscriberData", 35, true, mk(GetSubscriberDataBody)},
      {"GetNewDestination", 10, true, mk(GetNewDestinationBody)},
      {"GetAccessData", 35, true, mk(GetAccessDataBody)},
      {"UpdateSubscriberData", 2, false, mk(UpdateSubscriberDataBody)},
      {"UpdateLocation", 14, false, mk(UpdateLocationBody)},
      {"InsertCallForwarding", 2, false, mk(InsertCallForwardingBody)},
      {"DeleteCallForwarding", 2, false, mk(DeleteCallForwardingBody)},
  };
  suite.queries = {
      {"Q1", 1, true, TQ1}, {"Q2", 1, true, TQ2}, {"Q3", 1, true, TQ3},
      {"Q4", 1, true, TQ4}, {"Q5", 1, true, TQ5},
  };
  // 40% read-only: X1 + X2.
  suite.hybrids = {
      {"X1", 20, true, mk(TX1)},  {"X2", 20, true, mk(TX2)},
      {"X3", 15, false, mk(TX3)}, {"X4", 15, false, mk(TX4)},
      {"X5", 15, false, mk(TX5)}, {"X6", 15, false, mk(TX6)},
  };
  return suite;
}

}  // namespace olxp::benchmarks
