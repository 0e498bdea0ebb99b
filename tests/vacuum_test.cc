// Tests for the snapshot-watermark MVCC vacuum subsystem: the registry's
// watermark rule, chain/tombstone/index reclamation, chunked-scan
// concurrency, and the checkpoint/vacuum interleave.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "storage/table.h"
#include "storage/vacuum.h"

namespace olxp::engine {
namespace {

namespace fs = std::filesystem;
using storage::SnapshotRegistry;

/// Snapshot-isolation unified-store profile with the background vacuum
/// thread off: every test below drives passes synchronously so assertions
/// are deterministic. (The stress test turns the thread back on.)
EngineProfile SiProfile() {
  EngineProfile p = EngineProfile::MemSqlLike();
  p.isolation = txn::IsolationLevel::kSnapshotIsolation;
  p.vacuum_interval_us = 0;
  return p;
}

size_t VersionCount(Database& db, const std::string& table) {
  auto tid = db.TableId(table);
  EXPECT_TRUE(tid.ok());
  return db.row_store().table(*tid)->TotalVersionCount();
}

size_t IndexEntries(Database& db, const std::string& table) {
  auto tid = db.TableId(table);
  EXPECT_TRUE(tid.ok());
  return db.row_store().table(*tid)->IndexEntryCount();
}

size_t RowCount(Database& db, const std::string& table) {
  auto tid = db.TableId(table);
  EXPECT_TRUE(tid.ok());
  return db.row_store().table(*tid)->ApproxRowCount();
}

// ------------------------------ registry -----------------------------------

TEST(SnapshotRegistry, WatermarkIsMinOverLiveSnapshots) {
  storage::TimestampOracle oracle;
  SnapshotRegistry reg;
  for (int i = 0; i < 10; ++i) oracle.Advance();
  EXPECT_EQ(reg.Watermark(oracle), 10u);  // no snapshots: oracle bound

  uint64_t ts = 0;
  auto h1 = reg.Acquire(oracle, &ts);
  EXPECT_EQ(ts, 10u);
  for (int i = 0; i < 5; ++i) oracle.Advance();
  EXPECT_EQ(reg.Watermark(oracle), 10u);  // pinned by h1

  auto h2 = reg.Register(3);
  EXPECT_EQ(reg.Watermark(oracle), 3u);
  reg.Update(h2, SnapshotRegistry::kUnpinned);
  EXPECT_EQ(reg.Watermark(oracle), 10u);
  reg.Release(h1);
  reg.Release(h2);
  EXPECT_EQ(reg.Watermark(oracle), 15u);
  EXPECT_EQ(reg.ActiveCount(), 0u);
}

// ------------------------- watermark semantics ------------------------------

TEST(Vacuum, WatermarkRespectsOldestOpenTransaction) {
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 0)").ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        s->Execute("UPDATE t SET b = ? WHERE a = 1", {Value::Int(i)}).ok());
  }
  // Pin a snapshot where b = 10, then keep updating past it.
  auto reader = db.txn_manager().Begin(txn::IsolationLevel::kSnapshotIsolation);
  for (int i = 11; i <= 20; ++i) {
    ASSERT_TRUE(
        s->Execute("UPDATE t SET b = ? WHERE a = 1", {Value::Int(i)}).ok());
  }
  ASSERT_EQ(VersionCount(db, "t"), 21u);

  auto stats = db.RunVacuum();
  EXPECT_GT(stats.versions_removed, 0u);
  // Everything below the reader's snapshot is gone except the version the
  // reader still needs; everything above it survives untouched.
  EXPECT_EQ(VersionCount(db, "t"), 11u);
  auto tid = db.TableId("t");
  auto pinned = reader->Get(*tid, {Value::Int(1)});
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned->has_value());
  EXPECT_EQ((**pinned)[1].AsInt(), 10);  // pre-vacuum value still readable

  // Releasing the snapshot unblocks full reclamation.
  ASSERT_TRUE(reader->Commit().ok());
  db.RunVacuum();
  EXPECT_EQ(VersionCount(db, "t"), 1u);
  auto rs = s->Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 20);
}

TEST(Vacuum, TombstoneChainsAreReclaimed) {
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(i)}).ok());
  }
  // Tombstones keep the keys resident until the vacuum proves no snapshot
  // can see the pre-delete versions.
  EXPECT_EQ(RowCount(db, "t"), 50u);
  auto stats = db.RunVacuum();
  EXPECT_EQ(stats.chains_removed, 50u);
  EXPECT_EQ(RowCount(db, "t"), 0u);
  EXPECT_EQ(VersionCount(db, "t"), 0u);
  auto rs = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 0);
}

TEST(Vacuum, PinnedSnapshotBlocksTombstoneReclamationUntilReleased) {
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  auto reader = db.txn_manager().Begin(txn::IsolationLevel::kSnapshotIsolation);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(i)}).ok());
  }
  db.RunVacuum();
  // The reader's snapshot predates the deletes: every row must survive.
  EXPECT_EQ(RowCount(db, "t"), 20u);
  auto tid = db.TableId("t");
  int64_t seen = 0;
  ASSERT_TRUE(reader->Scan(*tid, [&](const Row&) {
                        ++seen;
                        return true;
                      })
                  .ok());
  EXPECT_EQ(seen, 20);
  ASSERT_TRUE(reader->Commit().ok());
  db.RunVacuum();
  EXPECT_EQ(RowCount(db, "t"), 0u);
}

TEST(Vacuum, StaleIndexEntriesPurgedAfterUpdateAndDelete) {
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(db.CreateIndexOn("t", {"by_b", {1}, false}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  EXPECT_EQ(IndexEntries(db, "t"), 10u);
  // Each update moves the row to a fresh index key; the old entries go
  // stale (IndexLookup filters them lazily but never deleted them).
  for (int round = 1; round <= 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(s->Execute("UPDATE t SET b = ? WHERE a = ?",
                             {Value::Int(1000 * round + i), Value::Int(i)})
                      .ok());
    }
  }
  EXPECT_EQ(IndexEntries(db, "t"), 60u);  // 10 live + 50 stale
  auto stats = db.RunVacuum();
  EXPECT_EQ(stats.index_entries_removed, 50u);
  EXPECT_EQ(IndexEntries(db, "t"), 10u);
  // Live lookups still work after the purge.
  auto rs = s->Execute("SELECT a FROM t WHERE b = ?", {Value::Int(5003)});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3);

  // Deletes leave entries for the tombstoned rows; vacuum removes them
  // with the chains.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(i)}).ok());
  }
  db.RunVacuum();
  EXPECT_EQ(IndexEntries(db, "t"), 0u);
  EXPECT_EQ(RowCount(db, "t"), 0u);
}

TEST(Vacuum, SameKeyIndexEntriesPurgedExactly) {
  // Every row starts under one index key (fibench's uniform balances);
  // moving half of them away leaves exactly that many stale entries, and
  // the vacuum must find each one among thousands of equal keys.
  constexpr int kRows = 6000;
  storage::TableSchema schema("acct",
                              {{"id", ValueType::kInt, false},
                               {"bal", ValueType::kDouble, false}},
                              {0});
  ASSERT_TRUE(schema.AddIndex({"by_bal", {1}, false}).ok());
  storage::MvccTable t(0, schema);
  for (int k = 0; k < kRows; ++k) {
    ASSERT_TRUE(t.InstallVersion({Value::Int(k)}, 1, false,
                                 {Value::Int(k), Value::Double(1000.0)})
                    .ok());
  }
  for (int k = 0; k < kRows; k += 2) {
    ASSERT_TRUE(t.InstallVersion({Value::Int(k)}, 2, false,
                                 {Value::Int(k), Value::Double(0.0)})
                    .ok());
  }
  EXPECT_EQ(t.IndexEntryCount(), static_cast<size_t>(kRows + kRows / 2));
  storage::VacuumStats stats = t.VacuumBelow(2, 512);
  EXPECT_EQ(stats.index_entries_removed, static_cast<uint64_t>(kRows / 2));
  EXPECT_EQ(stats.versions_removed, static_cast<uint64_t>(kRows / 2));
  EXPECT_EQ(t.IndexEntryCount(), static_cast<size_t>(kRows));

  auto pks = [&](double bal) {
    std::vector<Row> out;
    t.IndexLookup(0, {Value::Double(bal)}, 2, &out);
    std::vector<int64_t> ids;
    for (const Row& r : out) ids.push_back(r[0].AsInt());
    return ids;
  };
  std::vector<int64_t> odd, even;
  for (int k = 0; k < kRows; ++k) (k % 2 ? odd : even).push_back(k);
  EXPECT_EQ(pks(1000.0), odd);
  EXPECT_EQ(pks(0.0), even);
  // A second pass has nothing left to reclaim.
  EXPECT_EQ(t.VacuumBelow(2, 512).index_entries_removed, 0u);
}

TEST(Vacuum, BoundedGrowthUnderSustainedChurn) {
  // The ISSUE's bounded-memory criterion in miniature: continuous
  // update/delete churn with periodic vacuum passes must plateau, not grow
  // linearly with the number of operations.
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(db.CreateIndexOn("t", {"by_b", {1}, false}).ok());
  constexpr int kLive = 50;
  for (int i = 0; i < kLive; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  size_t peak_versions = 0, peak_entries = 0, peak_rows = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kLive; ++i) {
      ASSERT_TRUE(s->Execute("UPDATE t SET b = ? WHERE a = ?",
                             {Value::Int(round * 10000 + i), Value::Int(i)})
                      .ok());
    }
    // Insert-then-delete churn on a disjoint key range.
    for (int i = 1000; i < 1000 + 20; ++i) {
      ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i)})
                      .ok());
      ASSERT_TRUE(
          s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(i)}).ok());
    }
    db.RunVacuum();
    peak_versions = std::max(peak_versions, VersionCount(db, "t"));
    peak_entries = std::max(peak_entries, IndexEntries(db, "t"));
    peak_rows = std::max(peak_rows, RowCount(db, "t"));
  }
  // Without the vacuum this run accumulates >1000 versions and >1000 index
  // entries; with it, state stays within one churn round of the live set.
  EXPECT_LE(peak_versions, static_cast<size_t>(2 * kLive + 40));
  EXPECT_LE(peak_entries, static_cast<size_t>(2 * kLive + 40));
  EXPECT_LE(peak_rows, static_cast<size_t>(kLive + 20));
  EXPECT_EQ(RowCount(db, "t"), static_cast<size_t>(kLive));
}

// ------------------------- concurrency stress -------------------------------

TEST(Vacuum, ConcurrentInstallVacuumScanStress) {
  EngineProfile p = SiProfile();
  p.vacuum_interval_us = 500;  // aggressive background passes
  p.vacuum_batch_rows = 32;    // many latch drops per pass
  p.scan_chunk_rows = 16;      // scans drop the latch constantly
  Database db(p);
  auto loader = db.CreateSession();
  loader->set_charging_enabled(false);
  ASSERT_TRUE(
      loader->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  constexpr int kBase = 200;
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE(loader->Execute("INSERT INTO t VALUES (?, ?)",
                                {Value::Int(i), Value::Int(0)})
                    .ok());
  }
  auto tid = db.TableId("t");
  ASSERT_TRUE(tid.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Updaters churn versions on the stable key range; a churner inserts and
  // deletes a disjoint range (tombstone production for the vacuum).
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      auto s = db.CreateSession();
      s->set_charging_enabled(false);
      int v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int key = (w * 7919 + ++v) % kBase;
        auto st = s->Execute("UPDATE t SET b = ? WHERE a = ?",
                             {Value::Int(v), Value::Int(key)});
        // Retryable conflicts are expected under SI; real errors are not.
        if (!st.ok() && st.status().code() != StatusCode::kConflict &&
            st.status().code() != StatusCode::kLockTimeout) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    int k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      int key = 100000 + (++k % 50);
      auto ins = s->Execute("INSERT INTO t VALUES (?, 1)", {Value::Int(key)});
      if (ins.ok()) {
        // Churn workload: a racing delete may legitimately conflict.
        (void)s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(key)});
      }
    }
  });
  // Scanners: every snapshot must see exactly the base rows (churn keys are
  // transient but deletes commit in the same statement stream, so a scan
  // may catch at most the in-flight insert of the churner).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn =
            db.txn_manager().Begin(txn::IsolationLevel::kSnapshotIsolation);
        int64_t base_seen = 0;
        Row prev;
        bool ordered = true;
        Status st = txn->Scan(*tid, [&](const Row& row) {
          if (!prev.empty() && !storage::KeyLess()(prev, {row[0]})) {
            ordered = false;
          }
          prev = {row[0]};
          if (row[0].AsInt() < kBase) ++base_seen;
          return true;
        });
        if (!st.ok() || !ordered || base_seen != kBase) failures.fetch_add(1);
        (void)txn->Commit();  // read-only; correctness tallied via failures
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The background vacuum actually ran and reclaimed churn.
  EXPECT_GT(db.vacuum().passes(), 0u);
  EXPECT_GT(db.vacuum().Totals().versions_removed, 0u);
  db.RunVacuum();
  // Base rows plus at most the churn range (a key can stay resident when
  // its insert landed but a retryable abort skipped the delete).
  EXPECT_LE(RowCount(db, "t"), static_cast<size_t>(kBase + 50));
}

// ---------------------- checkpoint + vacuum interleave ----------------------

class VacuumRecoveryTest : public ::testing::Test {
 protected:
  ~VacuumRecoveryTest() override {
    for (const std::string& d : dirs_) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }

  std::string MakeWalDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "olxp_vacuum_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* got = mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    dirs_.emplace_back(got);
    return dirs_.back();
  }

  std::vector<std::string> dirs_;
};

TEST_F(VacuumRecoveryTest, CheckpointVacuumInterleaveRecoversCleanly) {
  std::string dir = MakeWalDir();
  EngineProfile p = SiProfile();
  p.durability = storage::DurabilityMode::kGroup;
  p.wal_dir = dir;
  p.group_commit_window_us = 50;
  {
    Database db(p);
    ASSERT_TRUE(db.recovery_status().ok());
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i)})
                      .ok());
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s->Execute("UPDATE t SET b = ? WHERE a = ?",
                             {Value::Int(100 + i), Value::Int(i)})
                      .ok());
    }
    db.RunVacuum();
    ASSERT_TRUE(db.Checkpoint().ok());
    // Post-checkpoint mutations, vacuumed again before a second image.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          s->Execute("DELETE FROM t WHERE a = ?", {Value::Int(i)}).ok());
    }
    db.RunVacuum();
    ASSERT_TRUE(db.Checkpoint().ok());
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(s->Execute("UPDATE t SET b = ? WHERE a = ?",
                             {Value::Int(500 + i), Value::Int(i)})
                      .ok());
    }
  }
  Database recovered(p);
  ASSERT_TRUE(recovered.recovery_status().ok());
  auto s = recovered.CreateSession();
  s->set_charging_enabled(false);
  auto count = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 30);
  auto updated = s->Execute("SELECT b FROM t WHERE a = 15");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->rows[0][0].AsInt(), 515);
  auto old = s->Execute("SELECT b FROM t WHERE a = 30");
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->rows[0][0].AsInt(), 130);
  auto deleted = s->Execute("SELECT COUNT(*) FROM t WHERE a < 10");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->rows[0][0].AsInt(), 0);
}

TEST_F(VacuumRecoveryTest, CheckpointSnapshotPinnedAgainstConcurrentVacuum) {
  // A checkpoint's ForEachCommitted sweep registers its image timestamp:
  // vacuum passes racing the sweep must not reclaim versions the image
  // still needs. Run them truly concurrently and verify the recovered
  // database equals the writer's final state for surviving keys.
  std::string dir = MakeWalDir();
  EngineProfile p = SiProfile();
  p.durability = storage::DurabilityMode::kGroup;
  p.wal_dir = dir;
  p.group_commit_window_us = 50;
  p.vacuum_interval_us = 200;  // background thread on, aggressive
  p.vacuum_batch_rows = 16;
  {
    Database db(p);
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (?, ?)",
                             {Value::Int(i), Value::Int(i)})
                      .ok());
    }
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      auto w = db.CreateSession();
      w->set_charging_enabled(false);
      int v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Churn workload: racing updates may legitimately conflict.
        (void)w->Execute("UPDATE t SET b = ? WHERE a = ?",
                         {Value::Int(++v), Value::Int(v % 100)});
      }
    });
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    stop.store(true);
    writer.join();
  }
  Database recovered(p);
  ASSERT_TRUE(recovered.recovery_status().ok());
  auto s = recovered.CreateSession();
  s->set_charging_enabled(false);
  auto count = s->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 100);
}

// --------------------------- deprecated shim --------------------------------

TEST(Vacuum, DeprecatedPruneShimStillKeepsLatest) {
  Database db(SiProfile());
  auto s = db.CreateSession();
  s->set_charging_enabled(false);
  ASSERT_TRUE(s->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 0)").ok());
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(
        s->Execute("UPDATE t SET b = ? WHERE a = 1", {Value::Int(i)}).ok());
  }
  db.PruneAllVersions(2);
  auto rs = s->Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 8);
}

}  // namespace
}  // namespace olxp::engine
