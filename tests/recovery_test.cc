#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "storage/wal.h"

namespace olxp {
namespace {

namespace fs = std::filesystem;
using engine::Database;
using engine::EngineProfile;
using engine::StoreArchitecture;
using storage::DurabilityMode;

/// Creates (and removes at teardown) per-test WAL directories under the
/// system tmpdir — CI runs these against a tmpdir WAL by construction.
class RecoveryTest : public ::testing::Test {
 protected:
  ~RecoveryTest() override {
    for (const std::string& d : dirs_) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }

  std::string MakeWalDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "olxp_recovery_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* got = mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    dirs_.emplace_back(got);
    return dirs_.back();
  }

  /// Simulates an unclean stop: copies the durable on-disk state while the
  /// source database is still running (no clean shutdown ever happens for
  /// the copy) and returns the crash image's path.
  std::string CrashImage(const std::string& wal_dir) {
    std::string img = MakeWalDir();
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      fs::copy(entry.path(), fs::path(img) / entry.path().filename());
    }
    return img;
  }

  static EngineProfile WalProfile(const std::string& dir, DurabilityMode mode,
                                  bool separated = false) {
    EngineProfile p = separated ? EngineProfile::TiDbLike()
                                : EngineProfile::MemSqlLike();
    p.durability = mode;
    p.wal_dir = dir;
    p.group_commit_window_us = 50;
    p.replication_lag_micros = 0;
    return p;
  }

  /// kv(id INT PK, d DOUBLE, s STRING, ts TIMESTAMP, n INT nullable):
  /// covers every Value type the serializer must round-trip.
  static Status CreateKv(Database& db) {
    storage::TableSchema schema("kv",
                                {{"id", ValueType::kInt, false},
                                 {"d", ValueType::kDouble, true},
                                 {"s", ValueType::kString, true},
                                 {"ts", ValueType::kTimestamp, true},
                                 {"n", ValueType::kInt, true}},
                                {0});
    return db.CreateTableEverywhere(schema);
  }

  static Row KvRow(int64_t id) {
    return {Value::Int(id), Value::Double(id * 0.5),
            Value::String("row-" + std::to_string(id)),
            Value::Timestamp(1700000000000000 + id), Value::Null()};
  }

  static Status CommitKvRows(Database& db, int from, int to) {
    for (int i = from; i < to; ++i) {
      auto t = db.txn_manager().Begin(db.profile().isolation);
      OLXP_RETURN_NOT_OK(t->Insert(*db.TableId("kv"), KvRow(i)));
      OLXP_RETURN_NOT_OK(t->Commit());
    }
    return Status::OK();
  }

  static std::vector<int64_t> KvIds(Database& db) {
    std::vector<int64_t> ids;
    auto t = db.txn_manager().Begin(db.profile().isolation);
    EXPECT_TRUE(t->Scan(*db.TableId("kv"),
                        [&](const Row& row) {
                          ids.push_back(row[0].AsInt());
                          return true;
                        })
                    .ok());
    return ids;
  }

 private:
  std::vector<std::string> dirs_;
};

// ---------------------------------------------------------------------------
// Frame serialization
// ---------------------------------------------------------------------------

TEST(WalFrameCodec, CommitRoundTripAllValueTypes) {
  storage::WalFrame frame;
  frame.type = storage::WalFrame::Type::kCommit;
  frame.seq = 42;
  frame.commit.commit_ts = 7;
  frame.commit.commit_wall_us = 123456789;
  storage::LogOp upsert;
  upsert.kind = storage::LogOp::Kind::kUpsert;
  upsert.table_id = 3;
  upsert.pk = {Value::Int(-9), Value::String("composite")};
  upsert.data = {Value::Int(-9), Value::String("composite"), Value::Null(),
                 Value::Double(2.71828), Value::Timestamp(1234567),
                 Value::String("")};
  storage::LogOp del;
  del.kind = storage::LogOp::Kind::kDelete;
  del.table_id = 3;
  del.pk = {Value::Int(1), Value::String("gone")};
  frame.commit.ops = {upsert, del};

  std::string buf;
  storage::EncodeFrame(frame, &buf);
  size_t offset = 0;
  storage::WalFrame decoded;
  ASSERT_TRUE(storage::DecodeFrame(buf, &offset, &decoded));
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.commit.commit_ts, 7u);
  EXPECT_EQ(decoded.commit.commit_wall_us, 123456789);
  ASSERT_EQ(decoded.commit.ops.size(), 2u);
  const storage::LogOp& u = decoded.commit.ops[0];
  EXPECT_EQ(u.kind, storage::LogOp::Kind::kUpsert);
  EXPECT_EQ(u.table_id, 3);
  ASSERT_EQ(u.data.size(), 6u);
  EXPECT_EQ(u.data[0], Value::Int(-9));
  EXPECT_EQ(u.data[1], Value::String("composite"));
  EXPECT_TRUE(u.data[2].is_null());
  EXPECT_EQ(u.data[3], Value::Double(2.71828));
  EXPECT_EQ(u.data[4].type(), ValueType::kTimestamp);
  EXPECT_EQ(u.data[4].AsInt(), 1234567);
  EXPECT_EQ(u.data[5], Value::String(""));
  EXPECT_EQ(decoded.commit.ops[1].kind, storage::LogOp::Kind::kDelete);
  EXPECT_TRUE(decoded.commit.ops[1].data.empty());
}

TEST(WalFrameCodec, CorruptionAndTruncationRejected) {
  storage::WalFrame frame;
  frame.type = storage::WalFrame::Type::kCommit;
  frame.seq = 1;
  frame.commit.commit_ts = 1;
  storage::LogOp op;
  op.table_id = 0;
  op.pk = {Value::Int(5)};
  op.data = {Value::Int(5), Value::String("x")};
  frame.commit.ops = {op};
  std::string buf;
  storage::EncodeFrame(frame, &buf);

  // Flip one payload byte: CRC must reject.
  std::string corrupt = buf;
  corrupt[buf.size() - 1] ^= 0x40;
  size_t offset = 0;
  storage::WalFrame out;
  EXPECT_FALSE(storage::DecodeFrame(corrupt, &offset, &out));
  EXPECT_EQ(offset, 0u);

  // Every strict prefix is a torn record.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string torn = buf.substr(0, cut);
    offset = 0;
    EXPECT_FALSE(storage::DecodeFrame(torn, &offset, &out)) << cut;
  }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, CommittedTransactionsSurviveUncleanStop) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(db.recovery_status().ok());
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 50).ok());
    // Commit returned => fsync covered these records; the copy taken now is
    // exactly what a kill -9 would leave behind.
    image = CrashImage(dir);
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  std::vector<int64_t> ids = KvIds(recovered);
  ASSERT_EQ(ids.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);

  // Full value fidelity, not just presence.
  auto t = recovered.txn_manager().Begin(recovered.profile().isolation);
  auto got = t->Get(*recovered.TableId("kv"), {Value::Int(7)});
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, KvRow(7));
}

TEST_F(RecoveryTest, UncommittedWritesNeverAppear) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 10).ok());
    // An open transaction with buffered writes at "crash" time.
    auto open_txn = db.txn_manager().Begin(db.profile().isolation);
    ASSERT_TRUE(open_txn->Insert(*db.TableId("kv"), KvRow(100)).ok());
    ASSERT_TRUE(open_txn->Insert(*db.TableId("kv"), KvRow(101)).ok());
    image = CrashImage(dir);
    (void)open_txn->Abort();
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  std::vector<int64_t> ids = KvIds(recovered);
  EXPECT_EQ(ids.size(), 10u);
  for (int64_t id : ids) EXPECT_LT(id, 100);
}

TEST_F(RecoveryTest, UpdatesAndDeletesReplayInOrder) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 5).ok());
    int kv = *db.TableId("kv");
    {
      auto t = db.txn_manager().Begin(db.profile().isolation);
      Row updated = KvRow(2);
      updated[2] = Value::String("updated");
      ASSERT_TRUE(t->Update(kv, updated).ok());
      ASSERT_TRUE(t->Delete(kv, {Value::Int(3)}).ok());
      ASSERT_TRUE(t->Commit().ok());
    }
    image = CrashImage(dir);
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  auto t = recovered.txn_manager().Begin(recovered.profile().isolation);
  int kv = *recovered.TableId("kv");
  auto updated = t->Get(kv, {Value::Int(2)});
  ASSERT_TRUE(updated.ok() && updated->has_value());
  EXPECT_EQ((**updated)[2], Value::String("updated"));
  auto deleted = t->Get(kv, {Value::Int(3)});
  ASSERT_TRUE(deleted.ok());
  EXPECT_FALSE(deleted->has_value());
}

TEST_F(RecoveryTest, TornTailIsSkippedIntactPrefixSurvives) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 20).ok());
    image = CrashImage(dir);
  }
  // A crash mid-write leaves a partial record at the newest segment's tail.
  std::vector<std::pair<uint64_t, fs::path>> segments;
  for (const auto& entry : fs::directory_iterator(image)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) {
      segments.emplace_back(std::strtoull(name.c_str() + 4, nullptr, 10),
                            entry.path());
    }
  }
  ASSERT_FALSE(segments.empty());
  fs::path newest = std::max_element(segments.begin(), segments.end())->second;
  {
    std::ofstream out(newest, std::ios::binary | std::ios::app);
    const char torn[] = "\x50\x00\x00\x00garbage-that-is-not-a-frame";
    out.write(torn, sizeof torn - 1);
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  EXPECT_EQ(KvIds(recovered).size(), 20u);
  // The recovered database keeps working: new commits land durably after
  // the torn tail (a fresh segment, never an append to the damaged one).
  ASSERT_TRUE(CommitKvRows(recovered, 20, 25).ok());
  EXPECT_EQ(KvIds(recovered).size(), 25u);
}

TEST_F(RecoveryTest, TornFirstFrameSegmentIsDiscardedNotAppendedTo) {
  // A crash mid-write of a segment's FIRST frame leaves a file with no
  // decodable prefix. The writer must not append acked commits behind that
  // junk (they would vanish at the next replay) — it truncates the file.
  std::string dir = MakeWalDir();
  uint64_t next_seq = 0;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 10).ok());
    ASSERT_NE(db.wal(), nullptr);
    next_seq = db.wal()->next_seq();
  }
  char name[48];
  std::snprintf(name, sizeof name, "wal-%020llu.seg",
                static_cast<unsigned long long>(next_seq));
  {
    std::ofstream out(fs::path(dir) / name, std::ios::binary);
    out << "\x60\x00\x00\x00torn-first-frame-of-a-fresh-segment";
  }
  {
    Database recovered(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(recovered.recovery_status().ok());
    EXPECT_EQ(KvIds(recovered).size(), 10u);
    ASSERT_TRUE(CommitKvRows(recovered, 10, 15).ok());
  }
  // The commits acked after the first recovery must survive a second one.
  Database again(WalProfile(dir, DurabilityMode::kGroup));
  ASSERT_TRUE(again.recovery_status().ok());
  EXPECT_EQ(KvIds(again).size(), 15u);
}

TEST_F(RecoveryTest, OracleReseededCommitsContinueAfterRecovery) {
  std::string dir = MakeWalDir();
  std::string image;
  uint64_t last_ts = 0;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 8).ok());
    last_ts = db.row_store().table(*db.TableId("kv"))
                  ->LatestCommitTs({Value::Int(7)});
    ASSERT_GT(last_ts, 0u);
    image = CrashImage(dir);
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  int kv = *recovered.TableId("kv");
  // Original commit timestamps are preserved by replay...
  EXPECT_EQ(recovered.row_store().table(kv)->LatestCommitTs({Value::Int(7)}),
            last_ts);
  // ...and new commits allocate strictly beyond them.
  ASSERT_TRUE(CommitKvRows(recovered, 8, 9).ok());
  EXPECT_GT(recovered.row_store().table(kv)->LatestCommitTs({Value::Int(8)}),
            last_ts);
}

TEST_F(RecoveryTest, SecondaryIndexesRecoverviaDdlReplay) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(db.CreateIndexOn("kv", {"kv_by_s", {2}, false}).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 10).ok());
    image = CrashImage(dir);
  }
  Database recovered(WalProfile(image, DurabilityMode::kGroup));
  ASSERT_TRUE(recovered.recovery_status().ok());
  auto t = recovered.txn_manager().Begin(recovered.profile().isolation);
  std::vector<Row> hits;
  ASSERT_TRUE(t->IndexLookup(*recovered.TableId("kv"), 0,
                             {Value::String("row-4")}, &hits)
                  .ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][0].AsInt(), 4);
}

TEST_F(RecoveryTest, ReplicaParityAfterRebuild) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kGroup, /*separated=*/true));
    ASSERT_TRUE(db.recovery_status().ok());
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 40).ok());
    {
      auto t = db.txn_manager().Begin(db.profile().isolation);
      ASSERT_TRUE(t->Delete(*db.TableId("kv"), {Value::Int(11)}).ok());
      ASSERT_TRUE(t->Commit().ok());
    }
    image = CrashImage(dir);
  }
  Database recovered(
      WalProfile(image, DurabilityMode::kGroup, /*separated=*/true));
  ASSERT_TRUE(recovered.recovery_status().ok());
  recovered.WaitReplicaCaughtUp();
  int kv = *recovered.TableId("kv");
  const storage::ColumnTable* replica = recovered.column_store().table(kv);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->LiveRowCount(), 39u);
  // Row-by-row parity between the recovered row store and the replica.
  auto t = recovered.txn_manager().Begin(recovered.profile().isolation);
  int64_t checked = 0;
  ASSERT_TRUE(t->Scan(kv,
                      [&](const Row& row) {
                        auto col = replica->Get({row[0]});
                        EXPECT_TRUE(col.has_value());
                        if (col.has_value()) {
                          EXPECT_EQ(*col, row);
                        }
                        ++checked;
                        return true;
                      })
                  .ok());
  EXPECT_EQ(checked, 39);
  EXPECT_FALSE(replica->Get({Value::Int(11)}).has_value());
}

TEST_F(RecoveryTest, CheckpointTrimsSegmentsAndRestartUsesIt) {
  std::string dir = MakeWalDir();
  auto count_segments = [&] {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind("wal-", 0) == 0) ++n;
    }
    return n;
  };
  {
    EngineProfile p = WalProfile(dir, DurabilityMode::kGroup);
    p.wal_segment_bytes = 2048;  // force frequent rotation
    Database db(p);
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 200).ok());
    size_t before = count_segments();
    ASSERT_GT(before, 3u);
    ASSERT_TRUE(db.Checkpoint().ok());
    size_t after = count_segments();
    EXPECT_LT(after, before);
    // Post-checkpoint commits land in the surviving segments.
    ASSERT_TRUE(CommitKvRows(db, 200, 230).ok());
  }
  EngineProfile p = WalProfile(dir, DurabilityMode::kGroup);
  p.wal_segment_bytes = 2048;
  Database recovered(p);
  ASSERT_TRUE(recovered.recovery_status().ok());
  std::vector<int64_t> ids = KvIds(recovered);
  ASSERT_EQ(ids.size(), 230u);
  auto t = recovered.txn_manager().Begin(recovered.profile().isolation);
  auto got = t->Get(*recovered.TableId("kv"), {Value::Int(123)});
  ASSERT_TRUE(got.ok() && got->has_value());
  EXPECT_EQ(**got, KvRow(123));
}

TEST_F(RecoveryTest, CheckpointWithoutDurabilityFails) {
  Database db(EngineProfile::MemSqlLike());
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, SegmentDeletionFailsWhenDirectoryCannotBeSynced) {
  std::string dir = MakeWalDir();
  storage::WalOptions opts;
  opts.dir = dir;
  opts.mode = DurabilityMode::kGroup;
  auto writer = storage::WalWriter::Open(opts, 1);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->DeleteSegmentsBefore(1).ok());
  // Once the directory is gone it cannot be opened for the fsync that
  // makes the removals durable, so the call must not report success.
  fs::remove_all(dir);
  EXPECT_EQ((*writer)->DeleteSegmentsBefore(1).code(), StatusCode::kInternal);
}

TEST_F(RecoveryTest, SyncModeRoundTrips) {
  std::string dir = MakeWalDir();
  std::string image;
  {
    Database db(WalProfile(dir, DurabilityMode::kSync));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 10).ok());
    image = CrashImage(dir);
  }
  Database recovered(WalProfile(image, DurabilityMode::kSync));
  ASSERT_TRUE(recovered.recovery_status().ok());
  EXPECT_EQ(KvIds(recovered).size(), 10u);
}

TEST_F(RecoveryTest, AsyncModeRoundTripsAfterCleanClose) {
  std::string dir = MakeWalDir();
  {
    Database db(WalProfile(dir, DurabilityMode::kAsync));
    ASSERT_TRUE(CreateKv(db).ok());
    ASSERT_TRUE(CommitKvRows(db, 0, 30).ok());
    // Async acks before the write: durability is only promised at clean
    // shutdown (the writer flushes on close) or on an explicit flush.
  }
  Database recovered(WalProfile(dir, DurabilityMode::kAsync));
  ASSERT_TRUE(recovered.recovery_status().ok());
  EXPECT_EQ(KvIds(recovered).size(), 30u);
}

TEST_F(RecoveryTest, EmptyDirectoryIsAFreshDatabase) {
  std::string dir = MakeWalDir();
  Database db(WalProfile(dir, DurabilityMode::kGroup));
  ASSERT_TRUE(db.recovery_status().ok());
  EXPECT_FALSE(db.TableId("kv").ok());
  ASSERT_TRUE(CreateKv(db).ok());
  ASSERT_TRUE(CommitKvRows(db, 0, 3).ok());
  EXPECT_EQ(KvIds(db).size(), 3u);
}

}  // namespace
}  // namespace olxp
