// Durability-layer tests: WAL record framing and replay (torn-tail
// truncate-and-continue vs mid-log corruption refusal), checkpoint
// write/read round trips under the tmp-then-rename discipline, stale-file
// reaping by process liveness, and the server-level contract — a Server
// restarted on its wal_directory rebuilds bit-identical serving state
// (same base_version, same query results, same warm-cache hits) from the
// newest valid checkpoint plus the WAL tail.
//
// The randomized kill-and-recover differential harness at the bottom runs
// 54 seeded trials (6 seeds x 3 crash modes x 1/4/8 workers): a crash is
// injected at the WAL append (torn write), the checkpoint write (failed
// fsync), or the first recovery attempt (bit flip, abandoned), the server
// is destroyed and recovered, the interrupted schedule is finished, and
// every query result is compared raw-bit against an undisturbed reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "api/server.h"
#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/aggregate_cache.h"
#include "core/plan_executor.h"
#include "data/tpch_gen.h"
#include "exec/query_executor.h"
#include "exec/spill_partitioner.h"
#include "storage/checkpoint.h"
#include "storage/storage_governor.h"
#include "storage/wal.h"

namespace gbmqo {
namespace {

namespace fs = std::filesystem;

// ---- scratch directories ----------------------------------------------------

/// Unique scratch directory removed (with contents) at scope exit.
class TempDirGuard {
 public:
  explicit TempDirGuard(const std::string& tag) {
    static std::atomic<uint64_t> seq{0};
    dir_ = (fs::temp_directory_path() /
            ("gbmqo-durability-test-" + std::to_string(CurrentProcessId()) +
             "-" + tag + "-" +
             std::to_string(seq.fetch_add(1, std::memory_order_relaxed))))
               .string();
    fs::create_directories(dir_);
  }
  ~TempDirGuard() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

// ---- result comparison (as in serving_test.cc) ------------------------------

std::map<std::string, std::vector<double>> Flatten(const Table& t, int ng) {
  std::map<std::string, std::vector<double>> out;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    std::string key;
    for (int c = 0; c < ng; ++c) {
      key += t.column(c).ValueAt(row).ToString() + "|";
    }
    std::vector<double> aggs;
    for (int c = ng; c < t.schema().num_columns(); ++c) {
      aggs.push_back(t.column(c).IsNull(row) ? -1e308
                                             : t.column(c).NumericAt(row));
    }
    out[key] = std::move(aggs);
  }
  return out;
}

/// Bit-identity up to row order: same group keys, same aggregate values.
void ExpectSameResults(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [cols, ta] : a.results) {
    ASSERT_TRUE(b.results.count(cols)) << cols.ToString();
    const TablePtr& tb = b.results.at(cols);
    auto fa = Flatten(*ta, cols.size());
    auto fb = Flatten(*tb, cols.size());
    ASSERT_EQ(fa.size(), fb.size()) << cols.ToString();
    for (const auto& [key, aggs] : fa) {
      ASSERT_TRUE(fb.count(key)) << cols.ToString() << " " << key;
      ASSERT_EQ(aggs.size(), fb[key].size());
      for (size_t i = 0; i < aggs.size(); ++i) {
        EXPECT_EQ(aggs[i], fb[key][i]) << cols.ToString() << " " << key;
      }
    }
  }
}

std::vector<std::vector<Value>> SampleRows(Rng* rng, const Table& donor,
                                           size_t n) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(donor.Row(rng->Uniform(donor.num_rows())));
  }
  return rows;
}

std::vector<std::vector<Value>> TestBatch(uint64_t salt, size_t n) {
  TablePtr donor = GenerateLineitem({.rows = 500, .seed = 900 + salt});
  Rng rng(salt);
  return SampleRows(&rng, *donor, n);
}

// ---- WAL framing and replay -------------------------------------------------

TEST(WalTest, EncodeDecodeRoundTripsEveryTag) {
  std::vector<std::vector<Value>> rows;
  rows.push_back({Value(Null{}), Value(static_cast<int64_t>(0)),
                  Value(std::string())});
  rows.push_back({Value(static_cast<int64_t>(INT64_MIN)),
                  Value(static_cast<int64_t>(INT64_MAX)), Value(-0.0)});
  rows.push_back({Value(std::string("with\0nul", 8)), Value(1.5e-300),
                  Value(std::string(1000, 'x'))});
  rows.push_back({});  // empty row
  std::string buf;
  EncodeRows(rows, &buf);
  std::vector<std::vector<Value>> decoded;
  ASSERT_TRUE(DecodeRows(reinterpret_cast<const uint8_t*>(buf.data()),
                         buf.size(), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), rows.size());
  EXPECT_TRUE(decoded[0][0].is_null());
  EXPECT_EQ(decoded[1][0].int64(), INT64_MIN);
  EXPECT_EQ(decoded[1][1].int64(), INT64_MAX);
  EXPECT_TRUE(std::signbit(decoded[1][2].dbl()));
  EXPECT_EQ(decoded[2][0].str(), std::string("with\0nul", 8));
  EXPECT_EQ(decoded[2][1].dbl(), 1.5e-300);
  EXPECT_EQ(decoded[2][2].str(), std::string(1000, 'x'));
  EXPECT_TRUE(decoded[3].empty());
}

TEST(WalTest, WriterReplayRoundTripAndApplyAfter) {
  TempDirGuard dir("wal-roundtrip");
  const std::string path = dir.path() + "/wal-0.log";
  {
    auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t v = 1; v <= 3; ++v) {
      ASSERT_TRUE((*writer)->Append(v, TestBatch(v, 5 * v)).ok());
    }
    EXPECT_GT((*writer)->bytes(), 0u);
  }
  std::vector<uint64_t> versions;
  std::vector<size_t> sizes;
  WalReplayReport report;
  ASSERT_TRUE(ReplayWal(path, /*apply_after=*/1,
                        [&](uint64_t v, std::vector<std::vector<Value>>&& r) {
                          versions.push_back(v);
                          sizes.push_back(r.size());
                          return Status::OK();
                        },
                        &report)
                  .ok());
  EXPECT_EQ(versions, (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(sizes, (std::vector<size_t>{10, 15}));
  EXPECT_EQ(report.records_seen, 3u);
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(report.bytes_replayed, fs::file_size(path));
  // Replayed rows are value-identical to what was appended.
  ASSERT_TRUE(ReplayWal(path, 2,
                        [&](uint64_t v, std::vector<std::vector<Value>>&& r) {
                          const auto expect = TestBatch(v, 5 * v);
                          EXPECT_EQ(r.size(), expect.size());
                          for (size_t i = 0; i < r.size(); ++i) {
                            for (size_t c = 0; c < r[i].size(); ++c) {
                              EXPECT_EQ(r[i][c].ToString(),
                                        expect[i][c].ToString());
                            }
                          }
                          return Status::OK();
                        },
                        nullptr)
                  .ok());
}

TEST(WalTest, TornTailIsTruncatedAndAppendsContinue) {
  TempDirGuard dir("wal-torn");
  const std::string path = dir.path() + "/wal-0.log";
  {
    auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(1, TestBatch(1, 8)).ok());
    ASSERT_TRUE((*writer)->Append(2, TestBatch(2, 8)).ok());
  }
  const uint64_t clean_size = fs::file_size(path);
  {
    // A crash mid-append: half a header reaches the disk.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[9] = "GWAL\x40\x00\x00\x00";
    ASSERT_EQ(std::fwrite(junk, 1, 9, f), 9u);
    std::fclose(f);
  }
  WalReplayReport report;
  uint64_t applied = 0;
  ASSERT_TRUE(ReplayWal(path, 0,
                        [&](uint64_t, std::vector<std::vector<Value>>&&) {
                          ++applied;
                          return Status::OK();
                        },
                        &report)
                  .ok());
  EXPECT_EQ(applied, 2u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.tail_dropped_bytes, 9u);
  EXPECT_EQ(fs::file_size(path), clean_size);  // truncated back

  // A writer reopened on the truncated log extends it cleanly.
  auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->bytes(), clean_size);
  ASSERT_TRUE((*writer)->Append(3, TestBatch(3, 4)).ok());
  writer->reset();
  applied = 0;
  ASSERT_TRUE(ReplayWal(path, 0,
                        [&](uint64_t, std::vector<std::vector<Value>>&&) {
                          ++applied;
                          return Status::OK();
                        },
                        nullptr)
                  .ok());
  EXPECT_EQ(applied, 3u);
}

TEST(WalTest, MidLogCorruptionRefusesReplay) {
  TempDirGuard dir("wal-corrupt");
  const std::string path = dir.path() + "/wal-0.log";
  {
    auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(1, TestBatch(1, 16)).ok());
    ASSERT_TRUE((*writer)->Append(2, TestBatch(2, 16)).ok());
  }
  {
    // Flip one payload byte inside the FIRST record: fully present but
    // CRC-invalid, which is corruption, not a torn tail.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  uint64_t applied = 0;
  const Status s = ReplayWal(path, 0,
                             [&](uint64_t, std::vector<std::vector<Value>>&&) {
                               ++applied;
                               return Status::OK();
                             },
                             nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.ToString();
  EXPECT_EQ(applied, 0u);  // nothing at or past the damage is admitted
}

TEST(WalTest, ShortWriteRestoresTailAndNamesFile) {
  TempDirGuard dir("wal-shortwrite");
  const std::string path = dir.path() + "/wal-0.log";
  auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(1, TestBatch(1, 8)).ok());
  const uint64_t clean = (*writer)->bytes();

  FaultInjector inj(7);
  inj.ArmOneShot(FaultSite::kDiskShortWrite, 0);
  Status failed;
  {
    ScopedFaultInjection scoped(&inj);
    failed = (*writer)->Append(2, TestBatch(2, 8));
  }
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find(path), std::string::npos) << failed.ToString();
  EXPECT_NE(failed.message().find("offset " + std::to_string(clean)),
            std::string::npos)
      << failed.ToString();
  EXPECT_EQ((*writer)->bytes(), clean);
  EXPECT_FALSE((*writer)->broken());

  // The log stayed clean: the retry lands exactly where the failure did.
  ASSERT_TRUE((*writer)->Append(2, TestBatch(2, 8)).ok());
  writer->reset();
  std::vector<uint64_t> versions;
  ASSERT_TRUE(ReplayWal(path, 0,
                        [&](uint64_t v, std::vector<std::vector<Value>>&&) {
                          versions.push_back(v);
                          return Status::OK();
                        },
                        nullptr)
                  .ok());
  EXPECT_EQ(versions, (std::vector<uint64_t>{1, 2}));
}

TEST(WalTest, EnospcSurfacesResourceExhaustedAndLeavesLogClean) {
  TempDirGuard dir("wal-enospc");
  auto writer =
      WalWriter::Open(dir.path() + "/wal-0.log", FsyncMode::kBatch, nullptr);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(1, TestBatch(1, 4)).ok());
  const uint64_t clean = (*writer)->bytes();
  FaultInjector inj(7);
  inj.ArmOneShot(FaultSite::kDiskEnospc, 0);
  Status failed;
  {
    ScopedFaultInjection scoped(&inj);
    failed = (*writer)->Append(2, TestBatch(2, 4));
  }
  EXPECT_TRUE(failed.IsResourceExhausted()) << failed.ToString();
  EXPECT_EQ((*writer)->bytes(), clean);
  ASSERT_TRUE((*writer)->Append(2, TestBatch(2, 4)).ok());
}

TEST(WalTest, TornWriteFaultBreaksWriterUntilReopen) {
  TempDirGuard dir("wal-torn-fault");
  const std::string path = dir.path() + "/wal-0.log";
  auto writer = WalWriter::Open(path, FsyncMode::kBatch, nullptr);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(1, TestBatch(1, 8)).ok());
  const uint64_t clean = (*writer)->bytes();

  FaultInjector inj(7);
  inj.ArmOneShot(FaultSite::kDiskTornWrite, 0);
  Status torn;
  {
    ScopedFaultInjection scoped(&inj);
    torn = (*writer)->Append(2, TestBatch(2, 8));
  }
  EXPECT_FALSE(torn.ok());
  EXPECT_TRUE((*writer)->broken());
  // The crash simulation leaves the torn bytes on disk...
  EXPECT_GT(fs::file_size(path), clean);
  // ...and the broken writer fails fast, like a dead process's log.
  EXPECT_FALSE((*writer)->Append(3, TestBatch(3, 8)).ok());
  writer->reset();

  // Replay truncates the torn record; only the durable prefix survives.
  WalReplayReport report;
  uint64_t applied = 0;
  ASSERT_TRUE(ReplayWal(path, 0,
                        [&](uint64_t, std::vector<std::vector<Value>>&&) {
                          ++applied;
                          return Status::OK();
                        },
                        &report)
                  .ok());
  EXPECT_EQ(applied, 1u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(fs::file_size(path), clean);
}

// ---- checkpoints ------------------------------------------------------------

CheckpointImage MakeImage(uint64_t version, size_t base_rows) {
  CheckpointImage image;
  image.base_version = version;
  image.base = GenerateLineitem({.rows = base_rows, .seed = 40 + version});
  return image;
}

TEST(CheckpointTest, RoundTripIsBitIdentical) {
  TempDirGuard dir("ckp-roundtrip");
  CheckpointImage image = MakeImage(3, 800);
  ASSERT_TRUE(image.base->CreateIndex(ColumnSet{kReturnflag}).ok());

  // One cached COUNT(*)+SUM aggregate rides along, MRU order preserved.
  ExecContext ctx;
  QueryExecutor exec(&ctx, ScanMode::kColumnar, 1);
  const std::vector<AggRequest> aggs = {AggRequest{},
                                        AggRequest{AggKind::kSum, kQuantity}};
  Result<GroupByQuery> q = BuildGroupByOver(
      *image.base, true, image.base->schema(), ColumnSet{kReturnflag}, aggs);
  ASSERT_TRUE(q.ok());
  Result<TablePtr> agg =
      exec.ExecuteGroupBy(*image.base, *q, "ckp_entry", AggStrategy::kHash);
  ASSERT_TRUE(agg.ok());
  CheckpointCacheEntry entry;
  entry.columns_mask = ColumnSet{kReturnflag}.mask();
  entry.aggs = {{static_cast<int>(AggKind::kCountStar), -1},
                {static_cast<int>(AggKind::kSum), kQuantity}};
  entry.source_version = 3;
  entry.needs_recompute = false;
  entry.table = *agg;
  image.entries.push_back(entry);

  uint64_t bytes = 0;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), image, nullptr, &bytes).ok());
  EXPECT_GT(bytes, 0u);
  const std::string path = dir.path() + "/" + CheckpointFileName(3);
  EXPECT_EQ(fs::file_size(path), bytes);

  Result<CheckpointImage> loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->base_version, 3u);
  EXPECT_EQ(loaded->base->name(), image.base->name());
  EXPECT_EQ(loaded->base->num_rows(), image.base->num_rows());
  EXPECT_EQ(loaded->base->ByteSize(), image.base->ByteSize());
  EXPECT_EQ(loaded->base->indexes().size(), 1u);
  // Cell-by-cell identity, dictionary codes included (same ByteSize above
  // already implies identical dictionary layouts).
  for (int c = 0; c < image.base->schema().num_columns(); ++c) {
    for (size_t r = 0; r < image.base->num_rows(); r += 97) {
      EXPECT_EQ(loaded->base->column(c).ValueAt(r).ToString(),
                image.base->column(c).ValueAt(r).ToString());
    }
  }
  ASSERT_EQ(loaded->entries.size(), 1u);
  const CheckpointCacheEntry& e = loaded->entries[0];
  EXPECT_EQ(e.columns_mask, entry.columns_mask);
  ASSERT_EQ(e.aggs.size(), 2u);
  EXPECT_EQ(e.aggs[1].kind, static_cast<int>(AggKind::kSum));
  EXPECT_EQ(e.aggs[1].column, kQuantity);
  EXPECT_EQ(e.source_version, 3u);
  EXPECT_FALSE(e.needs_recompute);
  EXPECT_EQ(e.table->num_rows(), (*agg)->num_rows());
  EXPECT_EQ(e.table->ByteSize(), (*agg)->ByteSize());
}

TEST(CheckpointTest, FailedWriteLeavesDirectoryClean) {
  TempDirGuard dir("ckp-failedwrite");
  CheckpointImage image = MakeImage(1, 300);
  for (const FaultSite site :
       {FaultSite::kDiskShortWrite, FaultSite::kDiskFsync,
        FaultSite::kDiskEnospc}) {
    FaultInjector inj(7);
    inj.ArmProbability(site, 1.0);
    Status failed;
    {
      ScopedFaultInjection scoped(&inj);
      uint64_t bytes = 0;
      failed = WriteCheckpoint(dir.path(), image, nullptr, &bytes);
    }
    EXPECT_FALSE(failed.ok()) << FaultSiteName(site);
    // Neither a real checkpoint nor a tmp survives the failure.
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 0u) << FaultSiteName(site);
  }
  // And ENOSPC is distinguishable from a generic IO failure.
  FaultInjector inj(7);
  inj.ArmProbability(FaultSite::kDiskEnospc, 1.0);
  ScopedFaultInjection scoped(&inj);
  uint64_t bytes = 0;
  EXPECT_TRUE(
      WriteCheckpoint(dir.path(), image, nullptr, &bytes).IsResourceExhausted());
}

TEST(CheckpointTest, BitFlipOnReadIsRejected) {
  TempDirGuard dir("ckp-bitflip");
  CheckpointImage image = MakeImage(2, 300);
  uint64_t bytes = 0;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), image, nullptr, &bytes).ok());
  const std::string path = dir.path() + "/" + CheckpointFileName(2);
  FaultInjector inj(7);
  inj.ArmProbability(FaultSite::kDiskBitFlip, 1.0);
  ScopedFaultInjection scoped(&inj);
  Result<CheckpointImage> loaded = ReadCheckpoint(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInternal()) << loaded.status().ToString();
}

// ---- checkpoint decode rejections -------------------------------------------
//
// Each case writes a checkpoint of a one-STRING-column table holding
// "alpha", "bravo", "alpha" (dictionary [alpha, bravo], codes [0, 1, 0]),
// edits the image so that no append sequence could have produced it,
// re-seals the CRC, and expects ReadCheckpoint to refuse it: loading it in
// bulk would not give the table a per-row rebuild gives.

Result<CheckpointImage> ReadEditedCheckpoint(
    const std::string& dir, const std::function<void(std::string*)>& edit) {
  TableBuilder builder(Schema({ColumnDef{"s", DataType::kString, false}}));
  for (const char* v : {"alpha", "bravo", "alpha"}) {
    EXPECT_TRUE(builder.AppendRow({Value(std::string(v))}).ok());
  }
  CheckpointImage image;
  image.base_version = 1;
  image.base = *builder.Build("t");
  uint64_t bytes = 0;
  EXPECT_TRUE(WriteCheckpoint(dir, image, nullptr, &bytes).ok());
  const std::string path = dir + "/" + CheckpointFileName(1);
  EXPECT_TRUE(ReadCheckpoint(path).ok());  // the unedited image loads

  std::string file;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    file.resize(bytes);
    EXPECT_EQ(std::fread(file.data(), 1, bytes, f), bytes);
    std::fclose(f);
  }
  constexpr size_t kHeader = 28;  // magic, format, version, length, CRC
  std::string payload = file.substr(kHeader);
  edit(&payload);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(file.data() + 24, &crc, sizeof crc);
  file.replace(kHeader, payload.size(), payload);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }
  return ReadCheckpoint(path);
}

/// Overwrites code `row` of the image's codes, which follow "bravo".
void SetCode(std::string* payload, size_t row, uint32_t code) {
  const size_t codes = payload->find("bravo") + 5;
  std::memcpy(payload->data() + codes + 4 * row, &code, sizeof code);
}

void ExpectRejected(const Result<CheckpointImage>& loaded,
                    const std::string& why) {
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInternal()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(why), std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointTest, RejectsDuplicateDictionaryEntries) {
  TempDirGuard dir("ckp-dupdict");
  ExpectRejected(ReadEditedCheckpoint(dir.path(),
                                      [](std::string* p) {
                                        p->replace(p->find("bravo"), 5,
                                                   "alpha");
                                      }),
                 "duplicates entry 0");
}

TEST(CheckpointTest, RejectsCodeOutOfRange) {
  TempDirGuard dir("ckp-coderange");
  ExpectRejected(ReadEditedCheckpoint(
                     dir.path(), [](std::string* p) { SetCode(p, 1, 7); }),
                 "past the 2-entry dictionary");
}

TEST(CheckpointTest, RejectsCodesOutOfFirstAppearanceOrder) {
  TempDirGuard dir("ckp-codeorder");
  // Codes [1, 0, 1]: a per-row rebuild would number "bravo" 0.
  ExpectRejected(ReadEditedCheckpoint(dir.path(),
                                      [](std::string* p) {
                                        SetCode(p, 0, 1);
                                        SetCode(p, 1, 0);
                                        SetCode(p, 2, 1);
                                      }),
                 "before any row has 0");
}

TEST(CheckpointTest, ListCheckpointsSortsAscending) {
  TempDirGuard dir("ckp-list");
  for (const uint64_t v : {7u, 2u, 11u}) {
    uint64_t bytes = 0;
    ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeImage(v, 50), nullptr, &bytes)
                    .ok());
  }
  Result<std::vector<CheckpointRef>> list = ListCheckpoints(dir.path());
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].version, 2u);
  EXPECT_EQ((*list)[1].version, 7u);
  EXPECT_EQ((*list)[2].version, 11u);
}

// ---- stale-file reaping -----------------------------------------------------

#ifndef _WIN32
/// A pid that is guaranteed dead: a forked child that exited and was reaped.
uint64_t DeadPid() {
  const pid_t pid = fork();
  if (pid == 0) _exit(0);
  int status = 0;
  waitpid(pid, &status, 0);
  return static_cast<uint64_t>(pid);
}

TEST(ReaperTest, ProcessLiveness) {
  EXPECT_TRUE(ProcessAlive(CurrentProcessId()));
  EXPECT_FALSE(ProcessAlive(DeadPid()));
}

TEST(ReaperTest, SpillReapRemovesDeadPidDirsOnly) {
  TempDirGuard parent("spill-reap");
  const uint64_t dead = DeadPid();
  const fs::path dead_dir =
      fs::path(parent.path()) / ("gbmqo-spill-" + std::to_string(dead) + "-0");
  const fs::path live_dir =
      fs::path(parent.path()) /
      ("gbmqo-spill-" + std::to_string(CurrentProcessId()) + "-0");
  const fs::path unrelated = fs::path(parent.path()) / "keep-me";
  fs::create_directories(dead_dir);
  fs::create_directories(live_dir);
  fs::create_directories(unrelated);
  { std::FILE* f = std::fopen((dead_dir / "f0.bin").c_str(), "wb");
    std::fputs("orphan", f);
    std::fclose(f); }

  EXPECT_EQ(SpillFileSet::ReapStale(parent.path()), 1u);
  EXPECT_FALSE(fs::exists(dead_dir));
  EXPECT_TRUE(fs::exists(live_dir));   // pinned: its process is alive
  EXPECT_TRUE(fs::exists(unrelated));  // pinned: not a spill directory
  EXPECT_EQ(SpillFileSet::ReapStale(parent.path()), 0u);  // idempotent
}

TEST(ReaperTest, CheckpointTmpReapRemovesDeadPidFilesOnly) {
  TempDirGuard dir("ckp-reap");
  const uint64_t dead = DeadPid();
  const auto touch = [&](const std::string& name) {
    std::FILE* f = std::fopen((fs::path(dir.path()) / name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  };
  touch(CheckpointFileName(4) + ".tmp-" + std::to_string(dead));
  touch(CheckpointFileName(5) + ".tmp-" +
        std::to_string(CurrentProcessId()));
  touch("unrelated.tmp-" + std::to_string(dead));

  EXPECT_EQ(ReapStaleCheckpointTmps(dir.path()), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) /
                          (CheckpointFileName(4) + ".tmp-" +
                           std::to_string(dead))));
  EXPECT_TRUE(fs::exists(fs::path(dir.path()) /
                         (CheckpointFileName(5) + ".tmp-" +
                          std::to_string(CurrentProcessId()))));
  EXPECT_TRUE(
      fs::exists(fs::path(dir.path()) /
                 ("unrelated.tmp-" + std::to_string(dead))));
}
#endif  // !_WIN32

// ---- server-level recovery --------------------------------------------------

ServerOptions DurableOptions(const std::string& wal_dir, int workers = 1) {
  ServerOptions options;
  options.pool_size = 2;
  options.session.parallelism = workers;
  options.wal_directory = wal_dir;
  options.fsync_mode = FsyncMode::kBatch;
  options.checkpoint_interval_bytes = 0;  // explicit Checkpoint() only
  return options;
}

TablePtr RecoveryBase() {
  static TablePtr table = GenerateLineitem({.rows = 3000, .seed = 21});
  return table;
}

const char* kRecoverySpec = "SINGLE(l_returnflag, l_shipmode)";

TEST(ServerDurabilityTest, RestartRebuildsBitIdenticalState) {
  TempDirGuard dir("srv-restart");

  // Reference: the same schedule on an undisturbed, non-durable server.
  Server reference(RecoveryBase(), ServerOptions{});
  for (uint64_t b = 1; b <= 4; ++b) {
    ASSERT_TRUE(reference.AppendBatch(TestBatch(b, 50 + 10 * b)).ok());
  }
  auto ref_result = reference.Execute(kRecoverySpec);
  ASSERT_TRUE(ref_result.ok());

  {
    Server first(RecoveryBase(), DurableOptions(dir.path()));
    ASSERT_TRUE(first.recovery_status().ok());
    for (uint64_t b = 1; b <= 2; ++b) {
      ASSERT_TRUE(first.AppendBatch(TestBatch(b, 50 + 10 * b)).ok());
    }
    // Warm the cache, then persist it with the base in a checkpoint.
    ASSERT_TRUE(first.Execute(kRecoverySpec).ok());
    ASSERT_TRUE(first.Checkpoint().ok());
    ASSERT_TRUE(first.AppendBatch(TestBatch(3, 80)).ok());
    // Batch 4 lives only in the WAL tail when the "crash" (destruction
    // without a further checkpoint) happens.
    ASSERT_TRUE(first.AppendBatch(TestBatch(4, 90)).ok());
  }

  Server second(RecoveryBase(), DurableOptions(dir.path()));
  ASSERT_TRUE(second.recovery_status().ok())
      << second.recovery_status().ToString();
  const ServerStats stats = second.stats();
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.base_version, 4u);
  EXPECT_EQ(stats.recovery_checkpoint_version, 2u);
  EXPECT_EQ(stats.recovery_records_applied, 2u);  // batches 3 and 4
  EXPECT_EQ(stats.base_version, reference.stats().base_version);

  // Same rows, same values as the undisturbed run.
  auto rec_result = second.Execute(kRecoverySpec);
  ASSERT_TRUE(rec_result.ok());
  ExpectSameResults(*ref_result, *rec_result);
  EXPECT_EQ(second.current_base()->num_rows(),
            reference.current_base()->num_rows());
  EXPECT_EQ(second.current_base()->ByteSize(),
            reference.current_base()->ByteSize());
}

TEST(ServerDurabilityTest, RecoveredCacheServesWarmHits) {
  TempDirGuard dir("srv-warm");
  {
    Server first(RecoveryBase(), DurableOptions(dir.path()));
    ASSERT_TRUE(first.Execute(kRecoverySpec).ok());  // materialize + admit
    ASSERT_TRUE(first.Checkpoint().ok());
    EXPECT_GT(first.stats().cache.entries, 0u);
  }
  Server second(RecoveryBase(), DurableOptions(dir.path()));
  ASSERT_TRUE(second.recovery_status().ok());
  EXPECT_GT(second.stats().cache.entries, 0u);  // restored before any request
  auto served = second.Execute(kRecoverySpec);
  ASSERT_TRUE(served.ok());
  // Served from the recovered pinned views: zero base-relation scans.
  EXPECT_GT(served->counters.cache_hits, 0u);
  EXPECT_EQ(served->counters.rows_scanned, 0u);
  EXPECT_GT(second.stats().cache.hits, 0u);
}

TEST(ServerDurabilityTest, TornAppendKeepsOldVersionAndRecoveryTruncates) {
  TempDirGuard dir("srv-torn");
  {
    Server server(RecoveryBase(), DurableOptions(dir.path()));
    ASSERT_TRUE(server.AppendBatch(TestBatch(1, 60)).ok());
    FaultInjector inj(7);
    inj.ArmOneShot(FaultSite::kDiskTornWrite, 0);
    Status torn;
    {
      ScopedFaultInjection scoped(&inj);
      torn = server.AppendBatch(TestBatch(2, 60)).status();
    }
    EXPECT_FALSE(torn.ok());
    // The failed batch was never applied: log-before-apply.
    EXPECT_EQ(server.base_version(), 1u);
    // The broken writer rejects further ingestion rather than losing it.
    EXPECT_FALSE(server.AppendBatch(TestBatch(3, 60)).ok());
    EXPECT_EQ(server.stats().requests_failed, 0u);
  }
  Server recovered(RecoveryBase(), DurableOptions(dir.path()));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_EQ(recovered.base_version(), 1u);
  EXPECT_TRUE(recovered.stats().recovery_tail_truncated);
  // The truncated log accepts the batch that tore.
  ASSERT_TRUE(recovered.AppendBatch(TestBatch(2, 60)).ok());
  EXPECT_EQ(recovered.base_version(), 2u);
}

TEST(ServerDurabilityTest, CorruptNewestCheckpointFallsBackToOlder) {
  TempDirGuard dir("srv-fallback");
  {
    Server server(RecoveryBase(), DurableOptions(dir.path()));
    ASSERT_TRUE(server.AppendBatch(TestBatch(1, 60)).ok());
    ASSERT_TRUE(server.Checkpoint().ok());  // checkpoint @1
    ASSERT_TRUE(server.AppendBatch(TestBatch(2, 60)).ok());
    ASSERT_TRUE(server.Checkpoint().ok());  // checkpoint @2 (both retained)
    ASSERT_TRUE(server.AppendBatch(TestBatch(3, 60)).ok());
  }
  // Bit rot in the newest checkpoint's payload.
  const std::string newest = dir.path() + "/" + CheckpointFileName(2);
  ASSERT_TRUE(fs::exists(newest));
  {
    std::FILE* f = std::fopen(newest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(fs::file_size(newest) / 2),
                         SEEK_SET),
              0);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x08, f);
    std::fclose(f);
  }
  Server recovered(RecoveryBase(), DurableOptions(dir.path()));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  const ServerStats stats = recovered.stats();
  EXPECT_EQ(stats.recovery_checkpoints_skipped, 1u);
  EXPECT_EQ(stats.recovery_checkpoint_version, 1u);
  EXPECT_EQ(stats.recovery_records_applied, 2u);  // batches 2 and 3 replayed
  EXPECT_EQ(stats.base_version, 3u);
}

TEST(ServerDurabilityTest, AutoCheckpointRotatesAtInterval) {
  TempDirGuard dir("srv-auto");
  ServerOptions options = DurableOptions(dir.path());
  options.checkpoint_interval_bytes = 1;  // every batch crosses it
  Server server(RecoveryBase(), options);
  ASSERT_TRUE(server.AppendBatch(TestBatch(1, 40)).ok());
  ASSERT_TRUE(server.AppendBatch(TestBatch(2, 40)).ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.checkpoints_written, 2u);
  EXPECT_EQ(stats.last_checkpoint_version, 2u);
  EXPECT_EQ(stats.wal_bytes, 0u);  // rotated onto a fresh segment
}

TEST(ServerDurabilityTest, GovernorDiskLedgerMatchesLiveFiles) {
  TempDirGuard dir("srv-ledger");
  ServerOptions options = DurableOptions(dir.path());
  options.global_storage_budget_bytes = 512.0 * 1024 * 1024;
  uint64_t ram_baseline = 0;
  const auto live_durable_bytes = [&] {
    uint64_t total = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      total += fs::file_size(entry.path());
    }
    return total;
  };
  {
    Server server(RecoveryBase(), options);
    ASSERT_TRUE(server.AppendBatch(TestBatch(1, 80)).ok());
    ASSERT_TRUE(server.AppendBatch(TestBatch(2, 80)).ok());
    EXPECT_EQ(server.governor()->disk_reserved(),
              static_cast<double>(live_durable_bytes()));
    ASSERT_TRUE(server.Checkpoint().ok());
    EXPECT_EQ(server.governor()->disk_reserved(),
              static_cast<double>(live_durable_bytes()));
    ASSERT_TRUE(server.AppendBatch(TestBatch(3, 80)).ok());
    EXPECT_EQ(server.governor()->disk_reserved(),
              static_cast<double>(live_durable_bytes()));
    ram_baseline = server.stats().cache.pinned_bytes;
    EXPECT_EQ(server.governor()->reserved(), static_cast<double>(ram_baseline));
  }
  // A recovered server adopts the surviving files into a balanced ledger.
  Server recovered(RecoveryBase(), options);
  ASSERT_TRUE(recovered.recovery_status().ok());
  EXPECT_EQ(recovered.governor()->disk_reserved(),
            static_cast<double>(live_durable_bytes()));
}

TEST(ServerDurabilityTest, RecoverOnStartFalseDiscardsSurvivingLogs) {
  TempDirGuard dir("srv-norecover");
  {
    Server server(RecoveryBase(), DurableOptions(dir.path()));
    ASSERT_TRUE(server.AppendBatch(TestBatch(1, 60)).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    ASSERT_TRUE(server.AppendBatch(TestBatch(2, 60)).ok());
  }
  ServerOptions options = DurableOptions(dir.path());
  options.recover_on_start = false;
  Server fresh(RecoveryBase(), options);
  ASSERT_TRUE(fresh.recovery_status().ok());
  EXPECT_EQ(fresh.base_version(), 0u);
  EXPECT_FALSE(fresh.stats().recovered);
  // The fresh world logs from scratch; old versions cannot resurface.
  ASSERT_TRUE(fresh.AppendBatch(TestBatch(9, 30)).ok());
  EXPECT_EQ(fresh.base_version(), 1u);
}

// ---- randomized kill-and-recover differential harness -----------------------

enum class CrashMode {
  kTornWalAppend,      ///< torn write during a WAL append, then die
  kCheckpointFailure,  ///< checkpoint write fails (fsync), then die
  kAbandonedRecovery,  ///< first recovery attempt hits bit rot, abandoned
};

const char* CrashModeName(CrashMode mode) {
  switch (mode) {
    case CrashMode::kTornWalAppend: return "torn_wal_append";
    case CrashMode::kCheckpointFailure: return "checkpoint_failure";
    case CrashMode::kAbandonedRecovery: return "abandoned_recovery";
  }
  return "?";
}

void RunKillRecoverTrial(uint64_t seed, CrashMode mode, int workers) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" +
               CrashModeName(mode) + " workers=" + std::to_string(workers));
  TempDirGuard dir("kill-recover");
  Rng rng(seed * 1000 + static_cast<uint64_t>(mode));

  TablePtr base =
      GenerateLineitem({.rows = 1500 + rng.Uniform(1500),
                        .zipf_theta = 0.6,
                        .seed = 100 + seed});
  TablePtr donor = GenerateLineitem({.rows = 2000, .zipf_theta = 1.0,
                                     .seed = 700 + seed});

  const int num_batches = 3 + static_cast<int>(rng.Uniform(3));  // 3..5
  std::vector<std::vector<std::vector<Value>>> batches;
  for (int b = 0; b < num_batches; ++b) {
    batches.push_back(SampleRows(&rng, *donor, 20 + rng.Uniform(120)));
  }
  const int crash_at = 1 + static_cast<int>(rng.Uniform(num_batches));
  const int checkpoint_at = static_cast<int>(rng.Uniform(crash_at));

  const std::vector<std::string> specs = {
      "SINGLE(l_returnflag, l_linestatus)",
      "PAIRS(l_returnflag, l_shipmode, l_linestatus)"};

  // Reference: the whole schedule on an undisturbed non-durable server.
  std::vector<ExecutionResult> ref_results;
  uint64_t ref_version = 0;
  {
    ServerOptions options;
    options.pool_size = 2;
    options.session.parallelism = workers;
    Server reference(base, options);
    for (const auto& rows : batches) {
      ASSERT_TRUE(reference.AppendBatch(rows).ok());
    }
    for (const std::string& spec : specs) {
      auto r = reference.Execute(spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ref_results.push_back(*std::move(r));
    }
    ref_version = reference.base_version();
  }

  // Crashy path: apply a prefix, checkpoint somewhere inside it, die at the
  // injected fault, recover, finish the schedule.
  int applied = 0;
  {
    Server victim(base, DurableOptions(dir.path(), workers));
    ASSERT_TRUE(victim.recovery_status().ok());
    for (; applied < crash_at; ++applied) {
      ASSERT_TRUE(victim.AppendBatch(batches[applied]).ok());
      if (applied == checkpoint_at) {
        ASSERT_TRUE(victim.Checkpoint().ok());
      }
    }
    if (mode == CrashMode::kTornWalAppend && applied < num_batches) {
      FaultInjector inj(seed);
      inj.ArmOneShot(FaultSite::kDiskTornWrite, 0);
      ScopedFaultInjection scoped(&inj);
      EXPECT_FALSE(victim.AppendBatch(batches[applied]).ok());
      EXPECT_EQ(victim.base_version(), static_cast<uint64_t>(applied));
    } else if (mode == CrashMode::kCheckpointFailure) {
      FaultInjector inj(seed);
      inj.ArmProbability(FaultSite::kDiskFsync, 1.0);
      ScopedFaultInjection scoped(&inj);
      EXPECT_FALSE(victim.Checkpoint().ok());
      EXPECT_EQ(victim.base_version(), static_cast<uint64_t>(applied));
    }
    // Destruction without clean shutdown: the "kill". Everything durable is
    // already on disk under fsync_mode=kBatch.
  }

  if (mode == CrashMode::kAbandonedRecovery) {
    // The first recovery attempt reads flipped bits everywhere and must
    // refuse to admit anything; abandoning it loses no durable state.
    FaultInjector inj(seed);
    inj.ArmProbability(FaultSite::kDiskBitFlip, 1.0);
    ScopedFaultInjection scoped(&inj);
    Server abandoned(base, DurableOptions(dir.path(), workers));
    EXPECT_FALSE(abandoned.recovery_status().ok());
  }

  Server recovered(base, DurableOptions(dir.path(), workers));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  ASSERT_EQ(recovered.base_version(), static_cast<uint64_t>(applied));
  for (; applied < num_batches; ++applied) {
    ASSERT_TRUE(recovered.AppendBatch(batches[applied]).ok());
  }
  EXPECT_EQ(recovered.base_version(), ref_version);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto r = recovered.Execute(specs[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameResults(ref_results[i], *r);
  }
}

// 6 seeds x 3 crash modes x 3 worker counts = 54 kill-and-recover trials.
class KillRecoverDifferential
    : public ::testing::TestWithParam<std::tuple<CrashMode, int>> {};

TEST_P(KillRecoverDifferential, RecoveredStateMatchesUndisturbedRun) {
  const auto [mode, workers] = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunKillRecoverTrial(seed, mode, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashModesAllWorkerCounts, KillRecoverDifferential,
    ::testing::Combine(::testing::Values(CrashMode::kTornWalAppend,
                                         CrashMode::kCheckpointFailure,
                                         CrashMode::kAbandonedRecovery),
                       ::testing::Values(1, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<CrashMode, int>>& info) {
      return std::string(CrashModeName(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gbmqo
