// Out-of-core aggregation tests (exec/spill_partitioner.h + the
// QueryExecutor spill path + the api-level knobs).
//
// The determinism contract under test: a spilled run must be *bit-identical*
// to the uncapped in-memory run — same group order, same doubles compared on
// raw bits — because spill partitions coincide exactly with the in-memory
// merge partitions and records replay in shard scan order (see DESIGN.md
// "Out-of-core aggregation"). The suite drives seeded randomized
// differentials across every forced kernel x {1, 4, 8} workers x clean or
// corrupt spill files, the budget-trip restart (row-store trips in the
// build and in the merge phase included), the shared-scan refusal,
// StorageGovernor RAM/disk
// metering, spill-file cleanup after injected faults, and the Session-level
// spill knobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "counters_testing.h"
#include "data/sales_gen.h"
#include "exec/group_hash_table.h"
#include "exec/query_executor.h"
#include "exec/spill_partitioner.h"
#include "storage/storage_governor.h"

namespace gbmqo {
namespace {

namespace fs = std::filesystem;

/// Fresh directory for one test's spill files, removed on scope exit so
/// leak checks from different tests cannot see each other's droppings.
class ScopedSpillDir {
 public:
  explicit ScopedSpillDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("gbmqo-spill-test-" + tag + "-" +
               std::to_string(static_cast<uint64_t>(::getpid())))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedSpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  size_t NumEntries() const {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(path_)) {
      (void)e;
      ++n;
    }
    return n;
  }

 private:
  fs::path path_;
};

/// 150k rows (3 morsels, so the multi-shard build path — the only one that
/// can spill — is taken): a dense-eligible small dimension, a
/// high-cardinality key whose domain defeats the dense kernel, a dictionary
/// string, and numeric aggregate arguments.
TablePtr SpillTable(size_t rows, uint64_t seed) {
  TableBuilder b(Schema({{"g_small", DataType::kInt64, true},
                         {"g_big", DataType::kInt64, false},
                         {"g_str", DataType::kString, true},
                         {"v", DataType::kDouble, false},
                         {"w", DataType::kInt64, false}}));
  Rng rng(seed);
  const char* names[] = {"red", "green", "blue", ""};
  for (size_t i = 0; i < rows; ++i) {
    Value g1 = rng.Bernoulli(0.1)
                   ? Value(Null{})
                   : Value(static_cast<int64_t>(rng.Uniform(40)));
    Value g2 = Value(static_cast<int64_t>(rng.Uniform(500000)));
    Value g3 =
        rng.Bernoulli(0.1) ? Value(Null{}) : Value(names[rng.Uniform(4)]);
    Value v = Value(0.25 * static_cast<double>(rng.Uniform(1000)) - 17.3);
    Value w = Value(static_cast<int64_t>(rng.Uniform(1000)));
    EXPECT_TRUE(b.AppendRow({g1, g2, g3, v, w}).ok());
  }
  return *b.Build("spill_input");
}

TablePtr SharedSpillTable() {
  static TablePtr t = SpillTable(150000, 4242);
  return t;
}

/// Bit-identical table comparison: same schema, same row order, doubles
/// compared on their raw bit patterns (no tolerance, no canonicalization).
void ExpectBitIdentical(const Table& a, const Table& b,
                        const std::string& what) {
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (int c = 0; c < a.schema().num_columns(); ++c) {
    ASSERT_EQ(a.schema().column(c).type, b.schema().column(c).type) << what;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.column(c).IsNull(r), b.column(c).IsNull(r))
          << what << " col " << c << " row " << r;
      if (a.column(c).IsNull(r)) continue;
      if (a.schema().column(c).type == DataType::kDouble) {
        const double da = a.column(c).DoubleAt(r);
        const double db = b.column(c).DoubleAt(r);
        uint64_t ba, bb;
        std::memcpy(&ba, &da, sizeof(ba));
        std::memcpy(&bb, &db, sizeof(bb));
        ASSERT_EQ(ba, bb) << what << " col " << c << " row " << r;
      } else {
        ASSERT_EQ(a.column(c).ValueAt(r), b.column(c).ValueAt(r))
            << what << " col " << c << " row " << r;
      }
    }
  }
}

struct SpillRun {
  TablePtr table;
  WorkCounters counters;
  Status status = Status::OK();
};

SpillRun RunGroupBy(const Table& t, const GroupByQuery& q, int parallelism,
                    std::optional<AggKernel> kernel, const SpillOptions& spill,
                    ScanMode mode = ScanMode::kColumnar) {
  ExecContext ctx;
  QueryExecutor exec(&ctx, mode, parallelism);
  exec.set_forced_kernel(kernel);
  exec.set_spill(spill);
  auto r = exec.ExecuteGroupBy(t, q, "out", AggStrategy::kHash);
  SpillRun out;
  out.counters = ctx.counters();
  if (r.ok()) {
    out.table = *r;
  } else {
    out.status = r.status();
  }
  return out;
}

const std::optional<AggKernel> kKernelMatrix[] = {
    std::nullopt, AggKernel::kDenseArray, AggKernel::kPackedKey,
    AggKernel::kMultiWord, AggKernel::kSortRuns};

// ---- forced spill vs in-memory, full kernel x parallelism matrix -----------

TEST(SpillDifferentialTest, ForcedSpillBitIdenticalAcrossKernelsAndThreads) {
  ScopedSpillDir dir("forced");
  TablePtr t = SharedSpillTable();
  const std::vector<GroupByQuery> queries = {
      {ColumnSet{0, 2},
       {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(3, "s"),
        AggregateSpec::Min(3, "mn"), AggregateSpec::Max(3, "mx")}},
      {ColumnSet{1}, {AggregateSpec::CountStar("cnt"),
                      AggregateSpec::Sum(3, "s")}},
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    for (std::optional<AggKernel> kernel : kKernelMatrix) {
      const std::string kname = kernel ? AggKernelName(*kernel) : "auto";
      SCOPED_TRACE("kernel " + kname);
      const SpillRun mem =
          RunGroupBy(*t, queries[qi], 1, kernel, SpillOptions{});
      ASSERT_TRUE(mem.status.ok()) << mem.status.ToString();
      EXPECT_EQ(mem.counters.queries_spilled, 0u);
      for (int par : {1, 4, 8}) {
        WorkCounters clean;
        // corrupt: every spill frame fails its CRC on replay, so the
        // recompute-partition rung re-encodes each file from the input.
        for (bool corrupt : {false, true}) {
          SCOPED_TRACE("par=" + std::to_string(par) +
                       (corrupt ? " corrupt" : ""));
          FaultInjector injector(17);
          if (corrupt) injector.ArmProbability(FaultSite::kSpillCorrupt, 1.0);
          ScopedFaultInjection scoped(&injector);
          SpillOptions spill;
          spill.force = true;
          spill.directory = dir.str();
          const SpillRun sp = RunGroupBy(*t, queries[qi], par, kernel, spill);
          ASSERT_TRUE(sp.status.ok()) << sp.status.ToString();
          ExpectBitIdentical(*mem.table, *sp.table, kname);
          EXPECT_EQ(sp.counters.queries_spilled, 1u);
          EXPECT_EQ(sp.counters.spill_partitions,
                    static_cast<uint64_t>(QueryExecutor::kMergePartitions));
          EXPECT_GT(sp.counters.spill_bytes_written, 0u);
          EXPECT_EQ(sp.counters.spill_bytes_written,
                    sp.counters.spill_bytes_read);
          // Scan-side counters are charged once, not per pass.
          EXPECT_EQ(sp.counters.rows_scanned, mem.counters.rows_scanned);
          EXPECT_EQ(sp.counters.rows_emitted, mem.counters.rows_emitted);
          EXPECT_EQ(sp.counters.scan_touch_checksum,
                    mem.counters.scan_touch_checksum);
          if (!corrupt) {
            EXPECT_EQ(sp.counters.spill_corrupt_recoveries, 0u);
            clean = sp.counters;
            continue;
          }
          // Rebuilt records are byte-identical to the lost ones: apart from
          // the recovery count, the run is indistinguishable from a clean
          // one.
          EXPECT_GT(injector.fires(FaultSite::kSpillCorrupt), 0u);
          EXPECT_GT(sp.counters.spill_corrupt_recoveries, 0u);
          WorkCounters repaired = sp.counters;
          repaired.spill_corrupt_recoveries = 0;
          EXPECT_EQ(repaired, clean);
        }
      }
    }
  }
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

TEST(SpillDifferentialTest, SeededRandomTrials) {
  ScopedSpillDir dir("random");
  TablePtr t = SharedSpillTable();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ColumnSet cols;
    const int group_pool[] = {0, 1, 2};
    const size_t ncols = 1 + rng.Uniform(3);
    for (size_t c = 0; c < ncols; ++c) cols = cols.With(group_pool[rng.Uniform(3)]);
    GroupByQuery q;
    q.grouping = cols;
    q.aggregates = {AggregateSpec::CountStar("cnt")};
    if (rng.Uniform(2) == 0) q.aggregates.push_back(AggregateSpec::Sum(3, "s"));
    if (rng.Uniform(2) == 0) q.aggregates.push_back(AggregateSpec::Min(4, "mn"));
    if (rng.Uniform(3) == 0) q.aggregates.push_back(AggregateSpec::Max(3, "mx"));
    const std::optional<AggKernel> kernel =
        kKernelMatrix[rng.Uniform(std::size(kKernelMatrix))];
    const int par = 1 + static_cast<int>(rng.Uniform(8));

    const SpillRun mem = RunGroupBy(*t, q, 1, kernel, SpillOptions{});
    ASSERT_TRUE(mem.status.ok()) << mem.status.ToString();
    SpillOptions spill;
    spill.force = true;
    spill.directory = dir.str();
    const SpillRun sp = RunGroupBy(*t, q, par, kernel, spill);
    ASSERT_TRUE(sp.status.ok()) << sp.status.ToString();
    ExpectBitIdentical(*mem.table, *sp.table, "trial");
    EXPECT_EQ(sp.counters.queries_spilled, 1u);
  }
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

// ---- budget trip: the in-memory build restarts on the spill path -----------

TEST(SpillTripTest, BudgetTripRestartsOnSpillPathBitIdentical) {
  ScopedSpillDir dir("trip");
  TablePtr t = SharedSpillTable();
  // ~130k distinct g_big groups: far past any 1 MiB group-table budget.
  GroupByQuery q{ColumnSet{1},
                 {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(3, "s")}};
  const SpillRun mem = RunGroupBy(*t, q, 4, std::nullopt, SpillOptions{});
  ASSERT_TRUE(mem.status.ok()) << mem.status.ToString();

  SpillOptions spill;
  spill.memory_budget_bytes = 1u << 20;
  spill.directory = dir.str();
  const SpillRun tripped = RunGroupBy(*t, q, 4, std::nullopt, spill);
  ASSERT_TRUE(tripped.status.ok()) << tripped.status.ToString();
  ExpectBitIdentical(*mem.table, *tripped.table, "tripped");
  EXPECT_EQ(tripped.counters.queries_spilled, 1u);
  // Upfront scan work is charged once even though the build restarted.
  EXPECT_EQ(tripped.counters.rows_scanned, mem.counters.rows_scanned);
  EXPECT_EQ(tripped.counters.queries_executed, mem.counters.queries_executed);

  // A budget the group table fits under never spills.
  SpillOptions roomy;
  roomy.memory_budget_bytes = 1u << 30;
  roomy.directory = dir.str();
  const SpillRun fit = RunGroupBy(*t, q, 4, std::nullopt, roomy);
  ASSERT_TRUE(fit.status.ok()) << fit.status.ToString();
  ExpectBitIdentical(*mem.table, *fit.table, "under-budget");
  EXPECT_EQ(fit.counters.queries_spilled, 0u);
  EXPECT_EQ(fit.counters.spill_bytes_written, 0u);
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

TEST(SpillTripTest, RowStoreBuildAndMergeTripsMatchForcedSpill) {
  // The row-store scan touch folds into scan_touch_checksum only once the
  // in-memory attempt has survived the budget, so a trip in the build phase
  // or in the merge phase restarts on the spill path with nothing charged
  // twice: full counters and output equal a forced spill run's.
  ScopedSpillDir dir("rowstore");
  TablePtr t = SharedSpillTable();
  GroupByQuery q{ColumnSet{1},
                 {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(3, "s")}};
  const uint64_t shards =
      (t->num_rows() + QueryExecutor::kMorselRows - 1) /
      QueryExecutor::kMorselRows;
  ASSERT_GT(shards, 1u);
  ASSERT_LE(shards, static_cast<uint64_t>(QueryExecutor::kBuildShards));
  // One worker; `alloc_hits` counts the allocation fault site's arrivals,
  // one per build shard then one per merge partition, so more than
  // `shards` arrivals means the build survived and the merge began.
  const auto run = [&](uint64_t budget, bool force, uint64_t* alloc_hits) {
    FaultInjector injector(5);  // nothing armed: arrivals are only counted
    ScopedFaultInjection scoped(&injector);
    SpillOptions spill;
    spill.memory_budget_bytes = budget;
    spill.force = force;
    spill.directory = dir.str();
    SpillRun r = RunGroupBy(*t, q, 1, std::nullopt, spill, ScanMode::kRowStore);
    *alloc_hits = injector.hits(FaultSite::kAllocPressure);
    return r;
  };
  uint64_t hits = 0;
  const SpillRun mem = run(0, false, &hits);
  ASSERT_TRUE(mem.status.ok()) << mem.status.ToString();
  const SpillRun forced = run(0, true, &hits);
  ASSERT_TRUE(forced.status.ok()) << forced.status.ToString();
  EXPECT_EQ(hits, 0u);
  EXPECT_NE(forced.counters.scan_touch_checksum, 0u);
  EXPECT_EQ(forced.counters.scan_touch_checksum,
            mem.counters.scan_touch_checksum);
  ExpectBitIdentical(*mem.table, *forced.table, "forced");

  const SpillRun build_trip = run(1u << 20, false, &hits);
  ASSERT_TRUE(build_trip.status.ok()) << build_trip.status.ToString();
  EXPECT_LE(hits, shards) << "the 1 MiB budget must trip in the build";
  EXPECT_EQ(build_trip.counters, forced.counters);
  ExpectBitIdentical(*forced.table, *build_trip.table, "build trip");

  // Bisect for a budget just above the build phase's bytes: the merge's
  // partitions then push the total past it.
  uint64_t lo = 1u << 20;  // trips in the build
  uint64_t hi = 1u << 30;  // fits both phases
  while (hi - lo > lo / 8) {
    const uint64_t mid = lo + (hi - lo) / 2;
    ASSERT_TRUE(run(mid, false, &hits).status.ok());
    (hits > shards ? hi : lo) = mid;
  }
  const SpillRun merge_trip = run(hi, false, &hits);
  ASSERT_TRUE(merge_trip.status.ok()) << merge_trip.status.ToString();
  EXPECT_GT(hits, shards) << "budget " << hi << " must trip in the merge";
  EXPECT_EQ(merge_trip.counters.queries_spilled, 1u)
      << "budget " << hi << " must trip in the merge";
  EXPECT_EQ(merge_trip.counters, forced.counters);
  ExpectBitIdentical(*forced.table, *merge_trip.table, "merge trip");
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

TEST(SpillTripTest, SharedScanTripSurfacesRealizedVsBudgetedBytes) {
  // Shared scans cannot spill (their shard state interleaves queries): a
  // tripped budget must surface ResourceExhausted carrying the realized and
  // budgeted byte counts, for the plan-level ladder to split the batch.
  TablePtr t = SharedSpillTable();
  ExecContext ctx;
  QueryExecutor exec(&ctx, ScanMode::kColumnar, 4);
  SpillOptions spill;
  spill.memory_budget_bytes = 1u << 20;
  exec.set_spill(spill);
  const std::vector<GroupByQuery> queries = {
      {ColumnSet{1}, {AggregateSpec::CountStar("cnt")}},
      {ColumnSet{0, 2}, {AggregateSpec::CountStar("cnt")}},
  };
  auto r = exec.ExecuteSharedScan(*t, queries, {"a", "b"});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find("group-table memory exhausted: realized "),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(" bytes exceeds the budget of 1048576 bytes"),
            std::string::npos)
      << msg;
}

// ---- StorageGovernor: RAM peak under the cap, disk bytes metered -----------

TEST(SpillGovernorTest, RamPeakStaysUnderBudgetAndDiskIsReleased) {
  ScopedSpillDir dir("governor");
  TablePtr t = SharedSpillTable();
  GroupByQuery q{ColumnSet{1},
                 {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(3, "s")}};
  StorageGovernor governor(/*budget_bytes=*/0, /*disk_budget_bytes=*/0);
  SpillOptions spill;
  spill.memory_budget_bytes = 2u << 20;
  spill.directory = dir.str();
  spill.governor = &governor;
  const SpillRun sp = RunGroupBy(*t, q, 4, std::nullopt, spill);
  ASSERT_TRUE(sp.status.ok()) << sp.status.ToString();
  EXPECT_EQ(sp.counters.queries_spilled, 1u);
  // The whole point of spilling: the replay's realized RAM working set (one
  // partition at a time) stays under the budget that the in-memory build
  // blew through — asserted on the governor's high-water mark.
  EXPECT_GT(governor.peak_reserved(), 0.0);
  EXPECT_LE(governor.peak_reserved(),
            static_cast<double>(spill.memory_budget_bytes));
  // Disk bytes were metered while files were live and fully released.
  EXPECT_EQ(governor.peak_disk_reserved(),
            static_cast<double>(sp.counters.spill_bytes_written));
  EXPECT_EQ(governor.disk_reserved(), 0.0);
  EXPECT_EQ(governor.reserved(), 0.0);
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

TEST(SpillGovernorTest, DiskBudgetExhaustionFailsWithNumbers) {
  ScopedSpillDir dir("diskcap");
  TablePtr t = SharedSpillTable();
  GroupByQuery q{ColumnSet{1}, {AggregateSpec::CountStar("cnt")}};
  // Per-query spill-byte cap.
  SpillOptions spill;
  spill.force = true;
  spill.directory = dir.str();
  spill.max_spill_bytes = 1024;
  const SpillRun capped = RunGroupBy(*t, q, 4, std::nullopt, spill);
  ASSERT_FALSE(capped.status.ok());
  EXPECT_TRUE(capped.status.IsResourceExhausted());
  const std::string msg = capped.status.ToString();
  EXPECT_NE(msg.find("spill disk budget exhausted: realized "),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(" bytes exceeds max_spill_bytes of 1024 bytes"),
            std::string::npos)
      << msg;
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";

  // Global governor disk ledger, same refusal shape.
  StorageGovernor governor(0, /*disk_budget_bytes=*/2048);
  SpillOptions global = spill;
  global.max_spill_bytes = 0;
  global.governor = &governor;
  const SpillRun gcapped = RunGroupBy(*t, q, 4, std::nullopt, global);
  ASSERT_FALSE(gcapped.status.ok());
  EXPECT_TRUE(gcapped.status.IsResourceExhausted());
  EXPECT_NE(gcapped.status.ToString().find("global spill disk budget"),
            std::string::npos)
      << gcapped.status.ToString();
  EXPECT_EQ(governor.disk_reserved(), 0.0);
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

// ---- fault injection: no leaked spill files, ever ---------------------------

TEST(SpillFaultTest, InjectedFaultsLeakNoSpillFiles) {
  ScopedSpillDir dir("faults");
  TablePtr t = SharedSpillTable();
  GroupByQuery q{ColumnSet{1}, {AggregateSpec::CountStar("cnt")}};
  for (FaultSite site :
       {FaultSite::kSpillWrite, FaultSite::kSpillRead, FaultSite::kSpillMerge}) {
    SCOPED_TRACE(FaultSiteName(site));
    FaultInjector injector(99);
    injector.ArmProbability(site, 1.0);
    ScopedFaultInjection scoped(&injector);
    SpillOptions spill;
    spill.force = true;
    spill.directory = dir.str();
    const SpillRun sp = RunGroupBy(*t, q, 4, std::nullopt, spill);
    ASSERT_FALSE(sp.status.ok());
    EXPECT_TRUE(sp.status.IsInternal()) << sp.status.ToString();
    EXPECT_GT(injector.fires(site), 0u);
    // The RAII spill directory must be gone even though the run died
    // mid-write / mid-replay / mid-merge.
    EXPECT_EQ(dir.NumEntries(), 0u)
        << "leaked spill files after " << FaultSiteName(site);
  }
}

// ---- error-message pins (status reporting satellite) ------------------------

TEST(SpillMessageTest, ExhaustionMessagesReportRealizedVsBudgeted) {
  const SpillRequired trip(123456, 4567);
  EXPECT_EQ(std::string(trip.what()),
            "group-table memory exhausted: realized 123456 bytes exceeds the "
            "budget of 4567 bytes");
  EXPECT_EQ(trip.realized_bytes(), 123456u);
  EXPECT_EQ(trip.budget_bytes(), 4567u);
  const GroupIdSpaceExhausted ids(10, 5);
  EXPECT_EQ(std::string(ids.what()),
            "group id space exhausted: realized 10 groups at the id limit of 5");
}

TEST(SpillMessageTest, MemoryMeterTripsOnlyPastBudget) {
  MemoryMeter meter(1000, /*trip=*/true);
  meter.Charge(600);
  meter.Charge(400);  // exactly at budget: no trip
  EXPECT_EQ(meter.used(), 1000u);
  EXPECT_THROW(meter.Charge(1), SpillRequired);
  MemoryMeter observer(1000, /*trip=*/false);
  observer.Charge(5000);
  observer.Charge(-2000);
  EXPECT_EQ(observer.used(), 3000u);
  EXPECT_EQ(observer.peak(), 5000u);  // peak survives the release
}

// ---- Session-level knobs ----------------------------------------------------

std::vector<GroupByRequest> SalesRequests() {
  std::vector<GroupByRequest> reqs;
  GroupByRequest a;
  a.columns = ColumnSet{kCustomerId};  // high cardinality: trips small caps
  a.aggs = {AggRequest{}, AggRequest{AggKind::kSum, kSalesQuantity}};
  GroupByRequest b;
  b.columns = ColumnSet{kRegion, kCategory};
  b.aggs = {AggRequest{}, AggRequest{AggKind::kMax, kUnitPrice}};
  reqs.push_back(std::move(a));
  reqs.push_back(std::move(b));
  return reqs;
}

void ExpectSameResults(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [cols, table] : a.results) {
    ASSERT_TRUE(b.results.count(cols)) << cols.ToString();
    ExpectBitIdentical(*table, *b.results.at(cols), cols.ToString());
  }
}

TEST(SessionSpillTest, StorageCapBecomesHardCapWithSpillEnabled) {
  ScopedSpillDir dir("session");
  TablePtr sales = GenerateSales({.rows = 150000, .seed = 11});
  const std::vector<GroupByRequest> reqs = SalesRequests();

  SessionOptions uncapped;
  uncapped.parallelism = 4;
  Session a(sales, uncapped);
  auto ra = a.Execute(reqs);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->counters.queries_spilled, 0u);

  // Same workload under a 1 MiB execution-storage cap with spill enabled:
  // must complete (the cap is hard, not a refusal) with bit-identical
  // results, via the out-of-core path.
  SessionOptions capped = uncapped;
  capped.max_exec_storage_bytes = 1 << 20;
  capped.max_spill_bytes = 1u << 30;
  capped.spill_directory = dir.str();
  Session b(sales, capped);
  auto rb = b.Execute(reqs);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ExpectSameResults(*ra, *rb);
  EXPECT_GT(rb->counters.queries_spilled, 0u);
  EXPECT_GT(rb->counters.spill_bytes_written, 0u);
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";

  // force_spill routes every eligible aggregation out of core even with no
  // caps configured at all.
  SessionOptions forced = uncapped;
  forced.force_spill = true;
  forced.spill_directory = dir.str();
  Session c(sales, forced);
  auto rc = c.Execute(reqs);
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  ExpectSameResults(*ra, *rc);
  EXPECT_GT(rc->counters.queries_spilled, 0u);
  EXPECT_EQ(dir.NumEntries(), 0u) << "leaked spill files";
}

}  // namespace
}  // namespace gbmqo
