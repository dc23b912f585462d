// Intra-query parallel aggregation: speedup vs worker threads for the
// morsel-driven hash-aggregation engine (QueryExecutor::parallelism), on
//  (a) one 1M-row hash aggregation, and
//  (b) a shared-scan batch of four group-bys over the same scan.
// Alongside wall-clock speedup, every run's WorkCounters are compared
// bit-for-bit against the 1-thread run: the fixed shard/partition layout
// makes them identical at any thread count (see DESIGN.md). Emits a JSON
// object (speedup vs threads) after the human-readable table.
#include <thread>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "data/sales_gen.h"
#include "exec/query_executor.h"

namespace gbmqo {
namespace {

using bench::Banner;

struct Sample {
  int threads = 1;
  double seconds = 0;
  WorkCounters counters;
};

/// Runs `fn` (which charges work to a fresh ExecContext it is given)
/// `reps` times; keeps the minimum wall time and the last counters.
template <typename Fn>
Sample Measure(int threads, int reps, Fn&& fn) {
  Sample s;
  s.threads = threads;
  s.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    ExecContext ctx;
    WallTimer timer;
    fn(&ctx, threads);
    s.seconds = std::min(s.seconds, timer.ElapsedSeconds());
    s.counters = ctx.counters();
  }
  return s;
}

void PrintRows(const char* title, const std::vector<Sample>& samples) {
  std::printf("\n%s\n", title);
  std::printf("%-8s | %-12s | %-8s | %s\n", "threads", "seconds", "speedup",
              "counters == 1-thread");
  for (const Sample& s : samples) {
    std::printf("%-8d | %-12.4f | %-8.2f | %s\n", s.threads, s.seconds,
                bench::Speedup(samples.front().seconds, s.seconds),
                samples.front().counters == s.counters ? "yes" : "NO");
  }
}

void PrintJsonSeries(const char* key, const std::vector<Sample>& samples,
                     bool last) {
  std::printf("  \"%s\": [", key);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::printf("%s\n    {\"threads\": %d, \"seconds\": %.6f, "
                "\"speedup\": %.3f, \"hash_probes\": %llu, "
                "\"counters_match\": %s}",
                i == 0 ? "" : ",", s.threads, s.seconds,
                bench::Speedup(samples.front().seconds, s.seconds),
                static_cast<unsigned long long>(s.counters.hash_probes),
                samples.front().counters == s.counters ? "true" : "false");
  }
  std::printf("\n  ]%s\n", last ? "" : ",");
}

void Run() {
  const size_t rows = bench::RowsFromEnv(1000000);
  Banner("Parallel aggregation — speedup vs worker threads",
         "engine study (morsel-driven parallelism; not a paper figure)");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("rows=%zu, hardware_concurrency=%u\n", rows, hw);
  if (hw < 4) {
    std::printf("note: <4 cores visible; multi-thread wall speedups will "
                "not materialize here (counters equality still holds)\n");
  }

  TablePtr sales = GenerateSales({.rows = rows});
  const int kThreads[] = {1, 2, 4, 8};
  const int reps = 3;

  // (a) one hash aggregation: GROUP BY (category, brand) with COUNT(*) and
  // SUM(quantity) — a moderate-cardinality group set, so the scan and the
  // per-morsel table builds dominate.
  GroupByQuery single;
  single.grouping = ColumnSet::Single(kCategory).With(kBrand);
  single.aggregates.push_back(AggregateSpec::CountStar("cnt"));
  single.aggregates.push_back(AggregateSpec::Sum(kSalesQuantity, "sum_qty"));

  std::vector<Sample> single_samples;
  for (int t : kThreads) {
    single_samples.push_back(Measure(t, reps, [&](ExecContext* ctx, int th) {
      QueryExecutor exec(ctx, ScanMode::kRowStore, th);
      auto r = exec.ExecuteGroupBy(*sales, single, "out");
      if (!r.ok()) std::exit(1);
    }));
  }
  PrintRows("(a) single hash aggregation: category x brand", single_samples);

  // (b) shared-scan batch: four group-bys over one scan of sales.
  std::vector<GroupByQuery> batch(4);
  batch[0].grouping = ColumnSet::Single(kStoreId);
  batch[1].grouping = ColumnSet::Single(kCategory).With(kSubcategory);
  batch[2].grouping = ColumnSet::Single(kState).With(kChannel);
  batch[3].grouping = ColumnSet::Single(kBrand);
  for (GroupByQuery& q : batch) {
    q.aggregates.push_back(AggregateSpec::CountStar("cnt"));
  }
  const std::vector<std::string> names = {"q0", "q1", "q2", "q3"};

  std::vector<Sample> shared_samples;
  for (int t : kThreads) {
    shared_samples.push_back(Measure(t, reps, [&](ExecContext* ctx, int th) {
      QueryExecutor exec(ctx, ScanMode::kRowStore, th);
      auto r = exec.ExecuteSharedScan(*sales, batch, names);
      if (!r.ok()) std::exit(1);
    }));
  }
  PrintRows("(b) shared-scan batch of 4 group-bys", shared_samples);

  std::printf("\n{\n");
  std::printf("  \"bench\": \"parallel_agg\",\n");
  std::printf("  \"rows\": %zu,\n", rows);
  std::printf("  \"hardware_concurrency\": %u,\n", hw);
  PrintJsonSeries("single_query", single_samples, /*last=*/false);
  PrintJsonSeries("shared_scan", shared_samples, /*last=*/true);
  std::printf("}\n");
}

}  // namespace
}  // namespace gbmqo

int main() {
  gbmqo::Run();
  return 0;
}
