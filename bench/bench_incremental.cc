// Streaming-ingestion bench: incremental maintenance vs full recompute
// (storage/ingest.h + core/delta_maintenance.h).
//
//  (a) Maintenance cost per applied batch — a set of materialized group-bys
//      over the lineitem lattice is kept warm while append batches of
//      {1, 10, 100, 1000, 10000} rows arrive. For each size we time
//      DeltaMaintainer::ApplyDelta (delta aggregation + group-wise merge +
//      cache swap) against a cold recompute of every maintained aggregate
//      over the grown base. Small batches must be >= 10x cheaper to
//      maintain than to recompute — that asymmetry is the whole point of
//      the delta path.
//  (b) Warm-hit rate under steady ingest — a Server alternates AppendBatch
//      with warm request sets: with incremental maintenance every post-
//      ingest request is still served from the (refreshed) cache; with
//      invalidate-on-ingest every batch forces a cold rebuild.
//
// Emits BENCH_incremental.json at the repo root after the tables.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/server.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/aggregate_cache.h"
#include "core/delta_maintenance.h"
#include "core/plan_executor.h"
#include "data/tpch_gen.h"
#include "exec/query_executor.h"
#include "storage/ingest.h"

namespace gbmqo {
namespace {

using bench::Banner;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The maintained lattice: three singles, two pairs, one triple — all with
/// COUNT(*) + SUM(l_quantity), the exact-in-double aggregate pair.
struct Maintained {
  ColumnSet columns;
  std::vector<AggRequest> aggs;
};

std::vector<Maintained> MaintainedSets() {
  const std::vector<AggRequest> aggs = {AggRequest{},
                                        AggRequest{AggKind::kSum, kQuantity}};
  return {
      {ColumnSet::Single(kReturnflag), aggs},
      {ColumnSet::Single(kLinestatus), aggs},
      {ColumnSet::Single(kShipmode), aggs},
      {ColumnSet{kReturnflag, kLinestatus}, aggs},
      {ColumnSet{kReturnflag, kShipmode}, aggs},
      {ColumnSet{kReturnflag, kLinestatus, kShipmode}, aggs},
  };
}

struct BatchPoint {
  size_t batch_rows = 0;
  double maintain_ms = 0;   // ApplyDelta over all maintained entries
  double recompute_ms = 0;  // cold rebuild of the same entries from base
  double speedup = 0;
  uint64_t rollup_reuses = 0;
};

struct SteadyPoint {
  int rounds = 0;
  double incremental_hit_rate = 0;
  double invalidate_hit_rate = 0;
  uint64_t refreshes = 0;
};

}  // namespace
}  // namespace gbmqo

int main() {
  using namespace gbmqo;

  const size_t rows = bench::RowsFromEnv(200000);
  Banner("bench_incremental: delta maintenance vs full recompute",
         "this repo's ingestion path (storage/ingest.h, "
         "core/delta_maintenance.h)");
  std::printf("rows=%zu (set GBMQO_ROWS to change)\n\n", rows);

  TablePtr base = GenerateLineitem({.rows = rows, .seed = 11});
  const Schema& schema = base->schema();

  // ---- (a) per-batch maintenance cost vs cold recompute --------------------
  Catalog catalog;
  if (!catalog.RegisterBase(base).ok()) return 1;
  AggregateCache cache(&catalog, 256.0 * 1024 * 1024);
  const std::vector<Maintained> sets = MaintainedSets();
  {
    ExecContext ctx;
    QueryExecutor exec(&ctx, ScanMode::kColumnar, 4);
    for (const Maintained& m : sets) {
      auto q = BuildGroupByOver(*base, true, schema, m.columns, m.aggs);
      if (!q.ok()) return 1;
      auto t = exec.ExecuteGroupBy(*base, *q, catalog.NextTempName("warm"));
      if (!t.ok() || !cache.AcceptPinned(m.columns, m.aggs, *t, false)) {
        std::fprintf(stderr, "failed to warm the cache\n");
        return 1;
      }
    }
  }

  Ingestor ingestor(&catalog);
  DeltaMaintenanceOptions maintain_options;
  maintain_options.parallelism = 4;
  DeltaMaintainer maintainer(&catalog, &cache, maintain_options);
  Rng rng(23);
  TablePtr current = base;
  uint64_t version = 0;

  std::printf("(a) maintenance vs recompute, %zu maintained aggregates\n",
              sets.size());
  std::printf("    %10s %14s %14s %10s %8s\n", "batch rows", "maintain (ms)",
              "recompute (ms)", "speedup", "rollups");
  std::vector<BatchPoint> points;
  for (const size_t batch_rows : {1ul, 10ul, 100ul, 1000ul, 10000ul}) {
    BatchPoint p;
    p.batch_rows = batch_rows;
    p.maintain_ms = 1e100;
    p.recompute_ms = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::vector<Value>> delta_rows;
      delta_rows.reserve(batch_rows);
      for (size_t i = 0; i < batch_rows; ++i) {
        delta_rows.push_back(current->Row(rng.Uniform(current->num_rows())));
      }
      auto batch = ingestor.AppendBatch(base->name(), delta_rows);
      if (!batch.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     batch.status().ToString().c_str());
        return 1;
      }
      const auto t0 = Clock::now();
      auto report =
          maintainer.ApplyDelta(batch->delta, batch->base, schema,
                                batch->version);
      if (!report.ok() || report->entries_dropped != 0) {
        std::fprintf(stderr, "maintenance failed\n");
        return 1;
      }
      p.maintain_ms = std::min(p.maintain_ms, Seconds(t0) * 1e3);
      p.rollup_reuses = report->rollup_reuses;

      // Cold rebuild of the same aggregates over the grown base — what the
      // invalidate path would pay on the next warm request set.
      const auto t1 = Clock::now();
      ExecContext ctx;
      QueryExecutor exec(&ctx, ScanMode::kColumnar, 4);
      for (const Maintained& m : sets) {
        auto q =
            BuildGroupByOver(*batch->base, true, schema, m.columns, m.aggs);
        if (!q.ok()) return 1;
        auto t = exec.ExecuteGroupBy(*batch->base, *q, "cold");
        if (!t.ok()) return 1;
      }
      p.recompute_ms = std::min(p.recompute_ms, Seconds(t1) * 1e3);

      // Retire the old generation (no readers in this bench).
      if (version > 0) {
        (void)catalog.Drop(current->name());
      }
      current = batch->base;
      version = batch->version;
    }
    p.speedup = p.maintain_ms > 0 ? p.recompute_ms / p.maintain_ms : 0;
    points.push_back(p);
    std::printf("    %10zu %14.3f %14.3f %9.1fx %8llu\n", p.batch_rows,
                p.maintain_ms, p.recompute_ms, p.speedup,
                static_cast<unsigned long long>(p.rollup_reuses));
  }
  // The gate: small batches must be an order of magnitude cheaper to
  // maintain than to recompute.
  bool small_batch_win = true;
  for (const BatchPoint& p : points) {
    if (p.batch_rows <= 100 && p.speedup < 10.0) small_batch_win = false;
  }
  std::printf("    %-28s %10s\n", "small-batch speedup >= 10x",
              small_batch_win ? "yes" : "NO");

  // ---- (b) warm-hit rate under steady ingest -------------------------------
  const char* kSpec = "SINGLE(l_returnflag, l_linestatus, l_shipmode)";
  const int kRounds = 10;
  const int kRowsPerRound = 200;
  SteadyPoint steady;
  steady.rounds = kRounds;
  for (const bool incremental : {true, false}) {
    ServerOptions options;
    options.incremental_maintenance = incremental;
    options.refresh_stats_on_ingest = false;
    Server server(base, options);
    if (!server.Execute(kSpec).ok()) return 1;  // warm at v0
    const AggregateCacheStats warm0 = server.stats().cache;
    Rng ingest_rng(31);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i < kRowsPerRound; ++i) {
        batch.push_back(base->Row(ingest_rng.Uniform(base->num_rows())));
      }
      if (!server.AppendBatch(batch).ok()) return 1;
      if (!server.Execute(kSpec).ok()) return 1;
    }
    const AggregateCacheStats cs = server.stats().cache;
    const uint64_t lookups = (cs.hits - warm0.hits) + (cs.misses - warm0.misses);
    const double hit_rate =
        lookups == 0 ? 0 : static_cast<double>(cs.hits - warm0.hits) / lookups;
    if (incremental) {
      steady.incremental_hit_rate = hit_rate;
      steady.refreshes = cs.refreshes;
    } else {
      steady.invalidate_hit_rate = hit_rate;
    }
  }
  std::printf("\n(b) steady ingest, %d rounds x %d rows, spec repeated\n",
              kRounds, kRowsPerRound);
  std::printf("    %-28s %9.1f%%  (%llu entry refreshes)\n",
              "hit rate, incremental", 100.0 * steady.incremental_hit_rate,
              static_cast<unsigned long long>(steady.refreshes));
  std::printf("    %-28s %9.1f%%\n", "hit rate, invalidate-on-ingest",
              100.0 * steady.invalidate_hit_rate);
  const bool warm_survives = steady.incremental_hit_rate >= 0.99;

#ifdef GBMQO_REPO_ROOT
  const std::string json_path =
      std::string(GBMQO_REPO_ROOT) + "/BENCH_incremental.json";
#else
  const std::string json_path = "BENCH_incremental.json";
#endif
  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"rows\": %zu,\n"
                "  \"maintained_aggregates\": %zu,\n"
                "  \"small_batch_speedup_ok\": %s,\n"
                "  \"batches\": [\n",
                rows, sets.size(), small_batch_win ? "true" : "false");
  json += buf;
  for (size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch_rows\": %zu, \"maintain_ms\": %.3f, "
                  "\"recompute_ms\": %.3f, \"speedup\": %.2f, "
                  "\"rollup_reuses\": %llu}%s\n",
                  points[i].batch_rows, points[i].maintain_ms,
                  points[i].recompute_ms, points[i].speedup,
                  static_cast<unsigned long long>(points[i].rollup_reuses),
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n"
                "  \"steady_ingest\": {\"rounds\": %d, "
                "\"incremental_hit_rate\": %.4f, "
                "\"invalidate_hit_rate\": %.4f, \"refreshes\": %llu}\n}\n",
                steady.rounds, steady.incremental_hit_rate,
                steady.invalidate_hit_rate,
                static_cast<unsigned long long>(steady.refreshes));
  json += buf;
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return small_batch_win && warm_survives ? 0 : 1;
}
