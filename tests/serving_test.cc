// Concurrent serving determinism: N clients against one Server must see
// exactly the content serial sessions produce, the cross-request aggregate
// cache must hit deterministically on repeated workloads, and catalog temp
// bytes must return to the pinned-cache baseline after every request.
#include "api/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "data/tpch_gen.h"
#include "storage/ingest.h"

namespace gbmqo {
namespace {

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

/// Bit-identity up to row order: same keys, same aggregate values.
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

TablePtr SmallLineitem() {
  static TablePtr table = GenerateLineitem({.rows = 20000, .seed = 7});
  return table;
}

const char* kSpec = "SINGLE(l_returnflag, l_linestatus, l_shipmode)";

TEST(ServingTest, MatchesSession) {
  Server server(SmallLineitem());
  auto served = server.Execute(kSpec);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  Session session(SmallLineitem());
  auto direct = session.Execute(kSpec);
  ASSERT_TRUE(direct.ok());
  ExpectSameResults(*direct, *served);
}

TEST(ServingTest, ConcurrentClientsMatchSerialContent) {
  // Overlapping grouping sets from concurrent clients; coalescing off so
  // every submission really executes.
  const std::vector<std::string> specs = {
      "SINGLE(l_returnflag, l_linestatus, l_shipmode)",
      "PAIRS(l_returnflag, l_linestatus, l_shipmode)",
      "SINGLE(l_returnflag, l_shipinstruct)",
      "(l_returnflag, l_linestatus), (l_shipmode)",
      "SINGLE(l_linestatus, l_shipmode)",
      "PAIRS(l_returnflag, l_shipinstruct)",
  };
  ServerOptions options;
  options.pool_size = 4;
  options.coalesce_identical_requests = false;
  Server server(SmallLineitem(), options);

  std::vector<Server::Ticket> tickets(specs.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < specs.size(); ++i) {
    clients.emplace_back([&, i] {
      auto t = server.Submit(specs[i]);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      tickets[i] = *t;
    });
  }
  for (std::thread& c : clients) c.join();

  Session session(SmallLineitem());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto served = tickets[i].Get();
    ASSERT_TRUE(served.ok()) << specs[i] << ": " << served.status().ToString();
    auto direct = session.Execute(specs[i]);
    ASSERT_TRUE(direct.ok());
    ExpectSameResults(*direct, *served);
  }
  EXPECT_EQ(server.stats().requests_served, specs.size());
  EXPECT_EQ(server.stats().requests_failed, 0u);
}

TEST(ServingTest, WarmCacheHitsDeterministically) {
  Server server(SmallLineitem());
  auto requests = server.Parse(kSpec);
  ASSERT_TRUE(requests.ok());

  auto cold = server.Execute(*requests);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->counters.cache_hits, 0u);

  // Every request is now covered by an exactly-matching pinned view, so the
  // repeat is served entirely from the cache: one hit per request, zero
  // misses, zero scans — and byte-identical content.
  auto warm = server.Execute(*requests);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->counters.cache_hits, requests->size());
  EXPECT_EQ(warm->counters.cache_misses, 0u);
  EXPECT_EQ(warm->counters.bytes_scanned, 0u);
  ExpectSameResults(*cold, *warm);

  // And again: hit counts are a deterministic function of the workload.
  auto warm2 = server.Execute(*requests);
  ASSERT_TRUE(warm2.ok());
  EXPECT_EQ(warm2->counters.cache_hits, requests->size());
  EXPECT_EQ(warm2->counters.cache_misses, 0u);
}

TEST(ServingTest, TempBytesReturnToPinnedBaseline) {
  Server server(SmallLineitem());
  const std::vector<std::string> specs = {
      kSpec,
      "PAIRS(l_returnflag, l_linestatus, l_shipmode)",
      kSpec,
  };
  for (const std::string& spec : specs) {
    auto r = server.Execute(spec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Everything still registered in the catalog is pinned by the cache.
    ASSERT_NE(server.cache(), nullptr);
    EXPECT_EQ(server.catalog()->temp_bytes(), server.cache()->pinned_bytes());
  }
}

TEST(ServingTest, SupersetViewServedByReaggregation) {
  Server server(SmallLineitem());
  // Warm the cache with the pair aggregate only.
  auto pair = server.Execute("((l_returnflag, l_linestatus))");
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  // The single-column requests are strict subsets of the pinned pair view:
  // both must be routed to it (re-aggregation over a 6-row table beats any
  // base scan) and the answers must match direct execution.
  auto singles = server.Execute("SINGLE(l_returnflag, l_linestatus)");
  ASSERT_TRUE(singles.ok()) << singles.status().ToString();
  EXPECT_EQ(singles->counters.cache_hits, 2u);
  // Each re-aggregation reads only the 6-row pinned view, never the base
  // relation.
  EXPECT_EQ(singles->counters.rows_scanned, 12u);

  Session session(SmallLineitem());
  auto direct = session.Execute("SINGLE(l_returnflag, l_linestatus)");
  ASSERT_TRUE(direct.ok());
  ExpectSameResults(*direct, *singles);
}

TEST(ServingTest, CoalescingSharesOneExecution) {
  ServerOptions options;
  options.pool_size = 1;  // deterministic: the worker is busy with `head`
  Server server(SmallLineitem(), options);

  auto head = server.Submit("SINGLE(l_shipdate, l_comment)");
  ASSERT_TRUE(head.ok());
  auto a = server.Submit(kSpec);
  auto b = server.Submit(kSpec);  // identical while `a` is still queued
  ASSERT_TRUE(a.ok() && b.ok());

  auto ra = a->Get();
  auto rb = b->Get();
  ASSERT_TRUE(ra.ok() && rb.ok());
  ExpectSameResults(*ra, *rb);
  EXPECT_TRUE(head->Get().ok());
  EXPECT_EQ(server.stats().requests_coalesced, 1u);
  // The coalesced submission never became its own job.
  EXPECT_EQ(server.stats().requests_served, 2u);
}

TEST(ServingTest, CacheDisabledStillCorrectUnderConcurrency) {
  ServerOptions options;
  options.enable_aggregate_cache = false;
  options.coalesce_identical_requests = false;
  options.pool_size = 4;
  Server server(SmallLineitem(), options);
  EXPECT_EQ(server.cache(), nullptr);

  std::vector<Server::Ticket> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(*server.Submit(kSpec));
  Session session(SmallLineitem());
  auto direct = session.Execute(kSpec);
  ASSERT_TRUE(direct.ok());
  for (auto& t : tickets) {
    auto r = t.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->counters.cache_hits, 0u);
    ExpectSameResults(*direct, *r);
  }
}

TEST(ServingTest, TinyCacheBudgetEvictsButServesCorrectly) {
  ServerOptions options;
  options.cache_budget_bytes = 512;  // admits at most a tiny aggregate
  Server server(SmallLineitem(), options);
  for (int round = 0; round < 2; ++round) {
    auto r = server.Execute(kSpec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(server.cache()->pinned_bytes(), 512u);
  }
  const AggregateCacheStats cache = server.stats().cache;
  // Offers beyond the budget were declined or evicted, never over-pinned.
  EXPECT_GT(cache.declined + cache.evictions, 0u);
  EXPECT_EQ(server.catalog()->temp_bytes(), server.cache()->pinned_bytes());
}

TEST(ServingTest, GovernorArbitratesAcrossRequestsAndCache) {
  ServerOptions options;
  options.global_storage_budget_bytes = 4.0 * 1024 * 1024;
  options.coalesce_identical_requests = false;
  options.pool_size = 4;
  Server server(SmallLineitem(), options);
  ASSERT_NE(server.governor(), nullptr);

  std::vector<Server::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(*server.Submit(
        "PAIRS(l_returnflag, l_linestatus, l_shipmode, l_shipinstruct)"));
  }
  for (auto& t : tickets) {
    auto r = t.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Once all plans finish, the only outstanding reservations are the
  // cache's pinned bytes — per-plan reservations are flushed on exit (up
  // to float residue from out-of-order reserve/release arithmetic).
  EXPECT_NEAR(server.governor()->reserved(),
              static_cast<double>(server.cache()->pinned_bytes()), 1.0);
  EXPECT_EQ(server.catalog()->temp_bytes(), server.cache()->pinned_bytes());
}

// Staleness under concurrent ingestion: AppendBatch interleaved with warm
// Submits from client threads. Every response must content-match the base
// generation it was admitted against (result->base_version) — fully-old or
// fully-new, never a torn mix of generations.
TEST(ServingTest, ResponsesMatchTheirAdmittedVersionUnderIngest) {
  TablePtr base = SmallLineitem();
  ServerOptions options;
  options.pool_size = 4;
  options.refresh_stats_on_ingest = false;  // keep batches cheap
  Server server(base, options);
  auto requests = server.Parse(kSpec);
  ASSERT_TRUE(requests.ok());
  ASSERT_TRUE(server.Execute(*requests).ok());  // warm the cache at v0

  constexpr int kBatches = 6;
  constexpr int kRowsPerBatch = 400;

  // Precompute the expected result content for every generation by growing
  // a private copy of the base through the same deterministic batches.
  std::vector<std::vector<Value>> all_rows;
  {
    Rng rng(77);
    for (int i = 0; i < kBatches * kRowsPerBatch; ++i) {
      all_rows.push_back(base->Row(rng.Uniform(base->num_rows())));
    }
  }
  std::vector<Result<ExecutionResult>> expected;
  {
    Catalog scratch;
    ASSERT_TRUE(scratch.RegisterBase(base).ok());
    Ingestor ingestor(&scratch);
    TablePtr generation = base;
    for (int v = 0; v <= kBatches; ++v) {
      Session session(generation);
      expected.push_back(session.Execute(kSpec));
      ASSERT_TRUE(expected.back().ok());
      if (v < kBatches) {
        std::vector<std::vector<Value>> batch(
            all_rows.begin() + v * kRowsPerBatch,
            all_rows.begin() + (v + 1) * kRowsPerBatch);
        auto applied = ingestor.AppendBatch(base->name(), batch);
        ASSERT_TRUE(applied.ok());
        generation = applied->base;
      }
    }
  }

  // Race readers against the ingest thread.
  std::vector<std::thread> readers;
  std::mutex out_mu;
  std::vector<Result<ExecutionResult>> responses;
  for (int c = 0; c < 4; ++c) {
    readers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto r = server.Execute(*requests);
        std::lock_guard<std::mutex> lock(out_mu);
        responses.push_back(std::move(r));
      }
    });
  }
  for (int v = 0; v < kBatches; ++v) {
    std::vector<std::vector<Value>> batch(
        all_rows.begin() + v * kRowsPerBatch,
        all_rows.begin() + (v + 1) * kRowsPerBatch);
    auto applied = server.AppendBatch(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->version, static_cast<uint64_t>(v + 1));
    EXPECT_EQ(applied->entries_dropped, 0u);
  }
  for (std::thread& t : readers) t.join();

  ASSERT_EQ(responses.size(), 32u);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_LE(r->base_version, static_cast<uint64_t>(kBatches));
    ExpectSameResults(*expected[r->base_version], *r);
  }
  EXPECT_EQ(server.base_version(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(server.stats().rows_ingested,
            static_cast<uint64_t>(kBatches * kRowsPerBatch));
}

// The refresh counters are deterministic for a serial warm -> append ->
// warm schedule: every live entry is refreshed exactly once per batch, and
// the warm hit count is unchanged by ingestion.
TEST(ServingTest, CacheRefreshCountersAreDeterministic) {
  auto run_once = [] {
    ServerOptions options;
    options.refresh_stats_on_ingest = false;
    Server server(SmallLineitem(), options);
    auto requests = server.Parse(kSpec);
    EXPECT_TRUE(requests.ok());
    EXPECT_TRUE(server.Execute(*requests).ok());
    const uint64_t entries = server.stats().cache.entries;
    EXPECT_GT(entries, 0u);

    Rng rng(5);
    for (int b = 0; b < 3; ++b) {
      std::vector<std::vector<Value>> rows;
      for (int i = 0; i < 100; ++i) {
        rows.push_back(
            server.base().Row(rng.Uniform(server.base().num_rows())));
      }
      auto applied = server.AppendBatch(rows);
      EXPECT_TRUE(applied.ok());
      EXPECT_EQ(applied->entries_refreshed, entries);
      auto warm = server.Execute(*requests);
      EXPECT_TRUE(warm.ok());
      EXPECT_EQ(warm->counters.cache_hits, requests->size());
      EXPECT_EQ(warm->counters.bytes_scanned, 0u);
    }
    return server.stats();
  };

  const ServerStats a = run_once();
  const ServerStats b = run_once();
  EXPECT_EQ(a.cache.refreshes, b.cache.refreshes);
  EXPECT_EQ(a.cache.refreshes, 3u * a.cache.entries);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.evictions, 0u);
  EXPECT_EQ(b.cache.evictions, 0u);
}

// SessionOptions::force_scalar reaches every executor a Server builds: its
// PlanExecutor, the QueryExecutors of cache serve edges (hit and eviction
// fallback) and the DeltaMaintainer all come from the SessionOptions
// helpers, which carry it. Pinning the scalar tier changes no answer and no
// counter.
TEST(ServingTest, ForceScalarReachesEveryExecutor) {
  for (const bool force : {false, true}) {
    SessionOptions so;
    so.force_scalar = force;
    so.parallelism = 3;
    Catalog catalog;
    ExecContext ctx;
    EXPECT_EQ(MakePlanExecutor(&catalog, "lineitem", so).force_scalar(), force);
    const QueryExecutor exec = MakeQueryExecutor(&ctx, so);
    EXPECT_EQ(exec.force_scalar(), force);
    EXPECT_EQ(exec.parallelism(), 3);
    const DeltaMaintenanceOptions mopts = MakeMaintenanceOptions(so);
    EXPECT_EQ(mopts.force_scalar, force);
    EXPECT_EQ(mopts.parallelism, 3);
  }

  struct Run {
    std::vector<ExecutionResult> results;
    ServerStats stats;
  };
  const auto run = [](bool force) {
    ServerOptions options;
    options.session.force_scalar = force;
    options.session.parallelism = 4;
    options.pool_size = 1;
    Server server(SmallLineitem(), options);
    Run out;
    // Cold plan, then a superset view served by re-aggregation.
    for (const char* spec : {"((l_returnflag, l_linestatus))", kSpec}) {
      auto r = server.Execute(spec);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) out.results.push_back(*r);
    }
    Rng rng(11);
    for (int b = 0; b < 3; ++b) {
      std::vector<std::vector<Value>> rows;
      for (int i = 0; i < 200; ++i) {
        rows.push_back(
            server.base().Row(rng.Uniform(server.base().num_rows())));
      }
      EXPECT_TRUE(server.AppendBatch(rows).ok());
      auto warm = server.Execute(kSpec);
      EXPECT_TRUE(warm.ok()) << warm.status().ToString();
      if (warm.ok()) out.results.push_back(*warm);
    }
    out.stats = server.stats();
    return out;
  };
  const Run simd = run(false);
  const Run scalar = run(true);
  ASSERT_EQ(simd.results.size(), scalar.results.size());
  for (size_t i = 0; i < simd.results.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ExpectSameResults(simd.results[i], scalar.results[i]);
    const WorkCounters& a = simd.results[i].counters;
    const WorkCounters& b = scalar.results[i].counters;
    EXPECT_EQ(a.rows_scanned, b.rows_scanned);
    EXPECT_EQ(a.hash_probes, b.hash_probes);
    EXPECT_EQ(a.rows_emitted, b.rows_emitted);
    EXPECT_EQ(a.bytes_materialized, b.bytes_materialized);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
  }
  EXPECT_EQ(simd.stats.cache.refreshes, scalar.stats.cache.refreshes);
  EXPECT_GT(scalar.stats.cache.refreshes, 0u);
}

TEST(ServingTest, SubmitAfterShutdownIsCancelled) {
  Server* server = new Server(SmallLineitem());
  auto ok = server->Execute(kSpec);
  ASSERT_TRUE(ok.ok());
  delete server;  // drains and joins

  Server alive(SmallLineitem());
  auto t = alive.Submit(kSpec);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Get().ok());
}

}  // namespace
}  // namespace gbmqo
