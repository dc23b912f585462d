// Server: the concurrent serving layer over one base relation — N clients
// submit GB-MQO request sets against a shared immutable catalog and a pool
// of worker sessions executes them, arbitrated by a global storage governor
// and accelerated by a cross-request aggregate cache:
//
//   Server server(GenerateLineitem({.rows = 100000}));
//   auto t1 = server.Submit("SINGLE(l_returnflag, l_shipmode)");
//   auto t2 = server.Submit("PAIRS(l_returnflag, l_linestatus)");
//   auto r1 = t1->Get();   // blocks until the worker pool finishes it
//
// Every request runs the full pipeline (optimize, execute) but shares the
// heavy immutable state — base table, statistics, cost-model memo — and the
// mutable cross-request state: the AggregateCache pins materialized
// aggregates past the plan that built them, the optimizer costs each new
// request against the pinned views (OptimizerOptions::cached_views) and
// routes covered requests to them as zero-base-scan serve edges, and the
// StorageGovernor charges concurrent plans' intermediates and the cache's
// pinned bytes against one global budget. Results are bit-identical to
// serial cold execution: a cache hit returns the same rows the plan would
// have computed, and a superset hit re-aggregates with the executor's own
// canonical fold.
#ifndef GBMQO_API_SERVER_H_
#define GBMQO_API_SERVER_H_

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "core/aggregate_cache.h"
#include "core/delta_maintenance.h"
#include "storage/ingest.h"
#include "storage/storage_governor.h"
#include "storage/wal.h"

namespace gbmqo {

struct ServerOptions {
  /// Per-worker execution configuration (scan mode, parallelism, retries,
  /// deadline, optimizer switches). `session.optimizer.cached_views` is
  /// overwritten per request with the cache snapshot.
  SessionOptions session;
  /// Worker threads serving the request queue (>= 1). Each in-flight
  /// request gets one worker; the worker's PlanExecutor fans out further
  /// per `session.parallelism`.
  int pool_size = 4;
  /// Global byte budget shared by every concurrent plan's intermediates
  /// and the aggregate cache's pinned entries (the Section 4.4 storage
  /// gates, arbitrated across requests). 0 disables the governor.
  double global_storage_budget_bytes = 0;
  /// Cross-request aggregate cache (core/aggregate_cache.h).
  bool enable_aggregate_cache = true;
  /// Byte budget for pinned cache entries (LRU-evicted beyond it). Also
  /// charged against the global governor when one is configured.
  double cache_budget_bytes = 256.0 * 1024 * 1024;
  /// Submissions identical to an in-flight request set share its future
  /// instead of queueing a duplicate execution.
  bool coalesce_identical_requests = true;
  /// AppendBatch behaviour for pinned cache entries: true = propagate the
  /// delta through every entry (core/delta_maintenance.h) so warm hits
  /// survive ingestion; false = invalidate the whole cache on every batch
  /// (the pre-ingestion behaviour, kept for A/B comparison).
  bool incremental_maintenance = true;
  /// Rebuild the statistics snapshot (and what-if provider) from the new
  /// base after each AppendBatch. True keeps optimizer estimates exact;
  /// false reuses the previous statistics — much cheaper per batch, at the
  /// cost of estimate drift until the next full build. Either way requests
  /// see a consistent (base, stats) snapshot, never a mix.
  bool refresh_stats_on_ingest = true;

  // ---- durability (storage/wal.h, storage/checkpoint.h) ------------------

  /// Directory for the ingest WAL and checkpoints; "" (the default)
  /// disables durability entirely. With it set, every AppendBatch is logged
  /// before it is applied, and a Server restarted on the same directory
  /// rebuilds bit-identical serving state (same base_version, same query
  /// results, same warm-cache hits) from the newest valid checkpoint plus
  /// the WAL tail. The directory is created if absent; stale temp files of
  /// dead processes are reaped on startup.
  std::string wal_directory;
  /// When appended WAL records are forced to stable storage (see
  /// storage/wal.h for the durability each mode buys). kBatch survives an
  /// engine crash losing nothing; kAlways additionally survives power loss.
  FsyncMode fsync_mode = FsyncMode::kBatch;
  /// A checkpoint is taken automatically once the live WAL segment reaches
  /// this many bytes, bounding replay time after a crash. 0 = only explicit
  /// Checkpoint() calls ever write one.
  uint64_t checkpoint_interval_bytes = 64ull * 1024 * 1024;
  /// Replay checkpoint + WAL from `wal_directory` on construction. False
  /// discards any surviving logs and checkpoints there and starts a fresh
  /// log from the constructor's base table — the testing/bulk-load escape
  /// hatch (old versions must not mix with the new numbering).
  bool recover_on_start = true;
};

/// Monotonic serving counters (plus a live cache snapshot).
struct ServerStats {
  uint64_t requests_served = 0;     ///< jobs completed successfully
  uint64_t requests_failed = 0;     ///< jobs completed with an error
  uint64_t requests_coalesced = 0;  ///< submissions joined to an in-flight job
  uint64_t batches_ingested = 0;    ///< AppendBatch calls applied
  uint64_t rows_ingested = 0;       ///< rows appended across all batches
  uint64_t base_version = 0;        ///< current base generation (0 as loaded)
  AggregateCacheStats cache;        ///< zeros when the cache is disabled
  double governor_reserved_bytes = 0;  ///< 0 when the governor is disabled
  // Durability (all zero when ServerOptions::wal_directory is "").
  uint64_t wal_appends = 0;         ///< records logged by this process
  uint64_t wal_bytes = 0;           ///< complete-record bytes in the live segment
  uint64_t checkpoints_written = 0; ///< checkpoints written by this process
  uint64_t last_checkpoint_version = 0;  ///< version the newest checkpoint covers
  bool recovered = false;           ///< startup replayed a checkpoint or WAL tail
  uint64_t recovery_checkpoint_version = 0;  ///< checkpoint recovery loaded
  uint64_t recovery_records_applied = 0;     ///< WAL records replayed at startup
  bool recovery_tail_truncated = false;      ///< a torn trailing record was dropped
  uint64_t recovery_checkpoints_skipped = 0; ///< corrupt checkpoints fallen past
};

/// Thread-safe multi-client entry point. Submissions may come from any
/// thread; results are delivered through shared futures.
class Server {
 public:
  /// A handle to one submitted request set. Copyable; every copy observes
  /// the same result (coalesced submissions share one underlying job).
  class Ticket {
   public:
    Ticket() = default;
    /// Blocks until the request completes and returns its result.
    Result<ExecutionResult> Get() const { return future_.get(); }
    bool valid() const { return future_.valid(); }

   private:
    friend class Server;
    std::shared_future<Result<ExecutionResult>> future_;
  };

  /// Takes shared ownership of the base relation and starts the worker
  /// pool.
  explicit Server(TablePtr base, ServerOptions options = {});
  /// Stops accepting work, drains the queue (queued jobs still execute),
  /// and joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses a GROUPING SETS spec against the base schema.
  Result<std::vector<GroupByRequest>> Parse(const std::string& spec) const;

  /// Enqueues a request set and returns immediately.
  Ticket Submit(std::vector<GroupByRequest> requests);
  Result<Ticket> Submit(const std::string& spec);

  /// Submit + Get: blocks the calling thread until the result is ready.
  Result<ExecutionResult> Execute(const std::vector<GroupByRequest>& requests);
  Result<ExecutionResult> Execute(const std::string& spec);

  // ---- streaming ingestion -------------------------------------------------

  /// What one applied append batch did.
  struct IngestResult {
    uint64_t version = 0;            ///< base generation after this batch
    uint64_t rows_appended = 0;
    uint64_t entries_refreshed = 0;  ///< cache entries delta-merged in place
    uint64_t entries_recomputed = 0; ///< rebuilt from base (escape hatch)
    uint64_t entries_dropped = 0;    ///< evicted during maintenance
    uint64_t rollup_reuses = 0;      ///< delta aggs rolled up from finer ones
    double wall_seconds = 0;
  };

  /// Appends `rows` to the base relation and advances the serving snapshot
  /// to the next generation. Runs exclusively against in-flight requests:
  /// every request is admitted against exactly one (base, statistics,
  /// cache-generation) snapshot — fully-old or fully-new, never torn. With
  /// `incremental_maintenance` every pinned cache entry is refreshed from
  /// (old table + delta) under the governor budget; otherwise the cache is
  /// invalidated. Blocks until maintenance completes; callers from multiple
  /// threads serialize.
  Result<IngestResult> AppendBatch(const std::vector<std::vector<Value>>& rows);

  /// Current base generation: 0 as loaded, +1 per applied batch.
  uint64_t base_version() const;
  /// The current generation's base table (grows across AppendBatch calls).
  TablePtr current_base() const;

  // ---- durability ----------------------------------------------------------

  /// Durably snapshots the current serving state (base relation + pinned
  /// cache entries) into `wal_directory`, rotates the WAL onto a fresh
  /// segment, and garbage-collects the segments and checkpoints the new one
  /// supersedes. Runs exclusively against in-flight requests like
  /// AppendBatch. InvalidArgument when durability is disabled.
  Status Checkpoint();

  /// OK when startup recovery succeeded (or durability is off / recovery
  /// was skipped); otherwise why the surviving logs could not be replayed.
  /// A non-OK status means the server is running on the constructor's base
  /// table with the WAL disabled — it serves queries but will not log.
  Status recovery_status() const;

  // ---- component access ----------------------------------------------------

  /// The as-loaded (generation-0) base relation. Unchanged by ingestion —
  /// use current_base() for the live generation.
  const Table& base() const { return *base_; }
  Catalog* catalog() { return &catalog_; }
  /// nullptr when disabled by options.
  AggregateCache* cache() { return cache_.get(); }
  StorageGovernor* governor() { return governor_.get(); }

  ServerStats stats() const;

 private:
  struct Job {
    std::vector<GroupByRequest> requests;
    std::shared_ptr<std::promise<Result<ExecutionResult>>> promise;
    std::string signature;  // empty when coalescing is off
  };

  /// One consistent generation of the immutable per-request state. Requests
  /// capture the snapshot pointer once (under the shared ingest lock) and
  /// use only it for the whole pipeline; AppendBatch swaps in a new
  /// snapshot under the exclusive lock, so a request can never mix the old
  /// base with the new statistics or vice versa. Retired snapshots stay
  /// alive until their last in-flight reader drops them.
  struct BaseSnapshot {
    uint64_t version = 0;
    TablePtr base;
    std::shared_ptr<StatisticsManager> stats;
    std::shared_ptr<WhatIfProvider> whatif;
    std::shared_ptr<OptimizerCostModel> model;
  };

  void WorkerLoop();
  /// The full optimize-and-execute pipeline for one request set; runs on a
  /// worker thread. Safe to run concurrently with itself.
  Result<ExecutionResult> HandleRequest(
      const std::vector<GroupByRequest>& requests);
  /// Answers one optimizer serve edge from the pinned view (directly on an
  /// exact match, by re-aggregation on a superset; falls back to the base
  /// relation if the entry was evicted between costing and serving).
  Status ServeCacheEdge(const BaseSnapshot& snap, const GroupByRequest& req,
                        const CachedViewDesc& view, ExecutionResult* out);
  /// Builds a snapshot for `version`/`base` — statistics rebuilt from the
  /// new base or carried over from `prev` per refresh_stats_on_ingest.
  std::shared_ptr<const BaseSnapshot> MakeSnapshot(
      uint64_t version, TablePtr base, const BaseSnapshot* prev) const;
  /// Drops catalog entries of retired base generations nobody reads
  /// anymore. Caller holds ingest_mu_ exclusively.
  void SweepRetiredLocked();
  /// Applies one validated batch: append (storage/ingest.h), cache
  /// maintenance, snapshot swap. Shared by AppendBatch (after the WAL
  /// append) and recovery replay, so a replayed batch takes exactly the live
  /// code path.
  /// Caller holds ingest_mu_ exclusively (or is the single-threaded ctor).
  Status ApplyBatchLocked(const std::vector<std::vector<Value>>& rows,
                          IngestResult* out);
  /// Constructor-time durability bring-up: directory creation, stale-file
  /// reaping, checkpoint + WAL replay (per recover_on_start), and opening
  /// the live segment for appending.
  Status InitDurability();
  /// Body of Checkpoint(); caller holds ingest_mu_ exclusively.
  Status CheckpointLocked();
  /// Deletes WAL segments and checkpoint files superseded by
  /// checkpoint_version_, returning their bytes to the governor's disk
  /// ledger. Caller holds ingest_mu_ exclusively.
  void GcDurabilityFilesLocked();
  /// Order-insensitive canonical signature of a request set (coalescing
  /// key).
  static std::string Signature(const std::vector<GroupByRequest>& requests);

  TablePtr base_;
  ServerOptions options_;
  Catalog catalog_;
  std::unique_ptr<StorageGovernor> governor_;
  std::unique_ptr<AggregateCache> cache_;
  std::unique_ptr<Ingestor> ingestor_;

  /// Readers (HandleRequest) hold this shared for their whole pipeline;
  /// AppendBatch holds it exclusive across append + maintenance + snapshot
  /// swap. This is what makes a response's content match the generation it
  /// was admitted against: cache refreshes can never interleave with an
  /// in-flight request's lookups.
  mutable std::shared_mutex ingest_mu_;
  std::shared_ptr<const BaseSnapshot> snapshot_;  // guarded by ingest_mu_
  std::vector<std::shared_ptr<const BaseSnapshot>> retired_;
  uint64_t batches_ingested_ = 0;  // guarded by ingest_mu_
  uint64_t rows_ingested_ = 0;     // guarded by ingest_mu_

  // Durability state, all guarded by ingest_mu_ (the ctor touches it before
  // any worker starts). wal_ is nullptr when durability is off or recovery
  // failed; the server then serves but never logs.
  std::unique_ptr<WalWriter> wal_;
  uint64_t checkpoint_version_ = 0;  ///< version of the newest durable checkpoint
  /// Disk-ledger bytes charged per live checkpoint file this process wrote
  /// or adopted (version -> file size), released when the file is GC'd.
  std::unordered_map<uint64_t, uint64_t> checkpoint_bytes_;
  uint64_t wal_appends_ = 0;
  uint64_t checkpoints_written_ = 0;
  Status recovery_status_;
  bool recovered_ = false;
  uint64_t recovery_checkpoint_version_ = 0;
  uint64_t recovery_records_applied_ = 0;
  bool recovery_tail_truncated_ = false;
  uint64_t recovery_checkpoints_skipped_ = 0;

  mutable std::mutex mu_;  // guards queue_, in_flight_, counters, stopping_
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::unordered_map<std::string, std::shared_future<Result<ExecutionResult>>>
      in_flight_;
  bool stopping_ = false;
  uint64_t requests_served_ = 0;
  uint64_t requests_failed_ = 0;
  uint64_t requests_coalesced_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace gbmqo

#endif  // GBMQO_API_SERVER_H_
