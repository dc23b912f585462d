#include "api/server.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "common/timer.h"
#include "exec/spill_partitioner.h"
#include "sql/grouping_sets_parser.h"
#include "storage/checkpoint.h"

namespace gbmqo {

namespace {

namespace fs = std::filesystem;

std::vector<AggRequest> CanonicalAggs(const std::vector<AggRequest>& aggs) {
  std::vector<AggRequest> out = aggs;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Matches PlanExecutor's leaf naming so cache-served and plan-computed
/// result tables are indistinguishable to the client.
std::string ResultNameFor(ColumnSet cols) {
  return "result" + cols.ToString();
}

/// "wal-<start>.log": the segment holding records start+1, start+2, ... —
/// `start` is the version that was already durable (checkpointed, or 0)
/// when the segment was opened.
std::string WalSegmentName(uint64_t start) {
  return "wal-" + std::to_string(start) + ".log";
}

struct WalSegmentRef {
  uint64_t start = 0;
  std::string path;
};

/// WAL segments in `directory`, ascending by start version.
std::vector<WalSegmentRef> ListWalSegments(const std::string& directory) {
  std::vector<WalSegmentRef> out;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return out;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.compare(0, 4, "wal-") != 0) continue;
    if (name.size() < 9 || name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(WalSegmentRef{std::strtoull(digits.c_str(), nullptr, 10),
                                entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const WalSegmentRef& a, const WalSegmentRef& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace

Server::Server(TablePtr base, ServerOptions options)
    : base_(std::move(base)), options_(options) {
  FaultInjector::InstallFromEnv();
  (void)catalog_.RegisterBase(base_);
  if (options_.global_storage_budget_bytes > 0) {
    governor_ =
        std::make_unique<StorageGovernor>(options_.global_storage_budget_bytes);
  }
  if (options_.enable_aggregate_cache && options_.cache_budget_bytes > 0) {
    cache_ = std::make_unique<AggregateCache>(
        &catalog_, options_.cache_budget_bytes, governor_.get());
  }
  ingestor_ = std::make_unique<Ingestor>(&catalog_);
  snapshot_ = MakeSnapshot(0, base_, nullptr);
  if (!options_.wal_directory.empty()) {
    // No worker exists yet, so durability bring-up (which may replay the
    // WAL through ApplyBatchLocked) runs single-threaded without the lock.
    recovery_status_ = InitDurability();
    if (!recovery_status_.ok()) wal_.reset();  // serve, but never log
  }
  const int pool = options_.pool_size < 1 ? 1 : options_.pool_size;
  workers_.reserve(static_cast<size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // The cache must release its catalog pins before the catalog dies.
  cache_.reset();
}

std::shared_ptr<const Server::BaseSnapshot> Server::MakeSnapshot(
    uint64_t version, TablePtr base, const BaseSnapshot* prev) const {
  auto snap = std::make_shared<BaseSnapshot>();
  snap->version = version;
  snap->base = std::move(base);
  if (prev == nullptr || options_.refresh_stats_on_ingest) {
    snap->stats = std::make_shared<StatisticsManager>(
        *snap->base, options_.session.stats_mode, options_.session.sample_size);
    snap->whatif = std::make_shared<WhatIfProvider>(snap->stats.get());
  } else {
    // Carry the previous generation's statistics: estimates drift as the
    // relation grows, but every request still sees one consistent pair —
    // the snapshot holds both pointers together.
    snap->stats = prev->stats;
    snap->whatif = prev->whatif;
  }
  // The cost model reads only the table's size/width metadata — cheap
  // enough to rebuild every generation.
  snap->model = std::make_shared<OptimizerCostModel>(*snap->base);
  return snap;
}

Result<std::vector<GroupByRequest>> Server::Parse(
    const std::string& spec) const {
  return ParseGroupingSets(spec, base_->schema());
}

std::string Server::Signature(const std::vector<GroupByRequest>& requests) {
  std::vector<std::string> parts;
  parts.reserve(requests.size());
  for (const GroupByRequest& req : requests) {
    std::string p = req.columns.ToString();
    for (const AggRequest& a : CanonicalAggs(req.aggs)) {
      p += "|" + std::to_string(static_cast<int>(a.kind)) + ":" +
           std::to_string(a.column);
    }
    parts.push_back(std::move(p));
  }
  std::sort(parts.begin(), parts.end());
  std::string sig;
  for (const std::string& p : parts) {
    sig += p;
    sig += ";";
  }
  return sig;
}

Server::Ticket Server::Submit(std::vector<GroupByRequest> requests) {
  auto promise =
      std::make_shared<std::promise<Result<ExecutionResult>>>();
  Ticket ticket;
  ticket.future_ = promise->get_future().share();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      promise->set_value(Status::Cancelled("server is shutting down"));
      return ticket;
    }
    std::string sig;
    if (options_.coalesce_identical_requests) {
      sig = Signature(requests);
      auto it = in_flight_.find(sig);
      if (it != in_flight_.end()) {
        ++requests_coalesced_;
        ticket.future_ = it->second;
        return ticket;
      }
      in_flight_.emplace(sig, ticket.future_);
    }
    queue_.push_back(Job{std::move(requests), std::move(promise),
                         std::move(sig)});
  }
  cv_.notify_one();
  return ticket;
}

Result<Server::Ticket> Server::Submit(const std::string& spec) {
  Result<std::vector<GroupByRequest>> requests = Parse(spec);
  if (!requests.ok()) return requests.status();
  return Submit(*std::move(requests));
}

Result<ExecutionResult> Server::Execute(
    const std::vector<GroupByRequest>& requests) {
  return Submit(requests).Get();
}

Result<ExecutionResult> Server::Execute(const std::string& spec) {
  Result<Ticket> ticket = Submit(spec);
  if (!ticket.ok()) return ticket.status();
  return ticket->Get();
}

Result<Server::IngestResult> Server::AppendBatch(
    const std::vector<std::vector<Value>>& rows) {
  WallTimer timer;
  // Exclusive against every in-flight HandleRequest: readers drain before
  // the append applies, and none admit until the new snapshot (base +
  // statistics + refreshed cache generation) is fully in place.
  std::unique_lock<std::shared_mutex> lock(ingest_mu_);

  // Log before apply: the batch is in the WAL (under the configured fsync
  // discipline) before any in-memory state moves, so a crash after this
  // point replays it and a failure here leaves the server serving the old
  // version with a clean log tail.
  if (wal_ != nullptr) {
    GBMQO_RETURN_NOT_OK(wal_->Append(snapshot_->version + 1, rows));
    ++wal_appends_;
  }

  IngestResult out;
  GBMQO_RETURN_NOT_OK(ApplyBatchLocked(rows, &out));

  if (wal_ != nullptr && options_.checkpoint_interval_bytes > 0 &&
      wal_->bytes() >= options_.checkpoint_interval_bytes) {
    // A failed auto-checkpoint is not an ingest failure: the batch is
    // already durable in the WAL, and the next interval crossing retries.
    (void)CheckpointLocked();
  }

  out.wall_seconds = timer.ElapsedSeconds();
  return out;
}

Status Server::ApplyBatchLocked(const std::vector<std::vector<Value>>& rows,
                                IngestResult* out) {
  std::shared_ptr<const BaseSnapshot> old = snapshot_;

  Result<IngestBatch> batch = ingestor_->AppendBatch(base_->name(), rows);
  if (!batch.ok()) return batch.status();

  out->version = batch->version;
  out->rows_appended = rows.size();

  if (cache_ != nullptr) {
    if (options_.incremental_maintenance) {
      DeltaMaintainer maintainer(&catalog_, cache_.get(),
                                 MakeMaintenanceOptions(options_.session));
      Result<DeltaMaintenanceReport> report = maintainer.ApplyDelta(
          batch->delta, batch->base, base_->schema(), batch->version);
      if (report.ok()) {
        out->entries_refreshed = report->entries_refreshed;
        out->entries_recomputed = report->entries_recomputed;
        out->entries_dropped = report->entries_dropped;
        out->rollup_reuses = report->rollup_reuses;
      } else {
        // Fail safe: a maintenance error must never leave stale entries
        // serving at the new version.
        cache_->Invalidate();
        cache_->SetSourceVersion(batch->version);
      }
    } else {
      cache_->Invalidate();
      cache_->SetSourceVersion(batch->version);
    }
  }

  retired_.push_back(old);
  snapshot_ = MakeSnapshot(batch->version, batch->base, old.get());
  SweepRetiredLocked();
  ++batches_ingested_;
  rows_ingested_ += rows.size();
  return Status::OK();
}

void Server::SweepRetiredLocked() {
  // A retired snapshot whose only owner is this vector has no in-flight
  // reader left; its base generation can leave the catalog. The generation-0
  // table stays registered: base_ and external callers may still resolve it
  // by its original name.
  auto it = retired_.begin();
  while (it != retired_.end()) {
    if (it->use_count() == 1 && (*it)->version > 0) {
      (void)catalog_.Drop((*it)->base->name());
      it = retired_.erase(it);
    } else if (it->use_count() == 1) {
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

Status Server::InitDurability() {
  const std::string& dir = options_.wal_directory;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("durability: cannot create wal directory " + dir +
                            ": " + ec.message());
  }
  // Reap leftovers of dead processes before they can be mistaken for live
  // state: orphaned checkpoint temp files here, spill directories wherever
  // this server's sessions spill.
  (void)ReapStaleCheckpointTmps(dir);
  (void)SpillFileSet::ReapStale(options_.session.spill_directory);

  if (!options_.recover_on_start) {
    // Fresh-start escape hatch: surviving logs must not mix with the new
    // world's version numbering, so they are discarded wholesale.
    for (const WalSegmentRef& seg : ListWalSegments(dir)) {
      (void)fs::remove(seg.path, ec);
    }
    Result<std::vector<CheckpointRef>> cps = ListCheckpoints(dir);
    if (cps.ok()) {
      for (const CheckpointRef& cp : *cps) (void)fs::remove(cp.path, ec);
    }
  } else {
    // Newest valid checkpoint wins; damaged ones are fallen past (counted),
    // never admitted.
    Result<std::vector<CheckpointRef>> cps = ListCheckpoints(dir);
    if (!cps.ok()) return cps.status();
    bool checkpoint_loaded = false;
    for (auto it = cps->rbegin(); it != cps->rend(); ++it) {
      Result<CheckpointImage> image = ReadCheckpoint(it->path);
      if (!image.ok()) {
        ++recovery_checkpoints_skipped_;
        continue;
      }
      if (image->base_version > 0) {
        // Mirror what the original Ingestor::AppendBatch sequence did:
        // the recovered base lives under its versioned name and the family
        // counter resumes from it.
        GBMQO_RETURN_NOT_OK(catalog_.RegisterBase(image->base));
        GBMQO_RETURN_NOT_OK(ingestor_->SeedFamily(
            base_->name(), image->base_version, image->base->name()));
        snapshot_ = MakeSnapshot(image->base_version, image->base, nullptr);
      }
      if (cache_ != nullptr) {
        // Entries are stored MRU-first; re-admitting in reverse rebuilds
        // the exact eviction order the checkpointed cache had.
        for (auto e = image->entries.rbegin(); e != image->entries.rend();
             ++e) {
          std::vector<AggRequest> aggs;
          aggs.reserve(e->aggs.size());
          for (const CheckpointAggRef& a : e->aggs) {
            aggs.push_back(
                AggRequest{static_cast<AggKind>(a.kind), a.column});
          }
          (void)cache_->RestorePinned(ColumnSet(e->columns_mask), aggs,
                                      e->table, e->source_version,
                                      e->needs_recompute);
        }
        cache_->SetSourceVersion(image->base_version);
      }
      checkpoint_version_ = image->base_version;
      recovery_checkpoint_version_ = image->base_version;
      recovered_ = true;
      // Adopt the surviving file into the disk ledger: the invariant is
      // ledger == live durable bytes, whichever process wrote them.
      const uint64_t size = fs::file_size(it->path, ec);
      if (!ec) {
        if (governor_ != nullptr) {
          governor_->ForceReserveDisk(static_cast<double>(size));
        }
        checkpoint_bytes_[image->base_version] = size;
      }
      checkpoint_loaded = true;
      break;
    }
    if (!checkpoint_loaded && !cps->empty()) {
      // Checkpoints exist but every one is unreadable. Starting at version
      // 0 here would present data loss as a clean boot; refuse instead and
      // leave the files intact for inspection (or a recover_on_start=false
      // restart that discards them deliberately).
      return Status::Internal(
          "durability: all " + std::to_string(cps->size()) +
          " checkpoints in " + dir +
          " are unreadable; refusing to recover past them");
    }

    // Replay every segment in start order; apply_after skips records the
    // checkpoint already covers. Each applied record takes the live ingest
    // path (ApplyBatchLocked), so the cache maintenance trajectory — and
    // therefore every warm hit — is reproduced bit-identically.
    for (const WalSegmentRef& seg : ListWalSegments(dir)) {
      WalReplayReport report;
      const Status replayed = ReplayWal(
          seg.path, snapshot_->version,
          [this](uint64_t version, std::vector<std::vector<Value>>&& rows) {
            if (version != snapshot_->version + 1) {
              return Status::Internal(
                  "durability: wal record version " + std::to_string(version) +
                  " does not follow recovered version " +
                  std::to_string(snapshot_->version));
            }
            IngestResult applied;
            return ApplyBatchLocked(rows, &applied);
          },
          &report);
      recovery_records_applied_ += report.records_applied;
      recovery_tail_truncated_ =
          recovery_tail_truncated_ || report.tail_truncated;
      GBMQO_RETURN_NOT_OK(replayed);
    }
    recovered_ = recovered_ || recovery_records_applied_ > 0;
  }

  // Open the live segment for appending: the newest surviving one (replay
  // truncated any torn tail, so appends extend a clean log), or a fresh
  // segment anchored at the current version.
  const std::vector<WalSegmentRef> segments = ListWalSegments(dir);
  const std::string live =
      segments.empty() ? dir + "/" + WalSegmentName(snapshot_->version)
                       : segments.back().path;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(live, options_.fsync_mode, governor_.get());
  if (!writer.ok()) return writer.status();
  wal_ = std::move(*writer);
  GcDurabilityFilesLocked();
  return Status::OK();
}

Status Server::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(ingest_mu_);
  if (options_.wal_directory.empty()) {
    return Status::InvalidArgument(
        "Checkpoint(): durability is disabled "
        "(ServerOptions::wal_directory is empty)");
  }
  if (wal_ == nullptr) {
    return Status::Internal("Checkpoint(): the WAL is offline (recovery "
                            "failed: " +
                            recovery_status_.message() + ")");
  }
  return CheckpointLocked();
}

Status Server::CheckpointLocked() {
  CheckpointImage image;
  image.base_version = snapshot_->version;
  image.base = snapshot_->base;
  if (cache_ != nullptr) {
    for (const RefreshableEntry& e : cache_->SnapshotEntriesLru()) {
      CheckpointCacheEntry ce;
      ce.columns_mask = e.columns.mask();
      ce.aggs.reserve(e.aggs.size());
      for (const AggRequest& a : e.aggs) {
        ce.aggs.push_back(CheckpointAggRef{static_cast<int>(a.kind), a.column});
      }
      ce.source_version = e.source_version;
      ce.needs_recompute = e.needs_recompute;
      ce.table = e.table;
      image.entries.push_back(std::move(ce));
    }
  }
  uint64_t bytes = 0;
  GBMQO_RETURN_NOT_OK(WriteCheckpoint(options_.wal_directory, image,
                                      governor_.get(), &bytes));
  // Re-checkpointing an unchanged version renamed over the old file; drop
  // its stale ledger charge before recording the new one.
  auto prior = checkpoint_bytes_.find(image.base_version);
  if (prior != checkpoint_bytes_.end()) {
    if (governor_ != nullptr) {
      governor_->ReleaseDisk(static_cast<double>(prior->second));
    }
    checkpoint_bytes_.erase(prior);
  }
  checkpoint_bytes_[image.base_version] = bytes;
  const bool rotate =
      wal_ == nullptr || checkpoint_version_ != image.base_version;
  checkpoint_version_ = image.base_version;
  ++checkpoints_written_;
  if (rotate) {
    // Rotation: the checkpoint is durable, so the log restarts at it. The
    // old writer's destruction returns its segment's bytes to the ledger;
    // the superseded file itself goes in the GC below. A crash between any
    // of these steps is harmless — replay filters records the checkpoint
    // covers.
    wal_.reset();
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        options_.wal_directory + "/" + WalSegmentName(checkpoint_version_),
        options_.fsync_mode, governor_.get());
    if (!writer.ok()) return writer.status();
    wal_ = std::move(*writer);
  }
  GcDurabilityFilesLocked();
  return Status::OK();
}

void Server::GcDurabilityFilesLocked() {
  const std::string& dir = options_.wal_directory;
  std::error_code ec;
  Result<std::vector<CheckpointRef>> cps = ListCheckpoints(dir);
  if (!cps.ok()) return;
  // The two newest checkpoints are kept — bit rot in the newest must leave
  // recovery a fallback — so the retention floor is the second-newest
  // version (the newest, when only one exists).
  uint64_t keep_floor = checkpoint_version_;
  if (cps->size() >= 2) keep_floor = (*cps)[cps->size() - 2].version;
  for (const CheckpointRef& cp : *cps) {
    if (cp.version >= keep_floor) continue;
    if (fs::remove(cp.path, ec) && !ec) {
      auto held = checkpoint_bytes_.find(cp.version);
      if (held != checkpoint_bytes_.end()) {
        if (governor_ != nullptr) {
          governor_->ReleaseDisk(static_cast<double>(held->second));
        }
        checkpoint_bytes_.erase(held);
      }
    }
  }
  // A segment is superseded when a later segment starts at or before every
  // kept checkpoint: all records it holds are then covered even by the
  // fallback. The live (last) segment is never eligible. Segment bytes are
  // ledgered by their WalWriter, so deleting a writerless file releases
  // nothing here.
  const std::vector<WalSegmentRef> segments = ListWalSegments(dir);
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].start > keep_floor) continue;
    if (wal_ != nullptr && segments[i].path == wal_->path()) continue;
    (void)fs::remove(segments[i].path, ec);
  }
}

Status Server::recovery_status() const {
  std::shared_lock<std::shared_mutex> lock(ingest_mu_);
  return recovery_status_;
}

uint64_t Server::base_version() const {
  std::shared_lock<std::shared_mutex> lock(ingest_mu_);
  return snapshot_->version;
}

TablePtr Server::current_base() const {
  std::shared_lock<std::shared_mutex> lock(ingest_mu_);
  return snapshot_->base;
}

void Server::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    Result<ExecutionResult> result = HandleRequest(job.requests);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Retire the coalescing slot before publishing: a submission racing
      // with set_value either joins this job's future (and sees the value)
      // or starts a fresh one — never observes a half-fulfilled slot.
      if (!job.signature.empty()) in_flight_.erase(job.signature);
      if (result.ok()) {
        ++requests_served_;
      } else {
        ++requests_failed_;
      }
    }
    job.promise->set_value(std::move(result));
  }
}

Result<ExecutionResult> Server::HandleRequest(
    const std::vector<GroupByRequest>& requests) {
  WallTimer timer;

  // Admit against one generation: the shared lock spans the whole pipeline,
  // so AppendBatch (exclusive) can never swap the base or refresh cache
  // entries while this request is optimizing or reading them.
  std::shared_lock<std::shared_mutex> ingest_lock(ingest_mu_);
  const std::shared_ptr<const BaseSnapshot> snap = snapshot_;

  // Optimize against a snapshot of the pinned views: requests fully covered
  // by a view leave the plan as serve edges (OptimizerResult::cache_edges).
  OptimizerOptions opt_options = options_.session.optimizer;
  if (cache_ != nullptr) opt_options.cached_views = cache_->SnapshotViews();
  GbMqoOptimizer optimizer(snap->model.get(), snap->whatif.get(), opt_options);
  Result<OptimizerResult> opt = optimizer.Optimize(requests);
  if (!opt.ok()) return opt.status();

  std::vector<GroupByRequest> open;
  open.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (opt->cache_edges.count(i) == 0) open.push_back(requests[i]);
  }

  ExecutionResult out;
  CancellationToken token;
  if (!open.empty()) {
    PlanExecutor executor =
        MakePlanExecutor(&catalog_, snap->base->name(), options_.session);
    const bool per_plan_gate = options_.session.max_exec_storage_bytes > 0;
    if (per_plan_gate || governor_ != nullptr) {
      executor.set_storage_budget(
          per_plan_gate ? options_.session.max_exec_storage_bytes
                        : std::numeric_limits<double>::infinity(),
          snap->whatif.get());
    }
    if (options_.session.exec_deadline_ms > 0) {
      token.SetDeadlineAfterMs(options_.session.exec_deadline_ms);
      executor.set_cancellation(&token);
    }
    executor.set_aggregate_cache(cache_.get());
    // Spill files meter against this shared governor too, so concurrent
    // requests count disk bytes globally.
    executor.set_storage_governor(governor_.get());
    Result<ExecutionResult> run = executor.Execute(opt->plan, open);
    if (!run.ok()) return run.status();
    out = *std::move(run);
  }

  for (const auto& edge : opt->cache_edges) {
    GBMQO_RETURN_NOT_OK(ServeCacheEdge(*snap, requests[edge.first],
                                       opt_options.cached_views[edge.second],
                                       &out));
  }

  out.base_version = snap->version;
  out.wall_seconds = timer.ElapsedSeconds();
  return out;
}

Status Server::ServeCacheEdge(const BaseSnapshot& snap,
                              const GroupByRequest& req,
                              const CachedViewDesc& view,
                              ExecutionResult* out) {
  // No extra catalog reference: the returned TablePtr keeps the data alive
  // for this request even if the entry is evicted underneath.
  TablePtr pinned =
      cache_ != nullptr ? cache_->Lookup(view.columns, view.aggs, 0) : nullptr;
  if (pinned == nullptr) {
    // Evicted between costing and serving: recompute from the base
    // relation (correct, just no longer free).
    out->counters.cache_misses += 1;
    ExecContext ctx;
    QueryExecutor exec = MakeQueryExecutor(&ctx, options_.session);
    Result<GroupByQuery> query =
        BuildGroupByOver(*snap.base, /*input_is_base=*/true, base_->schema(),
                         req.columns, req.aggs);
    if (!query.ok()) return query.status();
    Result<TablePtr> table = exec.ExecuteGroupBy(
        *snap.base, *query, ResultNameFor(req.columns), AggStrategy::kAuto);
    if (!table.ok()) return table.status();
    if (cache_ != nullptr) {
      cache_->AcceptPinned(req.columns, req.aggs, *table, /*registered=*/false);
    }
    out->counters += ctx.counters();
    out->results[req.columns] = *table;
    return Status::OK();
  }

  out->counters.cache_hits += 1;
  if (view.columns == req.columns &&
      CanonicalAggs(view.aggs) == CanonicalAggs(req.aggs)) {
    // Exact match: the pinned table IS the answer.
    out->results[req.columns] = pinned;
    return Status::OK();
  }

  // Superset view: one pass over the (small) pinned aggregate with the
  // executor's canonical re-aggregation rewrite (COUNT(*) -> SUM(cnt),
  // SUM -> SUM(sum_x), MIN/MAX re-applied).
  ExecContext ctx;
  QueryExecutor exec = MakeQueryExecutor(&ctx, options_.session);
  Result<GroupByQuery> query = BuildGroupByOver(
      *pinned, /*input_is_base=*/false, base_->schema(), req.columns, req.aggs);
  if (!query.ok()) return query.status();
  Result<TablePtr> table = exec.ExecuteGroupBy(
      *pinned, *query, ResultNameFor(req.columns), AggStrategy::kAuto);
  if (!table.ok()) return table.status();
  cache_->AcceptPinned(req.columns, req.aggs, *table, /*registered=*/false);
  out->counters += ctx.counters();
  out->results[req.columns] = *table;
  return Status::OK();
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.requests_served = requests_served_;
    s.requests_failed = requests_failed_;
    s.requests_coalesced = requests_coalesced_;
  }
  {
    std::shared_lock<std::shared_mutex> lock(ingest_mu_);
    s.batches_ingested = batches_ingested_;
    s.rows_ingested = rows_ingested_;
    s.base_version = snapshot_->version;
    s.wal_appends = wal_appends_;
    s.wal_bytes = wal_ != nullptr ? wal_->bytes() : 0;
    s.checkpoints_written = checkpoints_written_;
    s.last_checkpoint_version = checkpoint_version_;
    s.recovered = recovered_;
    s.recovery_checkpoint_version = recovery_checkpoint_version_;
    s.recovery_records_applied = recovery_records_applied_;
    s.recovery_tail_truncated = recovery_tail_truncated_;
    s.recovery_checkpoints_skipped = recovery_checkpoints_skipped_;
  }
  if (cache_ != nullptr) s.cache = cache_->stats();
  if (governor_ != nullptr) s.governor_reserved_bytes = governor_->reserved();
  return s;
}

}  // namespace gbmqo
