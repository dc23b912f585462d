// Checkpoints: periodic durable snapshots of the serving state — the base
// relation (current version of the ingest family) plus the pinned
// aggregate-cache entries — that bound WAL replay time. Recovery loads the
// newest valid checkpoint and replays only the WAL records after its
// version (storage/wal.h); together they rebuild *bit-identical* state:
// tables are serialized column by column and loaded back in bulk into
// exactly the columns that replaying the original row-order appends would
// build, which reproduces every internal detail a query can observe
// (dictionary first-occurrence order and codes, null placeholders,
// code-range metadata, index row permutations). An image no append
// sequence could have produced is rejected, not loaded.
//
// File discipline: an image is assembled in memory, written to
// `checkpoint-<version>.gckp.tmp-<pid>`, flushed, fsynced, then renamed to
// `checkpoint-<version>.gckp` and the directory fsynced — so a crash at any
// byte leaves either the complete old world or the complete new one, never
// a half-written checkpoint under the real name. A whole-image CRC32 plus
// magic/format header lets ReadCheckpoint reject damage; the recovery path
// falls back to the next-older checkpoint when the newest is corrupt.
// Orphaned `.tmp-<pid>` files from a dead process are reaped on startup
// (ReapStaleCheckpointTmps).
#ifndef GBMQO_STORAGE_CHECKPOINT_H_
#define GBMQO_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace gbmqo {

class StorageGovernor;

/// True when a process with this id is currently alive on this host. Used
/// by the stale-file reapers (checkpoint tmps, spill directories): files
/// carrying a dead pid in their name are orphans and safe to delete.
bool ProcessAlive(uint64_t pid);

/// This process's id, as embedded in process-unique file names.
uint64_t CurrentProcessId();

/// One cached aggregate recorded in a checkpoint. The agg list is stored as
/// raw (kind, column) integer pairs — the storage layer deliberately does
/// not depend on core/exec request types; the server translates.
struct CheckpointAggRef {
  int kind = 0;
  int column = 0;
};

/// One pinned aggregate-cache entry: its cache key (grouping mask + aggs),
/// freshness stamps, and materialized result table. Entries are stored in
/// cache LRU order (most recent first) so recovery can rebuild the same
/// eviction order.
struct CheckpointCacheEntry {
  uint64_t columns_mask = 0;
  std::vector<CheckpointAggRef> aggs;
  uint64_t source_version = 0;
  bool needs_recompute = false;
  TablePtr table;
};

/// Everything a checkpoint persists.
struct CheckpointImage {
  uint64_t base_version = 0;
  TablePtr base;
  std::vector<CheckpointCacheEntry> entries;  ///< MRU first
};

/// "checkpoint-<version>.gckp".
std::string CheckpointFileName(uint64_t version);

/// Durably writes `image` into `directory` (created if needed) under the
/// tmp-then-rename discipline above. On success *bytes_written holds the
/// final file size, charged to the governor's disk ledger (the caller owns
/// releasing it when the checkpoint file is later deleted). Any failure —
/// real or injected via the kDiskEnospc / kDiskShortWrite / kDiskFsync
/// fault sites — removes the tmp file and leaves the directory unchanged.
Status WriteCheckpoint(const std::string& directory,
                       const CheckpointImage& image, StorageGovernor* governor,
                       uint64_t* bytes_written);

/// Loads and verifies the checkpoint at `path`. Internal on any damage
/// (bad magic/format, CRC mismatch, framing error) — the caller falls back
/// to an older checkpoint rather than admitting corrupt state. The
/// kDiskBitFlip fault site fires on this read path.
Result<CheckpointImage> ReadCheckpoint(const std::string& path);

/// A discovered checkpoint file.
struct CheckpointRef {
  uint64_t version = 0;
  std::string path;
};

/// Completed checkpoints in `directory`, ascending by version. A missing
/// directory is an empty list.
Result<std::vector<CheckpointRef>> ListCheckpoints(const std::string& directory);

/// Deletes `checkpoint-*.gckp.tmp-<pid>` files whose pid is dead. Returns
/// the number of files removed.
uint64_t ReapStaleCheckpointTmps(const std::string& directory);

}  // namespace gbmqo

#endif  // GBMQO_STORAGE_CHECKPOINT_H_
