#include "exec/query_executor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "exec/agg_kernel.h"
#include "exec/group_hash_table.h"
#include "exec/spill_partitioner.h"
#include "exec/task_runner.h"
#include "storage/storage_governor.h"

namespace gbmqo {

namespace {

/// Per-query aggregation state, decoupled from the scan strategy. Groups are
/// dense ids handed out by the caller; `Touch(id)` must be called (in id
/// order for new ids) before Update.
class AggState {
 public:
  AggState(const Table& input, const GroupByQuery& query)
      : input_(input), query_(query), acc_(query.aggregates.size()) {}

  Status Validate() const {
    for (const AggregateSpec& agg : query_.aggregates) {
      if (agg.kind == AggKind::kCountStar) continue;
      if (agg.arg < 0 || agg.arg >= input_.schema().num_columns()) {
        return Status::InvalidArgument("aggregate argument out of range");
      }
      const DataType t = input_.schema().column(agg.arg).type;
      if (t == DataType::kString) {
        return Status::NotSupported("SUM/MIN/MAX over STRING is not supported");
      }
    }
    for (int ordinal : query_.grouping.ToVector()) {
      if (ordinal >= input_.schema().num_columns()) {
        return Status::InvalidArgument("grouping column out of range");
      }
    }
    return Status::OK();
  }

  /// Reserves accumulator capacity for `n` expected groups (e.g. the shard
  /// row count's share of the expected group count), avoiding reallocation
  /// churn in the per-row Touch path.
  void ReserveGroups(size_t n) {
    rep_rows_.reserve(n);
    counts_.reserve(n);
    for (std::vector<Accum>& a : acc_) a.reserve(n);
  }

  /// Ensures state exists for group `id` (ids arrive densely from 0).
  void Touch(uint32_t id, size_t representative_row) {
    if (id == rep_rows_.size()) {
      rep_rows_.push_back(static_cast<uint32_t>(representative_row));
      counts_.push_back(0);
      for (std::vector<Accum>& a : acc_) a.emplace_back();
    }
  }

  /// Folds row `row` into group `id`.
  void Update(uint32_t id, size_t row) {
    counts_[id] += 1;
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      const AggregateSpec& agg = query_.aggregates[a];
      if (agg.kind == AggKind::kCountStar) continue;
      const Column& col = input_.column(agg.arg);
      if (col.IsNull(row)) continue;
      Accum& acc = acc_[a][id];
      const double v = col.NumericAt(row);
      switch (agg.kind) {
        case AggKind::kSum:
          acc.value += v;
          acc.seen = true;
          break;
        case AggKind::kMin:
          if (!acc.seen || v < acc.value) acc.value = v;
          acc.seen = true;
          break;
        case AggKind::kMax:
          if (!acc.seen || v > acc.value) acc.value = v;
          acc.seen = true;
          break;
        case AggKind::kCountStar:
          break;
      }
    }
  }

  /// Columnar accumulate over a whole key block: ids[i] is the (already
  /// Touched) group of row begin+i. Equivalent to count Update calls — the
  /// per-kind/per-type/per-null dispatch is hoisted out of the row loop and
  /// values are read through raw column pointers, but each (group,
  /// aggregate) accumulator still folds its rows in ascending row order, so
  /// results (including double SUM) are bit-identical to the per-row path.
  void UpdateBlock(const uint32_t* ids, size_t begin, size_t count) {
    for (size_t i = 0; i < count; ++i) counts_[ids[i]] += 1;
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      const AggregateSpec& agg = query_.aggregates[a];
      if (agg.kind == AggKind::kCountStar) continue;
      const Column& col = input_.column(agg.arg);
      std::vector<Accum>& acc = acc_[a];
      const bool nulls = col.has_nulls();
      const auto fold = [&](auto value_at) {
        switch (agg.kind) {
          case AggKind::kSum:
            if (!nulls) {
              for (size_t i = 0; i < count; ++i) {
                Accum& x = acc[ids[i]];
                x.value += value_at(i);
                x.seen = true;
              }
            } else {
              for (size_t i = 0; i < count; ++i) {
                if (col.IsNull(begin + i)) continue;
                Accum& x = acc[ids[i]];
                x.value += value_at(i);
                x.seen = true;
              }
            }
            break;
          case AggKind::kMin:
            for (size_t i = 0; i < count; ++i) {
              if (nulls && col.IsNull(begin + i)) continue;
              Accum& x = acc[ids[i]];
              const double v = value_at(i);
              if (!x.seen || v < x.value) x.value = v;
              x.seen = true;
            }
            break;
          case AggKind::kMax:
            for (size_t i = 0; i < count; ++i) {
              if (nulls && col.IsNull(begin + i)) continue;
              Accum& x = acc[ids[i]];
              const double v = value_at(i);
              if (!x.seen || v > x.value) x.value = v;
              x.seen = true;
            }
            break;
          case AggKind::kCountStar:
            break;
        }
      };
      if (col.type() == DataType::kInt64) {
        const int64_t* data = col.int64_data() + begin;
        fold([data](size_t i) { return static_cast<double>(data[i]); });
      } else if (col.type() == DataType::kDouble) {
        const double* data = col.double_data() + begin;
        fold([data](size_t i) { return data[i]; });
      }
      // Strings are rejected by Validate; nothing else reaches here.
    }
  }

  /// Folds group `src_id` of `src` (same input/query) into group `id`. Used
  /// by the partitioned merge of thread-local pre-aggregation states; the
  /// caller fixes the merge order, so floating-point accumulation stays
  /// deterministic.
  void MergeGroup(uint32_t id, const AggState& src, uint32_t src_id) {
    counts_[id] += src.counts_[src_id];
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      const AggregateSpec& agg = query_.aggregates[a];
      if (agg.kind == AggKind::kCountStar) continue;
      const Accum& in = src.acc_[a][src_id];
      if (!in.seen) continue;
      Accum& acc = acc_[a][id];
      switch (agg.kind) {
        case AggKind::kSum:
          acc.value += in.value;
          acc.seen = true;
          break;
        case AggKind::kMin:
          if (!acc.seen || in.value < acc.value) acc.value = in.value;
          acc.seen = true;
          break;
        case AggKind::kMax:
          if (!acc.seen || in.value > acc.value) acc.value = in.value;
          acc.seen = true;
          break;
        case AggKind::kCountStar:
          break;
      }
    }
  }

  size_t num_groups() const { return rep_rows_.size(); }

  /// Representative input row of group `id` (carries the grouping values).
  uint32_t rep_row(uint32_t id) const { return rep_rows_[id]; }

  /// Realized heap bytes of the accumulators (capacities, like the group
  /// tables' ByteSize) — the AggState share of the spill memory budget.
  size_t ApproxBytes() const {
    size_t bytes = rep_rows_.capacity() * sizeof(uint32_t) +
                   counts_.capacity() * sizeof(uint64_t);
    for (const std::vector<Accum>& a : acc_) bytes += a.capacity() * sizeof(Accum);
    return bytes;
  }

  /// Empty output builder with the query's result schema: grouping columns
  /// (input names/types) then aggregates.
  static TableBuilder MakeOutputBuilder(const Table& input,
                                        const GroupByQuery& query) {
    std::vector<ColumnDef> defs;
    for (int ordinal : query.grouping.ToVector()) {
      defs.push_back(input.schema().column(ordinal));
    }
    for (const AggregateSpec& agg : query.aggregates) {
      DataType out_type = DataType::kInt64;
      bool nullable = false;
      if (agg.kind != AggKind::kCountStar) {
        out_type = input.schema().column(agg.arg).type;
        nullable = true;  // a group may have only NULL arguments
      }
      defs.push_back(ColumnDef{agg.output_name, out_type, nullable});
    }
    return TableBuilder{Schema(std::move(defs))};
  }

  /// Appends this part's groups (in id order) to `builder`'s columns, a
  /// column at a time: keys gathered from the representative rows, counts
  /// and accumulators written in bulk. Parts appended in canonical
  /// partition order reproduce BuildOutput exactly; the spill path appends
  /// partition-by-partition so only one partition's state is ever resident
  /// alongside the output.
  void AppendTo(TableBuilder* builder, const Table& input,
                const GroupByQuery& query) const {
    const std::vector<int> group_cols = query.grouping.ToVector();
    const size_t n = num_groups();
    for (size_t c = 0; c < group_cols.size(); ++c) {
      builder->column(static_cast<int>(c))
          ->AppendGather(input.column(group_cols[c]), rep_rows_.data(), n);
    }
    std::vector<uint64_t> unseen;  // NULL bits: groups with no argument
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const AggregateSpec& agg = query.aggregates[a];
      Column* out = builder->column(static_cast<int>(group_cols.size() + a));
      if (agg.kind == AggKind::kCountStar) {
        // Same-width signed view of the counts.
        out->AppendInt64s(reinterpret_cast<const int64_t*>(counts_.data()), n);
        continue;
      }
      const std::vector<Accum>& acc = acc_[a];
      unseen.assign((n + 63) / 64, 0);
      for (size_t g = 0; g < n; ++g) {
        unseen[g >> 6] |= uint64_t{!acc[g].seen} << (g & 63);
      }
      if (input.schema().column(agg.arg).type == DataType::kInt64) {
        ints.resize(n);
        for (size_t g = 0; g < n; ++g) {
          ints[g] = static_cast<int64_t>(acc[g].value);
        }
        out->AppendInt64s(ints.data(), n, unseen.data());
      } else {
        doubles.resize(n);
        for (size_t g = 0; g < n; ++g) doubles[g] = acc[g].value;
        out->AppendDoubles(doubles.data(), n, unseen.data());
      }
    }
  }

  /// Builds the output table from `parts` concatenated in order (each part
  /// holds disjoint groups of the same logical query over `input`).
  static Result<TablePtr> BuildOutput(const Table& input,
                                      const GroupByQuery& query,
                                      const std::vector<const AggState*>& parts,
                                      const std::string& output_name) {
    TableBuilder builder = MakeOutputBuilder(input, query);
    size_t n = 0;
    for (const AggState* part : parts) n += part->num_groups();
    const int ncols =
        static_cast<int>(query.grouping.ToVector().size() + query.aggregates.size());
    for (int c = 0; c < ncols; ++c) builder.column(c)->Reserve(n);
    for (const AggState* part : parts) part->AppendTo(&builder, input, query);
    return builder.Build(output_name);
  }

 private:
  struct Accum {
    double value = 0.0;
    bool seen = false;  // saw at least one non-NULL argument
  };

  const Table& input_;
  const GroupByQuery& query_;
  std::vector<uint32_t> rep_rows_;
  std::vector<uint64_t> counts_;
  // acc_[aggregate][group]; empty for COUNT(*)-only queries.
  std::vector<std::vector<Accum>> acc_;
};

/// Full-width row access for ScanMode::kRowStore: reads every column of the
/// row (the attribute bytes a row store's page read pays for) and folds the
/// codes into a checksum so the reads cannot be elided.
class RowToucher {
 public:
  RowToucher(const Table& input, bool enabled) {
    if (!enabled) return;
    for (int c = 0; c < input.schema().num_columns(); ++c) {
      cols_.push_back(&input.column(c));
    }
  }

  void Touch(size_t row) {
    // Per attribute: read the value and run a short dependent mix, standing
    // in for the tuple-deserialization work (offset decode, attribute copy)
    // a row store performs per column of every scanned row. This keeps scan
    // cost proportional to row *width*, the regime the paper's experiments
    // ran in (disk-resident, full-width pages).
    uint64_t acc = checksum_;
    for (const Column* col : cols_) {
      uint64_t v = col->IsNull(row) ? row : col->CodeAt(row);
      v *= 0x9E3779B97F4A7C15ULL;
      v ^= v >> 29;
      v *= 0xBF58476D1CE4E5B9ULL;
      acc ^= v;
    }
    checksum_ = acc;
  }

  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<const Column*> cols_;
  uint64_t checksum_ = 0;
};

// ---- Morsel-driven parallel hash aggregation --------------------------------
//
// The input is cut into QueryExecutor::kMorselRows-row morsels; morsel i
// belongs to pre-aggregation shard (i mod #shards). A worker claims a whole
// shard and scans its morsels in ascending order into a shard-local group
// table + AggState, so each shard's content is a pure function of the data,
// never of the thread count or scheduling. Groups are then partitioned —
// hash top bits for the hash kernels, contiguous slot ranges for the dense
// kernel (QueryExecutor::kMergePartitions ranges either way); a worker
// claims a partition and merges every shard's groups of that partition —
// visiting shards in ascending order and groups in id order — into a
// partition-local table, so no two workers ever write the same state and
// floating-point accumulation order is fixed. All derived accounting (probe
// counts, scan-touch checksums, group counts) is therefore bit-identical
// for any worker count, including 1. (RunTasks lives in exec/task_runner.h.)

/// Shard layout for one input: morsel i -> shard (i mod shards). `shards` is
/// min(kBuildShards, #morsels) so every shard is non-empty; using fewer
/// shard objects for small inputs is equivalent to leaving the rest empty.
struct MorselLayout {
  size_t num_rows = 0;
  size_t num_morsels = 0;
  int shards = 0;

  explicit MorselLayout(size_t n) : num_rows(n) {
    num_morsels = (n + QueryExecutor::kMorselRows - 1) / QueryExecutor::kMorselRows;
    shards = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(QueryExecutor::kBuildShards), num_morsels));
  }

  size_t ShardRows(int shard) const {
    size_t rows = 0;
    for (size_t m = static_cast<size_t>(shard); m < num_morsels;
         m += static_cast<size_t>(shards)) {
      rows += MorselSize(m);
    }
    return rows;
  }

  size_t MorselBegin(size_t m) const { return m * QueryExecutor::kMorselRows; }
  size_t MorselSize(size_t m) const {
    return std::min(num_rows - MorselBegin(m), QueryExecutor::kMorselRows);
  }

  /// Calls `fn(begin, count)` for consecutive row blocks of at most
  /// `block_rows` rows covering every row of `shard`, morsels in ascending
  /// order (blocks never straddle a morsel boundary).
  template <typename Fn>
  void ForEachShardBlock(int shard, size_t block_rows, Fn&& fn) const {
    for (size_t m = static_cast<size_t>(shard); m < num_morsels;
         m += static_cast<size_t>(shards)) {
      const size_t begin = MorselBegin(m);
      const size_t end = begin + MorselSize(m);
      for (size_t b = begin; b < end; b += block_rows) {
        fn(b, std::min(block_rows, end - b));
      }
    }
  }
};

/// One shard's build-phase (or one partition's merge-phase) state for one
/// query: exactly one of `table` / `dense` is set, matching the query's
/// kernel, plus the AggState accumulators.
struct ShardAgg {
  std::unique_ptr<GroupHashTable> table;  // packed / multi-word kernels
  std::unique_ptr<DenseGroupTable> dense;  // dense-array kernel
  std::unique_ptr<AggState> state;

  size_t groups() const {
    return table != nullptr ? table->size()
                            : (dense != nullptr ? dense->size() : 0);
  }
  uint64_t probes() const { return table != nullptr ? table->probes() : 0; }
  /// Realized bytes of the state and its group table: what MemoryMeter
  /// charges for one build, merge or spill-replay result.
  size_t bytes() const {
    return state->ApproxBytes() + (table != nullptr ? table->ByteSize() : 0) +
           (dense != nullptr ? dense->ByteSize() : 0);
  }
};

/// Stable LSD radix sort of (key, ordinal) pairs by key, one byte per pass
/// over the key's actual bit width (AggKernelPlan::total_bits). Equivalent
/// to std::sort by (key, ordinal) — stability keeps ordinals ascending
/// within equal keys — but runs in ceil(bits/8) linear passes instead of
/// log2(n) comparison levels, which is what makes the sort-runs kernel
/// competitive with hashing at high group counts.
void RadixSortByKey(std::vector<std::pair<uint64_t, uint32_t>>* v,
                    int total_bits) {
  const int passes = total_bits <= 8 ? 1 : (total_bits + 7) / 8;
  std::vector<std::pair<uint64_t, uint32_t>> scratch(v->size());
  auto* src = v;
  auto* dst = &scratch;
  size_t count[256];
  for (int p = 0; p < passes; ++p) {
    const int shift = p * 8;
    std::fill(std::begin(count), std::end(count), 0);
    for (const auto& e : *src) ++count[(e.first >> shift) & 0xFF];
    size_t pos = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = pos;
      pos += c;
    }
    for (const auto& e : *src) {
      (*dst)[count[(e.first >> shift) & 0xFF]++] = e;
    }
    std::swap(src, dst);
  }
  if (src != v) *v = std::move(*src);
}

/// The sort-runs fold, shared by the in-memory build and the spill replay
/// so both produce the same segment. `order` holds (packed key, ordinal)
/// pairs and rows[ordinal] the input row, ordinals ascending in shard scan
/// order; `agg` has an empty group table and state. Two passes, no hash
/// probing. Pass 1 sorts by (key, ordinal), so rows ascend within each
/// equal key, then appends each distinct key once (AppendUnique: keys
/// arrive ascending, so group ids are dense in key order and the table is a
/// valid merge source) and scatters the group id back to its ordinal in
/// `ids`. Pass 2 updates the accumulators in scan order, so
/// aggregate-argument columns are read with the same locality as the hash
/// kernels. Per-group update order is row-ascending either way, so results
/// are bit-identical to a sorted-order fold.
void FoldSortRuns(int total_bits,
                  std::vector<std::pair<uint64_t, uint32_t>>* order,
                  const std::vector<uint32_t>& rows, std::vector<uint32_t>* ids,
                  ShardAgg* agg) {
  RadixSortByKey(order, total_bits);
  const std::vector<std::pair<uint64_t, uint32_t>>& sorted = *order;
  ids->resize(sorted.size());
  uint32_t id = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].first != sorted[i - 1].first) {
      id = agg->table->AppendUnique(&sorted[i].first);
      agg->state->Touch(id, rows[sorted[i].second]);
    }
    (*ids)[sorted[i].second] = id;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    agg->state->Update((*ids)[i], rows[i]);
  }
}

/// Builds one shard of one query block-at-a-time: BlockKeyFiller produces
/// the block's keys (one type dispatch per column per block), then a tight
/// per-row loop inserts into the kernel's group table. The sort-runs kernel
/// instead buffers (packed key, row) pairs and folds them at Take(). When a
/// MemoryMeter is attached, the builder reports its realized byte growth
/// after every block, so an over-budget build trips SpillRequired at block
/// granularity.
class ShardBuilder {
 public:
  ShardBuilder(const Table& input, const GroupByQuery& query,
               const AggKernelPlan& plan, size_t shard_rows,
               SimdLevel simd = DetectedSimdLevel(),
               MemoryMeter* meter = nullptr)
      : plan_(&plan), simd_(simd), filler_(plan, simd), meter_(meter) {
    agg_.state = std::make_unique<AggState>(input, query);
    if (plan.kernel == AggKernel::kDenseArray) {
      agg_.state->ReserveGroups(shard_rows / 8 + 16);
      agg_.dense = std::make_unique<DenseGroupTable>(0, plan.dense_capacity,
                                                     simd);
      slots_.resize(BlockKeyFiller::kBlockRows);
      ids_.resize(BlockKeyFiller::kBlockRows);
    } else if (plan.kernel == AggKernel::kSortRuns) {
      // Run-fold accumulators grow only per distinct key; the dominant
      // allocations are the (key, ordinal) and row buffers, one entry per
      // shard row.
      sort_rows_.reserve(shard_rows);
      positions_.reserve(shard_rows);
      keys_.resize(BlockKeyFiller::kBlockRows);
      agg_.table = std::make_unique<GroupHashTable>(plan.key_width, 64, simd);
    } else {
      agg_.state->ReserveGroups(shard_rows / 8 + 16);
      agg_.table = std::make_unique<GroupHashTable>(
          plan.key_width, shard_rows / 8 + 16, simd);
      keys_.resize(BlockKeyFiller::kBlockRows *
                   static_cast<size_t>(plan.key_width));
    }
    ReportMemory();
  }

  /// Folds rows [begin, begin+count) in; count <= BlockKeyFiller::kBlockRows.
  void Consume(size_t begin, size_t count) {
    AggState& state = *agg_.state;
    switch (plan_->kernel) {
      case AggKernel::kDenseArray: {
        filler_.FillDense(begin, count, slots_.data());
        DenseGroupTable& dense = *agg_.dense;
        if (simd_ == SimdLevel::kScalar) {
          for (size_t i = 0; i < count; ++i) {
            const uint32_t id = dense.FindOrInsert(slots_[i]);
            state.Touch(id, begin + i);
            state.Update(id, begin + i);
          }
        } else {
          // Columnar accumulate: assign the whole block's group ids first,
          // then fold each aggregate column block-at-a-time. Bit-identical
          // to the per-row path (see AggState::UpdateBlock).
          for (size_t i = 0; i < count; ++i) {
            const uint32_t id = dense.FindOrInsert(slots_[i]);
            state.Touch(id, begin + i);
            ids_[i] = id;
          }
          state.UpdateBlock(ids_.data(), begin, count);
        }
        break;
      }
      case AggKernel::kPackedKey: {
        filler_.FillPacked(begin, count, keys_.data());
        GroupHashTable& table = *agg_.table;
        for (size_t i = 0; i < count; ++i) {
          const uint32_t id = table.FindOrInsert(&keys_[i]);
          state.Touch(id, begin + i);
          state.Update(id, begin + i);
        }
        break;
      }
      case AggKernel::kSortRuns: {
        filler_.FillPacked(begin, count, keys_.data());
        for (size_t i = 0; i < count; ++i) {
          sort_rows_.emplace_back(keys_[i],
                                  static_cast<uint32_t>(positions_.size()));
          positions_.push_back(static_cast<uint32_t>(begin + i));
        }
        break;
      }
      case AggKernel::kMultiWord: {
        filler_.FillMultiWord(begin, count, keys_.data());
        GroupHashTable& table = *agg_.table;
        const size_t kw = static_cast<size_t>(plan_->key_width);
        for (size_t i = 0; i < count; ++i) {
          const uint32_t id = table.FindOrInsert(keys_.data() + i * kw);
          state.Touch(id, begin + i);
          state.Update(id, begin + i);
        }
        break;
      }
    }
    ReportMemory();
  }

  ShardAgg Take() {
    if (plan_->kernel == AggKernel::kSortRuns) {
      FoldSortRuns(plan_->total_bits, &sort_rows_, positions_, &sort_ids_,
                   &agg_);
      ReportMemory();
    }
    return std::move(agg_);
  }

 private:
  void ReportMemory() {
    if (meter_ == nullptr) return;
    const size_t bytes =
        agg_.bytes() +
        sort_rows_.capacity() * sizeof(std::pair<uint64_t, uint32_t>) +
        (positions_.capacity() + sort_ids_.capacity()) * sizeof(uint32_t);
    meter_->Charge(static_cast<int64_t>(bytes) -
                   static_cast<int64_t>(reported_bytes_));
    reported_bytes_ = bytes;
  }

  const AggKernelPlan* plan_;
  SimdLevel simd_;
  BlockKeyFiller filler_;
  MemoryMeter* meter_;
  size_t reported_bytes_ = 0;
  ShardAgg agg_;
  std::vector<uint64_t> keys_;   // hash kernels: count * key_width words
  std::vector<uint32_t> slots_;  // dense kernel: count slots
  std::vector<uint32_t> ids_;    // dense kernel: block group ids (columnar)
  // sort-runs kernel, folded at Take(): (packed key, ordinal) pairs plus
  // ordinal -> global row and ordinal -> group id for the scan-order
  // update pass.
  std::vector<std::pair<uint64_t, uint32_t>> sort_rows_;
  std::vector<uint32_t> positions_;
  std::vector<uint32_t> sort_ids_;
};

/// Merges `shards[*]` for one query into `out` (the `partition`-th of
/// kMergePartitions partition-ordered parts): hash kernels partition by key
/// hash top bits, the dense kernel by contiguous slot ranges; both visit
/// shards in ascending order and groups in id order, so accumulation order
/// is fixed.
void MergePartition(const Table& input, const GroupByQuery& query,
                    const AggKernelPlan& plan, std::vector<ShardAgg>& shards,
                    size_t total_groups, int partition, ShardAgg* out,
                    SimdLevel simd, MemoryMeter* meter = nullptr) {
  constexpr int kParts = QueryExecutor::kMergePartitions;
  ShardAgg merged;
  merged.state = std::make_unique<AggState>(input, query);
  merged.state->ReserveGroups(total_groups / kParts + 16);
  if (plan.kernel == AggKernel::kDenseArray) {
    const uint64_t range = plan.dense_capacity / kParts;
    merged.dense = std::make_unique<DenseGroupTable>(
        range * static_cast<uint64_t>(partition),
        range * static_cast<uint64_t>(partition + 1), simd);
  } else {
    merged.table = std::make_unique<GroupHashTable>(
        plan.key_width, total_groups / kParts + 16, simd);
  }
  std::vector<std::pair<uint32_t, uint32_t>> mapping;
  for (ShardAgg& shard : shards) {
    mapping.clear();
    if (merged.dense != nullptr) {
      merged.dense->MergeFrom(*shard.dense, kParts, partition,
                              plan.dense_capacity, &mapping);
    } else {
      merged.table->MergeFrom(*shard.table, kParts, partition, &mapping);
    }
    for (const auto& [src, dst] : mapping) {
      merged.state->Touch(dst, shard.state->rep_row(src));
      merged.state->MergeGroup(dst, *shard.state, src);
    }
  }
  if (meter != nullptr) meter->Charge(static_cast<int64_t>(merged.bytes()));
  *out = std::move(merged);
}

/// Charges one hash aggregation's kernel-dependent work: per-kernel row
/// counters and AggCpuPerRow.
void ChargeKernel(WorkCounters* wc, AggKernel kernel, size_t rows,
                  size_t groups) {
  switch (kernel) {
    case AggKernel::kDenseArray:
      wc->dense_kernel_rows += rows;
      break;
    case AggKernel::kPackedKey:
      wc->packed_kernel_rows += rows;
      break;
    case AggKernel::kSortRuns:
      wc->sort_kernel_rows += rows;
      break;
    case AggKernel::kMultiWord:
      wc->multiword_kernel_rows += rows;
      break;
  }
  wc->agg_cpu_units +=
      static_cast<double>(rows) * AggCpuPerRow(kernel, static_cast<double>(groups));
}

/// Fault site: allocation pressure while building a shard's group table
/// (GroupHashTable / DenseGroupTable / accumulator growth). Throws the same
/// std::bad_alloc a real allocation failure would; RunTasks rethrows it on
/// the caller and the DAG executor maps it to Status::ResourceExhausted.
/// Keyed by the task's stable fault salt and the shard/partition ordinal,
/// so decisions are independent of worker scheduling.
void InjectAllocPressure(uint64_t salt, uint64_t ordinal) {
  if (GBMQO_INJECT_FAULT(FaultSite::kAllocPressure, FaultKey(salt, ordinal))) {
    throw std::bad_alloc();
  }
}

// ---- Out-of-core (grace-hash) aggregation -----------------------------------
//
// RunHashSpill re-runs a hash aggregation whose in-memory build tripped the
// memory budget (or that SpillOptions::force routed here directly). Pass 1
// radix-partitions every row on its group key into kMergePartitions spill
// files per shard — using the *same* partition function the in-memory merge
// uses — writing records in shard scan order. Pass 2 replays one partition
// at a time: each (shard, partition) file rebuilds a segment whose
// first-touch group-id order equals the in-memory shard's id order filtered
// to that partition (a key's rows all live in one partition, so per-group
// fold order is untouched), which is exactly the order MergeFrom visits.
// The unchanged MergePartition therefore reproduces each in-memory
// partition result bit-for-bit, and appending partitions 0..P-1 reproduces
// the in-memory output — rows, ids, and double bit patterns — exactly. At
// most one partition's segments plus its merged state are resident at a
// time, which is what bounds RAM.
//
// Recursion depth is one: partitions are never re-partitioned (a deeper
// split would need a different partition function and break the id-order
// equivalence above). A partition that still exceeds the budget proceeds
// anyway; the overshoot stays visible through the governor's RAM peak.

/// Spill record layouts (fixed width, written in shard scan order):
/// dense kernel: u32 slot + u32 row; hash kernels: key_width x u64 key
/// words + u32 row (records are unaligned on disk; replay memcpys through
/// an aligned buffer).
size_t SpillRecordBytes(const AggKernelPlan& plan) {
  return plan.kernel == AggKernel::kDenseArray
             ? 8
             : static_cast<size_t>(plan.key_width) * 8 + 4;
}

/// Rebuilds one (shard, partition) segment from its spill records.
void BuildSegment(const Table& input, const GroupByQuery& query,
                  const AggKernelPlan& kplan, int partition,
                  const std::vector<uint8_t>& data, SimdLevel simd,
                  MemoryMeter* meter, ShardAgg* out) {
  constexpr int kParts = QueryExecutor::kMergePartitions;
  const size_t rec = SpillRecordBytes(kplan);
  const size_t nrec = data.size() / rec;
  ShardAgg seg;
  seg.state = std::make_unique<AggState>(input, query);
  if (kplan.kernel == AggKernel::kDenseArray) {
    // The segment only ever sees partition-local slots, so its tag array
    // covers just this partition's contiguous slot range.
    const uint64_t range = kplan.dense_capacity / kParts;
    seg.dense = std::make_unique<DenseGroupTable>(
        range * static_cast<uint64_t>(partition),
        range * static_cast<uint64_t>(partition + 1), simd);
    seg.state->ReserveGroups(nrec / 8 + 16);
    for (size_t i = 0; i < nrec; ++i) {
      uint32_t slot = 0;
      uint32_t row = 0;
      std::memcpy(&slot, data.data() + i * rec, 4);
      std::memcpy(&row, data.data() + i * rec + 4, 4);
      const uint32_t id = seg.dense->FindOrInsert(slot);
      seg.state->Touch(id, row);
      seg.state->Update(id, row);
    }
  } else if (kplan.kernel == AggKernel::kSortRuns) {
    // Records sit in shard scan order, so the record index is the
    // ordinal: the build's fold over this partition's records is
    // bit-identical to the in-memory shard's fold filtered to it.
    seg.table = std::make_unique<GroupHashTable>(kplan.key_width, 64, simd);
    std::vector<std::pair<uint64_t, uint32_t>> order;
    std::vector<uint32_t> rows(nrec);
    std::vector<uint32_t> ids;
    order.reserve(nrec);
    for (size_t i = 0; i < nrec; ++i) {
      uint64_t key = 0;
      std::memcpy(&key, data.data() + i * rec, 8);
      std::memcpy(&rows[i], data.data() + i * rec + 8, 4);
      order.emplace_back(key, static_cast<uint32_t>(i));
    }
    FoldSortRuns(kplan.total_bits, &order, rows, &ids, &seg);
  } else {
    const size_t kw = static_cast<size_t>(kplan.key_width);
    seg.table = std::make_unique<GroupHashTable>(kplan.key_width,
                                                 nrec / 8 + 16, simd);
    seg.state->ReserveGroups(nrec / 8 + 16);
    std::vector<uint64_t> kbuf(kw);
    for (size_t i = 0; i < nrec; ++i) {
      std::memcpy(kbuf.data(), data.data() + i * rec, kw * 8);
      uint32_t row = 0;
      std::memcpy(&row, data.data() + i * rec + kw * 8, 4);
      const uint32_t id = seg.table->FindOrInsert(kbuf.data());
      seg.state->Touch(id, row);
      seg.state->Update(id, row);
    }
  }
  if (meter != nullptr) meter->Charge(static_cast<int64_t>(seg.bytes()));
  *out = std::move(seg);
}

/// Spill pass 1's record encoder, also run by the recompute-partition rung
/// so a re-derived file is byte-identical to the one it replaces. Per row
/// block it forms the kernel's keys, each row's merge partition (the
/// in-memory merge's partition function) and its record (SpillRecordBytes).
class SpillEncoder {
 public:
  SpillEncoder(const AggKernelPlan& plan, SimdLevel simd)
      : plan_(&plan),
        filler_(plan, simd),
        key_bytes_(SpillRecordBytes(plan) - 4),
        partitions_(BlockKeyFiller::kBlockRows) {
    // Row i's slot or key words sit at key_bytes_ * i in the fill buffer.
    if (plan.kernel == AggKernel::kDenseArray) {
      slots_.resize(BlockKeyFiller::kBlockRows);
      record_keys_ = reinterpret_cast<const uint8_t*>(slots_.data());
    } else {
      keys_.resize(BlockKeyFiller::kBlockRows *
                   static_cast<size_t>(plan.key_width));
      record_keys_ = reinterpret_cast<const uint8_t*>(keys_.data());
    }
  }
  SpillEncoder(const SpillEncoder&) = delete;
  SpillEncoder& operator=(const SpillEncoder&) = delete;

  /// Encodes rows [begin, begin+count); count <= BlockKeyFiller::kBlockRows.
  /// Row begin+i is then addressed as `i` below.
  void Encode(size_t begin, size_t count) {
    constexpr int kParts = QueryExecutor::kMergePartitions;
    begin_ = begin;
    if (plan_->kernel == AggKernel::kDenseArray) {
      filler_.FillDense(begin, count, slots_.data());
      for (size_t i = 0; i < count; ++i) {
        partitions_[i] = DenseGroupTable::PartitionOfSlot(
            slots_[i], kParts, plan_->dense_capacity);
      }
      return;
    }
    if (plan_->kernel == AggKernel::kMultiWord) {
      filler_.FillMultiWord(begin, count, keys_.data());
    } else {
      filler_.FillPacked(begin, count, keys_.data());
    }
    for (size_t i = 0; i < count; ++i) {
      partitions_[i] = GroupHashTable::PartitionOfHash(
          GroupHashTable::Hash(
              keys_.data() + i * static_cast<size_t>(plan_->key_width),
              plan_->key_width),
          kParts);
    }
  }

  int partition(size_t i) const { return partitions_[i]; }

  /// Appends row i's record: its slot or key words, then the u32 row.
  void Append(size_t i, std::vector<uint8_t>* buf) const {
    const uint8_t* kp = record_keys_ + i * key_bytes_;
    buf->insert(buf->end(), kp, kp + key_bytes_);
    const uint32_t row = static_cast<uint32_t>(begin_ + i);
    const uint8_t* rp = reinterpret_cast<const uint8_t*>(&row);
    buf->insert(buf->end(), rp, rp + 4);
  }

 private:
  const AggKernelPlan* plan_;
  BlockKeyFiller filler_;
  size_t key_bytes_;
  size_t begin_ = 0;
  std::vector<int> partitions_;
  std::vector<uint64_t> keys_;   // hash kernels: count * key_width words
  std::vector<uint32_t> slots_;  // dense kernel: count slots
  const uint8_t* record_keys_ = nullptr;  // keys_ or slots_, as bytes
};

/// Re-derives the exact payload of (shard s, partition p)'s spill file from
/// the still-resident input: the recompute-partition retry rung for a
/// corrupt spill record. Encodes shard s and keeps partition p's records
/// (no touch-tracking: the scan-side counters were charged by the real
/// pass 1).
std::vector<uint8_t> RebuildShardPartition(const AggKernelPlan& kplan,
                                           const MorselLayout& layout, int s,
                                           int p, SimdLevel simd) {
  SpillEncoder encoder(kplan, simd);
  std::vector<uint8_t> buf;
  layout.ForEachShardBlock(
      s, BlockKeyFiller::kBlockRows, [&](size_t begin, size_t count) {
        encoder.Encode(begin, count);
        for (size_t i = 0; i < count; ++i) {
          if (encoder.partition(i) == p) encoder.Append(i, &buf);
        }
      });
  return buf;
}

/// The grace-hash spill path for one hash group-by. The caller has already
/// charged the per-query scan counters (queries_executed, rows_scanned,
/// bytes_scanned); this charges everything downstream of the scan —
/// checksum, probes, kernel rows, rows_emitted — plus the spill_* counters,
/// exactly once, whether the in-memory attempt tripped early or late.
Result<TablePtr> RunHashSpill(const Table& input, const GroupByQuery& query,
                              const std::string& output_name,
                              const AggKernelPlan& kplan,
                              const MorselLayout& layout,
                              const SpillOptions& spill, bool touch,
                              int parallelism, SimdLevel simd,
                              ExecContext* ctx) {
  constexpr int kParts = QueryExecutor::kMergePartitions;
  const int shards = layout.shards;
  auto files_r = SpillFileSet::Create(spill.directory, shards * kParts,
                                      spill.max_spill_bytes, spill.governor);
  if (!files_r.ok()) return files_r.status();
  const std::unique_ptr<SpillFileSet> files = std::move(files_r).ValueOrDie();

  WorkCounters& wc = ctx->counters();
  const CancellationToken* tok = ctx->cancellation();
  const uint64_t salt = ctx->fault_salt();

  // Pass 1: radix-partition. Each shard stages records per partition and
  // flushes to its own file range (single writer per file), so the staging
  // working set is shards * partitions * kFlushBytes regardless of input
  // size.
  constexpr size_t kFlushBytes = size_t{1} << 15;
  std::vector<Status> shard_status(static_cast<size_t>(shards));
  std::vector<uint64_t> shard_checksums(static_cast<size_t>(shards), 0);
  RunTasks(shards, parallelism, [&](int s) {
    Status& st = shard_status[static_cast<size_t>(s)];
    SpillEncoder encoder(kplan, simd);
    std::vector<std::vector<uint8_t>> stage(kParts);
    RowToucher shard_toucher(input, touch);
    const auto flush = [&](int p) {
      std::vector<uint8_t>& buf = stage[static_cast<size_t>(p)];
      const int file = s * kParts + p;
      const Status ap =
          files->Append(file, FaultKey(salt, 0x57000000ull + file), buf.data(),
                        buf.size());
      if (!ap.ok() && st.ok()) st = ap;
      buf.clear();
    };
    layout.ForEachShardBlock(
        s, BlockKeyFiller::kBlockRows, [&](size_t begin, size_t count) {
          if (!st.ok()) return;
          if (tok != nullptr && tok->Fired()) return;
          for (size_t r = begin; r < begin + count; ++r) {
            shard_toucher.Touch(r);
          }
          encoder.Encode(begin, count);
          for (size_t i = 0; i < count; ++i) {
            const int p = encoder.partition(i);
            std::vector<uint8_t>& buf = stage[static_cast<size_t>(p)];
            encoder.Append(i, &buf);
            if (buf.size() >= kFlushBytes) flush(p);
          }
        });
    if (st.ok() && (tok == nullptr || !tok->Fired())) {
      for (int p = 0; p < kParts; ++p) {
        if (!stage[static_cast<size_t>(p)].empty()) flush(p);
      }
    }
    shard_checksums[static_cast<size_t>(s)] = shard_toucher.checksum();
  });
  for (const Status& s : shard_status) GBMQO_RETURN_NOT_OK(s);
  GBMQO_RETURN_NOT_OK(ctx->CheckCancelled());
  GBMQO_RETURN_NOT_OK(files->FinishWrites());
  for (uint64_t c : shard_checksums) wc.scan_touch_checksum ^= c;

  // Pass 2: replay partitions 0..P-1 in order, appending each merged
  // partition to the output builder before the next partition's state is
  // built. Segment rebuilds within a partition run in parallel.
  TableBuilder builder = AggState::MakeOutputBuilder(input, query);
  uint64_t probes = 0;
  size_t groups = 0;
  uint64_t bytes_read = 0;
  uint64_t ram_peak = 0;
  for (int p = 0; p < kParts; ++p) {
    GBMQO_RETURN_NOT_OK(ctx->CheckCancelled());
    if (GBMQO_INJECT_FAULT(FaultSite::kSpillMerge,
                           FaultKey(salt, 0x4D000000ull + p))) {
      return Status::Internal("injected spill merge failure");
    }
    MemoryMeter part_meter(0, /*trip=*/false);
    std::vector<ShardAgg> segs(static_cast<size_t>(shards));
    std::vector<Status> seg_status(static_cast<size_t>(shards));
    std::vector<uint64_t> seg_bytes(static_cast<size_t>(shards), 0);
    std::vector<uint64_t> seg_recoveries(static_cast<size_t>(shards), 0);
    RunTasks(shards, parallelism, [&](int s) {
      const int file = s * kParts + p;
      bool corrupt = false;
      Result<std::vector<uint8_t>> data = files->ReadAll(
          file, FaultKey(salt, 0x52000000ull + file), &corrupt);
      std::vector<uint8_t> bytes;
      if (data.ok()) {
        bytes = std::move(*data);
      } else if (corrupt && spill.recover_corrupt) {
        // Recompute-partition rung: the input is still resident, so the
        // damaged file's records can be re-derived bit-identically instead
        // of failing the query.
        bytes = RebuildShardPartition(kplan, layout, s, p, simd);
        seg_recoveries[static_cast<size_t>(s)] = 1;
      } else {
        seg_status[static_cast<size_t>(s)] = data.status();
        return;
      }
      seg_bytes[static_cast<size_t>(s)] = bytes.size();
      part_meter.Charge(static_cast<int64_t>(bytes.size()));
      BuildSegment(input, query, kplan, p, bytes, simd, &part_meter,
                   &segs[static_cast<size_t>(s)]);
    });
    for (const Status& s : seg_status) GBMQO_RETURN_NOT_OK(s);
    for (uint64_t b : seg_bytes) bytes_read += b;
    for (uint64_t r : seg_recoveries) wc.spill_corrupt_recoveries += r;
    size_t part_total = 0;
    for (const ShardAgg& seg : segs) {
      part_total += seg.groups();
      probes += seg.probes();
    }
    ShardAgg merged;
    MergePartition(input, query, kplan, segs, part_total * kParts, p, &merged,
                   simd, &part_meter);
    probes += merged.probes();
    groups += merged.groups();
    merged.state->AppendTo(&builder, input, query);
    ram_peak = std::max(ram_peak, part_meter.peak());
  }
  if (spill.governor != nullptr && ram_peak > 0) {
    // Record the replay's realized RAM working set in the governor's peak
    // high-water mark, so callers can assert the out-of-core run actually
    // stayed under the cap.
    spill.governor->ForceReserve(static_cast<double>(ram_peak));
    spill.governor->Release(static_cast<double>(ram_peak));
  }
  wc.queries_spilled += 1;
  wc.spill_partitions += static_cast<uint64_t>(kParts);
  wc.spill_bytes_written += files->bytes_written();
  wc.spill_bytes_read += bytes_read;
  wc.hash_probes += probes;
  ChargeKernel(&wc, kplan.kernel, layout.num_rows, groups);
  wc.rows_emitted += groups;
  return builder.Build(output_name);
}

}  // namespace

Result<TablePtr> QueryExecutor::ExecuteGroupBy(const Table& input,
                                               const GroupByQuery& query,
                                               const std::string& output_name,
                                               AggStrategy strategy) {
  GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
  AggState state(input, query);
  GBMQO_RETURN_NOT_OK(state.Validate());

  const Index* index = nullptr;
  if (strategy == AggStrategy::kAuto || strategy == AggStrategy::kIndexStream) {
    index = input.FindCoveringIndex(query.grouping);
    if (strategy == AggStrategy::kIndexStream && index == nullptr) {
      return Status::NotFound("no covering index on " +
                              query.grouping.ToString());
    }
    if (strategy == AggStrategy::kAuto && index == nullptr) {
      strategy = AggStrategy::kHash;
    } else {
      strategy = AggStrategy::kIndexStream;
    }
  }
  if (query.grouping.empty() && strategy == AggStrategy::kIndexStream) {
    strategy = AggStrategy::kHash;  // no index needed for a grand total
  }
  if (strategy == AggStrategy::kHash) {
    // A single hash group-by is a shared-scan batch of one.
    Result<std::vector<TablePtr>> out =
        RunHashBatch(input, {&query, 1}, {&output_name, 1}, /*shared=*/false);
    if (!out.ok()) return out.status();
    return std::move(out->front());
  }

  KeyBuilder keys(input, query.grouping);
  const int kw = keys.width();
  const size_t n = input.num_rows();

  WorkCounters& wc = ctx_->counters();
  wc.queries_executed += 1;
  wc.rows_scanned += n;
  if (strategy == AggStrategy::kIndexStream) {
    // Index scan reads only the key columns' width (narrow leaf pages).
    wc.bytes_scanned += static_cast<uint64_t>(
        static_cast<double>(n) * input.AvgRowWidth(query.grouping));
  } else {
    wc.bytes_scanned +=
        static_cast<uint64_t>(static_cast<double>(n) * input.AvgRowWidth({}));
  }

  if (strategy == AggStrategy::kSort) {
    // Materialize keys, sort row ids lexicographically, stream runs.
    RowToucher toucher(input, scan_mode_ == ScanMode::kRowStore);
    std::vector<uint64_t> all(n * static_cast<size_t>(kw));
    for (size_t row = 0; row < n; ++row) {
      if ((row & 0xFFFF) == 0) GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
      toucher.Touch(row);
      keys.FillKey(row, all.data() + row * static_cast<size_t>(kw));
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint64_t* ka = all.data() + static_cast<size_t>(a) * kw;
      const uint64_t* kb = all.data() + static_cast<size_t>(b) * kw;
      return std::lexicographical_compare(ka, ka + kw, kb, kb + kw);
    });
    wc.rows_sorted += n;
    uint32_t id = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t row = order[i];
      if (i > 0) {
        const uint64_t* prev =
            all.data() + static_cast<size_t>(order[i - 1]) * kw;
        const uint64_t* cur = all.data() + static_cast<size_t>(row) * kw;
        if (!std::equal(prev, prev + kw, cur)) ++id;
      }
      state.Touch(id, row);
      state.Update(id, row);
    }
    wc.agg_cpu_units += static_cast<double>(n);  // stream after sort
    wc.scan_touch_checksum ^= toucher.checksum();
  } else {
    const std::vector<uint32_t>& order = index->sorted_rows();
    std::vector<uint64_t> key(static_cast<size_t>(kw));
    std::vector<uint64_t> prev(static_cast<size_t>(kw));
    uint32_t id = 0;
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
      if ((i & 0xFFFF) == 0) GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
      const size_t row = order[i];
      keys.FillKey(row, key.data());
      if (!first && !std::equal(key.begin(), key.end(), prev.begin())) ++id;
      first = false;
      prev = key;
      state.Touch(id, row);
      state.Update(id, row);
    }
    wc.agg_cpu_units += static_cast<double>(n);  // stream over index
  }

  wc.rows_emitted += state.num_groups();
  return AggState::BuildOutput(input, query, {&state}, output_name);
}

Result<std::vector<TablePtr>> QueryExecutor::ExecuteSharedScan(
    const Table& input, const std::vector<GroupByQuery>& queries,
    const std::vector<std::string>& output_names) {
  GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
  if (queries.size() != output_names.size()) {
    return Status::InvalidArgument("queries/output_names size mismatch");
  }
  // An empty batch performs no scan, so it must charge none: the scan-side
  // counters are per shared pass, not per query.
  if (queries.empty()) return std::vector<TablePtr>{};
  for (const GroupByQuery& q : queries) {
    GBMQO_RETURN_NOT_OK(AggState(input, q).Validate());
  }
  return RunHashBatch(input, queries, output_names, /*shared=*/true);
}

Result<std::vector<TablePtr>> QueryExecutor::RunHashBatch(
    const Table& input, std::span<const GroupByQuery> queries,
    std::span<const std::string> output_names, bool shared) {
  const size_t nq = queries.size();
  std::vector<AggKernelPlan> kplans;
  kplans.reserve(nq);
  for (const GroupByQuery& q : queries) {
    kplans.push_back(PlanAggKernel(
        input, q.grouping, forced_kernel_.value_or(AggKernel::kDenseArray)));
  }
  const size_t n = input.num_rows();
  const MorselLayout layout(n);

  WorkCounters& wc = ctx_->counters();
  wc.queries_executed += nq;
  wc.rows_scanned += n;  // one shared pass
  wc.bytes_scanned +=
      static_cast<uint64_t>(static_cast<double>(n) * input.AvgRowWidth({}));

  const bool touch = scan_mode_ == ScanMode::kRowStore;
  const SimdLevel simd = simd_level();
  const CancellationToken* tok = ctx_->cancellation();
  const uint64_t salt = ctx_->fault_salt();
  // Out-of-core eligibility: single group-bys over multi-shard inputs. A
  // shared scan's shard state interleaves its queries, so it cannot spill:
  // a trip fails the batch with ResourceExhausted and the plan layer splits
  // it into spillable per-query runs. A single-shard input's group state is
  // bounded by one morsel's rows, below any useful budget, and its fast
  // path emits first-touch order directly.
  const bool spill_ok = !shared && spill_.enabled() && layout.shards > 1;
  const auto run_spill = [&]() -> Result<std::vector<TablePtr>> {
    Result<TablePtr> t =
        RunHashSpill(input, queries[0], output_names[0], kplans[0], layout,
                     spill_, touch, parallelism_, simd, ctx_);
    if (!t.ok()) return t.status();
    return std::vector<TablePtr>{std::move(t).ValueOrDie()};
  };
  // The meter trips mid-build/mid-merge when the realized group-table bytes
  // of the whole batch pass the budget. Bytes only grow, so whether a given
  // input trips is independent of the worker interleaving.
  MemoryMeter meter(spill_.memory_budget_bytes,
                    spill_.memory_budget_bytes > 0 && layout.shards > 1);
  try {
    if (spill_ok && spill_.force) return run_spill();
    try {
      // Build phase: one task per shard scans the shard's morsels once (one
      // full-width touch per row — the shared scan) and pre-aggregates every
      // query into shard-local state. aggs[query][shard].
      std::vector<std::vector<ShardAgg>> aggs(nq);
      for (std::vector<ShardAgg>& a : aggs) {
        a.resize(static_cast<size_t>(layout.shards));
      }
      std::vector<uint64_t> shard_checksums(static_cast<size_t>(layout.shards),
                                            0);
      // Per-shard failure slots for the shared-scan batch-read fault site: a
      // failed shard records a Status instead of throwing, and the first
      // non-OK one fails the whole pass after the build phase joins.
      std::vector<Status> shard_status(static_cast<size_t>(layout.shards));
      RunTasks(layout.shards, parallelism_, [&](int s) {
        if (shared &&
            GBMQO_INJECT_FAULT(FaultSite::kSharedScanBatch,
                               FaultKey(salt, static_cast<uint64_t>(s)))) {
          shard_status[static_cast<size_t>(s)] =
              Status::Internal("injected shared-scan batch read failure");
          return;
        }
        InjectAllocPressure(salt, static_cast<uint64_t>(s));
        const size_t shard_rows = layout.ShardRows(s);
        std::vector<ShardBuilder> builders;
        builders.reserve(nq);
        for (size_t qi = 0; qi < nq; ++qi) {
          builders.emplace_back(input, queries[qi], kplans[qi], shard_rows,
                                simd, &meter);
        }
        RowToucher shard_toucher(input, touch);
        layout.ForEachShardBlock(
            s, BlockKeyFiller::kBlockRows, [&](size_t begin, size_t count) {
              // Morsel-boundary cancellation point: a fired token stops the
              // scan early; the caller surfaces Cancelled before any output
              // is built from the partial state.
              if (tok != nullptr && tok->Fired()) return;
              for (size_t r = begin; r < begin + count; ++r) {
                shard_toucher.Touch(r);
              }
              for (ShardBuilder& b : builders) b.Consume(begin, count);
            });
        for (size_t qi = 0; qi < nq; ++qi) {
          aggs[qi][static_cast<size_t>(s)] = builders[qi].Take();
        }
        shard_checksums[static_cast<size_t>(s)] = shard_toucher.checksum();
      });
      for (const Status& st : shard_status) GBMQO_RETURN_NOT_OK(st);
      GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());

      std::vector<uint64_t> probes(nq, 0);
      for (size_t qi = 0; qi < nq; ++qi) {
        for (const ShardAgg& shard : aggs[qi]) probes[qi] += shard.probes();
      }
      // Output parts per query, in partition order.
      std::vector<std::vector<ShardAgg>> parts(nq);
      if (layout.shards <= 1) {
        // Single-shard fast path: the shard already holds each query's
        // final groups in first-occurrence order — identical to serial
        // aggregation.
        parts = std::move(aggs);
      } else {
        // Merge phase: each (query, partition) pair is an independent task.
        std::vector<size_t> totals(nq, 0);
        for (size_t qi = 0; qi < nq; ++qi) {
          for (const ShardAgg& shard : aggs[qi]) totals[qi] += shard.groups();
          parts[qi].resize(kMergePartitions);
        }
        RunTasks(static_cast<int>(nq) * kMergePartitions, parallelism_,
                 [&](int t) {
                   InjectAllocPressure(salt, 4096 + static_cast<uint64_t>(t));
                   const size_t qi = static_cast<size_t>(t) / kMergePartitions;
                   const int p = t % kMergePartitions;
                   MergePartition(input, queries[qi], kplans[qi], aggs[qi],
                                  totals[qi], p,
                                  &parts[qi][static_cast<size_t>(p)], simd,
                                  &meter);
                 });
        GBMQO_RETURN_NOT_OK(ctx_->CheckCancelled());
        for (size_t qi = 0; qi < nq; ++qi) {
          for (const ShardAgg& part : parts[qi]) probes[qi] += part.probes();
        }
      }
      // The checksum folds only once the whole aggregation has survived the
      // budget: a tripped attempt charges nothing here, and the spill pass
      // re-derives the full checksum from its own scan.
      for (uint64_t c : shard_checksums) wc.scan_touch_checksum ^= c;

      std::vector<TablePtr> out;
      out.reserve(nq);
      for (size_t qi = 0; qi < nq; ++qi) {
        size_t groups = 0;
        std::vector<const AggState*> states;
        for (const ShardAgg& part : parts[qi]) {
          groups += part.groups();
          states.push_back(part.state.get());
        }
        wc.hash_probes += probes[qi];
        ChargeKernel(&wc, kplans[qi].kernel, n, groups);
        wc.rows_emitted += groups;
        Result<TablePtr> t = AggState::BuildOutput(input, queries[qi], states,
                                                   output_names[qi]);
        if (!t.ok()) return t.status();
        out.push_back(std::move(t).ValueOrDie());
      }
      return out;
    } catch (const SpillRequired& e) {
      if (!spill_ok) return Status::ResourceExhausted(e.what());
    }
    return run_spill();
  } catch (const GroupIdSpaceExhausted& e) {
    return Status::ResourceExhausted(e.what());
  }
}

}  // namespace gbmqo
