// Adaptive aggregation-kernel selection.
//
// GB-MQO's required group-bys mostly run over *small materialized
// intermediates*, where the grouping columns' combined code domain is tiny.
// PlanAggKernel inspects the input columns' code-domain metadata
// (Column::CodeBits / CodeRange) and walks a fallback ladder:
//
//   1. kDenseArray — if the product of per-column radixes (code range + 1,
//      plus a NULL slot for nullable columns) fits kDenseSlotBudget, group
//      lookup is a direct index into a dense slot array: no hashing, no key
//      compares.
//   2. kPackedKey / kSortRuns — if the per-column bit-widths (plus one NULL
//      bit per nullable column) sum to <= 64, all grouping columns are
//      bit-packed into a single uint64 key. Small estimated group counts
//      build a one-word GroupHashTable (kPackedKey); past the hash-vs-sort
//      crossover (kSortCrossoverGroups) the same packed keys are instead
//      sorted and folded run-by-run (kSortRuns), trading the hash build's
//      cache-miss-dominated probes for a comparison sort.
//   3. kMultiWord  — the general case: one key word per grouping column
//      plus a null-mask word, exactly the layout KeyBuilder produces.
//
// The plan is a pure function of (input table, grouping set) — never of the
// thread count — so all WorkCounters stay bit-identical across parallelism.
// BlockKeyFiller then builds keys/slots in 1024-row column-major blocks with
// one type dispatch per column per block instead of one per row.
#ifndef GBMQO_EXEC_AGG_KERNEL_H_
#define GBMQO_EXEC_AGG_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/column_set.h"
#include "exec/exec_context.h"
#include "exec/simd.h"
#include "storage/table.h"

namespace gbmqo {

/// Dense-array slot budget: caps the per-shard slot array at 1 MiB of
/// 4-byte tags, the scale at which direct indexing stays cache-resident and
/// beats hashing. Domain products above this fall back to a hash kernel.
inline constexpr uint64_t kDenseSlotBudget = 1ull << 18;

/// Hash-vs-sort crossover: when the estimated group count — the smaller of
/// the input row count and the packed key domain — exceeds this, the auto
/// ladder picks kSortRuns over kPackedKey. At this scale most hash probes
/// miss cache while the sort's sequential passes do not (the regime mapped
/// by the hash-vs-sort literature); below it the hash build is cheaper.
/// Mirrored by OptimizerCostModel's CostParams::sort_crossover_groups so
/// plans price the kernel the executor will actually run.
inline constexpr uint64_t kSortCrossoverGroups = 1ull << 20;

/// Per-grouping-column packing/indexing parameters.
struct KernelColumn {
  const Column* col = nullptr;
  uint64_t code_min = 0;  ///< offset subtracted from every code
  int bits = 0;           ///< exact value bit-width (Column::CodeBits)
  int shift = 0;          ///< packed: bit position of the value field
  int null_bit = -1;      ///< packed: bit position of the NULL flag (-1: none)
  uint32_t radix = 1;     ///< dense: per-column domain size (incl. NULL slot)
  uint32_t stride = 1;    ///< dense: mixed-radix multiplier
  bool nullable = false;  ///< column has NULLs
};

/// The kernel chosen for one (input, grouping) pair plus everything the
/// block key builder needs.
struct AggKernelPlan {
  AggKernel kernel = AggKernel::kMultiWord;
  std::vector<KernelColumn> cols;
  bool track_nulls = false;     ///< multi-word: a null-mask word is appended
  int key_width = 1;            ///< key words per row (1 for packed)
  int total_bits = 0;           ///< packed: value + NULL bits used (<= 64)
  uint64_t dense_capacity = 0;  ///< dense: power-of-two padded slot count
};

/// Plans the kernel for `grouping` over `input`. `preferred` is where the
/// fallback ladder starts (the test/bench forcing knob): kDenseArray tries
/// the whole ladder (including the sort crossover), kPackedKey skips dense
/// and pins the hash side of the crossover, kSortRuns pins the sort side
/// (packed-eligible inputs only), kMultiWord forces the general kernel.
/// An ineligible preference falls through to the next rung, so forcing is
/// always safe.
AggKernelPlan PlanAggKernel(const Table& input, ColumnSet grouping,
                            AggKernel preferred = AggKernel::kDenseArray);

/// Row-at-a-time group keys in the multi-word layout: one code word per
/// grouping column, then a null-mask word when any grouping column has
/// NULLs (an empty grouping is one constant word). The sort and
/// index-stream aggregations and the distinct-count statistics all key rows
/// through it, so their group counts agree exactly with the hash kernels.
class KeyBuilder {
 public:
  KeyBuilder(const Table& input, ColumnSet grouping) {
    for (int ordinal : grouping.ToVector()) {
      cols_.push_back(&input.column(ordinal));
      if (cols_.back()->has_nulls()) track_nulls_ = true;
    }
    width_ = static_cast<int>(cols_.size()) + (track_nulls_ ? 1 : 0);
    if (width_ == 0) width_ = 1;  // empty grouping set: constant key
  }

  int width() const { return width_; }

  /// Writes row `row`'s key into key[0, width()).
  void FillKey(size_t row, uint64_t* key) const {
    uint64_t null_mask = 0;
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (cols_[c]->IsNull(row)) {
        null_mask |= 1ULL << c;
        key[c] = 0;
      } else {
        key[c] = cols_[c]->CodeAt(row);
      }
    }
    if (track_nulls_) key[cols_.size()] = null_mask;
    if (cols_.empty()) key[0] = 0;
  }

 private:
  std::vector<const Column*> cols_;
  bool track_nulls_ = false;
  int width_ = 0;
};

/// Builds group keys (or dense slots) for row blocks, column-major: per
/// block, each grouping column is read through one Column::CodeBlock call
/// (a single type switch), then packed/indexed in a tight per-column loop.
/// One filler per worker; not thread-safe (holds a scratch code buffer).
class BlockKeyFiller {
 public:
  /// Rows per block: small enough that codes + keys stay L1-resident.
  static constexpr size_t kBlockRows = 1024;

  /// `simd` selects the packing loops (exec/simd.h). All key formation is
  /// pure integer arithmetic, so every tier produces bit-identical keys;
  /// the knob only changes speed.
  explicit BlockKeyFiller(const AggKernelPlan& plan,
                          SimdLevel simd = DetectedSimdLevel())
      : plan_(&plan), simd_(simd), codes_(kBlockRows) {}

  /// Packed kernel: out[i] = single-word key of row begin+i. NULL rows
  /// contribute a set NULL bit and zero value bits (count <= kBlockRows).
  void FillPacked(size_t begin, size_t count, uint64_t* out);

  /// Dense kernel: out[i] = mixed-radix slot of row begin+i, in
  /// [0, dense_capacity). NULLs take slot 0 of their column's radix.
  void FillDense(size_t begin, size_t count, uint32_t* out);

  /// Multi-word kernel: out[i * key_width ..] = key of row begin+i, in
  /// exactly the layout KeyBuilder::FillKey produces (codes, then a
  /// null-mask word when track_nulls).
  void FillMultiWord(size_t begin, size_t count, uint64_t* out);

 private:
  const AggKernelPlan* plan_;
  SimdLevel simd_;
  std::vector<uint64_t> codes_;  // scratch: one column's codes for a block
};

}  // namespace gbmqo

#endif  // GBMQO_EXEC_AGG_KERNEL_H_
