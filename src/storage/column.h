// Column: typed, append-only columnar storage with a null bitmap.
//
// Group-by execution works on *group codes*: every column exposes a 64-bit
// code per row such that two non-null rows have equal codes iff their values
// are equal. For INT64/DOUBLE the code is the bit pattern; for STRING it is
// a dictionary code (strings are interned on append). NULLs are tracked in a
// separate bitmap and folded into group keys by the executor.
//
// Successive generations of one column (Column::Concat) share storage: the
// value arrays are SharedArrays and a STRING column's dictionary is a
// StringDictionary. Both only ever grow, and each column sees the prefix
// that existed when it was built.
#ifndef GBMQO_STORAGE_COLUMN_H_
#define GBMQO_STORAGE_COLUMN_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace gbmqo {

class Column;
using ColumnPtr = std::shared_ptr<Column>;

/// A column's contiguous value array, append-only and shared by the
/// generations Column::Concat builds from one another. A handle sees the
/// first size() elements of its block, which never change afterwards, so
/// readers need no lock. Concat extends a block in place only from its tip
/// — the handle whose size is the block's length — and only while the block
/// has room; per-row appends extend in place only while no other handle
/// shares the block. Anything else moves the handle to a new block holding
/// a copy of its prefix.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;
  SharedArray(SharedArray&&) = default;
  SharedArray& operator=(SharedArray&&) = default;

  size_t size() const { return size_; }
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }

  void push_back(T v) {
    if (size_ == capacity_ || shared()) {
      MoveTo(std::max<size_t>(16, 2 * size_));
    }
    data_[size_++] = v;
  }
  void append(const T* src, size_t n) {
    if (n == 0) return;
    if (size_ + n > capacity_ || shared()) {
      MoveTo(std::max(size_ + n, 2 * size_));
    }
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }
  void reserve(size_t n) {
    if (n > capacity_ || (n > size_ && shared())) MoveTo(n);
  }
  /// Appends n uninitialized elements and returns them for the caller to
  /// fill; on the same terms as append().
  T* extend(size_t n) {
    if (size_ + n > capacity_ || shared()) {
      MoveTo(std::max(size_ + n, 2 * size_));
    }
    size_ += n;
    return data_ + size_ - n;
  }

  /// `head`'s elements followed by tail[0, n): written into `head`'s block
  /// when `head` is its tip and it has room, else into a new block with
  /// room for as many elements again.
  static SharedArray Concat(const SharedArray& head, const T* tail, size_t n) {
    SharedArray out;
    if (head.block_ != nullptr) {
      Block& block = *head.block_;
      std::lock_guard<std::mutex> lock(block.mu);
      // An unshared block has one handle, `head`, which is its tip.
      const bool tip = !block.shared.load(std::memory_order_relaxed) ||
                       block.length == head.size_;
      if (tip && head.size_ + n <= head.capacity_) {
        if (n > 0) std::memcpy(head.data_ + head.size_, tail, n * sizeof(T));
        block.length = head.size_ + n;
        block.shared.store(true, std::memory_order_relaxed);
        out.block_ = head.block_;
        out.data_ = head.data_;
        out.capacity_ = head.capacity_;
        out.size_ = head.size_ + n;
        return out;
      }
    }
    out.MoveTo(2 * (head.size_ + n));
    out.append(head.data_, head.size_);
    out.append(tail, n);
    return out;
  }

 private:
  struct Block {
    explicit Block(size_t cap) : data(new T[cap]) {}
    std::unique_ptr<T[]> data;
    std::mutex mu;
    // Set, under mu, once a second handle shares the block; from then on
    // `length` (guarded by mu) counts the elements written.
    std::atomic<bool> shared{false};
    size_t length = 0;
  };

  bool shared() const {
    return block_ != nullptr && block_->shared.load(std::memory_order_relaxed);
  }

  /// Moves this handle to a new private block of `capacity` (>= size_)
  /// elements holding a copy of its prefix.
  void MoveTo(size_t capacity) {
    auto block = std::make_shared<Block>(capacity);
    if (size_ > 0) std::memcpy(block->data.get(), data_, size_ * sizeof(T));
    block_ = std::move(block);
    data_ = block_->data.get();
    capacity_ = capacity;
  }

  std::shared_ptr<Block> block_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// Append-only string dictionary, shared by every generation of a STRING
/// column that Column::Concat extended from the previous one. Entries live
/// in power-of-two buckets behind a fixed pointer array, so an entry never
/// moves once written: a reader looks up any code below its own column's
/// visible size without a lock while a writer appends further entries.
/// Writers — and only writers touch the intern map — hold mu_.
class StringDictionary {
 public:
  StringDictionary() = default;
  StringDictionary(const StringDictionary&) = delete;
  StringDictionary& operator=(const StringDictionary&) = delete;

  /// Entry `code`. Lock-free; valid for codes below the size of the column
  /// the caller reads through.
  const std::string& operator[](uint64_t code) const {
    const uint64_t slot = code + kFirstBucketSize;
    const int b = std::bit_width(slot) - 1;
    return buckets_[b - kFirstBucketLog][slot - (uint64_t{1} << b)];
  }

 private:
  friend class Column;

  static constexpr int kFirstBucketLog = 4;
  static constexpr uint64_t kFirstBucketSize = uint64_t{1} << kFirstBucketLog;
  // Bucket b holds 2^(b + kFirstBucketLog) entries; 29 buckets cover every
  // uint32_t code.
  static constexpr int kBuckets = 33 - kFirstBucketLog;

  /// The code of `v`, appending it as a new entry if absent. Requires mu_
  /// (or a dictionary no other column can reach yet).
  uint32_t InternLocked(std::string_view v);

  /// A new dictionary holding the first `n` entries of `src`.
  static std::shared_ptr<StringDictionary> ForkPrefix(
      const StringDictionary& src, size_t n);

  std::unique_ptr<std::string[]> buckets_[kBuckets];
  std::mutex mu_;
  size_t size_ = 0;  // guarded by mu_
  std::unordered_map<std::string_view, uint32_t> intern_;  // guarded by mu_
};

/// One column of a table. Owned by Table via shared_ptr so projected /
/// derived tables can share storage without copying.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return rows_; }

  // ---- Append interface (used by data generators and materialization) ----

  /// Appends a typed value. The overload must match the column type.
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  /// Appends a Value, checking type compatibility.
  Status AppendValue(const Value& v);

  /// Appends row `row` of `other` (same type required). One row at a time:
  /// bulk copies use AppendGather or AppendRangeFrom.
  void AppendFrom(const Column& other, size_t row);

  /// Appends rows rows[0, n) of `src` (same type, and not this column):
  /// the column n AppendFrom calls would build, equal in values, string
  /// codes and dictionary, NULL placeholders, code range, null bitmap and
  /// ByteSize. A numeric gather is one copy loop and one code-range update.
  /// A string gather takes the dictionary lock once and interns each
  /// distinct source code once, through a remap table over the source
  /// dictionary while that has at most kDenseRemapEntriesPerRow entries per
  /// gathered row, else through a hash map. Calls chain: a column gathered
  /// piecewise equals one gathered at once. Builds group-by output from
  /// each group's representative row (exec/query_executor.h).
  void AppendGather(const Column& src, const uint32_t* rows, size_t n);
  static constexpr size_t kDenseRemapEntriesPerRow = 8;

  /// Bulk-appends rows [begin, begin+count) of `other` (same type
  /// required). Copies no-NULL numeric ranges wholesale, noting the
  /// source's whole code range; strings and NULLs go through the gather,
  /// equal to count AppendFrom calls. Used to copy runs of filter survivors
  /// (exec/predicate.h).
  void AppendRangeFrom(const Column& other, size_t begin, size_t count);

  /// Appends values[0, n) of an INT64 (DOUBLE) column, equal to n
  /// AppendInt64 (AppendDouble) calls — except that a row whose bit is set
  /// in `null_words` (bit i of word i / 64; nullptr for no NULLs) is
  /// appended as AppendNull would, ignoring its value.
  void AppendInt64s(const int64_t* values, size_t n,
                    const uint64_t* null_words = nullptr);
  void AppendDoubles(const double* values, size_t n,
                     const uint64_t* null_words = nullptr);

  /// A new column holding the rows of `head` followed by the rows of `tail`
  /// (same type required) — equal, codes and metadata included, to appending
  /// every row of both one by one. Costs O(tail) plus a copy of the null
  /// bitmap: the result shares `head`'s value arrays (SharedArray) and, for
  /// STRING, its dictionary, interning only the tail's values into it.
  /// Where `head` is not the tip of what it shares, the result copies
  /// `head`'s visible prefix instead. Readers of `head` are unaffected and
  /// need no lock. Builds each ingest generation from the last
  /// (storage/ingest.h) and each maintained aggregate's input
  /// (core/delta_maintenance.h).
  static ColumnPtr Concat(const Column& head, const Column& tail);

  /// Bulk construction for decoders (storage/checkpoint.h): one value (or
  /// dictionary code) per row plus the null bitmap words (`null_words`
  /// empty, or one bit per row with NULL rows set). Returns the column that
  /// appending those rows one by one would build, or Internal when no append
  /// sequence yields these arrays: a NULL row with a nonzero placeholder, a
  /// bitmap bit past the last row, and for strings a duplicate dictionary
  /// entry, a code out of range, a NULL row not coded as "", or codes whose
  /// first appearances are not 0, 1, 2, ... with every entry used.
  static Result<ColumnPtr> FromInt64s(const std::vector<int64_t>& values,
                                      std::vector<uint64_t> null_words);
  static Result<ColumnPtr> FromDoubles(const std::vector<double>& values,
                                       std::vector<uint64_t> null_words);
  static Result<ColumnPtr> FromStrings(
      const std::vector<uint32_t>& codes,
      const std::vector<std::string>& dictionary,
      std::vector<uint64_t> null_words);

  /// Reserves space for n rows.
  void Reserve(size_t n);

  // ---- Read interface ----

  bool IsNull(size_t row) const {
    if (null_bitmap_.empty()) return false;
    return (null_bitmap_[row >> 6] >> (row & 63)) & 1;
  }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  /// 64-bit group code for the row; meaningless if IsNull(row).
  uint64_t CodeAt(size_t row) const {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<uint64_t>(int64_data_[row]);
      case DataType::kDouble:
        return std::bit_cast<uint64_t>(double_data_[row]);
      case DataType::kString:
        return string_codes_[row];
    }
    return 0;
  }

  int64_t Int64At(size_t row) const { return int64_data_[row]; }
  double DoubleAt(size_t row) const { return double_data_[row]; }
  const std::string& StringAt(size_t row) const {
    return (*dict_)[string_codes_[row]];
  }
  /// Numeric view of the row (int64 widened to double); 0 for NULL/string.
  double NumericAt(size_t row) const {
    if (IsNull(row)) return 0.0;
    if (type_ == DataType::kInt64) return static_cast<double>(int64_data_[row]);
    if (type_ == DataType::kDouble) return double_data_[row];
    return 0.0;
  }

  /// Dynamically-typed cell (boundary/test use only).
  Value ValueAt(size_t row) const;

  // ---- Raw typed storage (vectorized execution) ----
  //
  // Direct pointers into the value arrays for block-at-a-time kernels
  // (exec/simd.h consumers). Valid for size() rows of the matching type;
  // NULL rows hold their placeholders (0 / 0.0 / the ""-code), so callers
  // must mask with the null bitmap.
  const int64_t* int64_data() const { return int64_data_.data(); }
  const double* double_data() const { return double_data_.data(); }
  const uint32_t* string_codes() const { return string_codes_.data(); }

  /// Null-bitmap words: bit (row & 63) of word (row >> 6) is set iff the
  /// row is NULL; bits past size() are clear. nullptr when no NULL was ever
  /// appended (the bitmap is lazily allocated).
  const uint64_t* null_words() const {
    return null_bitmap_.empty() ? nullptr : null_bitmap_.data();
  }

  /// The null bits of rows [begin, begin+count), count <= 64, packed into
  /// bits 0..count-1 of the result (bit i = row begin+i is NULL). 0 when
  /// the column has no bitmap. Lets block loops test "any NULL in this
  /// chunk" in one word even when begin is not word-aligned.
  uint64_t NullWord(size_t begin, size_t count) const;

  /// The interned string for a dictionary code below dict_size() (STRING
  /// columns only).
  const std::string& DictEntry(uint64_t code) const { return (*dict_)[code]; }
  /// Dictionary entries this column sees: exactly the distinct codes of its
  /// rows, numbered in order of first appearance.
  size_t dict_size() const { return dict_size_; }

  // ---- Code-domain metadata (aggregation kernel selection) ----
  //
  // Appends maintain the min/max group code over non-NULL rows, so the
  // executor can compute an exact per-column code bit-width and pick a
  // packed or dense aggregation kernel (see exec/agg_kernel.h). The
  // min/max are raw 64-bit codes compared in type order: signed for INT64
  // (bit patterns of INT64_MIN and INT64_MAX bracket correctly), unsigned
  // for DOUBLE bit patterns and dictionary codes.

  /// True once at least one non-NULL value has been appended. While false,
  /// CodeRangeMin()/CodeRange() are 0 and CodeBits() is 0 (an empty or
  /// all-NULL column contributes no value bits to a packed key).
  bool HasCodeRange() const { return has_code_range_; }

  /// Smallest group code among non-NULL rows — the offset the packed and
  /// dense kernels subtract before packing. For INT64 this is the bit
  /// pattern of the signed minimum, so CodeAt(row) - CodeRangeMin() in
  /// wrapping uint64 arithmetic always lands in [0, CodeRange()].
  uint64_t CodeRangeMin() const { return code_min_; }

  /// Largest offset code: max code - min code in wrapping uint64
  /// arithmetic. 0 when the column is empty, all-NULL, or single-valued.
  uint64_t CodeRange() const { return code_max_ - code_min_; }

  /// Exact bits needed to represent CodeAt(row) - CodeRangeMin() for every
  /// non-NULL row: 0 (no bits needed) through 64 (full-range INT64).
  int CodeBits() const {
    const uint64_t range = CodeRange();
    return range == 0 ? 0 : std::bit_width(range);
  }

  /// Writes CodeAt(row) for rows [begin, begin+count) into out[0..count),
  /// with one type dispatch for the whole block instead of one per row.
  /// NULL rows yield their placeholder code; callers mask them via IsNull.
  void CodeBlock(size_t begin, size_t count, uint64_t* out) const;

  /// Approximate in-memory footprint of the column data in bytes, used for
  /// temp-table storage accounting and the optimizer's row-width estimates.
  /// Counts the null bitmap, the typed value array (placeholders included,
  /// so all-NULL columns still have a width), and for STRING columns the
  /// 4-byte dictionary codes plus the referenced payload bytes counted once
  /// per row *occurrence* — modelling the row-store width a DBMS temp table
  /// would have, not this engine's dictionary-compressed footprint.
  size_t ByteSize() const;

  /// Average bytes per row: ByteSize() / size(), clamped to >= 1. Empty
  /// columns (size() == 0 — nothing to divide by) report the type's nominal
  /// width instead: FixedWidthBytes for numerics, 16 bytes for strings.
  double AvgWidthBytes() const;

 private:
  void AppendNotNull();
  void NoteCode(uint64_t code);
  /// The bulk appends: `row_at(i)` is the source row of new row i.
  template <typename RowAt>
  void GatherRows(const Column& src, size_t n, RowAt row_at);
  /// The string gather, writing the n new codes to `out` (the caller's
  /// share of the code array).
  template <typename RowAt>
  void GatherStrings(const Column& src, size_t n, RowAt row_at,
                     uint32_t* out);
  /// Writes n numeric rows, value_of(i) for the non-NULL ones, into the
  /// value array of type T; then AppendNullBits.
  template <typename T, typename ValueOf>
  void AppendNumeric(size_t n, ValueOf value_of, const uint64_t* null_words);
  /// Finishes a bulk append of n rows whose values are written: shifts
  /// their `nulls` NULL bits (`words` as in AppendInt64s) into the bitmap,
  /// sized as per-row appends would leave it, and advances the row count.
  void AppendNullBits(const uint64_t* words, size_t n, size_t nulls);
  uint32_t InternString(std::string_view v);
  /// Locks the dictionary this column may extend: its own when it is the
  /// tip, else a private fork of its visible prefix, which it adopts.
  std::unique_lock<std::mutex> LockTipDictionary();
  /// Shared tail of the FromX decoders: validates the bitmap against rows_
  /// and adopts it (dropped when it marks no row).
  Status AdoptNullWords(std::vector<uint64_t> null_words);
  /// Numeric tail of the FromX decoders: notes every non-NULL code and
  /// checks NULL rows hold the placeholder 0.
  Status NoteDecodedNumericCodes();

  DataType type_;
  size_t rows_ = 0;
  size_t null_count_ = 0;

  // Min/max group code over non-NULL rows (see HasCodeRange()).
  bool has_code_range_ = false;
  uint64_t code_min_ = 0;
  uint64_t code_max_ = 0;

  SharedArray<int64_t> int64_data_;
  SharedArray<double> double_data_;

  // STRING: dictionary-encoded. codes index into the first dict_size_
  // entries of dict_, which later generations may have extended.
  SharedArray<uint32_t> string_codes_;
  std::shared_ptr<StringDictionary> dict_;
  size_t dict_size_ = 0;
  size_t string_bytes_ = 0;  // total interned bytes referenced by rows

  // Lazily allocated: empty means "no nulls so far". Private to the column:
  // Concat copies it, because a generation's last word takes later rows.
  std::vector<uint64_t> null_bitmap_;
};

}  // namespace gbmqo

#endif  // GBMQO_STORAGE_COLUMN_H_
