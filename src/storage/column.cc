#include "storage/column.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_map>

namespace gbmqo {

uint32_t StringDictionary::InternLocked(std::string_view v) {
  auto it = intern_.find(v);
  if (it != intern_.end()) return it->second;
  const uint64_t slot = size_ + kFirstBucketSize;
  const int b = std::bit_width(slot) - 1;
  std::unique_ptr<std::string[]>& bucket = buckets_[b - kFirstBucketLog];
  if (bucket == nullptr) {
    bucket = std::make_unique<std::string[]>(uint64_t{1} << b);
  }
  std::string& entry = bucket[slot - (uint64_t{1} << b)];
  entry.assign(v);
  const uint32_t code = static_cast<uint32_t>(size_++);
  intern_.emplace(entry, code);
  return code;
}

std::shared_ptr<StringDictionary> StringDictionary::ForkPrefix(
    const StringDictionary& src, size_t n) {
  auto fork = std::make_shared<StringDictionary>();
  fork->intern_.reserve(n);
  for (size_t code = 0; code < n; ++code) fork->InternLocked(src[code]);
  return fork;
}

Column::Column(DataType type) : type_(type) {
  if (type_ == DataType::kString) dict_ = std::make_shared<StringDictionary>();
}

std::unique_lock<std::mutex> Column::LockTipDictionary() {
  std::unique_lock<std::mutex> lock(dict_->mu_);
  if (dict_->size_ == dict_size_) return lock;
  // Some other column extended the dictionary past what this one sees;
  // extending it too would hand out codes that already mean something else.
  std::shared_ptr<StringDictionary> fork =
      StringDictionary::ForkPrefix(*dict_, dict_size_);
  lock.unlock();
  dict_ = std::move(fork);
  return std::unique_lock<std::mutex>(dict_->mu_);
}

void Column::AppendNotNull() {
  if (!null_bitmap_.empty()) {
    // Bitmap exists; grow it with a cleared bit for this row.
    const size_t word = rows_ >> 6;
    if (word >= null_bitmap_.size()) null_bitmap_.push_back(0);
  }
  ++rows_;
}

void Column::NoteCode(uint64_t code) {
  if (!has_code_range_) {
    code_min_ = code_max_ = code;
    has_code_range_ = true;
    return;
  }
  if (type_ == DataType::kInt64) {
    // Signed order: INT64_MIN's bit pattern must compare below INT64_MAX's.
    const int64_t s = static_cast<int64_t>(code);
    if (s < static_cast<int64_t>(code_min_)) code_min_ = code;
    if (s > static_cast<int64_t>(code_max_)) code_max_ = code;
  } else {
    if (code < code_min_) code_min_ = code;
    if (code > code_max_) code_max_ = code;
  }
}

uint32_t Column::InternString(std::string_view v) {
  std::unique_lock<std::mutex> lock = LockTipDictionary();
  const uint32_t code = dict_->InternLocked(v);
  dict_size_ = dict_->size_;
  return code;
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64);
  int64_data_.push_back(v);
  NoteCode(static_cast<uint64_t>(v));
  AppendNotNull();
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  double_data_.push_back(v);
  NoteCode(std::bit_cast<uint64_t>(v));
  AppendNotNull();
}

void Column::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  const uint32_t code = InternString(v);
  string_codes_.push_back(code);
  string_bytes_ += v.size();
  NoteCode(code);
  AppendNotNull();
}

void Column::AppendNull() {
  // Lazily materialize the bitmap covering all rows so far.
  if (null_bitmap_.empty()) {
    null_bitmap_.assign((rows_ >> 6) + 1, 0);
  }
  const size_t row = rows_;
  const size_t word = row >> 6;
  while (word >= null_bitmap_.size()) null_bitmap_.push_back(0);
  null_bitmap_[word] |= 1ULL << (row & 63);
  ++null_count_;
  // Keep the value arrays aligned with row indices using a placeholder.
  switch (type_) {
    case DataType::kInt64:
      int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      double_data_.push_back(0.0);
      break;
    case DataType::kString:
      // Intern the empty string as the NULL placeholder; the null bitmap is
      // what distinguishes NULL from an actual empty string at read time.
      // The placeholder is excluded from the code range (NoteCode is not
      // called) so an all-NULL column keeps CodeBits() == 0.
      string_codes_.push_back(InternString(""));
      break;
  }
  ++rows_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::InvalidArgument("expected INT64 value");
      }
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::InvalidArgument("expected DOUBLE value");
      }
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::InvalidArgument("expected STRING value");
      }
      AppendString(v.str());
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

void Column::AppendFrom(const Column& other, size_t row) {
  assert(other.type_ == type_);
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(other.int64_data_[row]);
      break;
    case DataType::kDouble:
      AppendDouble(other.double_data_[row]);
      break;
    case DataType::kString:
      AppendString(other.StringAt(row));
      break;
  }
}

void Column::AppendRangeFrom(const Column& other, size_t begin, size_t count) {
  assert(other.type_ == type_);
  if (count == 0) return;
  if (other.has_nulls() || type_ == DataType::kString) {
    GatherRows(other, count, [begin](size_t i) { return begin + i; });
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      int64_data_.append(other.int64_data_.data() + begin, count);
      break;
    case DataType::kDouble:
      double_data_.append(other.double_data_.data() + begin, count);
      break;
    case DataType::kString:
      break;  // handled above
  }
  // Fold the source's code range in once instead of per row. The source
  // range over [begin, begin+count) is bounded by its whole-column range;
  // using the whole range only widens CodeBits, never breaks the "every
  // offset code fits" contract the kernels rely on.
  if (other.has_code_range_) {
    NoteCode(other.code_min_);
    NoteCode(other.code_max_);
  }
  AppendNullBits(nullptr, count, 0);
}

void Column::AppendGather(const Column& src, const uint32_t* rows, size_t n) {
  GatherRows(src, n, [rows](size_t i) -> size_t { return rows[i]; });
}

template <typename RowAt>
void Column::GatherRows(const Column& src, size_t n, RowAt row_at) {
  assert(src.type_ == type_ && &src != this);
  if (n == 0) return;
  if (type_ == DataType::kString) {
    GatherStrings(src, n, row_at, string_codes_.extend(n));
    return;
  }
  std::vector<uint64_t> null_words;
  if (src.has_nulls()) {
    null_words.assign((n + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      null_words[i >> 6] |= uint64_t{src.IsNull(row_at(i))} << (i & 63);
    }
  }
  const uint64_t* nulls = null_words.empty() ? nullptr : null_words.data();
  if (type_ == DataType::kInt64) {
    const int64_t* data = src.int64_data();
    AppendNumeric<int64_t>(
        n, [&](size_t i) { return data[row_at(i)]; }, nulls);
  } else {
    const double* data = src.double_data();
    AppendNumeric<double>(
        n, [&](size_t i) { return data[row_at(i)]; }, nulls);
  }
}

template <typename RowAt>
void Column::GatherStrings(const Column& src, size_t n, RowAt row_at,
                           uint32_t* out) {
  constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t> null_words;
  size_t nulls = 0;
  uint32_t null_code = kUnmapped;
  uint32_t lo = kUnmapped;
  uint32_t hi = 0;
  std::unique_lock<std::mutex> lock = LockTipDictionary();
  // `slot(code)` is the output code remapped from source code `code`,
  // kUnmapped until this call first interns that code's string.
  const auto gather = [&](auto&& slot) {
    for (size_t i = 0; i < n; ++i) {
      const size_t row = row_at(i);
      if (src.IsNull(row)) {
        // AppendNull's placeholder: "" interned at the first NULL.
        if (null_code == kUnmapped) null_code = dict_->InternLocked("");
        out[i] = null_code;
        if (null_words.empty()) null_words.assign((n + 63) / 64, 0);
        null_words[i >> 6] |= uint64_t{1} << (i & 63);
        ++nulls;
        continue;
      }
      const uint32_t src_code = src.string_codes_[row];
      const std::string& value = src.DictEntry(src_code);
      uint32_t& code = slot(src_code);
      if (code == kUnmapped) code = dict_->InternLocked(value);
      out[i] = code;
      string_bytes_ += value.size();
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
  };
  if (src.dict_size_ <= kDenseRemapEntriesPerRow * n) {
    std::vector<uint32_t> remap(src.dict_size_, kUnmapped);
    gather([&](uint32_t code) -> uint32_t& { return remap[code]; });
  } else {
    // A source dictionary far larger than the gather (a high-cardinality
    // column read through few rows) gets a map over the codes it meets.
    std::unordered_map<uint32_t, uint32_t> remap;
    gather([&](uint32_t code) -> uint32_t& {
      return remap.try_emplace(code, kUnmapped).first->second;
    });
  }
  dict_size_ = dict_->size_;
  lock.unlock();
  if (nulls < n) {
    NoteCode(lo);
    NoteCode(hi);
  }
  AppendNullBits(null_words.empty() ? nullptr : null_words.data(), n, nulls);
}

void Column::AppendInt64s(const int64_t* values, size_t n,
                          const uint64_t* null_words) {
  assert(type_ == DataType::kInt64);
  AppendNumeric<int64_t>(
      n, [values](size_t i) { return values[i]; }, null_words);
}

void Column::AppendDoubles(const double* values, size_t n,
                           const uint64_t* null_words) {
  assert(type_ == DataType::kDouble);
  AppendNumeric<double>(
      n, [values](size_t i) { return values[i]; }, null_words);
}

template <typename T, typename ValueOf>
void Column::AppendNumeric(size_t n, ValueOf value_of,
                           const uint64_t* null_words) {
  SharedArray<T>& data = [this]() -> SharedArray<T>& {
    if constexpr (std::is_same_v<T, int64_t>) {
      return int64_data_;
    } else {
      return double_data_;
    }
  }();
  // Codes compare as NoteCode orders them: signed for INT64, as unsigned
  // bit patterns for DOUBLE.
  using Ordered = std::conditional_t<std::is_same_v<T, int64_t>, int64_t,
                                     uint64_t>;
  Ordered lo = std::numeric_limits<Ordered>::max();
  Ordered hi = std::numeric_limits<Ordered>::min();
  T* out = data.extend(n);
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    if (null_words != nullptr && ((null_words[i >> 6] >> (i & 63)) & 1)) {
      out[i] = T{};  // AppendNull's placeholder
      ++nulls;
      continue;
    }
    const T v = value_of(i);
    out[i] = v;
    const Ordered code = std::bit_cast<Ordered>(v);
    lo = std::min(lo, code);
    hi = std::max(hi, code);
  }
  if (nulls < n) {
    NoteCode(std::bit_cast<uint64_t>(lo));
    NoteCode(std::bit_cast<uint64_t>(hi));
  }
  AppendNullBits(null_words, n, nulls);
}

void Column::AppendNullBits(const uint64_t* words, size_t n, size_t nulls) {
  const size_t end = rows_ + n;
  // Per-row appends allocate the bitmap at the first NULL and from then on
  // keep a word for every started 64 rows.
  if (nulls > 0 || !null_bitmap_.empty()) {
    null_bitmap_.resize(std::max(null_bitmap_.size(), (end + 63) / 64), 0);
  }
  if (nulls > 0) {
    const size_t first = rows_ >> 6;
    const int shift = static_cast<int>(rows_ & 63);
    const size_t nwords = (n + 63) / 64;
    for (size_t j = 0; j < nwords; ++j) {
      uint64_t w = words[j];
      if (j + 1 == nwords && (n & 63) != 0) w &= (uint64_t{1} << (n & 63)) - 1;
      null_bitmap_[first + j] |= w << shift;
      if (shift != 0 && first + j + 1 < null_bitmap_.size()) {
        null_bitmap_[first + j + 1] |= w >> (64 - shift);
      }
    }
  }
  null_count_ += nulls;
  rows_ = end;
}

ColumnPtr Column::Concat(const Column& head, const Column& tail) {
  assert(head.type_ == tail.type_);
  auto out = std::make_shared<Column>(head.type_);
  out->rows_ = head.rows_;
  out->null_count_ = head.null_count_;
  out->null_bitmap_ = head.null_bitmap_;
  out->has_code_range_ = head.has_code_range_;
  out->code_min_ = head.code_min_;
  out->code_max_ = head.code_max_;
  switch (head.type_) {
    case DataType::kInt64:
      out->int64_data_ = SharedArray<int64_t>::Concat(
          head.int64_data_, tail.int64_data_.data(), tail.rows_);
      break;
    case DataType::kDouble:
      out->double_data_ = SharedArray<double>::Concat(
          head.double_data_, tail.double_data_.data(), tail.rows_);
      break;
    case DataType::kString: {
      // The tail's values are interned into head's dictionary (forked if
      // head is not its tip) in row order, as per-row appends would.
      out->dict_ = head.dict_;
      out->dict_size_ = head.dict_size_;
      out->string_bytes_ = head.string_bytes_;
      std::vector<uint32_t> codes(tail.rows_);
      if (tail.rows_ > 0) {
        out->GatherStrings(tail, tail.rows_, [](size_t i) { return i; },
                           codes.data());
      }
      out->string_codes_ = SharedArray<uint32_t>::Concat(
          head.string_codes_, codes.data(), codes.size());
      return out;
    }
  }
  // Head words copy as is, tail words shift in.
  out->AppendNullBits(tail.null_words(), tail.rows_, tail.null_count_);
  if (tail.has_code_range_) {
    out->NoteCode(tail.code_min_);
    out->NoteCode(tail.code_max_);
  }
  return out;
}

Status Column::AdoptNullWords(std::vector<uint64_t> null_words) {
  if (null_words.empty()) return Status::OK();
  if (null_words.size() != (rows_ + 63) / 64) {
    return Status::Internal("null bitmap has " +
                            std::to_string(null_words.size()) +
                            " words for " + std::to_string(rows_) + " rows");
  }
  if ((rows_ & 63) != 0 && (null_words.back() >> (rows_ & 63)) != 0) {
    return Status::Internal("null bitmap marks a row past the last one");
  }
  size_t nulls = 0;
  for (uint64_t w : null_words) nulls += static_cast<size_t>(std::popcount(w));
  // Appends only allocate a bitmap on the first NULL.
  if (nulls == 0) return Status::OK();
  null_count_ = nulls;
  null_bitmap_ = std::move(null_words);
  return Status::OK();
}

Result<ColumnPtr> Column::FromInt64s(const std::vector<int64_t>& values,
                                     std::vector<uint64_t> null_words) {
  auto col = std::make_shared<Column>(DataType::kInt64);
  col->rows_ = values.size();
  col->int64_data_.append(values.data(), values.size());
  GBMQO_RETURN_NOT_OK(col->AdoptNullWords(std::move(null_words)));
  GBMQO_RETURN_NOT_OK(col->NoteDecodedNumericCodes());
  return col;
}

Result<ColumnPtr> Column::FromDoubles(const std::vector<double>& values,
                                      std::vector<uint64_t> null_words) {
  auto col = std::make_shared<Column>(DataType::kDouble);
  col->rows_ = values.size();
  col->double_data_.append(values.data(), values.size());
  GBMQO_RETURN_NOT_OK(col->AdoptNullWords(std::move(null_words)));
  GBMQO_RETURN_NOT_OK(col->NoteDecodedNumericCodes());
  return col;
}

Status Column::NoteDecodedNumericCodes() {
  for (size_t row = 0; row < rows_; ++row) {
    const uint64_t code = CodeAt(row);
    if (!IsNull(row)) {
      NoteCode(code);
    } else if (code != 0) {
      return Status::Internal("NULL row " + std::to_string(row) +
                              " holds a nonzero placeholder");
    }
  }
  return Status::OK();
}

Result<ColumnPtr> Column::FromStrings(
    const std::vector<uint32_t>& codes,
    const std::vector<std::string>& dictionary,
    std::vector<uint64_t> null_words) {
  auto col = std::make_shared<Column>(DataType::kString);
  col->rows_ = codes.size();
  GBMQO_RETURN_NOT_OK(col->AdoptNullWords(std::move(null_words)));
  // The dictionary is still private to `col`: no lock needed.
  StringDictionary& dict = *col->dict_;
  dict.intern_.reserve(dictionary.size());
  for (size_t entry = 0; entry < dictionary.size(); ++entry) {
    const uint32_t code = dict.InternLocked(dictionary[entry]);
    if (code != entry) {
      return Status::Internal("dictionary entry " + std::to_string(entry) +
                              " duplicates entry " + std::to_string(code));
    }
  }
  col->dict_size_ = dict.size_;
  // Per-row appends number values by first appearance, so the codes must
  // first appear as 0, 1, 2, ... and use every entry.
  size_t next = 0;
  for (size_t row = 0; row < col->rows_; ++row) {
    const uint32_t code = codes[row];
    if (code >= dict.size_) {
      return Status::Internal("row " + std::to_string(row) + " has code " +
                              std::to_string(code) + " past the " +
                              std::to_string(dict.size_) +
                              "-entry dictionary");
    }
    if (code > next) {
      return Status::Internal("row " + std::to_string(row) + " has code " +
                              std::to_string(code) + " before any row has " +
                              std::to_string(next));
    }
    if (code == next) ++next;
    if (col->IsNull(row)) {
      if (!dict[code].empty()) {
        return Status::Internal("NULL row " + std::to_string(row) +
                                " is not coded as the empty string");
      }
      continue;
    }
    col->NoteCode(code);
    col->string_bytes_ += dict[code].size();
  }
  if (next != dict.size_) {
    return Status::Internal("dictionary entry " + std::to_string(next) +
                            " is used by no row");
  }
  col->string_codes_.append(codes.data(), codes.size());
  return col;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      int64_data_.reserve(n);
      break;
    case DataType::kDouble:
      double_data_.reserve(n);
      break;
    case DataType::kString:
      string_codes_.reserve(n);
      break;
  }
  if (!null_bitmap_.empty()) null_bitmap_.reserve(((rows_ + n) >> 6) + 1);
}

uint64_t Column::NullWord(size_t begin, size_t count) const {
  assert(count <= 64);
  if (null_bitmap_.empty() || count == 0) return 0;
  const size_t w0 = begin >> 6;
  const int off = static_cast<int>(begin & 63);
  uint64_t w = null_bitmap_[w0] >> off;
  if (off != 0 && w0 + 1 < null_bitmap_.size()) {
    w |= null_bitmap_[w0 + 1] << (64 - off);
  }
  if (count < 64) w &= (uint64_t{1} << count) - 1;
  return w;
}

void Column::CodeBlock(size_t begin, size_t count, uint64_t* out) const {
  switch (type_) {
    case DataType::kInt64:
      // int64/double codes are the 8-byte bit patterns: one memcpy.
      std::memcpy(out, int64_data_.data() + begin, count * sizeof(uint64_t));
      break;
    case DataType::kDouble:
      std::memcpy(out, double_data_.data() + begin, count * sizeof(uint64_t));
      break;
    case DataType::kString:
      for (size_t i = 0; i < count; ++i) {
        out[i] = string_codes_[begin + i];
      }
      break;
  }
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value(Null{});
  switch (type_) {
    case DataType::kInt64:
      return Value(int64_data_[row]);
    case DataType::kDouble:
      return Value(double_data_[row]);
    case DataType::kString:
      return Value(StringAt(row));
  }
  return Value(Null{});
}

size_t Column::ByteSize() const {
  size_t bytes = null_bitmap_.size() * sizeof(uint64_t);
  switch (type_) {
    case DataType::kInt64:
      bytes += int64_data_.size() * sizeof(int64_t);
      break;
    case DataType::kDouble:
      bytes += double_data_.size() * sizeof(double);
      break;
    case DataType::kString:
      bytes += string_codes_.size() * sizeof(uint32_t);
      // Count referenced string payload once per row occurrence (this models
      // the row-store width a DBMS temp table would have).
      bytes += string_bytes_;
      break;
  }
  return bytes;
}

double Column::AvgWidthBytes() const {
  if (rows_ == 0) {
    // Nothing stored to average over (ByteSize()/rows_ would divide by
    // zero): report the type's nominal width. 16 bytes for strings matches
    // the generators' typical interned length.
    return type_ == DataType::kString ? 16.0
                                      : static_cast<double>(FixedWidthBytes(type_));
  }
  // Includes the per-row storage of NULL rows (placeholder slots + bitmap),
  // so an all-NULL string column is ~4.x bytes/row (codes + bitmap, no
  // payload) rather than 0 — the dictionary payload is never double-counted
  // because ByteSize() charges it per occurrence, not per dictionary entry.
  const double w = static_cast<double>(ByteSize()) / static_cast<double>(rows_);
  return w < 1.0 ? 1.0 : w;
}

}  // namespace gbmqo
