#include "storage/column.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

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
  Reserve(rows_ + count);
  // The slow path handles NULLs and string re-interning row by row; the
  // numeric no-NULL case is the one worth making a bulk copy.
  if (other.has_nulls() || type_ == DataType::kString) {
    for (size_t i = 0; i < count; ++i) AppendFrom(other, begin + i);
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
  if (!null_bitmap_.empty()) {
    // This column tracked NULLs before; extend the bitmap with cleared bits.
    const size_t words = ((rows_ + count) >> 6) + 1;
    null_bitmap_.resize(words, 0);
  }
  rows_ += count;
}

ColumnPtr Column::Concat(const Column& head, const Column& tail) {
  assert(head.type_ == tail.type_);
  auto out = std::make_shared<Column>(head.type_);
  out->rows_ = head.rows_ + tail.rows_;
  out->null_count_ = head.null_count_ + tail.null_count_;
  out->has_code_range_ = head.has_code_range_;
  out->code_min_ = head.code_min_;
  out->code_max_ = head.code_max_;
  // The bitmap an append sequence leaves: none without NULLs, else one word
  // per started 64 rows. Head words copy as is, tail words shift in.
  if (out->null_count_ > 0) {
    std::vector<uint64_t>& bits = out->null_bitmap_;
    bits.assign((out->rows_ + 63) / 64, 0);
    std::copy_n(head.null_bitmap_.begin(),
                std::min(head.null_bitmap_.size(), bits.size()), bits.begin());
    const size_t first = head.rows_ >> 6;
    const int shift = static_cast<int>(head.rows_ & 63);
    const size_t tail_words =
        std::min(tail.null_bitmap_.size(), (tail.rows_ + 63) / 64);
    for (size_t j = 0; j < tail_words; ++j) {
      const uint64_t w = tail.null_bitmap_[j];
      bits[first + j] |= w << shift;
      if (shift != 0 && first + j + 1 < bits.size()) {
        bits[first + j + 1] |= w >> (64 - shift);
      }
    }
  }
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
      out->string_bytes_ = head.string_bytes_ + tail.string_bytes_;
      out->dict_ = head.dict_;
      out->dict_size_ = head.dict_size_;
      // Intern the tail's values in row order, each on its first
      // appearance — the order per-row appends would intern them in — and
      // translate its codes through `remap`.
      constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();
      std::vector<uint32_t> remap(tail.dict_size_, kUnmapped);
      std::vector<uint32_t> codes(tail.rows_);
      std::unique_lock<std::mutex> lock = out->LockTipDictionary();
      for (size_t row = 0; row < tail.rows_; ++row) {
        const uint32_t tail_code = tail.string_codes_[row];
        uint32_t& code = remap[tail_code];
        if (code == kUnmapped) {
          code = out->dict_->InternLocked(tail.DictEntry(tail_code));
        }
        codes[row] = code;
        if (!tail.IsNull(row)) out->NoteCode(code);
      }
      out->string_codes_ = SharedArray<uint32_t>::Concat(
          head.string_codes_, codes.data(), codes.size());
      out->dict_size_ = out->dict_->size_;
      return out;
    }
  }
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
