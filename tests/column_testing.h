// Column helpers shared by the append-path suites: random per-row
// builders and the field-by-field comparison every bulk column builder is
// held to against its per-row reference.
#ifndef GBMQO_TESTS_COLUMN_TESTING_H_
#define GBMQO_TESTS_COLUMN_TESTING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "storage/column.h"

namespace gbmqo {

/// Appends `rows` random values (NULL with probability `null_p`). Strings
/// draw from a pool that grows with `fresh`, so later generations bring
/// both repeated and new dictionary entries, "" included.
inline void AppendRandom(Rng* rng, Column* col, size_t rows, double null_p,
                         uint64_t fresh) {
  for (size_t i = 0; i < rows; ++i) {
    if (rng->Bernoulli(null_p)) {
      col->AppendNull();
      continue;
    }
    switch (col->type()) {
      case DataType::kInt64:
        col->AppendInt64(rng->UniformRange(-500, 500) *
                         static_cast<int64_t>(fresh + 1));
        break;
      case DataType::kDouble:
        col->AppendDouble(static_cast<double>(rng->Uniform(200)) * 0.25 -
                          static_cast<double>(fresh));
        break;
      case DataType::kString: {
        const uint64_t v = rng->Uniform(40 + 15 * fresh);
        col->AppendString(v == 0 ? std::string() : "s" + std::to_string(v));
        break;
      }
    }
  }
}

/// Everything an append sequence determines about a column.
inline void ExpectSameColumn(const Column& got, const Column& want,
                             const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.type(), want.type());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.null_count(), want.null_count());
  EXPECT_EQ(got.null_words() == nullptr, want.null_words() == nullptr);
  EXPECT_EQ(got.HasCodeRange(), want.HasCodeRange());
  EXPECT_EQ(got.CodeRangeMin(), want.CodeRangeMin());
  EXPECT_EQ(got.CodeRange(), want.CodeRange());
  EXPECT_EQ(got.CodeBits(), want.CodeBits());
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  // Plain comparisons in the loops, so large columns stay cheap to check.
  for (size_t row = 0; row < want.size(); ++row) {
    if (got.IsNull(row) != want.IsNull(row) ||
        got.CodeAt(row) != want.CodeAt(row)) {
      FAIL() << "row " << row << ": " << got.ValueAt(row).ToString()
             << " (code " << got.CodeAt(row) << ") vs "
             << want.ValueAt(row).ToString() << " (code " << want.CodeAt(row)
             << ")";
    }
  }
  for (size_t begin = 0; begin < want.size(); begin += 23) {
    const size_t count = std::min<size_t>(64, want.size() - begin);
    ASSERT_EQ(got.NullWord(begin, count), want.NullWord(begin, count))
        << "begin " << begin;
  }
  // Whole bitmap words; ByteSize above already pins how many there are.
  if (want.null_words() != nullptr && got.null_words() != nullptr) {
    for (size_t w = 0; w < (want.size() + 63) / 64; ++w) {
      ASSERT_EQ(got.null_words()[w], want.null_words()[w]) << "word " << w;
    }
  }
  if (want.type() == DataType::kString) {
    ASSERT_EQ(got.dict_size(), want.dict_size());
    for (size_t code = 0; code < want.dict_size(); ++code) {
      if (got.DictEntry(code) != want.DictEntry(code)) {
        FAIL() << "code " << code << ": \"" << got.DictEntry(code)
               << "\" vs \"" << want.DictEntry(code) << "\"";
      }
    }
  }
}

}  // namespace gbmqo

#endif  // GBMQO_TESTS_COLUMN_TESTING_H_
