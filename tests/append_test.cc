// Append-path tests: Column::Concat against a per-row AppendFrom reference
// over many generations, AppendRows copying when its base is no longer the
// tip of its shared arrays and dictionaries, index extension by merge
// against a fresh CreateIndex, and snapshot isolation — readers of one
// generation see it unchanged while another thread extends the storage it
// shares. Labelled `incremental;parallel` so it rides the ASAN/TSAN lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "column_testing.h"
#include "common/rng.h"
#include "storage/column.h"
#include "storage/ingest.h"
#include "storage/table.h"

namespace gbmqo {
namespace {

TEST(ConcatTest, MatchesPerRowAppendsAcrossGenerations) {
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    for (double null_p : {0.0, 0.15}) {
      for (uint64_t seed : {1, 2, 3}) {
        Rng rng(seed * 977 + static_cast<uint64_t>(type));
        const size_t generations = 1 + rng.Uniform(20);
        auto head = std::make_shared<Column>(type);
        AppendRandom(&rng, head.get(), rng.Uniform(300), null_p, 0);
        Column reference(type);
        for (size_t row = 0; row < head->size(); ++row) {
          reference.AppendFrom(*head, row);
        }
        ColumnPtr cur = head;
        for (size_t g = 1; g <= generations; ++g) {
          Column tail(type);
          // Some tails are empty or a single row; NULL-free tails can
          // follow NULL-carrying heads and vice versa.
          const size_t rows = rng.Uniform(4) == 0 ? rng.Uniform(2)
                                                  : rng.Uniform(150);
          AppendRandom(&rng, &tail, rows, rng.Bernoulli(0.5) ? null_p : 0.0,
                       g);
          for (size_t row = 0; row < tail.size(); ++row) {
            reference.AppendFrom(tail, row);
          }
          cur = Column::Concat(*cur, tail);
          ExpectSameColumn(*cur, reference,
                           "type " + std::to_string(static_cast<int>(type)) +
                               " null_p " + std::to_string(null_p) + " seed " +
                               std::to_string(seed) + " generation " +
                               std::to_string(g));
        }
      }
    }
  }
}

TEST(ConcatTest, OlderGenerationKeepsItsView) {
  Column base(DataType::kString);
  base.AppendString("a");
  base.AppendNull();
  Column tail(DataType::kString);
  tail.AppendString("b");
  tail.AppendString("a");
  ColumnPtr next = Column::Concat(base, tail);
  EXPECT_EQ(base.dict_size(), 2u);  // "a" and the "" placeholder
  EXPECT_EQ(next->dict_size(), 3u);
  EXPECT_EQ(next->StringAt(2), "b");
  EXPECT_EQ(next->CodeAt(3), base.CodeAt(0));
  // The older generation is no longer the tip: appending to it forks, and
  // the newer generation's entries keep their codes.
  base.AppendString("c");
  EXPECT_EQ(base.CodeAt(2), 2u);
  EXPECT_EQ(base.StringAt(2), "c");
  EXPECT_EQ(next->DictEntry(2), "b");
}

// ---- AppendRows -------------------------------------------------------------

Schema MixedSchema() {
  return Schema({ColumnDef{"i", DataType::kInt64, true},
                 ColumnDef{"s", DataType::kString, true},
                 ColumnDef{"d", DataType::kDouble, false},
                 ColumnDef{"t", DataType::kString, false}});
}

TablePtr RandomTable(Rng* rng, size_t rows, uint64_t fresh,
                     const std::string& name) {
  TableBuilder builder(MixedSchema());
  AppendRandom(rng, builder.column(0), rows, 0.1, fresh);
  AppendRandom(rng, builder.column(1), rows, 0.1, fresh);
  AppendRandom(rng, builder.column(2), rows, 0.0, fresh);
  AppendRandom(rng, builder.column(3), rows, 0.0, fresh);
  Result<TablePtr> t = builder.Build(name);
  EXPECT_TRUE(t.ok());
  return *t;
}

/// The rows of `parts`, in order, appended one by one into a fresh table.
TablePtr PerRowReference(const std::vector<TablePtr>& parts) {
  TableBuilder builder(parts.front()->schema());
  for (const TablePtr& part : parts) {
    for (int c = 0; c < part->schema().num_columns(); ++c) {
      for (size_t row = 0; row < part->num_rows(); ++row) {
        builder.column(c)->AppendFrom(part->column(c), row);
      }
    }
  }
  Result<TablePtr> t = builder.Build("reference");
  EXPECT_TRUE(t.ok());
  return *t;
}

void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int c = 0; c < want.schema().num_columns(); ++c) {
    ExpectSameColumn(got.column(c), want.column(c),
                     what + " column " + want.schema().column(c).name);
  }
}

TEST(AppendRowsTest, RetryFromTheSameBaseForksAndMatchesReference) {
  Rng rng(42);
  TablePtr root = RandomTable(&rng, 500, 0, "t");
  TablePtr d0 = RandomTable(&rng, 20, 3, "d0");
  TablePtr d1 = RandomTable(&rng, 80, 1, "d1");
  TablePtr d2 = RandomTable(&rng, 90, 2, "d2");
  // An appended base leaves room in its arrays, so the next append from it
  // writes in place.
  Result<TablePtr> base = AppendRows(*root, *d0, "t@v1");
  ASSERT_TRUE(base.ok());
  Result<TablePtr> first = AppendRows(**base, *d1, "t@v2");
  ASSERT_TRUE(first.ok());
  // `base` is no longer the tip of its arrays and dictionaries: this append
  // must copy them rather than overwrite the rows `first` sees.
  Result<TablePtr> retry = AppendRows(**base, *d2, "t@v2");
  ASSERT_TRUE(retry.ok());
  ExpectSameTable(**first, *PerRowReference({root, d0, d1}), "first");
  ExpectSameTable(**retry, *PerRowReference({root, d0, d2}), "retry");
  // Both branches extend on: the first in the shared storage, the retry in
  // its copy.
  Result<TablePtr> first2 = AppendRows(**first, *d2, "t@v3");
  Result<TablePtr> retry2 = AppendRows(**retry, *d1, "t@v3");
  ASSERT_TRUE(first2.ok() && retry2.ok());
  ExpectSameTable(**first2, *PerRowReference({root, d0, d1, d2}), "first2");
  ExpectSameTable(**retry2, *PerRowReference({root, d0, d2, d1}), "retry2");
  ExpectSameTable(**base, *PerRowReference({root, d0}), "base");
}

// ---- index extension --------------------------------------------------------

TEST(IndexTest, CreateIndexBreaksTiesByRowId) {
  Rng rng(5);
  TablePtr t = RandomTable(&rng, 400, 0, "t");
  ASSERT_TRUE(t->CreateIndex(ColumnSet{1}).ok());
  const std::vector<uint32_t>& rows = t->FindIndex(ColumnSet{1})->sorted_rows();
  const Column& col = t->column(1);
  for (size_t i = 1; i < rows.size(); ++i) {
    const uint32_t a = rows[i - 1], b = rows[i];
    if (col.IsNull(a) == col.IsNull(b) &&
        (col.IsNull(a) || col.CodeAt(a) == col.CodeAt(b))) {
      EXPECT_LT(a, b) << "position " << i;
    }
  }
}

TEST(IndexTest, MergedIndexEqualsCreateIndexOnAppendedTable) {
  Rng rng(7);
  const std::vector<ColumnSet> keys = {ColumnSet{0}, ColumnSet{1},
                                       ColumnSet{0, 1}, ColumnSet{1, 2, 3}};
  TablePtr cur = RandomTable(&rng, 700, 0, "t");
  for (ColumnSet key : keys) ASSERT_TRUE(cur->CreateIndex(key).ok());
  for (uint64_t g = 1; g <= 6; ++g) {
    TablePtr delta = RandomTable(&rng, g == 3 ? 0 : 50 + rng.Uniform(100), g,
                                 "d");
    Result<TablePtr> next = AppendRows(*cur, *delta, "t@v" + std::to_string(g));
    ASSERT_TRUE(next.ok());
    cur = *next;
    std::vector<ColumnPtr> cols;
    for (int c = 0; c < cur->schema().num_columns(); ++c) {
      cols.push_back(cur->column_ptr(c));
    }
    Table fresh("fresh", cur->schema(), cols, cur->num_rows());
    ASSERT_EQ(cur->indexes().size(), keys.size());
    for (ColumnSet key : keys) {
      ASSERT_TRUE(fresh.CreateIndex(key).ok());
      ASSERT_NE(cur->FindIndex(key), nullptr);
      EXPECT_EQ(cur->FindIndex(key)->sorted_rows(),
                fresh.FindIndex(key)->sorted_rows())
          << "generation " << g << " key " << key.ToString();
    }
  }
}

// ---- snapshot isolation -----------------------------------------------------

/// Order-sensitive digest of a table read through every string accessor.
uint64_t Checksum(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    const Column& col = t.column(c);
    for (size_t row = 0; row < t.num_rows(); ++row) {
      mix(col.IsNull(row) ? 0x9e37u : col.CodeAt(row));
      if (col.type() == DataType::kString) {
        mix(std::hash<std::string>{}(col.StringAt(row)));
      }
    }
    if (col.type() == DataType::kString) {
      for (size_t code = 0; code < col.dict_size(); ++code) {
        mix(std::hash<std::string>{}(col.DictEntry(code)));
      }
    }
  }
  return h;
}

TEST(SnapshotIsolationTest, ReadersOfAGenerationIgnoreLaterAppends) {
  Rng rng(11);
  TablePtr gen = RandomTable(&rng, 1500, 0, "t");
  for (uint64_t g = 1; g <= 3; ++g) {
    Result<TablePtr> next = AppendRows(*gen, *RandomTable(&rng, 200, g, "d"),
                                       "t@v" + std::to_string(g));
    ASSERT_TRUE(next.ok());
    gen = *next;
  }
  const uint64_t want = Checksum(*gen);
  // Deltas rich in new strings, so the shared dictionaries grow new
  // buckets while the readers run.
  std::vector<TablePtr> deltas;
  for (uint64_t g = 4; g < 24; ++g) {
    deltas.push_back(RandomTable(&rng, 300, 10 * g, "d"));
  }
  TablePtr retry_delta = RandomTable(&rng, 100, 500, "d");
  const uint64_t retry_want = Checksum(*PerRowReference({gen, retry_delta}));

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      do {
        if (Checksum(*gen) != want) mismatches.fetch_add(1);
      } while (!done.load());
    });
  }
  // A retry from `gen` races the writer: it forks once the writer has
  // extended past `gen`, and must match the per-row reference either way.
  std::thread retrier([&] {
    for (int i = 0; i < 3; ++i) {
      Result<TablePtr> again = AppendRows(*gen, *retry_delta, "t@retry");
      if (!again.ok() || Checksum(**again) != retry_want) {
        mismatches.fetch_add(1);
      }
    }
  });
  std::thread writer([&] {
    TablePtr tip = gen;
    uint64_t v = 4;
    for (const TablePtr& delta : deltas) {
      Result<TablePtr> next =
          AppendRows(*tip, *delta, "t@v" + std::to_string(v++));
      if (!next.ok()) {
        mismatches.fetch_add(1);
        return;
      }
      tip = *next;
    }
  });
  writer.join();
  retrier.join();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Checksum(*gen), want);
}

}  // namespace
}  // namespace gbmqo
