// Column-at-a-time output building against its per-row reference.
//
// Column level: Column::AppendGather, AppendInt64s / AppendDoubles and
// AppendRangeFrom must build exactly the column per-row AppendFrom /
// AppendInt64 / AppendDouble / AppendNull calls build — values, string codes
// in first-appearance order, the "" NULL placeholder, dictionary, code
// range, null bitmap and ByteSize — for every type, NULL pattern, head
// state (empty, tip, non-tip with a forked dictionary), chained calls, and
// source dictionaries on both sides of the remap-table threshold.
//
// Table level: every ExecuteGroupBy output, across forced kernels x 1/4/8
// workers x spill on/off, equals field for field the in-memory
// single-worker run, which equals its own per-row rebuild; so does a cache
// entry maintained through 20 ingest batches. Labelled `incremental;parallel` so it rides
// the ASAN/TSAN/UBSan lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "column_testing.h"
#include "common/rng.h"
#include "core/aggregate_cache.h"
#include "core/delta_maintenance.h"
#include "core/plan_executor.h"
#include "exec/query_executor.h"
#include "storage/catalog.h"
#include "storage/ingest.h"
#include "storage/storage_governor.h"
#include "storage/table.h"

namespace gbmqo {
namespace {

// ---- column level ------------------------------------------------------------

enum class NullCase { kNone, kFirstRow, kMidBatch, kAll };
enum class Head { kEmpty, kTip, kNonTip };

const char* Name(NullCase c) {
  switch (c) {
    case NullCase::kNone: return "no-nulls";
    case NullCase::kFirstRow: return "first-null-at-0";
    case NullCase::kMidBatch: return "first-null-mid";
    case NullCase::kAll: return "all-nulls";
  }
  return "?";
}

const char* Name(Head h) {
  switch (h) {
    case Head::kEmpty: return "empty";
    case Head::kTip: return "tip";
    case Head::kNonTip: return "non-tip";
  }
  return "?";
}

/// The column a gather appends to. Built identically for the gather and
/// its reference (same seed). kNonTip is extended by Column::Concat into
/// `*later`, so the head no longer owns the tip of its value arrays and
/// string dictionary: appending to it must copy and fork, leaving `*later`
/// unchanged.
ColumnPtr MakeHead(DataType type, Head head, uint64_t seed, ColumnPtr* later) {
  auto col = std::make_shared<Column>(type);
  if (head == Head::kEmpty) return col;
  Rng rng(seed);
  AppendRandom(&rng, col.get(), 70 + rng.Uniform(100), 0.1, 0);
  if (head == Head::kNonTip) {
    Column tail(type);
    AppendRandom(&rng, &tail, 60, 0.1, 5);
    *later = Column::Concat(*col, tail);
  }
  return col;
}

/// `n` source rows whose NULLs follow `null_case`, drawn with repeats.
std::vector<uint32_t> PickRows(Rng* rng, const Column& src, size_t n,
                               NullCase null_case) {
  std::vector<uint32_t> nulls;
  std::vector<uint32_t> values;
  for (size_t row = 0; row < src.size(); ++row) {
    (src.IsNull(row) ? nulls : values).push_back(static_cast<uint32_t>(row));
  }
  const auto pick = [&](bool null) {
    const std::vector<uint32_t>& pool = null ? nulls : values;
    return pool[rng->Uniform(pool.size())];
  };
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) {
    bool null = false;
    switch (null_case) {
      case NullCase::kNone: break;
      case NullCase::kFirstRow: null = i == 0 || rng->Bernoulli(0.3); break;
      case NullCase::kMidBatch:
        null = i == n / 2 || (i > n / 2 && rng->Bernoulli(0.3));
        break;
      case NullCase::kAll: null = true; break;
    }
    rows[i] = pick(null);
  }
  return rows;
}

/// A source column with NULL and non-NULL rows; strings draw from a pool of
/// about 40 + 15 * fresh values.
Column MakeSource(DataType type, uint64_t seed, size_t rows, uint64_t fresh) {
  Column src(type);
  Rng rng(seed);
  AppendRandom(&rng, &src, rows, 0.25, fresh);
  src.AppendNull();  // at least one NULL row
  return src;
}

TEST(GatherTest, MatchesPerRowAppendFrom) {
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    // A small dictionary read through many rows (dense remap table) and a
    // large one read through few (hash-map remap).
    for (const bool large_dict : {false, true}) {
      const Column src =
          MakeSource(type, 7 + static_cast<uint64_t>(type), 20000,
                     large_dict ? 400 : 1);
      for (NullCase null_case : {NullCase::kNone, NullCase::kFirstRow,
                                 NullCase::kMidBatch, NullCase::kAll}) {
        for (Head head : {Head::kEmpty, Head::kTip, Head::kNonTip}) {
          for (const bool chained : {false, true}) {
            const std::string what =
                std::string("type ") + std::to_string(static_cast<int>(type)) +
                (large_dict ? " large-dict " : " small-dict ") +
                Name(null_case) + " head " + Name(head) +
                (chained ? " chained" : " one call");
            Rng rng(static_cast<uint64_t>(type) * 131 +
                    static_cast<uint64_t>(null_case) * 17 +
                    static_cast<uint64_t>(head) * 3 + (chained ? 1 : 0));
            const size_t n = large_dict ? 40 + rng.Uniform(40)
                                        : 500 + rng.Uniform(1500);
            if (type == DataType::kString) {
              ASSERT_EQ(src.dict_size() >
                            Column::kDenseRemapEntriesPerRow * n,
                        large_dict)
                  << what;
            }
            const std::vector<uint32_t> rows =
                PickRows(&rng, src, n, null_case);
            ColumnPtr got_later;
            ColumnPtr want_later;
            ColumnPtr got = MakeHead(type, head, 99, &got_later);
            ColumnPtr want = MakeHead(type, head, 99, &want_later);
            size_t done = 0;
            while (done < n) {
              const size_t step =
                  chained ? std::min<size_t>(n - done, rng.Uniform(90))
                          : n - done;
              got->AppendGather(src, rows.data() + done, step);
              for (size_t i = done; i < done + step; ++i) {
                want->AppendFrom(src, rows[i]);
              }
              done += step;
              ExpectSameColumn(*got, *want, what);
            }
            if (head == Head::kNonTip) {
              ExpectSameColumn(*got_later, *want_later, what + " later gen");
            }
          }
        }
      }
    }
  }
}

TEST(GatherTest, EmptyGatherLeavesTheHeadAlone) {
  ColumnPtr later;
  ColumnPtr head = MakeHead(DataType::kString, Head::kNonTip, 5, &later);
  const size_t dict = head->dict_size();
  const Column src = MakeSource(DataType::kString, 1, 100, 1);
  head->AppendGather(src, nullptr, 0);
  head->AppendRangeFrom(src, 3, 0);
  ColumnPtr unused;
  ExpectSameColumn(*head, *MakeHead(DataType::kString, Head::kNonTip, 5,
                                    &unused),
                   "empty gather");
  EXPECT_EQ(head->dict_size(), dict);
}

TEST(GatherTest, RangeFromMatchesPerRowForStringsAndNulls) {
  for (DataType type :
       {DataType::kInt64, DataType::kDouble, DataType::kString}) {
    const Column src = MakeSource(type, 3, 3000, 200);
    for (Head head : {Head::kEmpty, Head::kTip, Head::kNonTip}) {
      Rng rng(static_cast<uint64_t>(head) + 11);
      ColumnPtr got_later;
      ColumnPtr want_later;
      ColumnPtr got = MakeHead(type, head, 42, &got_later);
      ColumnPtr want = MakeHead(type, head, 42, &want_later);
      for (int run = 0; run < 40; ++run) {
        const size_t begin = rng.Uniform(src.size());
        const size_t count = rng.Uniform(std::min<size_t>(
            200, src.size() - begin + 1));
        got->AppendRangeFrom(src, begin, count);
        for (size_t row = begin; row < begin + count; ++row) {
          want->AppendFrom(src, row);
        }
      }
      ExpectSameColumn(*got, *want,
                       "type " + std::to_string(static_cast<int>(type)) +
                           " head " + Name(head));
    }
  }
}

TEST(GatherTest, BulkNumbersMatchPerRowAppends) {
  for (DataType type : {DataType::kInt64, DataType::kDouble}) {
    for (Head head : {Head::kEmpty, Head::kTip, Head::kNonTip}) {
      for (const double null_p : {0.0, 0.3, 1.0}) {
        Rng rng(static_cast<uint64_t>(head) * 7 +
                static_cast<uint64_t>(null_p * 10));
        ColumnPtr got_later;
        ColumnPtr want_later;
        ColumnPtr got = MakeHead(type, head, 8, &got_later);
        ColumnPtr want = MakeHead(type, head, 8, &want_later);
        for (int call = 0; call < 6; ++call) {
          const size_t n = rng.Uniform(150);
          std::vector<int64_t> ints(n);
          std::vector<double> doubles(n);
          std::vector<uint64_t> nulls((n + 63) / 64, 0);
          for (size_t i = 0; i < n; ++i) {
            // Values of NULL rows are garbage the append must ignore.
            ints[i] = rng.UniformRange(-1000, 1000) *
                      (call % 2 == 0 ? 1 : INT64_C(1) << 40);
            doubles[i] = static_cast<double>(ints[i]) * 0.5;
            const bool null = rng.Bernoulli(null_p);
            nulls[i >> 6] |= uint64_t{null} << (i & 63);
            if (null) {
              want->AppendNull();
            } else if (type == DataType::kInt64) {
              want->AppendInt64(ints[i]);
            } else {
              want->AppendDouble(doubles[i]);
            }
          }
          const uint64_t* words = null_p == 0.0 ? nullptr : nulls.data();
          if (type == DataType::kInt64) {
            got->AppendInt64s(ints.data(), n, words);
          } else {
            got->AppendDoubles(doubles.data(), n, words);
          }
          ExpectSameColumn(*got, *want,
                           std::string("head ") + Name(head) + " null_p " +
                               std::to_string(null_p));
        }
      }
    }
  }
}

// ---- table level -------------------------------------------------------------

/// Every column of `t` against a fresh column built from its values by
/// per-row appends: the output state the per-cell builder left.
void ExpectSameAsPerRowRebuild(const Table& t, const std::string& what) {
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    const Column& col = t.column(c);
    Column rebuilt(col.type());
    for (size_t row = 0; row < col.size(); ++row) {
      ASSERT_TRUE(rebuilt.AppendValue(col.ValueAt(row)).ok());
    }
    ExpectSameColumn(col, rebuilt, what + " column " + t.schema().column(c).name);
  }
}

void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns()) << what;
  for (int c = 0; c < want.schema().num_columns(); ++c) {
    ExpectSameColumn(got.column(c), want.column(c),
                     what + " column " + want.schema().column(c).name);
  }
}

/// 140k rows (three morsels, so the sharded build and the spill path run):
/// nullable int and string keys, a key too wide for the dense kernel, a
/// high-cardinality string, and aggregate arguments that are often NULL, so
/// many groups have only NULL arguments.
TablePtr GatherInput() {
  TableBuilder b(Schema({{"g_small", DataType::kInt64, true},
                         {"g_big", DataType::kInt64, false},
                         {"g_str", DataType::kString, true},
                         {"g_wide", DataType::kString, false},
                         {"v", DataType::kDouble, true},
                         {"w", DataType::kInt64, true}}));
  Rng rng(2024);
  const char* names[] = {"red", "green", "blue", ""};
  for (size_t i = 0; i < 140000; ++i) {
    const auto maybe = [&](double p, Value v) {
      return rng.Bernoulli(p) ? Value(Null{}) : v;
    };
    EXPECT_TRUE(
        b.AppendRow(
             {maybe(0.1, Value(static_cast<int64_t>(rng.Uniform(40)))),
              Value(static_cast<int64_t>(rng.Uniform(500000))),
              maybe(0.1, Value(names[rng.Uniform(4)])),
              Value("k" + std::to_string(rng.Uniform(30000))),
              maybe(0.5, Value(0.25 * static_cast<double>(rng.Uniform(999)))),
              maybe(0.4, Value(static_cast<int64_t>(rng.Uniform(1000))))})
            .ok());
  }
  return *b.Build("gather_input");
}

TEST(GatherTableTest, GroupByOutputMatchesPerRowBuildEverywhere) {
  const TablePtr input = GatherInput();
  const std::vector<GroupByQuery> queries = {
      {ColumnSet{0, 2},
       {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(5, "sw"),
        AggregateSpec::Min(4, "mn"), AggregateSpec::Max(4, "mx"),
        AggregateSpec::Sum(4, "sv")}},
      {ColumnSet{1},
       {AggregateSpec::CountStar("cnt"), AggregateSpec::Min(4, "mn"),
        AggregateSpec::Max(5, "mx")}},
      {ColumnSet{3, 0},
       {AggregateSpec::CountStar("cnt"), AggregateSpec::Sum(5, "sw"),
        AggregateSpec::Max(4, "mx")}},
  };
  const std::optional<AggKernel> kernels[] = {
      std::nullopt, AggKernel::kDenseArray, AggKernel::kPackedKey,
      AggKernel::kMultiWord, AggKernel::kSortRuns};
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const std::optional<AggKernel>& kernel : kernels) {
      TablePtr first;
      for (int workers : {1, 4, 8}) {
        for (const bool spill : {false, true}) {
          const std::string what =
              "query " + std::to_string(qi) + " kernel " +
              (kernel ? AggKernelName(*kernel) : "auto") + " workers " +
              std::to_string(workers) + (spill ? " spilled" : " in memory");
          ExecContext ctx;
          QueryExecutor exec(&ctx, ScanMode::kColumnar, workers);
          exec.set_forced_kernel(kernel);
          SpillOptions options;
          options.force = spill;
          exec.set_spill(options);
          Result<TablePtr> out = exec.ExecuteGroupBy(*input, queries[qi], "out",
                                                     AggStrategy::kHash);
          ASSERT_TRUE(out.ok()) << what << ": " << out.status().ToString();
          if (first == nullptr) {
            ExpectSameAsPerRowRebuild(**out, what);
            first = *out;
          } else {
            ExpectSameTable(**out, *first, what);
          }
        }
      }
    }
  }
}

TEST(GatherTableTest, MaintainedEntryMatchesPerRowBuildAfter20Batches) {
  const Schema schema({{"flag", DataType::kString, true},
                       {"mode", DataType::kString, false},
                       {"qty", DataType::kInt64, true},
                       {"price", DataType::kDouble, true}});
  Rng rng(77);
  const auto random_row = [&](uint64_t fresh) -> std::vector<Value> {
    const auto maybe = [&](double p, Value v) {
      return rng.Bernoulli(p) ? Value(Null{}) : v;
    };
    return {maybe(0.1, Value("f" + std::to_string(rng.Uniform(5 + fresh)))),
            Value("m" + std::to_string(rng.Uniform(7))),
            maybe(0.3, Value(static_cast<int64_t>(rng.Uniform(50)))),
            maybe(0.4, Value(static_cast<double>(rng.Uniform(4000)) / 8))};
  };
  TableBuilder b(schema);
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(b.AppendRow(random_row(0)).ok());
  Result<TablePtr> base = b.Build("t");
  ASSERT_TRUE(base.ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterBase(*base).ok());
  StorageGovernor governor(0);
  AggregateCache cache(&catalog, 64.0 * 1024 * 1024, &governor);
  // COUNT(*), SUM over an exact NULL-bearing integer column, MIN/MAX over a
  // NULL-bearing double: exact under delta merging, so the maintained entry
  // must equal a cold recompute value for value.
  const std::vector<AggRequest> aggs = {
      AggRequest{}, AggRequest{AggKind::kSum, 2}, AggRequest{AggKind::kMin, 3},
      AggRequest{AggKind::kMax, 3}};
  const std::vector<ColumnSet> entries = {ColumnSet{0, 1}, ColumnSet{0}};
  for (ColumnSet cols : entries) {
    ExecContext ctx;
    QueryExecutor exec(&ctx, ScanMode::kColumnar, 4);
    Result<GroupByQuery> q =
        BuildGroupByOver(**base, /*input_is_base=*/true, schema, cols, aggs);
    ASSERT_TRUE(q.ok());
    Result<TablePtr> t = exec.ExecuteGroupBy(**base, *q,
                                             catalog.NextTempName("seed"));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(cache.AcceptPinned(cols, aggs, *t, /*registered=*/false));
  }

  DeltaMaintenanceOptions mopts;
  mopts.parallelism = 4;
  DeltaMaintainer maintainer(&catalog, &cache, mopts);
  Ingestor ingestor(&catalog);
  TablePtr current = *base;
  for (uint64_t batch = 1; batch <= 20; ++batch) {
    std::vector<std::vector<Value>> rows(1 + rng.Uniform(300));
    for (std::vector<Value>& row : rows) row = random_row(batch);
    Result<IngestBatch> applied = ingestor.AppendBatch("t", rows);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    Result<DeltaMaintenanceReport> report = maintainer.ApplyDelta(
        applied->delta, applied->base, schema, applied->version);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->entries_refreshed, entries.size());
    current = applied->base;
  }

  for (ColumnSet cols : entries) {
    const std::string what = "entry " + cols.ToString();
    TablePtr maintained = cache.Lookup(cols, aggs, 0);
    ASSERT_NE(maintained, nullptr) << what;
    ExpectSameAsPerRowRebuild(*maintained, what);
    ExecContext ctx;
    QueryExecutor cold(&ctx, ScanMode::kColumnar, 1);
    Result<GroupByQuery> q =
        BuildGroupByOver(*current, /*input_is_base=*/true, schema, cols, aggs);
    ASSERT_TRUE(q.ok());
    Result<TablePtr> recomputed = cold.ExecuteGroupBy(*current, *q, "cold");
    ASSERT_TRUE(recomputed.ok());
    // Row order differs between a maintained entry and a recompute.
    const auto sorted_rows = [](const Table& t) {
      std::vector<std::string> rows;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        std::string s;
        for (const Value& v : t.Row(r)) s += v.ToString() + "|";
        rows.push_back(std::move(s));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(sorted_rows(*maintained), sorted_rows(**recomputed)) << what;
  }
}

}  // namespace
}  // namespace gbmqo
