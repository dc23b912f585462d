#include "stats/distinct_estimator.h"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "exec/agg_kernel.h"
#include "exec/group_hash_table.h"

namespace gbmqo {

uint64_t ExactDistinctCount(const Table& table, ColumnSet columns) {
  if (columns.empty()) return table.num_rows() > 0 ? 1 : 0;
  const KeyBuilder keys(table, columns);
  GroupHashTable groups(keys.width(), table.num_rows() / 8 + 16);
  std::vector<uint64_t> key(static_cast<size_t>(keys.width()));
  for (size_t row = 0; row < table.num_rows(); ++row) {
    keys.FillKey(row, key.data());
    groups.FindOrInsert(key.data());
  }
  return groups.size();
}

uint64_t GeeEstimateFromSample(const Table& sample, ColumnSet columns,
                               uint64_t total_rows) {
  const uint64_t sample_size = sample.num_rows();
  if (sample_size == 0) return 0;
  if (columns.empty()) return total_rows > 0 ? 1 : 0;
  const KeyBuilder keys(sample, columns);
  GroupHashTable groups(keys.width(), sample_size / 4 + 16);
  std::vector<uint64_t> occurrences;  // per group id, sample frequency
  std::vector<uint64_t> key(static_cast<size_t>(keys.width()));
  for (size_t row = 0; row < sample_size; ++row) {
    keys.FillKey(row, key.data());
    const uint32_t id = groups.FindOrInsert(key.data());
    if (id == occurrences.size()) occurrences.push_back(0);
    occurrences[id] += 1;
  }
  uint64_t f1 = 0, f2 = 0;
  for (uint64_t occ : occurrences) {
    if (occ == 1) ++f1;
    if (occ == 2) ++f2;
  }
  const double d_sample = static_cast<double>(groups.size());
  // GEE (Charikar et al.): sqrt-scale-up of the singletons. Worst-case
  // optimal, but it systematically *underestimates* near-unique columns —
  // which would trick the optimizer into materializing near-|R|
  // intermediates. Chao's estimator (d + f1^2 / 2 f2) is accurate exactly in
  // that low-skew, high-distinct regime, so we take the max of the two
  // (a simple member of the Haas et al. hybrid family the paper cites).
  const double scale = std::sqrt(static_cast<double>(total_rows) /
                                 static_cast<double>(sample_size));
  const double gee =
      scale * static_cast<double>(f1) + (d_sample - static_cast<double>(f1));
  double chao = d_sample;
  if (f2 > 0) {
    chao = d_sample + static_cast<double>(f1) * static_cast<double>(f1) /
                          (2.0 * static_cast<double>(f2));
  } else if (f1 + 0 == groups.size() && f1 > 0) {
    // Every sampled value unique and none repeated: the domain is at least
    // on the order of the relation; scale up linearly.
    chao = static_cast<double>(total_rows);
  }
  double estimate = std::max(gee, chao);
  // Clamp to the feasible range [d_sample, total_rows].
  if (estimate < d_sample) estimate = d_sample;
  if (estimate > static_cast<double>(total_rows)) {
    estimate = static_cast<double>(total_rows);
  }
  return static_cast<uint64_t>(estimate);
}

Result<TablePtr> BuildRowSample(const Table& table, uint64_t sample_size,
                                uint64_t seed) {
  TableBuilder builder(table.schema());
  const uint64_t n_rows = table.num_rows();
  if (n_rows > 0) {
    Rng rng(seed);
    std::vector<uint32_t> rows(sample_size);
    for (uint32_t& row : rows) row = static_cast<uint32_t>(rng.Uniform(n_rows));
    for (int c = 0; c < table.schema().num_columns(); ++c) {
      builder.column(c)->AppendGather(table.column(c), rows.data(), rows.size());
    }
  }
  return builder.Build(table.name() + "_sample");
}

uint64_t SampledDistinctCount(const Table& table, ColumnSet columns,
                              uint64_t sample_size, uint64_t seed) {
  const uint64_t n_rows = table.num_rows();
  if (sample_size >= n_rows || columns.empty()) {
    return ExactDistinctCount(table, columns);
  }
  Result<TablePtr> sample = BuildRowSample(table, sample_size, seed);
  if (!sample.ok()) return ExactDistinctCount(table, columns);
  return GeeEstimateFromSample(**sample, columns, n_rows);
}

}  // namespace gbmqo
