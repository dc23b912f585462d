// WorkCounters printing for the differential suites: EXPECT_EQ on two
// WorkCounters compares every field (WorkCounters::operator==) and, on a
// mismatch, prints both sides field by field through this PrintTo.
#ifndef GBMQO_TESTS_COUNTERS_TESTING_H_
#define GBMQO_TESTS_COUNTERS_TESTING_H_

#include <iomanip>
#include <ostream>

#include "exec/exec_context.h"

namespace gbmqo {

inline void PrintTo(const WorkCounters& c, std::ostream* os) {
  *os << "{rows_scanned=" << c.rows_scanned
      << " bytes_scanned=" << c.bytes_scanned
      << " rows_emitted=" << c.rows_emitted
      << " bytes_materialized=" << c.bytes_materialized
      << " hash_probes=" << c.hash_probes << " rows_sorted=" << c.rows_sorted
      << " queries_executed=" << c.queries_executed
      << " agg_cpu_units=" << std::setprecision(17) << c.agg_cpu_units
      << " dense_kernel_rows=" << c.dense_kernel_rows
      << " packed_kernel_rows=" << c.packed_kernel_rows
      << " multiword_kernel_rows=" << c.multiword_kernel_rows
      << " sort_kernel_rows=" << c.sort_kernel_rows
      << " queries_spilled=" << c.queries_spilled
      << " spill_partitions=" << c.spill_partitions
      << " spill_bytes_written=" << c.spill_bytes_written
      << " spill_bytes_read=" << c.spill_bytes_read
      << " spill_corrupt_recoveries=" << c.spill_corrupt_recoveries
      << " scan_touch_checksum=" << c.scan_touch_checksum
      << " tasks_retried=" << c.tasks_retried
      << " tasks_degraded=" << c.tasks_degraded
      << " cache_hits=" << c.cache_hits << " cache_misses=" << c.cache_misses
      << "}";
}

}  // namespace gbmqo

#endif  // GBMQO_TESTS_COUNTERS_TESTING_H_
