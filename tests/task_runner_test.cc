// RunTasks / RunTaskGraph regression tests, centered on exception
// propagation (a task that throws on a worker thread must surface the
// exception on the calling thread, not std::terminate the process) and on
// the graph runner's ordering, dependency and admission-gate contracts.
#include "exec/task_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace gbmqo {
namespace {

TEST(RunTasksTest, RunsEveryTaskExactlyOnce) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const int n = 500;
    std::vector<std::atomic<int>> hits(n);
    RunTasks(n, workers, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(RunTasksTest, ZeroTasksIsANoOp) {
  RunTasks(0, 4, [](int) { FAIL() << "no task should run"; });
}

TEST(RunTasksTest, SerialPathRethrowsAndStops) {
  std::atomic<int> ran{0};
  EXPECT_THROW(RunTasks(100, 1,
                        [&](int i) {
                          if (i == 3) throw std::runtime_error("boom");
                          ran.fetch_add(1);
                        }),
               std::runtime_error);
  // Serial semantics: tasks after the throwing one never run.
  EXPECT_EQ(ran.load(), 3);
}

TEST(RunTasksTest, ParallelExceptionPropagatesToCaller) {
  // Regression: the task loop used to run tasks bare, so a throwing task
  // called std::terminate from a worker thread. The caller must now see the
  // exception (with its message intact) after every worker joined.
  std::atomic<int> ran{0};
  try {
    RunTasks(200, 4, [&](int i) {
      if (i == 37) throw std::runtime_error("task 37 failed");
      ran.fetch_add(1);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 37 failed");
  }
  // Unclaimed tasks are abandoned after the failure; at least the tasks
  // claimed before it may have run, but never the full set.
  EXPECT_LT(ran.load(), 200);
}

TEST(RunTasksTest, FirstExceptionWinsWhenSeveralTasksThrow) {
  // All tasks throw; exactly one exception must reach the caller and it
  // must be one of the thrown ones (no mixing, no terminate).
  try {
    RunTasks(50, 4, [&](int i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("task ", 0), 0u);
  }
}

TEST(RunTaskGraphTest, RunsEveryTaskAfterItsDependencies) {
  // Binary-tree-ish DAG: task i depends on (i-1)/2. Every task must run
  // exactly once, after its predecessor, for any worker count.
  const int n = 200;
  std::vector<std::vector<int>> deps(n);
  for (int i = 1; i < n; ++i) deps[i] = {(i - 1) / 2};
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<std::atomic<int>> done(n);
    RunTaskGraph(n, deps, workers, nullptr, [&](int i, int) {
      if (i > 0) {
        EXPECT_EQ(done[(i - 1) / 2].load(), 1) << "dep of " << i;
      }
      done[i].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) EXPECT_EQ(done[i].load(), 1) << i;
  }
}

TEST(RunTaskGraphTest, SingleWorkerRunsInIndexOrder) {
  // With one worker and no blocking dependencies, the ready set drains
  // lowest-index-first — the canonical (recursive-traversal) order that
  // PlanExecutor's storage accounting relies on.
  const int n = 64;
  std::vector<std::vector<int>> deps(n);
  std::vector<int> order;
  RunTaskGraph(n, deps, 1, nullptr, [&](int i, int) { order.push_back(i); });
  ASSERT_EQ(order.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
}

TEST(RunTaskGraphTest, ZeroTasksIsANoOp) {
  RunTaskGraph(0, {}, 4, nullptr, [](int, int) { FAIL() << "no task"; });
}

TEST(RunTaskGraphTest, AdmissionGateDefersButNeverStarves) {
  // A gate that only admits one "heavy" task at a time: tasks still all run
  // (forced admission guarantees progress), and the concurrent-heavy count
  // never exceeds one even with many workers.
  const int n = 40;
  std::vector<std::vector<int>> deps(n);
  std::mutex mu;
  int heavy_live = 0;
  int max_heavy_live = 0;
  std::atomic<int> ran{0};
  auto admit = [&](int, bool forced) {
    std::lock_guard<std::mutex> lock(mu);
    if (!forced && heavy_live >= 1) return false;
    ++heavy_live;
    max_heavy_live = std::max(max_heavy_live, heavy_live);
    return true;
  };
  RunTaskGraph(n, deps, 8, admit, [&](int, int) {
    ran.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    --heavy_live;
  });
  EXPECT_EQ(ran.load(), n);
  // Forced admission fires only when nothing is running, so the cap holds.
  EXPECT_EQ(max_heavy_live, 1);
}

TEST(RunTaskGraphTest, ExceptionPropagatesAndSkipsSuccessors) {
  // Chain 0 -> 1 -> 2 -> 3: task 1 throws; 2 and 3 must never run and the
  // caller sees the original exception.
  std::vector<std::vector<int>> deps = {{}, {0}, {1}, {2}};
  std::vector<int> ran;
  std::mutex mu;
  try {
    RunTaskGraph(4, deps, 2, nullptr, [&](int i, int) {
      if (i == 1) throw std::runtime_error("task 1 failed");
      std::lock_guard<std::mutex> lock(mu);
      ran.push_back(i);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 1 failed");
  }
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], 0);
}

TEST(RunTaskGraphTest, ReportsActiveWorkerCount) {
  // The `active` argument counts tasks running at dispatch, at least 1.
  std::vector<std::vector<int>> deps(3);
  RunTaskGraph(3, deps, 1, nullptr,
               [&](int, int active) { EXPECT_EQ(active, 1); });
}

}  // namespace
}  // namespace gbmqo
