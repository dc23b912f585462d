#include "api/session.h"

#include "common/fault_injector.h"
#include "sql/grouping_sets_parser.h"

namespace gbmqo {

Session::Session(TablePtr base, SessionOptions options)
    : base_(std::move(base)), options_(options) {
  // Honors the GBMQO_FAULTS environment toggle (no-op when unset or when
  // fault injection is compiled out); idempotent across sessions.
  FaultInjector::InstallFromEnv();
  // The base table name is reserved in the catalog; failure is impossible
  // on a fresh catalog.
  (void)catalog_.RegisterBase(base_);
  stats_ = std::make_unique<StatisticsManager>(*base_, options_.stats_mode,
                                               options_.sample_size);
  whatif_ = std::make_unique<WhatIfProvider>(stats_.get());
  model_ = std::make_unique<OptimizerCostModel>(*base_);
}

Result<std::vector<GroupByRequest>> Session::Parse(
    const std::string& spec) const {
  return ParseGroupingSets(spec, base_->schema());
}

Result<OptimizerResult> Session::Optimize(
    const std::vector<GroupByRequest>& requests) {
  GbMqoOptimizer optimizer(model_.get(), whatif_.get(), options_.optimizer);
  return optimizer.Optimize(requests);
}

Result<OptimizerResult> Session::Optimize(const std::string& spec) {
  Result<std::vector<GroupByRequest>> requests = Parse(spec);
  if (!requests.ok()) return requests.status();
  return Optimize(*requests);
}

Result<std::string> Session::Explain(const std::string& spec) {
  Result<OptimizerResult> opt = Optimize(spec);
  if (!opt.ok()) return opt.status();
  return ExplainPlan(opt->plan, base_->schema(), model_.get(), whatif_.get());
}

Result<std::vector<SqlStatement>> Session::GenerateSql(
    const std::string& spec) {
  Result<OptimizerResult> opt = Optimize(spec);
  if (!opt.ok()) return opt.status();
  SqlGenerator gen(base_->name(), base_->schema());
  return gen.Generate(opt->plan);
}

Result<ExecutionResult> Session::Execute(
    const std::vector<GroupByRequest>& requests) {
  Result<OptimizerResult> opt = Optimize(requests);
  if (!opt.ok()) return opt.status();
  return ExecutePlan(opt->plan, requests);
}

Result<ExecutionResult> Session::Execute(const std::string& spec) {
  Result<std::vector<GroupByRequest>> requests = Parse(spec);
  if (!requests.ok()) return requests.status();
  return Execute(*requests);
}

Result<ExecutionResult> Session::ExecutePlan(
    const LogicalPlan& plan, const std::vector<GroupByRequest>& requests) {
  PlanExecutor executor = MakePlanExecutor(&catalog_, base_->name(), options_);
  if (options_.max_exec_storage_bytes > 0) {
    executor.set_storage_budget(options_.max_exec_storage_bytes, whatif_.get());
  }
  if (options_.exec_deadline_ms > 0) {
    // Per-call deadline: a previous call's expiry must not poison this one,
    // but an explicit Cancel() persists until the caller resets the token.
    if (!cancel_.Check().IsCancelled()) cancel_.Reset();
    cancel_.SetDeadlineAfterMs(options_.exec_deadline_ms);
  }
  executor.set_cancellation(&cancel_);
  return executor.Execute(plan, requests);
}

PlanExecutor MakePlanExecutor(Catalog* catalog, std::string base_table,
                              const SessionOptions& options) {
  PlanExecutor executor(catalog, std::move(base_table), options.scan_mode,
                        options.parallelism);
  executor.set_fusion_enabled(options.shared_scan_fusion);
  executor.set_node_parallel(options.node_parallelism);
  executor.set_force_scalar(options.force_scalar);
  executor.set_max_task_retries(options.max_task_retries);
  executor.set_retry_backoff_ms(options.retry_backoff_ms);
  if (options.max_spill_bytes > 0 || options.force_spill) {
    SpillOptions spill;
    spill.memory_budget_bytes =
        static_cast<uint64_t>(options.max_exec_storage_bytes);
    spill.directory = options.spill_directory;
    spill.max_spill_bytes = options.max_spill_bytes;
    spill.force = options.force_spill;
    // spill.governor stays null: PlanExecutor defaults it to its storage
    // governor, if the caller sets one.
    executor.set_spill(spill);
  }
  return executor;
}

QueryExecutor MakeQueryExecutor(ExecContext* ctx,
                                const SessionOptions& options) {
  QueryExecutor executor(ctx, options.scan_mode, options.parallelism);
  executor.set_force_scalar(options.force_scalar);
  return executor;
}

DeltaMaintenanceOptions MakeMaintenanceOptions(const SessionOptions& options) {
  DeltaMaintenanceOptions mopts;
  mopts.parallelism = options.parallelism;
  mopts.force_scalar = options.force_scalar;
  return mopts;
}

}  // namespace gbmqo
