// End-to-end benchmark program for the GB-MQO Server.
//
// One process runs one workload, a fixed sequence of operations generated
// from --seed, against a Server configured the way production runs it
// (columnar scans, shared-scan fusion, aggregate cache, WAL with batch
// fsync). Every answer is checked. Modes:
//
//   e2e_bench --workload cold_mqo --seed 1 --seconds 15 --dir .bench_run/x
//       plain run: times the sequence through Server's public API and
//       prints end-to-end metrics.
//   e2e_bench ... --mode traced
//       rebuilds each Server operation from the same public module calls
//       Server makes, records a span around each call, writes the spans and
//       per-layer self times to <dir>/spans.jsonl, and prints per-layer
//       metrics. Its result digest must equal the plain run's.
//   e2e_bench --mode probe
//       a fixed-work CPU loop; prints its wall time (host-drift probe).
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark's result line. Human-readable notes go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "api/server.h"
#include "api/session.h"
#include "common/rng.h"
#include "core/delta_maintenance.h"
#include "data/tpch_gen.h"
#include "storage/checkpoint.h"
#include "storage/ingest.h"
#include "storage/wal.h"

namespace gbmqo {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<Value>>;
using RequestSet = std::vector<GroupByRequest>;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Sizes and shape of one workload. Operation counts scale with --seconds
/// through fixed nominal rates, so a given (seed, seconds) always runs the
/// identical sequence: runs differ in speed, never in the work they do.
///
/// A run is `rounds` rounds, each a set-up, a slice of the timed sequence,
/// a checkpointed run of writes and two restarts. Every end-to-end metric
/// thus draws samples from every part of the run: the host's speed wanders
/// in regimes of a few seconds, and samples taken back to back would all
/// land in one or two of them.
struct WorkloadSpec {
  std::string name;
  size_t base_rows = 0;
  bool cache = true;
  size_t pool_entries = 0;  ///< distinct request sets
  int rounds = 0;           ///< set-ups and timed slices
  int restarts = 2;         ///< per round, back to back on its WAL directory
  double requests_per_second = 0;  ///< cold_mqo: nominal timed-request rate
  // Writes. ingest_stream interleaves them with the timed requests;
  // cold_mqo runs them after each timed slice.
  double batches_per_second = 0;  ///< ingest_stream: nominal batch rate
  int round_batches = 0;          ///< cold_mqo: batches per round
  size_t batch_rows = 1000;
  int requests_per_batch = 0;  ///< ingest_stream interleave
  /// Batches after the round's Checkpoint(): the WAL tail every restart
  /// replays, fixed so recovery work does not depend on --seconds.
  int replay_tail = 0;
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "cold_mqo") {
    w.base_rows = 200000;
    w.cache = false;
    w.pool_entries = 24;
    w.rounds = 6;  // a set-up takes ~2.5 s here
    w.requests_per_second = 70;
    w.round_batches = 6;
    w.replay_tail = 3;
  } else if (name == "ingest_stream") {
    w.base_rows = 100000;
    w.cache = true;
    w.pool_entries = 6;
    w.rounds = 7;
    w.batches_per_second = 7;
    w.requests_per_batch = 6;
    w.replay_tail = 6;
  } else {
    Die("unknown workload '" + name + "' (cold_mqo, ingest_stream)");
  }
  return w;
}

/// The production Server configuration both workloads share: one client,
/// one worker (pool_size 1) running each plan with parallelism 2; the cache
/// per workload.
ServerOptions ProductionOptions(const WorkloadSpec& w, const std::string& dir) {
  ServerOptions o;
  o.session.scan_mode = ScanMode::kColumnar;
  o.session.shared_scan_fusion = true;
  o.session.parallelism = 2;
  o.session.optimizer.enable_cube = true;
  o.session.optimizer.enable_rollup = true;
  o.pool_size = 1;
  o.global_storage_budget_bytes = 4.0 * 1024 * 1024 * 1024;
  o.enable_aggregate_cache = w.cache;
  o.wal_directory = dir;
  o.fsync_mode = FsyncMode::kBatch;
  o.recover_on_start = false;
  return o;
}

/// Group Bys draw from the categorical and date analysis columns.
/// l_comment is left out: it is near-unique, so any set touching it turns
/// into a million-group materialisation that swamps everything else.
std::vector<int> GroupingColumns() {
  std::vector<int> cols;
  for (int c : LineitemAnalysisColumns()) {
    if (c != kComment) cols.push_back(c);
  }
  return cols;
}

/// A seeded pool of distinct request sets: each 3-6 Group Bys over 1-2
/// grouping columns, COUNT(*) always, plus SUM or MAX of l_extendedprice
/// on some.
std::vector<RequestSet> MakePool(size_t entries, Rng* rng) {
  const std::vector<int> cols = GroupingColumns();
  std::vector<RequestSet> pool;
  std::set<std::string> seen;
  while (pool.size() < entries) {
    const size_t n = 3 + rng->Uniform(4);
    std::vector<AggRequest> aggs = {AggRequest{}};
    const uint64_t extra = rng->Uniform(4);
    if (extra == 1) aggs.push_back({AggKind::kSum, kExtendedprice});
    if (extra == 2) aggs.push_back({AggKind::kMax, kExtendedprice});
    std::set<uint64_t> sets;
    while (sets.size() < n) {
      const int a = cols[rng->Uniform(cols.size())];
      uint64_t mask = ColumnSet::Single(a).mask();
      if (rng->Bernoulli(0.5)) {
        const int b = cols[rng->Uniform(cols.size())];
        mask |= ColumnSet::Single(b).mask();
      }
      sets.insert(mask);
    }
    RequestSet rs;
    std::string key = std::to_string(extra);
    for (uint64_t m : sets) {
      rs.push_back(GroupByRequest{ColumnSet(m), aggs});
      key += "," + std::to_string(m);
    }
    if (seen.insert(key).second) pool.push_back(std::move(rs));
  }
  return pool;
}

/// One step of the client's sequence.
struct Op {
  enum Kind { kRequest, kIngest, kCheckpoint } kind = kRequest;
  size_t arg = 0;  ///< pool index (request) or batch index (ingest)
};

/// One round: a fresh Server is set up, runs `timed`, then `writes`
/// (cold_mqo), and is restarted from its WAL directory.
struct Round {
  std::vector<Op> timed;
  std::vector<Op> writes;
};

/// Everything a run needs, generated from the seed before any timing.
struct Inputs {
  WorkloadSpec spec;
  TablePtr base;
  TablePtr ingest_source;  ///< a second seeded lineitem; batches slice it
  std::vector<RequestSet> pool;
  std::vector<size_t> warmup;  ///< pool indices of the untimed warm-up pass
  std::vector<Round> rounds;
  size_t probe_entry = 0;  ///< request re-checked across every restart
};

/// Appends `batches` ingests (numbered on from *next_batch) to `ops`, with
/// `requests` after each, cycling through the pool from *next_request, and
/// one Checkpoint() placed so that replay_tail batches follow it.
void AddWrites(const WorkloadSpec& w, int batches, int requests, size_t* next_batch,
               size_t* next_request, std::vector<Op>* ops) {
  for (int b = 0; b < batches; ++b) {
    ops->push_back({Op::kIngest, (*next_batch)++});
    for (int k = 0; k < requests; ++k) {
      ops->push_back({Op::kRequest, (*next_request)++ % w.pool_entries});
    }
    if (b + 1 == batches - w.replay_tail) ops->push_back({Op::kCheckpoint, 0});
  }
}

Inputs MakeInputs(const std::string& workload, uint64_t seed, int seconds) {
  Inputs in;
  in.spec = SpecFor(workload);
  const WorkloadSpec& w = in.spec;
  // The request pool is part of the workload's definition and comes from a
  // fixed per-workload seed; --seed varies the base data, the appended data
  // and the request order. A pool drawn per seed made the latency
  // percentiles depend mostly on which few request sets happened to be
  // drawn.
  Rng pool_rng(HashBytes(w.name));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  TpchGenOptions gen;
  gen.rows = w.base_rows;
  gen.seed = seed;
  in.base = GenerateLineitem(gen);
  in.pool = MakePool(w.pool_entries, &pool_rng);
  in.warmup.resize(w.pool_entries);
  std::iota(in.warmup.begin(), in.warmup.end(), 0);
  in.probe_entry = in.warmup.back();
  in.rounds.resize(static_cast<size_t>(w.rounds));

  size_t next_batch = 0, next_request = 0;
  if (w.name == "cold_mqo") {
    // Shuffled full passes: every pool entry repeats equally often. The
    // writes come after each round's timed slice, so no timed request pays
    // for the statistics a batch makes stale.
    const double want = w.requests_per_second * seconds / w.rounds;
    const size_t passes = std::max<size_t>(1, static_cast<size_t>(want) / w.pool_entries);
    for (Round& round : in.rounds) {
      for (size_t p = 0; p < passes; ++p) {
        std::vector<size_t> order(w.pool_entries);
        std::iota(order.begin(), order.end(), 0);
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.Uniform(i)]);
        }
        for (size_t e : order) round.timed.push_back({Op::kRequest, e});
      }
      AddWrites(w, w.round_batches, 0, &next_batch, &next_request, &round.writes);
    }
  } else {
    // ingest_stream: one batch, then k requests cycling through the small
    // pool.
    const int batches = std::max<int>(
        w.replay_tail + 1,
        static_cast<int>(std::lround(w.batches_per_second * seconds / w.rounds)));
    for (Round& round : in.rounds) {
      AddWrites(w, batches, w.requests_per_batch, &next_batch, &next_request, &round.timed);
    }
  }
  TpchGenOptions src;
  src.rows = next_batch * w.batch_rows;
  src.seed = seed ^ 0x5EEDF00Dull;
  in.ingest_source = GenerateLineitem(src);
  return in;
}

Rows BatchRows(const Inputs& in, size_t batch) {
  const Table& src = *in.ingest_source;
  const size_t begin = batch * in.spec.batch_rows;
  Rows rows;
  rows.reserve(in.spec.batch_rows);
  for (size_t r = begin; r < begin + in.spec.batch_rows; ++r) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(src.schema().num_columns()));
    for (int c = 0; c < src.schema().num_columns(); ++c) {
      row.push_back(src.column(c).ValueAt(r));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// The checked content of one result table. Group keys, COUNT(*) and
/// MIN/MAX are order-free, so they are compared exactly through `exact`: a
/// sum over rows of a hash of (column name, value) pairs, so neither row
/// order nor column order (which differ between plan shapes) matters.
/// SUM over a DOUBLE column depends on the fold order, which differs
/// between plans (a sum of partial sums vs one pass over the base), so
/// those values are kept per group, ordered by the group's exact hash, and
/// compared with a relative tolerance.
struct TableAnswer {
  uint64_t exact = 0;
  std::vector<double> sums;
};

TableAnswer CheckTable(const Table& t) {
  const int ncols = t.schema().num_columns();
  std::vector<uint64_t> name_hash(static_cast<size_t>(ncols));
  std::vector<int> float_sums;
  for (int c = 0; c < ncols; ++c) {
    const ColumnDef& def = t.schema().column(c);
    name_hash[static_cast<size_t>(c)] = HashBytes(def.name);
    if (def.type == DataType::kDouble && def.name.rfind("sum_", 0) == 0) {
      float_sums.push_back(c);
    }
  }
  TableAnswer out;
  out.exact = Mix(t.num_rows());
  std::vector<std::pair<uint64_t, size_t>> order;
  if (!float_sums.empty()) order.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    uint64_t row = 0;
    for (int c = 0; c < ncols; ++c) {
      if (std::find(float_sums.begin(), float_sums.end(), c) != float_sums.end()) {
        continue;
      }
      const Column& col = t.column(c);
      uint64_t v;
      if (col.IsNull(r)) {
        v = 0xA5A5A5A5A5A5A5A5ull;
      } else if (col.type() == DataType::kString) {
        v = HashBytes(col.StringAt(r));
      } else if (col.type() == DataType::kDouble) {
        const double d = col.DoubleAt(r);
        v = d == 0.0 ? 0 : std::bit_cast<uint64_t>(d);
      } else {
        v = static_cast<uint64_t>(col.Int64At(r));
      }
      row += Mix(v ^ name_hash[static_cast<size_t>(c)]);
    }
    const uint64_t h = Mix(row);
    out.exact += h;
    if (!float_sums.empty()) order.emplace_back(h, r);
  }
  std::sort(order.begin(), order.end());
  for (int c : float_sums) {
    for (const auto& [h, r] : order) {
      out.sums.push_back(t.column(c).IsNull(r) ? 0.0 : t.column(c).DoubleAt(r));
    }
  }
  return out;
}

/// Per-Group-By checked content of one response, keyed by column mask.
using Answer = std::map<uint64_t, TableAnswer>;

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [mask, x] : a) {
    auto it = b.find(mask);
    if (it == b.end() || it->second.exact != x.exact ||
        it->second.sums.size() != x.sums.size()) {
      return false;
    }
    for (size_t i = 0; i < x.sums.size(); ++i) {
      const double p = x.sums[i], q = it->second.sums[i];
      if (std::fabs(p - q) > 1e-9 * std::max(std::fabs(p), std::fabs(q)) + 1e-9) {
        return false;
      }
    }
  }
  return true;
}

/// Checks a response's shape and COUNT(*) totals and fills its checked
/// content; false (with `why`) when the response is wrong.
bool CheckResponse(const ExecutionResult& r, const RequestSet& req,
                   uint64_t base_rows, Answer* answer, std::string* why) {
  answer->clear();
  if (r.results.size() != req.size()) {
    *why = "expected " + std::to_string(req.size()) + " result tables, got " +
           std::to_string(r.results.size());
    return false;
  }
  for (const GroupByRequest& g : req) {
    auto it = r.results.find(g.columns);
    if (it == r.results.end() || it->second == nullptr) {
      *why = "missing result for " + g.columns.ToString();
      return false;
    }
    const Table& t = *it->second;
    const int cnt = t.schema().FindColumn("cnt");
    if (cnt < 0) {
      *why = "no COUNT(*) column in " + g.columns.ToString();
      return false;
    }
    uint64_t total = 0;
    for (size_t row = 0; row < t.num_rows(); ++row) {
      total += static_cast<uint64_t>(t.column(cnt).Int64At(row));
    }
    if (total != base_rows) {
      *why = "COUNT(*) of " + g.columns.ToString() + " sums to " +
             std::to_string(total) + ", base has " + std::to_string(base_rows);
      return false;
    }
    (*answer)[g.columns.mask()] = CheckTable(t);
  }
  return true;
}

/// Digest of an answer for comparing two runs. Floating sums stay out: a
/// different but equally valid fold order (another plan shape) may change
/// their last bits.
uint64_t AnswerDigest(const Answer& a) {
  uint64_t h = 0;
  for (const auto& [mask, t] : a) h = Mix(h ^ Mix(mask) ^ t.exact);
  return h;
}

/// Reference answers for the pool, computed once per entry by a cache-off
/// Session running the naive plan (every Group By straight from the base):
/// no optimizer, no statistics, no cache, no shared scans.
std::vector<Answer> ReferenceAnswers(const Inputs& in) {
  SessionOptions so;
  so.scan_mode = ScanMode::kColumnar;
  so.parallelism = 4;
  Session session(in.base, so);
  std::vector<Answer> out(in.pool.size());
  for (size_t e = 0; e < in.pool.size(); ++e) {
    const RequestSet& req = in.pool[e];
    Result<ExecutionResult> r = session.ExecutePlan(NaivePlan(req), req);
    if (!r.ok()) Die("reference execution failed: " + r.status().ToString());
    Answer a;
    std::string why;
    if (!CheckResponse(*r, req, in.base->num_rows(), &a, &why)) {
      Die("reference answer malformed: " + why);
    }
    out[e] = std::move(a);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bookkeeping of a run: attempted/failed/wrong counts and the digest of
/// every timed answer in sequence order.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< error Status or refusal
  uint64_t wrong = 0;   ///< answered, but incorrectly
  std::string first_problem;
  uint64_t digest = 0;

  void Fail(const std::string& why) {
    ++failed;
    if (first_problem.empty()) first_problem = why;
  }
  void Wrong(const std::string& why) {
    ++wrong;
    if (first_problem.empty()) first_problem = why;
  }
};

/// Checks one timed or probe response. `reference` is null for
/// ingest_stream, whose answers move with the base.
void Verify(const Result<ExecutionResult>& r, const RequestSet& req,
            uint64_t expect_rows, const Answer* reference, Outcome* out,
            uint64_t* digest) {
  Answer a;
  std::string why;
  bool right = r.ok() && CheckResponse(*r, req, expect_rows, &a, &why);
  if (right && reference != nullptr && !SameAnswer(a, *reference)) {
    why = "answer differs from the reference Session";
    right = false;
  }
  ++out->attempted;
  if (!r.ok()) {
    out->Fail(r.status().ToString());
  } else if (!right) {
    out->Wrong(why);
  } else if (digest != nullptr) {
    *digest = Mix(*digest ^ AnswerDigest(a));
  }
}

// ---------------------------------------------------------------------------
// Plain run: everything through Server's public API
// ---------------------------------------------------------------------------

struct Json {
  std::string body;
  void Add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Sep();
    body += "\"" + key + "\": " + buf;
  }
  void AddStr(const std::string& key, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n' || c == '\t') ? ' ' : c;
    }
    Sep();
    body += "\"" + key + "\": \"" + esc + "\"";
  }
  void AddRaw(const std::string& key, const std::string& raw) {
    Sep();
    body += "\"" + key + "\": " + raw;
  }
  void Sep() {
    if (!body.empty()) body += ", ";
  }
  std::string str() const { return "{" + body + "}"; }
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

struct RunShared {
  std::vector<Answer> reference;  ///< empty for ingest_stream
  std::string dir;
};

RunShared Prepare(const Inputs& in, const std::string& dir) {
  RunShared rs;
  rs.dir = dir;
  if (in.spec.name != "ingest_stream") rs.reference = ReferenceAnswers(in);
  return rs;
}

int RunPlain(const Inputs& in, const RunShared& rs) {
  const std::string wal_dir = rs.dir + "/wal";
  const ServerOptions opts = ProductionOptions(in.spec, wal_dir);
  ServerOptions ropts = opts;
  ropts.recover_on_start = true;
  Outcome out;
  std::vector<double> setup_s, recovery_s, lat, queue, ingest_ms;
  double timed_ms = 0, check_ms = 0;

  for (size_t round = 0; round < in.rounds.size(); ++round) {
    // ---- set-up: Server construction + untimed warm-up pass ----
    ResetDir(wal_dir);
    auto t0 = Clock::now();
    auto server = std::make_unique<Server>(in.base, opts);
    if (!server->recovery_status().ok()) Die("server start failed");
    for (size_t e : in.warmup) {
      Result<ExecutionResult> r = server->Execute(in.pool[e]);
      if (!r.ok()) Die("warm-up request failed: " + r.status().ToString());
    }
    setup_s.push_back(Ms(t0, Clock::now()) / 1e3);

    // ---- the round's timed slice, then its writes ----
    std::vector<uint64_t> rows_at_version = {in.base->num_rows()};
    auto run_ops = [&](const std::vector<Op>& ops) {
      for (const Op& op : ops) {
        if (op.kind == Op::kRequest) {
          const RequestSet& req = in.pool[op.arg];
          const auto t1 = Clock::now();
          Result<ExecutionResult> r = server->Execute(req);
          const auto t2 = Clock::now();
          lat.push_back(Ms(t1, t2));
          if (r.ok()) queue.push_back(Ms(t1, t2) - r->wall_seconds * 1e3);
          const uint64_t expect = r.ok() && r->base_version < rows_at_version.size()
                                      ? rows_at_version[r->base_version]
                                      : in.base->num_rows();
          Verify(r, req, expect, rs.reference.empty() ? nullptr : &rs.reference[op.arg], &out,
                 &out.digest);
          check_ms += Ms(t2, Clock::now());
        } else if (op.kind == Op::kIngest) {
          const Rows rows = BatchRows(in, op.arg);
          const auto t1 = Clock::now();
          Result<Server::IngestResult> r = server->AppendBatch(rows);
          const auto t2 = Clock::now();
          ++out.attempted;
          if (!r.ok()) {
            out.Fail(r.status().ToString());
            continue;
          }
          ingest_ms.push_back(Ms(t1, t2));
          rows_at_version.push_back(rows_at_version.back() + rows.size());
        } else {
          const Status s = server->Checkpoint();
          ++out.attempted;
          if (!s.ok()) out.Fail(s.ToString());
        }
      }
    };
    t0 = Clock::now();
    run_ops(in.rounds[round].timed);
    timed_ms += Ms(t0, Clock::now());
    run_ops(in.rounds[round].writes);

    // ---- restarts: recovery_s samples; the state must survive each ----
    const uint64_t pre_version = server->base_version();
    const uint64_t pre_rows = server->current_base()->num_rows();
    uint64_t pre_probe = 0;
    Verify(server->Execute(in.pool[in.probe_entry]), in.pool[in.probe_entry], pre_rows,
           nullptr, &out, &pre_probe);
    for (int rep = 0; rep < in.spec.restarts; ++rep) {
      server.reset();
      t0 = Clock::now();
      server = std::make_unique<Server>(in.base, ropts);
      recovery_s.push_back(Ms(t0, Clock::now()) / 1e3);
      ++out.attempted;
      if (!server->recovery_status().ok()) {
        out.Fail("recovery: " + server->recovery_status().ToString());
        continue;
      }
      uint64_t probe = 0;
      Verify(server->Execute(in.pool[in.probe_entry]), in.pool[in.probe_entry], pre_rows,
             nullptr, &out, &probe);
      if (server->base_version() != pre_version ||
          server->current_base()->num_rows() != pre_rows || probe != pre_probe) {
        out.Wrong("restart in round " + std::to_string(round) + " did not restore state");
      }
    }
  }

  // ---- report ----
  // Answer checking runs between the client's requests; it is taken out of
  // the closed loop's wall time.
  Json m;
  m.Add("setup_s", Median(setup_s));
  m.Add("req_p50_ms", Percentile(lat, 0.5));
  m.Add("req_p90_ms", Percentile(lat, 0.9));
  m.Add("req_per_s", static_cast<double>(lat.size()) / ((timed_ms - check_ms) / 1e3));
  m.Add("ingest_p50_ms", Percentile(ingest_ms, 0.5));
  m.Add("recovery_s", Median(recovery_s));
  m.Add("peak_rss_mb", PeakRssMb());

  Json info;
  info.Add("req_samples", static_cast<double>(lat.size()));
  info.Add("ingest_samples", static_cast<double>(ingest_ms.size()));
  if (ingest_ms.size() >= 100) info.Add("ingest_p90_ms", Percentile(ingest_ms, 0.9));
  info.Add("timed_s", timed_ms / 1e3);
  info.Add("check_s", check_ms / 1e3);
  info.Add("api.queue_ms_p50", Percentile(queue, 0.5));
  info.Add("failed_ops_frac", out.attempted == 0 ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted));

  Json top;
  top.AddStr("mode", "plain");
  top.AddStr("digest", Hex(out.digest));
  top.Add("attempted", static_cast<double>(out.attempted));
  top.Add("failed", static_cast<double>(out.failed));
  top.AddRaw("correct", out.wrong == 0 ? "true" : "false");
  top.AddStr("problem", out.first_problem);
  top.AddRaw("metrics", m.str());
  top.AddRaw("info", info.str());
  std::printf("%s\n", top.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: Server's operations rebuilt from the module calls it makes
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  ///< index into the span vector, -1 at top level
  int64_t op;  ///< operation id (sequence position; -1 outside the sequence)
};

/// In-memory span recorder for a single-threaded call path.
class Tracer {
 public:
  int Begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, Now(), 0, parent, op_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = Now();
    stack_.pop_back();
  }
  void set_op(int64_t op) { op_ = op; }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the time its direct children cover.
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= (s.end_ns - s.start_ns) / 1e6;
      }
    }
    return self;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int64_t op_ = -1;
  bool enabled_ = true;
};

class Scoped {
 public:
  Scoped(Tracer* t, const char* name)
      : t_(t->enabled() ? t : nullptr), id_(t_ ? t_->Begin(name) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// What-if provider that records a "stats" span whenever the optimizer (or
/// the executor's storage gate) makes the statistics module create a new
/// statistic.
class TracingWhatIf : public WhatIfProvider {
 public:
  TracingWhatIf(StatisticsManager* stats, Tracer* tracer)
      : WhatIfProvider(stats), tracer_(tracer) {}
  NodeDesc Describe(ColumnSet columns, int num_agg_columns) override {
    if (stats()->Has(columns)) {
      return WhatIfProvider::Describe(columns, num_agg_columns);
    }
    Scoped span(tracer_, "stats");
    return WhatIfProvider::Describe(columns, num_agg_columns);
  }

 private:
  Tracer* tracer_;
};

/// Counters the traced run adds up next to the spans.
struct LayerCounts {
  OptimizerStats opt;
  uint64_t composite_nodes = 0;
  WorkCounters exec;        ///< PlanExecutor work
  WorkCounters serve;       ///< cache-serve re-aggregation work
  uint64_t peak_temp_bytes = 0;
  uint64_t requests = 0;
  uint64_t requests_all_served = 0;  ///< answered by the cache alone
  DeltaMaintenanceReport maint;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t recovery_records = 0;
};

uint64_t CountComposite(const PlanNode& n) {
  uint64_t c = n.kind != NodeKind::kGroupBy ? 1 : 0;
  for (const PlanNode& ch : n.children) c += CountComposite(ch);
  return c;
}

/// Mirrors Server: one base family, statistics snapshot per generation,
/// aggregate cache, governor, WAL and checkpoints, all single-threaded.
class TracedEngine {
 public:
  TracedEngine(TablePtr base, ServerOptions options, Tracer* tracer,
               LayerCounts* counts)
      : base_(std::move(base)), o_(std::move(options)), t_(tracer),
        n_(counts) {
    (void)catalog_.RegisterBase(base_);
    if (o_.global_storage_budget_bytes > 0) {
      governor_ = std::make_unique<StorageGovernor>(o_.global_storage_budget_bytes);
    }
    if (o_.enable_aggregate_cache && o_.cache_budget_bytes > 0) {
      cache_ = std::make_unique<AggregateCache>(&catalog_, o_.cache_budget_bytes,
                                                governor_.get());
    }
    snap_ = MakeSnap(0, base_);
  }
  ~TracedEngine() {
    wal_.reset();
    cache_.reset();
  }

  /// Fresh start (recover_on_start = false): discard logs, open wal-0.
  Status StartFresh() {
    ResetDir(o_.wal_directory);
    return OpenWal(o_.wal_directory + "/wal-0.log");
  }

  /// Recovery: newest readable checkpoint, then every WAL segment.
  Status Recover() {
    const std::string& dir = o_.wal_directory;
    Result<std::vector<CheckpointRef>> cps = ListCheckpoints(dir);
    if (!cps.ok()) return cps.status();
    if (!cps->empty()) {
      Result<CheckpointImage> image = [&] {
        Scoped span(t_, "recovery.read_checkpoint");
        return ReadCheckpoint(cps->back().path);
      }();
      if (!image.ok()) return image.status();
      if (image->base_version > 0) {
        GBMQO_RETURN_NOT_OK(catalog_.RegisterBase(image->base));
        catalog_.SetTableVersion(base_->name(), image->base_version);
        snap_ = MakeSnap(image->base_version, image->base);
      }
      if (cache_ != nullptr) {
        for (auto e = image->entries.rbegin(); e != image->entries.rend(); ++e) {
          std::vector<AggRequest> aggs;
          for (const CheckpointAggRef& a : e->aggs) {
            aggs.push_back(AggRequest{static_cast<AggKind>(a.kind), a.column});
          }
          (void)cache_->RestorePinned(ColumnSet(e->columns_mask), aggs, e->table,
                                      e->source_version, e->needs_recompute);
        }
        cache_->SetSourceVersion(image->base_version);
      }
      checkpoint_version_ = image->base_version;
    }
    std::string live;
    for (const auto& [start, path] : Segments()) {
      WalReplayReport report;
      Scoped span(t_, "recovery.replay");
      GBMQO_RETURN_NOT_OK(ReplayWal(
          path, snap_.version,
          [this](uint64_t version, Rows&& rows) {
            if (version != snap_.version + 1) {
              return Status::Internal("wal record out of sequence");
            }
            return ApplyBatch(rows);
          },
          &report));
      n_->recovery_records += report.records_applied;
      live = path;
    }
    if (live.empty()) live = o_.wal_directory + "/wal-" + std::to_string(snap_.version) + ".log";
    return OpenWal(live);
  }

  /// Server::HandleRequest, call by call.
  Result<ExecutionResult> Request(const RequestSet& requests) {
    Scoped top(t_, "request");
    ++n_->requests;
    OptimizerOptions opt_options = o_.session.optimizer;
    if (cache_ != nullptr) opt_options.cached_views = cache_->SnapshotViews();
    Result<OptimizerResult> opt = [&] {
      Scoped span(t_, "optimizer");
      GbMqoOptimizer optimizer(snap_.model.get(), snap_.whatif.get(), opt_options);
      return optimizer.Optimize(requests);
    }();
    if (!opt.ok()) return opt.status();
    n_->opt.merges_evaluated += opt->stats.merges_evaluated;
    n_->opt.candidates_costed += opt->stats.candidates_costed;
    for (const PlanNode& sp : opt->plan.subplans) n_->composite_nodes += CountComposite(sp);

    RequestSet open;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (opt->cache_edges.count(i) == 0) open.push_back(requests[i]);
    }
    ExecutionResult out;
    if (!open.empty()) {
      Scoped span(t_, "plan_executor");
      const SessionOptions& s = o_.session;
      PlanExecutor executor(&catalog_, snap_.base->name(), s.scan_mode, s.parallelism);
      executor.set_fusion_enabled(s.shared_scan_fusion);
      executor.set_node_parallel(s.node_parallelism);
      const bool per_plan_gate = s.max_exec_storage_bytes > 0;
      if (per_plan_gate || governor_ != nullptr) {
        executor.set_storage_budget(per_plan_gate ? s.max_exec_storage_bytes
                                                  : std::numeric_limits<double>::infinity(),
                                    snap_.whatif.get());
      }
      executor.set_max_task_retries(s.max_task_retries);
      executor.set_retry_backoff_ms(s.retry_backoff_ms);
      executor.set_aggregate_cache(cache_.get());
      executor.set_storage_governor(governor_.get());
      Result<ExecutionResult> run = executor.Execute(opt->plan, open);
      if (!run.ok()) return run.status();
      out = *std::move(run);
      n_->exec += out.counters;
      n_->peak_temp_bytes = std::max(n_->peak_temp_bytes, out.peak_temp_bytes);
    } else {
      ++n_->requests_all_served;
    }
    for (const auto& edge : opt->cache_edges) {
      Scoped span(t_, "cache.serve");
      GBMQO_RETURN_NOT_OK(Serve(requests[edge.first],
                                opt_options.cached_views[edge.second], &out));
    }
    out.base_version = snap_.version;
    return out;
  }

  /// Server::AppendBatch: WAL append, then the apply path.
  Status Append(const Rows& rows) {
    Scoped top(t_, "ingest");
    if (wal_ != nullptr) {
      Scoped span(t_, "wal");
      const uint64_t before = wal_->bytes();
      GBMQO_RETURN_NOT_OK(wal_->Append(snap_.version + 1, rows));
      n_->wal_bytes += wal_->bytes() - before;
    }
    GBMQO_RETURN_NOT_OK(ApplyBatch(rows));
    if (wal_ != nullptr && o_.checkpoint_interval_bytes > 0 &&
        wal_->bytes() >= o_.checkpoint_interval_bytes) {
      (void)CheckpointNow();
    }
    return Status::OK();
  }

  Status Checkpoint() {
    Scoped top(t_, "checkpoint");
    return CheckpointNow();
  }

  /// Where the engine adds up its layer counts from now on.
  void set_counts(LayerCounts* counts) { n_ = counts; }
  uint64_t version() const { return snap_.version; }
  uint64_t rows() const { return snap_.base->num_rows(); }
  AggregateCache* cache() { return cache_.get(); }
  StorageGovernor* governor() { return governor_.get(); }

 private:
  struct Snap {
    uint64_t version = 0;
    TablePtr base;
    std::shared_ptr<StatisticsManager> stats;
    std::shared_ptr<TracingWhatIf> whatif;
    std::shared_ptr<OptimizerCostModel> model;
  };

  Snap MakeSnap(uint64_t version, TablePtr base) {
    Snap s;
    s.version = version;
    s.base = std::move(base);
    s.stats = std::make_shared<StatisticsManager>(*s.base, o_.session.stats_mode,
                                                  o_.session.sample_size);
    s.whatif = std::make_shared<TracingWhatIf>(s.stats.get(), t_);
    s.model = std::make_shared<OptimizerCostModel>(*s.base);
    return s;
  }

  Status OpenWal(const std::string& path) {
    wal_.reset();
    Result<std::unique_ptr<WalWriter>> w = WalWriter::Open(path, o_.fsync_mode, governor_.get());
    if (!w.ok()) return w.status();
    wal_ = std::move(*w);
    return Status::OK();
  }

  std::vector<std::pair<uint64_t, std::string>> Segments() const {
    std::vector<std::pair<uint64_t, std::string>> out;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(o_.wal_directory, ec)) {
      const std::string n = e.path().filename().string();
      if (n.rfind("wal-", 0) != 0 || n.size() < 9 || n.substr(n.size() - 4) != ".log") continue;
      out.emplace_back(std::strtoull(n.substr(4, n.size() - 8).c_str(), nullptr, 10),
                       e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Server::ApplyBatchLocked: delta build, base extend, cache
  /// maintenance, statistics snapshot.
  Status ApplyBatch(const Rows& rows) {
    const std::string family = base_->name();
    Result<TablePtr> delta = [&] {
      Scoped span(t_, "ingest.delta_build");
      return BuildDeltaTable(snap_.base->schema(), rows, family + "@delta");
    }();
    if (!delta.ok()) return delta.status();
    const uint64_t next = snap_.version + 1;
    Result<TablePtr> appended = [&]() -> Result<TablePtr> {
      Scoped span(t_, "ingest.append_rows");
      Result<TablePtr> a = AppendRows(*snap_.base, **delta, family + "@v" + std::to_string(next));
      if (!a.ok()) return a;
      GBMQO_RETURN_NOT_OK(catalog_.RegisterBase(*a));
      catalog_.SetTableVersion(family, next);
      return a;
    }();
    if (!appended.ok()) return appended.status();
    if (cache_ != nullptr) {
      Scoped span(t_, "maintain");
      DeltaMaintenanceOptions mopts;
      mopts.parallelism = o_.session.parallelism;
      DeltaMaintainer maintainer(&catalog_, cache_.get(), mopts);
      Result<DeltaMaintenanceReport> report =
          maintainer.ApplyDelta(*delta, *appended, base_->schema(), next);
      if (report.ok()) {
        n_->maint.entries_refreshed += report->entries_refreshed;
        n_->maint.entries_recomputed += report->entries_recomputed;
        n_->maint.entries_dropped += report->entries_dropped;
        n_->maint.rollup_reuses += report->rollup_reuses;
      } else {
        cache_->Invalidate();
        cache_->SetSourceVersion(next);
      }
    }
    Scoped span(t_, "snapshot");
    const Snap old = snap_;
    snap_ = MakeSnap(next, *appended);
    if (old.version > 0) (void)catalog_.Drop(old.base->name());
    return Status::OK();
  }

  /// Server::ServeCacheEdge.
  Status Serve(const GroupByRequest& req, const CachedViewDesc& view,
               ExecutionResult* out) {
    TablePtr pinned = cache_ != nullptr ? cache_->Lookup(view.columns, view.aggs, 0) : nullptr;
    const Table* input = pinned.get();
    const bool from_base = pinned == nullptr;
    if (from_base) {
      out->counters.cache_misses += 1;
      input = snap_.base.get();
    } else {
      out->counters.cache_hits += 1;
      auto canon = [](std::vector<AggRequest> a) {
        std::sort(a.begin(), a.end());
        a.erase(std::unique(a.begin(), a.end()), a.end());
        return a;
      };
      if (view.columns == req.columns && canon(view.aggs) == canon(req.aggs)) {
        out->results[req.columns] = pinned;
        return Status::OK();
      }
    }
    ExecContext ctx;
    QueryExecutor exec(&ctx, o_.session.scan_mode, o_.session.parallelism);
    Result<GroupByQuery> query = BuildGroupByOver(*input, from_base, base_->schema(),
                                                  req.columns, req.aggs);
    if (!query.ok()) return query.status();
    Result<TablePtr> table = exec.ExecuteGroupBy(*input, *query, "result" + req.columns.ToString(),
                                                 AggStrategy::kAuto);
    if (!table.ok()) return table.status();
    if (cache_ != nullptr) cache_->AcceptPinned(req.columns, req.aggs, *table, false);
    n_->serve += ctx.counters();
    out->counters += ctx.counters();
    out->results[req.columns] = *table;
    return Status::OK();
  }

  /// Server::CheckpointLocked, including WAL rotation and file GC.
  Status CheckpointNow() {
    CheckpointImage image;
    image.base_version = snap_.version;
    image.base = snap_.base;
    if (cache_ != nullptr) {
      for (const RefreshableEntry& e : cache_->SnapshotEntriesLru()) {
        CheckpointCacheEntry ce;
        ce.columns_mask = e.columns.mask();
        for (const AggRequest& a : e.aggs) {
          ce.aggs.push_back(CheckpointAggRef{static_cast<int>(a.kind), a.column});
        }
        ce.source_version = e.source_version;
        ce.needs_recompute = e.needs_recompute;
        ce.table = e.table;
        image.entries.push_back(std::move(ce));
      }
    }
    uint64_t bytes = 0;
    {
      Scoped span(t_, "checkpoint.write");
      GBMQO_RETURN_NOT_OK(WriteCheckpoint(o_.wal_directory, image, governor_.get(), &bytes));
    }
    n_->checkpoint_bytes += bytes;
    if (checkpoint_version_ != image.base_version || wal_ == nullptr) {
      checkpoint_version_ = image.base_version;
      GBMQO_RETURN_NOT_OK(OpenWal(o_.wal_directory + "/wal-" +
                                  std::to_string(checkpoint_version_) + ".log"));
    }
    // Keep the two newest checkpoints and the segments they need.
    Result<std::vector<CheckpointRef>> cps = ListCheckpoints(o_.wal_directory);
    if (!cps.ok()) return cps.status();
    uint64_t keep_floor = checkpoint_version_;
    if (cps->size() >= 2) keep_floor = (*cps)[cps->size() - 2].version;
    std::error_code ec;
    for (const CheckpointRef& cp : *cps) {
      if (cp.version < keep_floor) fs::remove(cp.path, ec);
    }
    const auto segs = Segments();
    for (size_t i = 0; i + 1 < segs.size(); ++i) {
      if (segs[i + 1].first <= keep_floor && segs[i].second != wal_->path()) {
        fs::remove(segs[i].second, ec);
      }
    }
    return Status::OK();
  }

  TablePtr base_;
  ServerOptions o_;
  Tracer* t_;
  LayerCounts* n_;
  Catalog catalog_;
  std::unique_ptr<StorageGovernor> governor_;
  std::unique_ptr<AggregateCache> cache_;
  std::unique_ptr<WalWriter> wal_;
  Snap snap_;
  uint64_t checkpoint_version_ = 0;
};

int RunTraced(const Inputs& in, const RunShared& rs) {
  const std::string wal_dir = rs.dir + "/wal-traced";
  const ServerOptions opts = ProductionOptions(in.spec, wal_dir);
  ServerOptions ropts = opts;
  ropts.recover_on_start = true;
  Tracer tracer;
  LayerCounts counts;  ///< the sequence's work: timed slices and writes
  LayerCounts other;   ///< set-up, probe and recovery work
  Outcome out;
  uint64_t hits = 0, misses = 0, admissions = 0, recovery_records = 0;
  double pinned = 0, reserved = 0;
  std::vector<double> recovery_ms;
  std::vector<bool> timed_op;  ///< per operation id: part of a timed slice

  for (size_t round = 0; round < in.rounds.size(); ++round) {
    // Set-up untraced, as the plain run's.
    tracer.set_enabled(false);
    auto engine = std::make_unique<TracedEngine>(in.base, opts, &tracer, &other);
    if (!engine->StartFresh().ok()) Die("traced engine start failed");
    for (size_t e : in.warmup) {
      if (!engine->Request(in.pool[e]).ok()) Die("traced warm-up failed");
    }
    engine->set_counts(&counts);
    const AggregateCacheStats cache0 =
        engine->cache() ? engine->cache()->stats() : AggregateCacheStats{};
    tracer.set_enabled(true);

    std::vector<uint64_t> rows_at_version = {in.base->num_rows()};
    auto do_op = [&](const Op& op, bool timed) {
      tracer.set_op(static_cast<int64_t>(timed_op.size()));
      timed_op.push_back(timed);
      if (op.kind == Op::kRequest) {
        const RequestSet& req = in.pool[op.arg];
        Result<ExecutionResult> r = engine->Request(req);
        const uint64_t expect = r.ok() && r->base_version < rows_at_version.size()
                                    ? rows_at_version[r->base_version]
                                    : in.base->num_rows();
        tracer.set_enabled(false);
        Verify(r, req, expect, rs.reference.empty() ? nullptr : &rs.reference[op.arg], &out,
               &out.digest);
        tracer.set_enabled(true);
      } else if (op.kind == Op::kIngest) {
        tracer.set_enabled(false);
        const Rows rows = BatchRows(in, op.arg);
        tracer.set_enabled(true);
        ++out.attempted;
        const Status s = engine->Append(rows);
        if (!s.ok()) {
          out.Fail(s.ToString());
        } else {
          rows_at_version.push_back(rows_at_version.back() + rows.size());
        }
      } else {
        ++out.attempted;
        const Status s = engine->Checkpoint();
        if (!s.ok()) out.Fail(s.ToString());
      }
    };
    for (const Op& op : in.rounds[round].timed) do_op(op, true);
    if (engine->cache() != nullptr) {
      const AggregateCacheStats cache1 = engine->cache()->stats();
      hits += cache1.hits - cache0.hits;
      misses += cache1.misses - cache0.misses;
      admissions += cache1.admissions - cache0.admissions;
      pinned = static_cast<double>(cache1.pinned_bytes);
    }
    if (engine->governor() != nullptr) reserved = engine->governor()->reserved();
    for (const Op& op : in.rounds[round].writes) do_op(op, false);

    // Restarts: a "restart" span around engine construction and recovery.
    const uint64_t pre_version = engine->version();
    const uint64_t pre_rows = engine->rows();
    engine->set_counts(&other);
    tracer.set_enabled(false);
    uint64_t pre_probe = 0;
    Verify(engine->Request(in.pool[in.probe_entry]), in.pool[in.probe_entry], pre_rows,
           nullptr, &out, &pre_probe);
    for (int rep = 0; rep < in.spec.restarts; ++rep) {
      engine.reset();
      const uint64_t records_before = other.recovery_records;
      tracer.set_enabled(true);
      tracer.set_op(static_cast<int64_t>(timed_op.size()));
      timed_op.push_back(false);
      const auto t0 = Clock::now();
      Status s;
      {
        Scoped span(&tracer, "restart");
        engine = std::make_unique<TracedEngine>(in.base, ropts, &tracer, &other);
        s = engine->Recover();
      }
      recovery_ms.push_back(Ms(t0, Clock::now()));
      tracer.set_enabled(false);
      recovery_records += other.recovery_records - records_before;
      ++out.attempted;
      if (!s.ok()) {
        out.Fail("traced recovery: " + s.ToString());
        continue;
      }
      uint64_t probe = 0;
      Verify(engine->Request(in.pool[in.probe_entry]), in.pool[in.probe_entry], pre_rows,
             nullptr, &out, &probe);
      if (engine->version() != pre_version || engine->rows() != pre_rows || probe != pre_probe) {
        out.Wrong("traced restart in round " + std::to_string(round) + " did not restore state");
      }
    }
  }

  // ---- per-layer aggregation ----
  // Spans under a "restart" span feed the recovery metrics (median over the
  // restarts); all others, the sequence's layer totals.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfMs();
  std::vector<bool> in_restart(spans.size(), false);
  std::map<std::string, double> self_seq;
  std::map<std::string, std::vector<double>> top_ms;  // per top-level span name
  double busy_ms = 0;  // top-level span time of the timed slices
  uint64_t stats_created = 0;
  std::map<std::string, std::map<int64_t, double>> per_restart;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = (s.end_ns - s.start_ns) / 1e6;
    in_restart[i] = s.parent >= 0 ? in_restart[static_cast<size_t>(s.parent)]
                                  : std::string(s.name) == "restart";
    if (in_restart[i]) {
      per_restart[s.name][s.op] += dur;
      continue;
    }
    self_seq[s.name] += self[i];
    if (std::string(s.name) == "stats") ++stats_created;
    if (s.parent < 0) {
      top_ms[s.name].push_back(dur);
      if (s.op >= 0 && timed_op[static_cast<size_t>(s.op)]) busy_ms += dur;
    }
  }
  auto restart_median = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [op, ms] : per_restart[name]) v.push_back(ms);
    return v.empty() ? 0.0 : Median(v);
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double request_ms = sum(top_ms["request"]);
  const double ingest_ms_total = sum(top_ms["ingest"]);
  auto layer = [&](const char* name) {
    auto it = self_seq.find(name);
    return it == self_seq.end() ? 0.0 : it->second;
  };
  const double exec_ms = layer("plan_executor");
  auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };

  // Spans and self times go to a file at the end of the run.
  {
    const std::string path = rs.dir + "/spans.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"op\": %lld, \"parent\": %d, "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ms\": %.6f}\n",
                   i, s.name, static_cast<long long>(s.op), s.parent,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   self[i]);
    }
    for (const auto& [name, ms] : self_seq) {
      std::fprintf(f, "{\"layer\": \"%s\", \"self_ms\": %.6f}\n", name.c_str(), ms);
    }
    std::fclose(f);
  }

  Json m;
  m.Add("optimizer.optimize_ms", layer("optimizer"));
  m.Add("optimizer.merges_evaluated", static_cast<double>(counts.opt.merges_evaluated));
  m.Add("optimizer.candidates_costed", static_cast<double>(counts.opt.candidates_costed));
  m.Add("optimizer.composite_nodes", static_cast<double>(counts.composite_nodes));
  m.Add("stats.create_ms", layer("stats"));
  m.Add("stats.created", static_cast<double>(stats_created));
  m.Add("plan_executor.execute_ms", exec_ms);
  m.Add("plan_executor.queries_executed", static_cast<double>(counts.exec.queries_executed));
  m.Add("plan_executor.bytes_materialized", static_cast<double>(counts.exec.bytes_materialized));
  m.Add("plan_executor.peak_temp_bytes", static_cast<double>(counts.peak_temp_bytes));
  m.Add("plan_executor.tasks_retried", static_cast<double>(counts.exec.tasks_retried));
  m.Add("exec.rows_scanned", static_cast<double>(counts.exec.rows_scanned));
  m.Add("exec.rows_per_s", exec_ms > 0 ? counts.exec.rows_scanned / (exec_ms / 1e3) : 0.0);
  m.Add("exec.hash_probes", static_cast<double>(counts.exec.hash_probes));
  m.Add("exec.rows_emitted", static_cast<double>(counts.exec.rows_emitted));
  m.Add("exec.dense_kernel_rows", static_cast<double>(counts.exec.dense_kernel_rows));
  m.Add("exec.packed_kernel_rows", static_cast<double>(counts.exec.packed_kernel_rows));
  m.Add("exec.multiword_kernel_rows", static_cast<double>(counts.exec.multiword_kernel_rows));
  m.Add("exec.sort_kernel_rows", static_cast<double>(counts.exec.sort_kernel_rows));
  m.Add("cache.hits", static_cast<double>(hits));
  m.Add("cache.misses", static_cast<double>(misses));
  m.Add("cache.hit_ratio", share(static_cast<double>(hits), static_cast<double>(hits + misses)));
  m.Add("cache.request_hit_ratio", share(static_cast<double>(counts.requests_all_served),
                                         static_cast<double>(counts.requests)));
  m.Add("cache.admissions", static_cast<double>(admissions));
  m.Add("cache.pinned_bytes", pinned);
  m.Add("cache.serve_ms", layer("cache.serve"));
  m.Add("cache.serve_rows_scanned", static_cast<double>(counts.serve.rows_scanned));
  m.Add("ingest.delta_build_ms", layer("ingest.delta_build"));
  m.Add("ingest.append_rows_ms", layer("ingest.append_rows"));
  m.Add("wal.append_ms", layer("wal"));
  m.Add("wal.bytes", static_cast<double>(counts.wal_bytes));
  m.Add("maintain.apply_ms", layer("maintain"));
  m.Add("maintain.entries_refreshed", static_cast<double>(counts.maint.entries_refreshed));
  m.Add("maintain.entries_recomputed", static_cast<double>(counts.maint.entries_recomputed));
  m.Add("maintain.entries_dropped", static_cast<double>(counts.maint.entries_dropped));
  m.Add("maintain.rollup_reuses", static_cast<double>(counts.maint.rollup_reuses));
  m.Add("snapshot.rebuild_ms", layer("snapshot"));
  m.Add("checkpoint.write_ms", layer("checkpoint.write"));
  m.Add("checkpoint.bytes", static_cast<double>(counts.checkpoint_bytes));
  m.Add("recovery.read_checkpoint_ms", restart_median("recovery.read_checkpoint"));
  m.Add("recovery.replay_ms", restart_median("recovery.replay"));
  m.Add("recovery.records_applied",
        static_cast<double>(recovery_records) / static_cast<double>(recovery_ms.size()));
  m.Add("governor.reserved_bytes", reserved);
  m.Add("trace.request_ms", request_ms);
  m.Add("trace.ingest_ms", ingest_ms_total);
  m.Add("share.execute_of_request", share(exec_ms, request_ms));
  m.Add("share.stats_of_request", share(layer("stats"), request_ms));
  m.Add("share.optimize_of_request", share(layer("optimizer"), request_ms));
  m.Add("share.serve_of_request", share(layer("cache.serve"), request_ms));
  m.Add("share.append_rows_of_ingest", share(layer("ingest.append_rows"), ingest_ms_total));

  // Traced end-to-end numbers, to set beside the plain run's.
  Json info;
  info.Add("req_p50_ms", Percentile(top_ms["request"], 0.5));
  info.Add("req_p90_ms", Percentile(top_ms["request"], 0.9));
  // Closed-loop throughput over the timed slices' busy time (requests,
  // ingests and checkpoints), the traced analogue of the plain run's wall.
  info.Add("req_per_s", busy_ms > 0 ? top_ms["request"].size() / (busy_ms / 1e3) : 0.0);
  info.Add("ingest_p50_ms", Percentile(top_ms["ingest"], 0.5));
  info.Add("recovery_s", Median(recovery_ms) / 1e3);

  Json top;
  top.AddStr("mode", "traced");
  top.AddStr("digest", Hex(out.digest));
  top.Add("attempted", static_cast<double>(out.attempted));
  top.Add("failed", static_cast<double>(out.failed));
  top.AddRaw("correct", out.wrong == 0 ? "true" : "false");
  top.AddStr("problem", out.first_problem);
  top.AddRaw("metrics", m.str());
  top.AddRaw("info", info.str());
  std::printf("%s\n", top.str().c_str());
  return 0;
}

/// Fixed-work CPU loop, timed: the host-drift probe.
int RunProbe() {
  const auto t0 = Clock::now();
  uint64_t x = 1;
  for (uint64_t i = 0; i < 60'000'000; ++i) x = Mix(x + i);
  const double ms = Ms(t0, Clock::now());
  std::printf("{\"mode\": \"probe\", \"probe_ms\": %.6f, \"sink\": %llu}\n", ms,
              static_cast<unsigned long long>(x & 1));
  return 0;
}

}  // namespace
}  // namespace gbmqo

int main(int argc, char** argv) {
  using namespace gbmqo;
  std::string workload, mode = "plain", dir = ".bench_run";
  uint64_t seed = 1;
  int seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--seed") seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atoi(next().c_str());
    else if (a == "--mode") mode = next();
    else if (a == "--dir") dir = next();
    else Die("unknown argument " + a);
  }
  if (mode == "probe") return RunProbe();
  if (seconds < 1) Die("--seconds N (N >= 1) is required");
  const Inputs in = MakeInputs(workload, seed, seconds);
  const RunShared rs = Prepare(in, dir);
  if (mode == "plain") return RunPlain(in, rs);
  if (mode == "traced") return RunTraced(in, rs);
  Die("unknown mode " + mode);
}
