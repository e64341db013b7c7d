// perfbench: reoptdb's wall-clock benchmark, one workload per process.
//
//   perfbench --workload tpcd_mix|star_join|dml_churn --seed N --seconds S
//             --trace 0|1 [--cycles N] [--trace-out FILE] [--report FILE]
//
// --trace 0 sets the workload up at least three times and until set-up has
// taken two seconds, keeps the last database and runs its statement cycles
// untraced for --seconds; it reports the end-to-end metrics, setup_s as the
// median set-up. --trace 1 runs the cycles untraced on one fresh database
// and traced on a second one, each for half of --seconds, checks that both
// runs agree statement by statement, probes storage and decode costs,
// prints the layer table to stderr and reports the per-layer metrics.
// --cycles N runs exactly N cycles per phase instead of a time bound, which
// makes every counter repeatable.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace-out writes the spans of the traced run; --report writes every
// metric the run computed, of both kinds, as one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using reoptdb::Database;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int cycles = 0;
  std::string trace_out;
  std::string report;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      a->workload = v;
      have_workload = true;
    } else if (!std::strcmp(flag, "--seed")) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      a->seconds = std::atof(v);
    } else if (!std::strcmp(flag, "--trace")) {
      a->trace = std::atoi(v);
    } else if (!std::strcmp(flag, "--cycles")) {
      a->cycles = std::atoi(v);
    } else if (!std::strcmp(flag, "--trace-out")) {
      a->trace_out = v;
    } else if (!std::strcmp(flag, "--report")) {
      a->report = v;
    } else {
      return false;
    }
  }
  return have_workload && (a->trace == 0 || a->trace == 1) &&
         a->seconds > 0 && a->cycles >= 0;
}

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct SetupResult {
  std::unique_ptr<Database> db;
  double setup_s = 0;
  double calibrate_ms = 0;
};

/// Data generation, index build, ANALYZE and the first calibration().
SetupResult SetUp(Workload* wl) {
  SetupResult r;
  const Clock::time_point t0 = Clock::now();
  r.db = wl->Setup();
  if (r.db == nullptr) return r;
  const Clock::time_point t1 = Clock::now();
  (void)r.db->calibration();
  r.calibrate_ms = Seconds(t1) * 1000;
  r.setup_s = Seconds(t0);
  return r;
}

bool Prepared(Workload* wl, Database* db) {
  const reoptdb::Status st = wl->Prepare(db);
  if (!st.ok())
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
  return st.ok();
}

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in the order they are printed.
using Metrics = std::vector<Metric>;

void Add(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", m[i].name.c_str(), m[i].value,
                  m[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Latencies as the client saw them: every statement's own wall time.
void AddAsSeen(Metrics* m, const PhaseResult& phase) {
  std::vector<double> read_ms;
  for (const StatementRecord& s : phase.statements)
    if (s.is_read) read_ms.push_back(s.wall_ms);
  Add(m, "throughput_qps",
      Ratio(static_cast<double>(phase.statements.size()), phase.engine_s),
      "1/s");
  Add(m, "read_ms_p50", Percentile(read_ms, 0.5), "ms");
  Add(m, "read_ms_p90", Percentile(read_ms, 0.9), "ms");
}

/// End-to-end metrics of an untraced phase, from each cycle slot's fastest
/// run. A slot runs the same kind of SQL every cycle, so its fastest run is
/// the statement's cost on an uncontended core. The shared VM this was
/// built on runs about 1.4x slower in stretches of seconds to minutes, and
/// the share of slow time differs from run to run, which moves medians of
/// raw latencies (perfbench/README.md has figures). read_sim_ms is the mean
/// over every read.
void AddEndToEnd(Metrics* m, const PhaseResult& phase) {
  std::map<int, StatementRecord> best;  // slot -> its fastest statement
  double statement_ms = 0, sim = 0;
  uint64_t reads = 0;
  for (const StatementRecord& s : phase.statements) {
    auto [it, fresh] = best.emplace(s.slot, s);
    if (!fresh && s.wall_ms < it->second.wall_ms) it->second = s;
    statement_ms += s.wall_ms;
    if (s.is_read) {
      sim += s.sim_ms;
      ++reads;
    }
  }
  // Checkpoints run between statements; spread their time over the cycles.
  double cycle_ms = Ratio(phase.engine_s * 1000 - statement_ms, phase.cycles);
  std::vector<double> read_ms;
  for (const auto& [slot, s] : best) {
    cycle_ms += s.wall_ms;
    if (s.is_read) read_ms.push_back(s.wall_ms);
  }
  Add(m, "throughput_best_qps",
      Ratio(static_cast<double>(best.size()) * 1000, cycle_ms), "1/s");
  Add(m, "read_best_ms_p50", Percentile(read_ms, 0.5), "ms");
  Add(m, "read_best_ms_p90", Percentile(read_ms, 0.9), "ms");
  Add(m, "read_sim_ms", Ratio(sim, static_cast<double>(reads)), "ms");
}

std::vector<double> WriteLatencies(const PhaseResult& phase) {
  std::vector<double> v;
  for (const StatementRecord& s : phase.statements)
    if (!s.is_read) v.push_back(s.wall_ms);
  return v;
}

/// Statement-by-statement comparison of the traced run against the
/// untraced one over their common prefix: rows and simulated time must be
/// identical, or the traced path is not the engine's path.
int GuardMismatches(const PhaseResult& untraced, const PhaseResult& traced) {
  const size_t n =
      std::min(untraced.statements.size(), traced.statements.size());
  int bad = 0;
  for (size_t i = 0; i < n; ++i) {
    const StatementRecord& a = untraced.statements[i];
    const StatementRecord& b = traced.statements[i];
    if (a.is_read == b.is_read && a.digest == b.digest && a.sim_ms == b.sim_ms)
      continue;
    if (++bad <= 5)
      std::fprintf(stderr,
                   "traced run diverges at statement %zu: digest %llx/%llx "
                   "sim_ms %.17g/%.17g\n",
                   i, static_cast<unsigned long long>(a.digest),
                   static_cast<unsigned long long>(b.digest), a.sim_ms,
                   b.sim_ms);
  }
  if (n == 0) {
    std::fprintf(stderr, "traced run has no statements to compare\n");
    ++bad;
  }
  return bad;
}

bool IsStatementRoot(const Span& s) {
  return s.parent < 0 && std::strncmp(s.name, "stmt.", 5) == 0;
}

/// Prints each span name's calls, total and self time, and its share of
/// the summed statement wall time. Returns the share of statement time
/// the statements' child spans cover.
double PrintLayerTable(const std::string& workload, uint64_t seed,
                       const std::vector<Span>& spans) {
  struct Row {
    uint64_t calls = 0;
    double total_us = 0;
    double child_us = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  double stmt_us = 0, covered_us = 0;
  for (const Span& s : spans) {
    const double d = s.end_us - s.start_us;
    if (!rows.count(s.name)) order.push_back(s.name);
    Row& r = rows[s.name];
    ++r.calls;
    r.total_us += d;
    if (IsStatementRoot(s)) stmt_us += d;
    if (s.parent >= 0) {
      rows[spans[s.parent].name].child_us += d;
      if (IsStatementRoot(spans[s.parent])) covered_us += d;
    }
  }
  const double coverage = Ratio(covered_us, stmt_us);
  std::fprintf(stderr,
               "\nlayer table: %s seed %llu, traced, %.1f ms in statements, "
               "child spans cover %.1f%%\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               stmt_us / 1000, coverage * 100);
  std::fprintf(stderr, "%-16s %8s %12s %12s %8s\n", "span", "calls",
               "total_ms", "self_ms", "share");
  for (const std::string& name : order) {
    const Row& r = rows[name];
    std::fprintf(stderr, "%-16s %8llu %12.3f %12.3f %7.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(r.calls), r.total_us / 1000,
                 (r.total_us - r.child_us) / 1000,
                 Ratio(r.total_us, stmt_us) * 100);
  }
  std::fprintf(stderr,
               "(optimizer.plan is a probe outside the statements; "
               "txn.checkpoint is maintenance between them)\n\n");
  return coverage;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                 "%.3f, \"parent\": %d, \"statement\": %lld}",
                 i ? "," : "", s.name, s.start_us, s.end_us, s.parent,
                 static_cast<long long>(s.statement));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// Per-layer metrics of a traced phase; `untraced` supplies the write
/// latencies and the untraced rate for the tracing overhead.
void AddPerLayer(Metrics* m, const PhaseResult& untraced,
                 const PhaseResult& traced, const Probes& probes,
                 double calibrate_ms, double coverage) {
  const LayerCounters& c = traced.counters;
  const double reads = static_cast<double>(c.reads);
  const double writes = static_cast<double>(c.writes);
  const double stmts = reads + writes;
  const double commits = static_cast<double>(c.commits);
  AddAsSeen(m, untraced);
  const std::vector<double> write_ms = WriteLatencies(untraced);
  Add(m, "write_ms_p50", Percentile(write_ms, 0.5), "ms");
  Add(m, "write_ms_p90", Percentile(write_ms, 0.9), "ms");
  Add(m, "parser.parse_us", Ratio(c.parse_us, stmts), "us");
  Add(m, "parser.bind_us", Ratio(c.bind_us, reads), "us");
  Add(m, "optimizer.plan_ms", Ratio(c.plan_ms, reads), "ms");
  Add(m, "optimizer.plans_enumerated",
      Ratio(static_cast<double>(c.plans_enumerated), reads), "count");
  Add(m, "optimizer.calibrate_ms", calibrate_ms, "ms");
  Add(m, "optimizer.qerror_p50", Percentile(c.qerrors, 0.5), "ratio");
  Add(m, "optimizer.qerror_max",
      c.qerrors.empty() ? 0 : *std::max_element(c.qerrors.begin(),
                                                c.qerrors.end()),
      "ratio");
  Add(m, "reopt.start_ms", Ratio(c.start_ms, reads), "ms");
  Add(m, "reopt.start_self_ms", Ratio(c.start_ms - c.plan_ms, reads), "ms");
  Add(m, "reopt.step_ms", Ratio(c.step_ms, reads), "ms");
  Add(m, "reopt.steps", Ratio(static_cast<double>(c.steps), reads), "count");
  Add(m, "reopt.collectors", Ratio(static_cast<double>(c.collectors), reads),
      "count");
  Add(m, "reopt.reopts_considered",
      Ratio(static_cast<double>(c.reopts_considered), reads), "count");
  Add(m, "reopt.plans_switched",
      Ratio(static_cast<double>(c.plans_switched), reads), "count");
  Add(m, "reopt.switch_yield",
      Ratio(static_cast<double>(c.plans_switched),
            static_cast<double>(c.reopts_considered)),
      "ratio");
  Add(m, "reopt.overhead_sim_ms", Ratio(c.overhead_sim_ms, reads), "ms");
  Add(m, "memory.reallocations",
      Ratio(static_cast<double>(c.reallocations), reads), "count");
  Add(m, "exec.rows_produced",
      Ratio(static_cast<double>(c.rows_produced), reads), "count");
  Add(m, "exec.ns_per_row",
      Ratio(c.step_ms * 1e6, static_cast<double>(c.rows_produced)), "ns");
  const double page_reads = Ratio(static_cast<double>(c.page_reads), stmts);
  const double page_writes = Ratio(static_cast<double>(c.page_writes), stmts);
  Add(m, "storage.page_reads", page_reads, "count");
  Add(m, "storage.page_writes", page_writes, "count");
  Add(m, "storage.pages_allocated",
      Ratio(static_cast<double>(c.pages_allocated), stmts), "count");
  Add(m, "storage.pool_hit_ratio",
      Ratio(static_cast<double>(c.pool_hits),
            static_cast<double>(c.pool_hits + c.pool_misses)),
      "ratio");
  Add(m, "storage.dirty_evictions",
      Ratio(static_cast<double>(c.dirty_evictions), stmts), "count");
  Add(m, "storage.read_page_us", probes.read_page_us, "us");
  Add(m, "storage.write_page_us", probes.write_page_us, "us");
  Add(m, "storage.read_ms_est", page_reads * probes.read_page_us / 1000, "ms");
  Add(m, "storage.write_ms_est", page_writes * probes.write_page_us / 1000,
      "ms");
  Add(m, "storage.scan_ns_per_row", probes.scan_ns_per_row, "ns");
  Add(m, "types.decode_ns_per_row", probes.decode_ns_per_row, "ns");
  Add(m, "txn.dml_us", Ratio(c.dml_us, writes), "us");
  Add(m, "txn.commit_us", Ratio(c.commit_us, commits), "us");
  Add(m, "txn.wal_records_per_commit",
      Ratio(static_cast<double>(c.wal_records), commits), "count");
  Add(m, "txn.fsyncs_per_commit", Ratio(static_cast<double>(c.fsyncs), commits),
      "count");
  Add(m, "txn.checkpoint_ms",
      Ratio(c.checkpoint_ms, static_cast<double>(c.checkpoints)), "ms");
  const double untraced_qps = Ratio(
      static_cast<double>(untraced.statements.size()), untraced.engine_s);
  const double traced_qps =
      Ratio(static_cast<double>(traced.statements.size()), traced.engine_s);
  Add(m, "obs.trace_overhead_frac",
      traced_qps > 0 ? untraced_qps / traced_qps - 1 : 0, "ratio");
  Add(m, "obs.span_coverage", coverage, "ratio");
}

int Run(const Args& args) {
  const std::string& name = args.workload;
  std::unique_ptr<Workload> wl = MakeWorkload(name, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 2;
  }
  PhaseOptions opts;
  opts.seconds = args.seconds;
  opts.cycles = args.cycles;

  Metrics out;     // printed on stdout
  Metrics report;  // everything, for --report
  int failed = 0;
  uint64_t attempted = 0;
  auto final_check = [&](Workload* w, Database* db) {
    reoptdb::Result<int> bad = w->FinalCheck(db);
    if (!bad.ok()) {
      std::fprintf(stderr, "final check failed: %s\n",
                   bad.status().ToString().c_str());
      ++failed;
    } else {
      failed += *bad;
    }
  };

  if (args.trace == 0) {
    // A short set-up is noisy on its own; repeat it within a time budget
    // and take the median.
    constexpr int kMinSetups = 3;
    constexpr int kMaxSetups = 15;
    constexpr double kSetupBudgetS = 2.0;
    std::vector<double> setup_s, calibrate_ms;
    double spent_s = 0;
    SetupResult s;
    for (int i = 0; i < kMinSetups || (spent_s < kSetupBudgetS &&
                                        i < kMaxSetups);
         ++i) {
      s = SetupResult{};  // frees the previous database first
      s = SetUp(wl.get());
      if (s.db == nullptr) return 2;
      setup_s.push_back(s.setup_s);
      calibrate_ms.push_back(s.calibrate_ms);
      spent_s += s.setup_s;
    }
    if (!Prepared(wl.get(), s.db.get())) return 2;
    const PhaseResult phase = RunPhase(s.db.get(), wl.get(), opts);
    attempted = phase.statements.size();
    failed += phase.failed;
    final_check(wl.get(), s.db.get());
    Add(&out, "setup_s", Median(setup_s), "s");
    AddEndToEnd(&out, phase);
    Add(&out, "peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024, "MB");
    report = out;
    AddAsSeen(&report, phase);
    Add(&report, "optimizer.calibrate_ms", Median(calibrate_ms), "ms");
  } else {
    // Untraced on one database, traced on a second, same seed; the two
    // phases share the time bound. `s` keeps the traced database for the
    // probes.
    opts.seconds = args.seconds / 2;
    std::unique_ptr<Workload> wl2 = MakeWorkload(name, args.seed);
    Workload* const workloads[2] = {wl.get(), wl2.get()};
    PhaseResult phases[2];
    std::vector<double> calibrate_ms;
    SetupResult s;
    for (int traced = 0; traced < 2; ++traced) {
      s = SetupResult{};  // frees the previous database first
      s = SetUp(workloads[traced]);
      if (s.db == nullptr || !Prepared(workloads[traced], s.db.get()))
        return 2;
      calibrate_ms.push_back(s.calibrate_ms);
      opts.traced = traced == 1;
      phases[traced] = RunPhase(s.db.get(), workloads[traced], opts);
      failed += phases[traced].failed;
      final_check(workloads[traced], s.db.get());
    }
    const PhaseResult& untraced = phases[0];
    const PhaseResult& traced = phases[1];
    const int diverged = GuardMismatches(untraced, traced);
    failed += diverged;
    attempted = untraced.statements.size() + traced.statements.size();

    reoptdb::Result<Probes> probes = RunProbes(s.db.get(), wl2->probe_table());
    if (!probes.ok()) {
      std::fprintf(stderr, "probes failed: %s\n",
                   probes.status().ToString().c_str());
      return 2;
    }
    const double coverage = PrintLayerTable(name, args.seed, traced.spans);
    if (!args.trace_out.empty() &&
        !WriteSpans(args.trace_out, name, args.seed, traced.spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    AddPerLayer(&out, untraced, traced, *probes, Median(calibrate_ms),
                coverage);
    report = out;
    AddEndToEnd(&report, untraced);
    Add(&report, "guard.diverged", diverged, "count");
  }
  Add(&report, "statements", static_cast<double>(attempted), "count");

  if (!args.report.empty()) {
    std::FILE* f = std::fopen(args.report.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.report.c_str());
      return 2;
    }
    std::fprintf(f, "%s\n", MetricsJson(report).c_str());
    std::fclose(f);
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted), failed,
              MetricsJson(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--cycles N] [--trace-out FILE] "
                 "[--report FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
