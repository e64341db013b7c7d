// Runs a workload's statement stream against a database, closed loop with
// one client: each statement is sent when the previous one has returned.
//
// Untraced phases call the engine's own entry points (Database::ExecuteWith
// for reads, Database::ExecuteSql for writes) and give the end-to-end
// numbers. The traced phase drives the same public steps those entry points
// take, in the same order and with the same per-query seed, and records one
// span per call plus the counters the engine exposes; it gives the per-layer
// numbers. Spans stay in memory until the run ends.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads.h"

namespace perfbench {

/// One executed statement.
struct StatementRecord {
  int slot = 0;  ///< position in its cycle; a slot runs the same kind of SQL
  bool is_read = true;
  bool ok = false;      ///< ran without error and its answer checked out
  double wall_ms = 0;   ///< latency as the client sees it
  double sim_ms = 0;    ///< reads: the engine's simulated time
  uint64_t digest = 0;  ///< reads: ExactDigest of the rows; writes: rows hit
};

/// A timed call. `parent` indexes the enclosing span (-1 for roots).
struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int64_t statement = -1;  ///< -1 for spans outside any statement
};

/// Per-layer totals gathered by the traced phase.
struct LayerCounters {
  uint64_t reads = 0, writes = 0, commits = 0, checkpoints = 0;
  double parse_us = 0, bind_us = 0;
  double plan_ms = 0;
  uint64_t plans_enumerated = 0;
  double start_ms = 0, step_ms = 0;
  uint64_t steps = 0;
  uint64_t collectors = 0, reopts_considered = 0, plans_switched = 0;
  uint64_t reallocations = 0;
  double overhead_sim_ms = 0;
  std::vector<double> qerrors;
  uint64_t rows_produced = 0;
  uint64_t page_reads = 0, page_writes = 0, pages_allocated = 0;
  uint64_t pool_hits = 0, pool_misses = 0, dirty_evictions = 0;
  double dml_us = 0, commit_us = 0, checkpoint_ms = 0;
  uint64_t wal_records = 0, fsyncs = 0;
};

struct PhaseResult {
  std::vector<StatementRecord> statements;
  int cycles = 0;
  /// Wall seconds spent inside the engine: statements plus checkpoints.
  /// Answer checks run outside it.
  double engine_s = 0;
  int failed = 0;
  std::vector<Span> spans;  ///< traced phase only
  LayerCounters counters;   ///< traced phase only
};

struct PhaseOptions {
  double seconds = 10;  ///< run whole cycles until this much wall time passed
  int cycles = 0;       ///< when > 0, run exactly this many cycles instead
  bool traced = false;
};

/// Runs `workload`'s cycles against `db`. `workload` must be prepared on
/// `db`, and nothing else may have run on `db` since.
PhaseResult RunPhase(reoptdb::Database* db, Workload* workload,
                     const PhaseOptions& opts);

/// Per-call costs measured directly on `table`'s pages after a run.
struct Probes {
  double read_page_us = 0;     ///< DiskManager::ReadPage, checksum included
  double write_page_us = 0;    ///< DiskManager::WritePage on scratch pages
  double scan_ns_per_row = 0;  ///< HeapFile::Scan, read and decode
  double decode_ns_per_row = 0;  ///< Tuple::DeserializeInto alone
};

reoptdb::Result<Probes> RunProbes(reoptdb::Database* db,
                                  const std::string& table);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
