// The benchmark's workloads: each builds a database from a seed, produces a
// deterministic statement stream in whole cycles, and knows the right answer
// to every statement it issues.
//
//   tpcd_mix   the paper's seven TPC-D queries over SF 0.02, stale catalog
//   star_join  8-10-relation star, chain and snowflake joins, data in pool
//   dml_churn  autocommit INSERT/UPDATE/DELETE plus reads over SF 0.005
//
// The engine sees only the generated data and SQL text.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

/// Order-independent canonical form of a result set, compared with a
/// relative tolerance on DOUBLE columns: a plan switch reorders additions,
/// so sums may differ in their last bits.
class Answer {
 public:
  Answer() = default;
  explicit Answer(const std::vector<reoptdb::Tuple>& rows);
  bool Matches(const Answer& other) const;

 private:
  /// Non-DOUBLE columns rendered as text -> the DOUBLE columns of every row
  /// with that text, sorted.
  std::map<std::string, std::vector<std::vector<double>>> groups_;
  size_t rows_ = 0;
};

/// Exact, order-independent digest of a result set (every bit of every
/// value). Two runs of the same plan on the same data agree on it.
uint64_t ExactDigest(const std::vector<reoptdb::Tuple>& rows);

struct Statement {
  bool is_read = true;
  std::string sql;
  /// Reads: the rows the statement must return; null when only the
  /// workload's final check covers it.
  std::shared_ptr<const Answer> expected;
  /// Writes: rows the statement must affect.
  uint64_t expected_rows = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Creates and loads a fresh database (data generation, index build,
  /// ANALYZE). Deterministic in the seed given at construction.
  virtual std::unique_ptr<reoptdb::Database> Setup() = 0;

  /// Untimed preparation on a set-up database: reference answers (computed
  /// with re-optimization off) or the model of the data the writes start
  /// from. Must be called once, before the first NextCycle().
  virtual reoptdb::Status Prepare(reoptdb::Database* db) = 0;

  /// Appends one cycle of statements. Cycles are the unit of a run, so the
  /// statement mix of a run is exact whatever its length.
  virtual void NextCycle(std::vector<Statement>* out) = 0;

  /// Queries Prepare() ran through Database::ExecuteWith. Each one advanced
  /// the database's per-query seed counter, which the traced path mirrors.
  virtual uint64_t prepare_queries() const { return 0; }

  /// Checks the database against the workload's model after the run.
  /// Returns the number of mismatches; each is also printed to stderr.
  virtual reoptdb::Result<int> FinalCheck(reoptdb::Database* db) {
    return 0;
  }

  /// Checkpoint after every this many commits (0 = never).
  virtual int checkpoint_every() const { return 0; }

  /// The largest base table; the storage and decode probes read it.
  virtual std::string probe_table() const = 0;
};

/// The workload named `name`, or nullptr when there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Re-optimization settings of every timed read: full, paper defaults.
reoptdb::ReoptOptions TimedReoptOptions();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
