#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "exec/exec_context.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "parser/statement.h"
#include "reopt/controller.h"
#include "storage/heap_file.h"

namespace perfbench {

using reoptdb::Database;
using reoptdb::Result;
using reoptdb::Status;
using reoptdb::Tuple;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Records spans against a clock origin.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans)
      : spans_(spans), origin_(Clock::now()) {}

  int Begin(const char* name, int parent, int64_t statement) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.statement = statement;
    s.start_us = NowUs();
    spans_->push_back(s);
    return static_cast<int>(spans_->size()) - 1;
  }

  /// Ends span `i`; returns its duration in microseconds.
  double End(int i) {
    Span& s = (*spans_)[i];
    s.end_us = NowUs();
    return s.end_us - s.start_us;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  std::vector<Span>* spans_;
  Clock::time_point origin_;
};

/// Same seed Database::ExecuteWith gives the n-th query it runs.
uint64_t QuerySeed(uint64_t n) { return 1234 + n; }

/// Database::ExecuteWith's optimizer settings.
reoptdb::OptimizerOptions EngineOptimizerOptions(const Database& db) {
  reoptdb::OptimizerOptions o = db.options().optimizer;
  o.assumed_mem_pages = db.options().query_mem_pages;
  o.pool_pages_hint = static_cast<double>(db.options().buffer_pool_pages);
  return o;
}

/// Database::CaptureScanSnapshots through the public surface.
void CaptureSnapshots(Database* db, reoptdb::ExecContext* ctx) {
  reoptdb::Catalog* catalog = db->catalog();
  for (const std::string& name : catalog->TableNames()) {
    Result<reoptdb::TableInfo*> info = catalog->Get(name);
    if (!info.ok() || info.value()->is_temp) continue;
    ctx->SetSnapshot(name, reoptdb::ExecContext::TableSnapshot{
                               info.value()->heap->tuple_count(),
                               db->txn_manager()->commit_epoch()});
  }
}

bool CheckRead(const Statement& stmt, const std::vector<Tuple>& rows) {
  return stmt.expected == nullptr || Answer(rows).Matches(*stmt.expected);
}

/// Rows affected, from ExecuteSql's "<verb> N row(s)" message.
uint64_t AffectedRows(const std::string& message) {
  const size_t sp = message.find(' ');
  return sp == std::string::npos ? 0
                                 : std::strtoull(message.c_str() + sp + 1,
                                                 nullptr, 10);
}

double QError(double est, double obs) {
  est = std::max(est, 1.0);
  obs = std::max(obs, 1.0);
  return std::max(est / obs, obs / est);
}

class PhaseRunner {
 public:
  PhaseRunner(Database* db, Workload* wl, bool traced)
      : db_(db),
        wl_(wl),
        traced_(traced),
        tracer_(&result_.spans),
        queries_run_(wl->prepare_queries()) {}

  PhaseResult Run(const PhaseOptions& opts) {
    const Clock::time_point start = Clock::now();
    std::vector<Statement> cycle;
    for (int c = 0;; ++c) {
      if (opts.cycles > 0 ? c >= opts.cycles
                          : MsSince(start) >= opts.seconds * 1000)
        break;
      cycle.clear();
      wl_->NextCycle(&cycle);
      ++result_.cycles;
      for (size_t slot = 0; slot < cycle.size(); ++slot) {
        const Statement& stmt = cycle[slot];
        StatementRecord rec =
            stmt.is_read ? (traced_ ? TracedRead(stmt) : Read(stmt))
                         : (traced_ ? TracedWrite(stmt) : Write(stmt));
        rec.slot = static_cast<int>(slot);
        result_.engine_s += rec.wall_ms / 1000;
        if (!rec.ok) ++result_.failed;
        result_.statements.push_back(rec);
        if (!stmt.is_read && rec.ok) MaybeCheckpoint();
      }
    }
    return std::move(result_);
  }

 private:
  StatementRecord Read(const Statement& stmt) {
    StatementRecord rec;
    const Clock::time_point t0 = Clock::now();
    Result<reoptdb::QueryResult> r =
        db_->ExecuteWith(stmt.sql, TimedReoptOptions());
    rec.wall_ms = MsSince(t0);
    ++queries_run_;
    if (!r.ok()) {
      std::fprintf(stderr, "read failed: %s\n  %s\n",
                   r.status().ToString().c_str(), stmt.sql.c_str());
      return rec;
    }
    rec.sim_ms = r->report.sim_time_ms;
    rec.digest = ExactDigest(r->rows);
    rec.ok = Checked(CheckRead(stmt, r->rows), stmt);
    return rec;
  }

  StatementRecord Write(const Statement& stmt) {
    StatementRecord rec;
    rec.is_read = false;
    const Clock::time_point t0 = Clock::now();
    Result<reoptdb::QueryResult> r = db_->ExecuteSql(stmt.sql);
    rec.wall_ms = MsSince(t0);
    if (!r.ok()) {
      std::fprintf(stderr, "write failed: %s\n  %s\n",
                   r.status().ToString().c_str(), stmt.sql.c_str());
      return rec;
    }
    rec.digest = AffectedRows(r->message);
    rec.ok = Checked(rec.digest == stmt.expected_rows, stmt);
    return rec;
  }

  /// ParseSelect -> Bind -> StartSession -> Step until done, as
  /// Database::ExecuteWith does it (plan cache and feedback are off).
  StatementRecord TracedRead(const Statement& stmt) {
    StatementRecord rec;
    const int64_t id = static_cast<int64_t>(result_.statements.size());
    LayerCounters& c = counters();
    ++c.reads;

    // Probe: Optimizer::Plan on the same spec, outside the statement.
    {
      Result<reoptdb::SelectStmtAst> ast = reoptdb::ParseSelect(stmt.sql);
      Result<reoptdb::QuerySpec> spec =
          ast.ok() ? reoptdb::Bind(*ast, *db_->catalog())
                   : Result<reoptdb::QuerySpec>(ast.status());
      if (spec.ok()) {
        reoptdb::Optimizer optimizer(db_->catalog(), &db_->cost_model(),
                                     EngineOptimizerOptions(*db_));
        const int s = tracer_.Begin("optimizer.plan", -1, id);
        Result<reoptdb::OptimizeResult> plan = optimizer.Plan(*spec);
        c.plan_ms += tracer_.End(s) / 1000;
        if (plan.ok()) c.plans_enumerated += plan->plans_enumerated;
      }
    }

    const reoptdb::DiskStats disk0 = db_->disk()->stats();
    const reoptdb::BufferPoolStats pool0 = db_->buffer_pool()->stats();
    const int root = tracer_.Begin("stmt.read", -1, id);
    Status status = Status::OK();
    std::vector<Tuple> rows;
    reoptdb::Schema schema;
    reoptdb::ExecutionReport report;
    do {
      int s = tracer_.Begin("parser.parse", root, id);
      Result<reoptdb::SelectStmtAst> ast = reoptdb::ParseSelect(stmt.sql);
      c.parse_us += tracer_.End(s);
      if (!ast.ok()) {
        status = ast.status();
        break;
      }
      s = tracer_.Begin("parser.bind", root, id);
      Result<reoptdb::QuerySpec> spec = reoptdb::Bind(*ast, *db_->catalog());
      c.bind_us += tracer_.End(s);
      if (!spec.ok()) {
        status = spec.status();
        break;
      }

      s = tracer_.Begin("engine.prepare", root, id);
      // ExecuteWith renders the canonical SQL on every query.
      const std::string canonical_sql = spec->ToSql();
      (void)canonical_sql;
      const reoptdb::OptimizerCalibration& cal = db_->calibration();
      reoptdb::DynamicReoptimizer reoptimizer(
          db_->catalog(), &db_->cost_model(), &cal,
          EngineOptimizerOptions(*db_), TimedReoptOptions(),
          db_->options().query_mem_pages);
      reoptimizer.SetJournal(db_->journal(), "");
      reoptimizer.SetScrubSignal(db_->scrub_signal());
      reoptdb::ExecContext ctx(db_->buffer_pool(), db_->catalog(),
                               &db_->cost_model(), QuerySeed(++queries_run_));
      ctx.SetFaultInjector(db_->faults());
      CaptureSnapshots(db_, &ctx);
      tracer_.End(s);

      s = tracer_.Begin("reopt.start", root, id);
      Result<std::unique_ptr<reoptdb::QuerySession>> session =
          reoptimizer.StartSession(std::move(spec).value(), &ctx, &rows,
                                   &schema);
      c.start_ms += tracer_.End(s) / 1000;
      if (!session.ok()) {
        status = session.status();
        break;
      }
      while (true) {
        s = tracer_.Begin("reopt.step", root, id);
        Result<bool> done = session.value()->Step();
        c.step_ms += tracer_.End(s) / 1000;
        ++c.steps;
        if (!done.ok()) {
          status = done.status();
          break;
        }
        if (*done) break;
      }
      if (status.ok()) report = session.value()->TakeReport();
    } while (false);
    rec.wall_ms = tracer_.End(root) / 1000;
    AddStorage(disk0, pool0);
    if (!status.ok()) {
      std::fprintf(stderr, "traced read failed: %s\n  %s\n",
                   status.ToString().c_str(), stmt.sql.c_str());
      return rec;
    }

    rec.sim_ms = report.sim_time_ms;
    rec.digest = ExactDigest(rows);
    c.collectors += report.collectors_inserted;
    c.reopts_considered += report.reopts_considered;
    c.plans_switched += report.plans_switched;
    c.reallocations += report.memory_reallocations;
    c.overhead_sim_ms += report.reopt_overhead_ms;
    for (const reoptdb::EdgeComparison& e : report.edges)
      c.qerrors.push_back(QError(e.estimated_rows, e.observed_rows));
    for (const reoptdb::OperatorSpan& span : report.trace.spans)
      c.rows_produced += span.rows;
    rec.ok = Checked(CheckRead(stmt, rows), stmt);
    return rec;
  }

  /// ParseStatement -> BeginTxn -> ExecuteDml -> CommitTxn, as
  /// Database::ExecuteSql does it for an autocommit statement.
  StatementRecord TracedWrite(const Statement& stmt) {
    StatementRecord rec;
    rec.is_read = false;
    const int64_t id = static_cast<int64_t>(result_.statements.size());
    LayerCounters& c = counters();
    ++c.writes;
    reoptdb::WriteAheadLog* wal = db_->txn_manager()->wal();

    const reoptdb::DiskStats disk0 = db_->disk()->stats();
    const reoptdb::BufferPoolStats pool0 = db_->buffer_pool()->stats();
    const int root = tracer_.Begin("stmt.write", -1, id);
    Status status = Status::OK();
    uint64_t affected = 0;
    do {
      int s = tracer_.Begin("parser.parse", root, id);
      Result<reoptdb::Statement> parsed = reoptdb::ParseStatement(stmt.sql);
      c.parse_us += tracer_.End(s);
      if (!parsed.ok()) {
        status = parsed.status();
        break;
      }
      s = tracer_.Begin("txn.begin", root, id);
      Result<uint64_t> txn = db_->BeginTxn();
      tracer_.End(s);
      if (!txn.ok()) {
        status = txn.status();
        break;
      }
      s = tracer_.Begin("txn.dml", root, id);
      Result<uint64_t> rows = db_->ExecuteDml(*txn, *parsed);
      c.dml_us += tracer_.End(s);
      if (!rows.ok()) {
        status = rows.status();
        if (db_->txn_manager()->IsActive(*txn)) (void)db_->AbortTxn(*txn);
        break;
      }
      affected = *rows;
      const uint64_t records0 = wal->flushed_record_count();
      const uint64_t fsyncs0 = wal->fsync_count();
      s = tracer_.Begin("txn.commit", root, id);
      status = db_->CommitTxn(*txn);
      c.commit_us += tracer_.End(s);
      ++c.commits;
      c.wal_records += wal->flushed_record_count() - records0;
      c.fsyncs += wal->fsync_count() - fsyncs0;
    } while (false);
    rec.wall_ms = tracer_.End(root) / 1000;
    AddStorage(disk0, pool0);
    if (!status.ok()) {
      std::fprintf(stderr, "traced write failed: %s\n  %s\n",
                   status.ToString().c_str(), stmt.sql.c_str());
      return rec;
    }
    rec.digest = affected;
    rec.ok = Checked(affected == stmt.expected_rows, stmt);
    return rec;
  }

  /// Checkpoints every checkpoint_every() successful commits, as a
  /// deployment's maintenance task would. Counts as engine time, not as a
  /// statement.
  void MaybeCheckpoint() {
    const int every = wl_->checkpoint_every();
    if (every <= 0 || ++commits_ % every != 0) return;
    const Clock::time_point t0 = Clock::now();
    const int s = traced_ ? tracer_.Begin("txn.checkpoint", -1, -1) : -1;
    Status st = db_->Checkpoint();
    const double ms = MsSince(t0);
    if (traced_) {
      tracer_.End(s);
      counters().checkpoint_ms += ms;
      ++counters().checkpoints;
    }
    result_.engine_s += ms / 1000;
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      ++result_.failed;
    }
  }

  void AddStorage(const reoptdb::DiskStats& disk0,
                  const reoptdb::BufferPoolStats& pool0) {
    const reoptdb::DiskStats d = db_->disk()->stats() - disk0;
    const reoptdb::BufferPoolStats& p = db_->buffer_pool()->stats();
    LayerCounters& c = counters();
    c.page_reads += d.page_reads;
    c.page_writes += d.page_writes;
    c.pages_allocated += d.pages_allocated;
    c.pool_hits += p.hits - pool0.hits;
    c.pool_misses += p.misses - pool0.misses;
    c.dirty_evictions += p.dirty_evictions - pool0.dirty_evictions;
  }

  static bool Checked(bool ok, const Statement& stmt) {
    if (!ok) std::fprintf(stderr, "wrong answer: %s\n", stmt.sql.c_str());
    return ok;
  }

  LayerCounters& counters() { return result_.counters; }

  Database* db_;
  Workload* wl_;
  bool traced_;
  PhaseResult result_;
  Tracer tracer_;
  uint64_t queries_run_;  ///< the database's query counter, mirrored
  uint64_t commits_ = 0;
};

template <class F>
double MedianOf(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

PhaseResult RunPhase(Database* db, Workload* workload,
                     const PhaseOptions& opts) {
  return PhaseRunner(db, workload, opts.traced).Run(opts);
}

Result<Probes> RunProbes(Database* db, const std::string& table) {
  ASSIGN_OR_RETURN(reoptdb::TableInfo * info, db->catalog()->Get(table));
  const reoptdb::HeapFile& heap = *info->heap;
  reoptdb::DiskManager* disk = db->disk();
  const size_t pages = std::min<size_t>(heap.flushed_page_count(), 1024);
  if (pages == 0) return Status::InvalidArgument("probe table is empty");
  constexpr int kReps = 5;
  Probes p;
  Status st = Status::OK();

  auto page = std::make_unique<reoptdb::Page>();
  p.read_page_us = MedianOf(kReps, [&] {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < pages; ++i) {
      Status s = disk->ReadPage(heap.page_id(i), page.get());
      if (!s.ok()) st = s;
    }
    return MsSince(t0) * 1000 / static_cast<double>(pages);
  });

  // Scratch pages: allocated here, written, then freed.
  constexpr size_t kScratch = 256;
  std::vector<reoptdb::PageId> scratch;
  for (size_t i = 0; i < kScratch; ++i) scratch.push_back(disk->AllocatePage());
  for (size_t i = 0; i < reoptdb::kPageSize; ++i)
    page->data[i] = static_cast<char>(reoptdb::SplitMix64(i));
  p.write_page_us = MedianOf(kReps, [&] {
    const Clock::time_point t0 = Clock::now();
    for (reoptdb::PageId id : scratch) {
      Status s = disk->WritePage(id, *page);
      if (!s.ok()) st = s;
    }
    return MsSince(t0) * 1000 / static_cast<double>(kScratch);
  });
  for (reoptdb::PageId id : scratch) {
    Status s = disk->FreePage(id);
    if (!s.ok()) st = s;
  }

  p.scan_ns_per_row = MedianOf(kReps, [&] {
    uint64_t rows = 0;
    Tuple t;
    const Clock::time_point t0 = Clock::now();
    for (auto it = heap.Scan();;) {
      Result<bool> more = it.Next(&t);
      if (!more.ok()) st = more.status();
      if (!more.ok() || !*more) break;
      ++rows;
    }
    return MsSince(t0) * 1e6 / static_cast<double>(std::max<uint64_t>(rows, 1));
  });

  // Decode alone: the same pages, already in memory.
  std::vector<reoptdb::Page> copies(pages);
  for (size_t i = 0; i < pages; ++i) {
    Status s = disk->ReadPage(heap.page_id(i), &copies[i]);
    if (!s.ok()) st = s;
  }
  p.decode_ns_per_row = MedianOf(kReps, [&] {
    uint64_t rows = 0;
    Tuple t;
    const Clock::time_point t0 = Clock::now();
    for (const reoptdb::Page& pg : copies) {
      const uint16_t n = reoptdb::slotted::Count(pg);
      for (uint32_t slot = 0; slot < n; ++slot) {
        const char* data = nullptr;
        size_t len = 0;
        if (!reoptdb::slotted::Read(pg, slot, &data, &len).ok()) continue;
        size_t off = 0;
        Status s = Tuple::DeserializeInto(data, len, &off, &t);
        if (!s.ok()) st = s;
        ++rows;
      }
    }
    return MsSince(t0) * 1e6 / static_cast<double>(std::max<uint64_t>(rows, 1));
  });
  RETURN_IF_ERROR(st);
  return p;
}

}  // namespace perfbench
