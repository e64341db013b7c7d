#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "common/rng.h"
#include "storage/heap_file.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"

namespace perfbench {

using reoptdb::Column;
using reoptdb::Database;
using reoptdb::DatabaseOptions;
using reoptdb::Result;
using reoptdb::Rng;
using reoptdb::Schema;
using reoptdb::Status;
using reoptdb::Tuple;
using reoptdb::Value;
using reoptdb::ValueType;

namespace {

constexpr double kRelTol = 1e-9;

bool Near(double a, double b) {
  return std::fabs(a - b) <=
         kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::unique_ptr<Database> LoadTpcd(double scale_factor, uint64_t seed) {
  // The bench_common.h configuration: a 64-page pool and 192 pages of query
  // memory, about 1% of the data at SF 0.02, with a stale catalog.
  DatabaseOptions opts;
  opts.buffer_pool_pages = 64;
  opts.query_mem_pages = 192;
  auto db = std::make_unique<Database>(opts);
  reoptdb::tpcd::TpcdOptions gen;
  gen.scale_factor = scale_factor;
  gen.seed = seed;
  gen.analyze_options.histogram_kind = reoptdb::HistogramKind::kMaxDiff;
  gen.update_fraction = 1.0;
  Status st = reoptdb::tpcd::Load(db.get(), gen);
  if (!st.ok()) {
    std::fprintf(stderr, "tpcd load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return db;
}

Column IntCol(const std::string& name) {
  return Column{"", name, ValueType::kInt64, 8};
}

/// A read-only mix: each cycle runs every query once, and each answer must
/// match the one the query gave with re-optimization off before the run.
class QueryMix : public Workload {
 public:
  explicit QueryMix(std::vector<std::string> sqls) : sqls_(std::move(sqls)) {}

  Status Prepare(Database* db) override {
    reoptdb::ReoptOptions off;
    off.mode = reoptdb::ReoptMode::kOff;
    for (const std::string& sql : sqls_) {
      ASSIGN_OR_RETURN(reoptdb::QueryResult r, db->ExecuteWith(sql, off));
      references_.push_back(std::make_shared<const Answer>(r.rows));
    }
    return Status::OK();
  }

  void NextCycle(std::vector<Statement>* out) override {
    for (size_t i = 0; i < sqls_.size(); ++i) {
      Statement s;
      s.sql = sqls_[i];
      s.expected = references_[i];
      out->push_back(std::move(s));
    }
  }

  uint64_t prepare_queries() const override { return sqls_.size(); }

 private:
  std::vector<std::string> sqls_;
  std::vector<std::shared_ptr<const Answer>> references_;
};

// --- tpcd_mix ---------------------------------------------------------------

std::vector<std::string> TpcdSqls() {
  std::vector<std::string> sqls;
  for (const auto& q : reoptdb::tpcd::AllQueries()) sqls.push_back(q.sql);
  return sqls;
}

class TpcdMix : public QueryMix {
 public:
  explicit TpcdMix(uint64_t seed) : QueryMix(TpcdSqls()), seed_(seed) {}

  std::unique_ptr<Database> Setup() override { return LoadTpcd(0.02, seed_); }

  std::string probe_table() const override { return "lineitem"; }

 private:
  uint64_t seed_;
};

// --- star_join --------------------------------------------------------------

/// A fact table `sf` with nine foreign keys into dimensions sd1..sd9; each
/// dimension also points into the next one (sdK_next = sd(K+1)_key), so the
/// same tables give stars, chains and snowflakes. A dimension's attribute
/// rises with its key. After ANALYZE the fact table doubles with rows that
/// reference only the lowest keys, the ones the attribute filters select,
/// so every filtered join is underestimated.
class StarJoin : public QueryMix {
 public:
  static constexpr int kDims = 9;

  // Fixed SQL: the seed varies the data only, so runs at different seeds
  // time the same query shapes.
  explicit StarJoin(uint64_t seed)
      : QueryMix({Star(8, 30, 40), Chain(8, 40, 30), Star(9, 40, 30),
                  Chain(9, 30, 40), Snowflake(40, 30), Star(10, 30, 40),
                  Chain(10, 40, 30)}),
        seed_(seed) {}

  std::unique_ptr<Database> Setup() override {
    Rng rng(seed_);
    // The default 2048-page pool holds every table. Query memory is four
    // times the default: hash tables rarely sit near a memory boundary, so
    // the data a seed draws does not flip joins between one pass and two,
    // while plan switches still pay off on the larger stars.
    DatabaseOptions opts;
    opts.query_mem_pages = 1024;
    auto db = std::make_unique<Database>(opts);
    const int64_t sizes[kDims] = {400, 120, 900, 60, 250, 700, 150, 500, 80};
    auto fail = [](const Status& st) {
      std::fprintf(stderr, "star_join setup failed: %s\n",
                   st.ToString().c_str());
      return nullptr;
    };
    for (int d = 0; d < kDims; ++d) {
      const std::string t = Dim(d);
      Schema s(std::vector<Column>{IntCol(t + "_key"), IntCol(t + "_attr"),
                                   IntCol(t + "_next")});
      if (Status st = db->CreateTable(t, s); !st.ok()) return fail(st);
      const int64_t n = sizes[d];
      const int64_t next_n = d + 1 < kDims ? sizes[d + 1] : 1;
      std::vector<Tuple> rows;
      for (int64_t k = 0; k < n; ++k) {
        const int64_t attr =
            std::min<int64_t>(99, k * 100 / n + rng.NextInt(0, 9));
        rows.push_back(Tuple({Value(k), Value(attr),
                              Value(static_cast<int64_t>(
                                  rng.NextBelow(next_n)))}));
      }
      if (Status st = db->BulkLoad(t, rows); !st.ok()) return fail(st);
      if (Status st = db->DeclareKey(t, t + "_key"); !st.ok()) return fail(st);
      if (Status st = db->CreateIndex(t, t + "_key"); !st.ok())
        return fail(st);
    }
    std::vector<Column> fcols{IntCol("sf_id")};
    for (int d = 0; d < kDims; ++d)
      fcols.push_back(IntCol("sf_d" + std::to_string(d + 1)));
    fcols.push_back(Column{"", "sf_amount", ValueType::kDouble, 8});
    if (Status st = db->CreateTable("sf", Schema(fcols)); !st.ok())
      return fail(st);
    constexpr int64_t kFact = 6000;
    auto fact_rows = [&](int64_t first, bool hot) {
      std::vector<Tuple> rows;
      for (int64_t i = first; i < first + kFact; ++i) {
        std::vector<Value> v{Value(i)};
        for (int d = 0; d < kDims; ++d) {
          const uint64_t range = hot ? std::max<int64_t>(1, sizes[d] / 8)
                                     : static_cast<uint64_t>(sizes[d]);
          v.push_back(Value(static_cast<int64_t>(rng.NextBelow(range))));
        }
        v.push_back(Value(rng.NextDouble(1.0, 1000.0)));
        rows.push_back(Tuple(std::move(v)));
      }
      return rows;
    };
    if (Status st = db->BulkLoad("sf", fact_rows(0, false)); !st.ok())
      return fail(st);
    for (const std::string& t : db->catalog()->TableNames()) {
      if (Status st = db->Analyze(t); !st.ok()) return fail(st);
    }
    if (Status st = db->BulkLoad("sf", fact_rows(kFact, true)); !st.ok())
      return fail(st);
    if (Status st = db->BumpUpdateActivity("sf", 1.0); !st.ok())
      return fail(st);
    return db;
  }

  std::string probe_table() const override { return "sf"; }

 private:
  static std::string Dim(int d) { return "sd" + std::to_string(d + 1); }

  static std::string Select() {
    return "SELECT COUNT(*) AS n, SUM(sf_amount) AS amount FROM sf";
  }

  /// sf joined with sd1..sd(relations-1) on its foreign keys.
  static std::string Star(int relations, int64_t t1, int64_t t2) {
    std::string from, where;
    for (int d = 0; d < relations - 1; ++d) {
      from += ", " + Dim(d);
      where += (d ? " AND sf_d" : " WHERE sf_d") + std::to_string(d + 1) +
               " = " + Dim(d) + "_key";
    }
    return Select() + from + where + " AND sd2_attr < " + std::to_string(t1) +
           " AND " + Dim(relations - 2) + "_attr < " + std::to_string(t2);
  }

  /// sf -> sd1 -> sd2 -> ... -> sd(relations-1).
  static std::string Chain(int relations, int64_t t1, int64_t t2) {
    std::string from, where = " WHERE sf_d1 = sd1_key";
    for (int d = 0; d < relations - 1; ++d) {
      from += ", " + Dim(d);
      if (d > 0) where += " AND " + Dim(d - 1) + "_next = " + Dim(d) + "_key";
    }
    return Select() + from + where + " AND sd1_attr < " + std::to_string(t1) +
           " AND " + Dim(relations - 2) + "_attr < " + std::to_string(t2);
  }

  /// Nine relations: sf's keys into sd1, sd2, sd3, sd6, sd8, with sd3 ->
  /// sd4 -> sd5 and sd6 -> sd7 hanging off them.
  static std::string Snowflake(int64_t t1, int64_t t2) {
    return Select() +
           ", sd1, sd2, sd3, sd4, sd5, sd6, sd7, sd8"
           " WHERE sf_d1 = sd1_key AND sf_d2 = sd2_key AND sf_d3 = sd3_key"
           " AND sd3_next = sd4_key AND sd4_next = sd5_key"
           " AND sf_d6 = sd6_key AND sd6_next = sd7_key AND sf_d8 = sd8_key"
           " AND sd3_attr < " +
           std::to_string(t1) + " AND sd7_attr < " + std::to_string(t2);
  }

  uint64_t seed_;
};

// --- dml_churn --------------------------------------------------------------

/// Autocommit writes on orders/lineitem interleaved with reads. Every cycle
/// inserts one order with its lines, updates one order's price, and deletes
/// the oldest order with its lines, so live row counts hold level. The model
/// below tracks the live tables exactly, predicts every statement's effect
/// and checks the final row counts and sums.
class DmlChurn : public Workload {
 public:
  explicit DmlChurn(uint64_t seed) : seed_(seed), rng_(seed ^ 0xd31ULL) {}

  std::unique_ptr<Database> Setup() override { return LoadTpcd(0.005, seed_); }

  Status Prepare(Database* db) override {
    // The model starts from the loaded heaps, read directly (untimed).
    ASSIGN_OR_RETURN(reoptdb::TableInfo * orders, db->catalog()->Get("orders"));
    ASSIGN_OR_RETURN(reoptdb::TableInfo * lineitem,
                     db->catalog()->Get("lineitem"));
    Tuple t;
    for (auto it = orders->heap->Scan();;) {
      ASSIGN_OR_RETURN(bool more, it.Next(&t));
      if (!more) break;
      AddOrder(t.at(0).AsInt(), t.at(1).AsInt(), t.at(3).AsDouble());
    }
    for (auto it = lineitem->heap->Scan();;) {
      ASSIGN_OR_RETURN(bool more, it.Next(&t));
      if (!more) break;
      AddLine(t.at(0).AsInt(), t.at(4).AsDouble());
    }
    for (const auto& [key, order] : orders_) next_key_ = std::max(next_key_, key + 1);
    return Status::OK();
  }

  void NextCycle(std::vector<Statement>* out) override {
    // 1. INSERT a new order.
    const int64_t key = next_key_++;
    const int64_t cust = rng_.NextInt(0, 749);
    const double price = Price();
    const int64_t date = rng_.NextInt(0, reoptdb::tpcd::kEndDate - 121);
    out->push_back(Write("INSERT INTO orders VALUES (" + std::to_string(key) +
                             ", " + std::to_string(cust) + ", 'O', " +
                             Lit(price) + ", " + std::to_string(date) + ", " +
                             std::to_string(1992 + date / 365) + ")",
                         1));
    AddOrder(key, cust, price);
    out->push_back(Lookup());

    // 2. INSERT its lines in one statement.
    const int64_t nlines = rng_.NextInt(1, 7);
    std::string sql = "INSERT INTO lineitem VALUES ";
    for (int64_t ln = 1; ln <= nlines; ++ln) {
      const int64_t qty = rng_.NextInt(1, 50);
      const int64_t ship = date + rng_.NextInt(1, 121);
      const int64_t receipt = ship + rng_.NextInt(1, 30);
      sql += (ln > 1 ? ", (" : "(") + std::to_string(key) + ", " +
             std::to_string(rng_.NextInt(0, 999)) + ", " +
             std::to_string(rng_.NextInt(0, 49)) + ", " + std::to_string(ln) +
             ", " + std::to_string(qty) + ".0, " + Lit(qty * 1000.0) +
             ", 0.05, 'N', 'O', " + std::to_string(ship) + ", " +
             std::to_string(date + 60) + ", " + std::to_string(receipt) +
             ", " + std::to_string(1992 + ship / 365) + ")";
      AddLine(key, static_cast<double>(qty));
    }
    out->push_back(Write(sql, static_cast<uint64_t>(nlines)));
    out->push_back(Read(reoptdb::tpcd::Q6Sql()));

    // 3. UPDATE a random live order's price.
    const int64_t target = live_[rng_.NextBelow(live_.size())];
    const double new_price = Price();
    out->push_back(Write("UPDATE orders SET o_totalprice = " + Lit(new_price) +
                             " WHERE o_orderkey = " + std::to_string(target),
                         1));
    Order& o = orders_[target];
    sum_price_ += new_price - o.price;
    o.price = new_price;
    out->push_back(Lookup());

    // 4. DELETE the oldest order: lines first, then the order.
    const int64_t victim = fifo_.front();
    fifo_.pop_front();
    const Order gone = orders_[victim];
    out->push_back(Write("DELETE FROM lineitem WHERE l_orderkey = " +
                             std::to_string(victim),
                         static_cast<uint64_t>(gone.lines)));
    out->push_back(Read(reoptdb::tpcd::Q1Sql()));
    out->push_back(Write(
        "DELETE FROM orders WHERE o_orderkey = " + std::to_string(victim), 1));
    RemoveOrder(victim);
    out->push_back(Lookup());
  }

  Result<int> FinalCheck(Database* db) override {
    int bad = 0;
    auto check = [&](const std::string& sql, double n, double s1, double s2) {
      Result<reoptdb::QueryResult> r =
          db->ExecuteWith(sql, TimedReoptOptions());
      if (!r.ok() || r->rows.size() != 1 || r->rows[0].size() != 3) {
        std::fprintf(stderr, "final check failed to run: %s\n", sql.c_str());
        ++bad;
        return;
      }
      const Tuple& t = r->rows[0];
      const double got[3] = {t.at(0).AsNumeric(), t.at(1).AsNumeric(),
                             t.at(2).AsNumeric()};
      const double want[3] = {n, s1, s2};
      for (int i = 0; i < 3; ++i) {
        if (!Near(got[i], want[i])) {
          std::fprintf(stderr, "final check mismatch: %s column %d: %.17g != "
                       "model %.17g\n", sql.c_str(), i, got[i], want[i]);
          ++bad;
        }
      }
    };
    check("SELECT COUNT(*) AS n, SUM(o_totalprice) AS p, SUM(o_custkey) AS c "
          "FROM orders",
          static_cast<double>(orders_.size()), sum_price_,
          static_cast<double>(sum_cust_));
    check("SELECT COUNT(*) AS n, SUM(l_quantity) AS q, SUM(l_orderkey) AS k "
          "FROM lineitem",
          static_cast<double>(line_count_), sum_qty_,
          static_cast<double>(sum_line_key_));
    return bad;
  }

  int checkpoint_every() const override { return 50; }

  std::string probe_table() const override { return "lineitem"; }

 private:
  struct Order {
    int64_t cust = 0;
    double price = 0;
    int64_t lines = 0;
    double qty = 0;
  };

  static Statement Read(const std::string& sql) {
    Statement s;
    s.sql = sql;
    return s;
  }

  static Statement Write(const std::string& sql, uint64_t rows) {
    Statement s;
    s.is_read = false;
    s.sql = sql;
    s.expected_rows = rows;
    return s;
  }

  /// A key lookup through the o_orderkey index, answer known from the model.
  Statement Lookup() {
    const int64_t key = live_[rng_.NextBelow(live_.size())];
    const Order& o = orders_[key];
    Statement s = Read("SELECT o_custkey, o_totalprice FROM orders "
                       "WHERE o_orderkey = " + std::to_string(key));
    s.expected = std::make_shared<const Answer>(
        std::vector<Tuple>{Tuple({Value(o.cust), Value(o.price)})});
    return s;
  }

  /// Prices on a 0.5 grid print exactly.
  double Price() { return static_cast<double>(rng_.NextInt(2000, 400000)) / 2; }
  static std::string Lit(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
  }

  void AddOrder(int64_t key, int64_t cust, double price) {
    Order& o = orders_[key];
    o.cust = cust;
    o.price = price;
    sum_price_ += price;
    sum_cust_ += cust;
    live_pos_[key] = live_.size();
    live_.push_back(key);
    fifo_.push_back(key);
  }

  void AddLine(int64_t key, double qty) {
    Order& o = orders_[key];
    ++o.lines;
    o.qty += qty;
    ++line_count_;
    sum_qty_ += qty;
    sum_line_key_ += key;
  }

  void RemoveOrder(int64_t key) {
    const Order o = orders_[key];
    sum_price_ -= o.price;
    sum_cust_ -= o.cust;
    line_count_ -= o.lines;
    sum_qty_ -= o.qty;
    sum_line_key_ -= key * o.lines;
    orders_.erase(key);
    const size_t pos = live_pos_[key];
    live_[pos] = live_.back();
    live_pos_[live_[pos]] = pos;
    live_.pop_back();
    live_pos_.erase(key);
  }

  uint64_t seed_;
  Rng rng_;
  int64_t next_key_ = 0;
  std::unordered_map<int64_t, Order> orders_;
  std::vector<int64_t> live_;  ///< live order keys, for uniform picks
  std::unordered_map<int64_t, size_t> live_pos_;
  std::deque<int64_t> fifo_;   ///< live order keys, oldest first
  double sum_price_ = 0;
  int64_t sum_cust_ = 0;
  int64_t line_count_ = 0;
  double sum_qty_ = 0;
  int64_t sum_line_key_ = 0;
};

}  // namespace

Answer::Answer(const std::vector<Tuple>& rows) : rows_(rows.size()) {
  for (const Tuple& t : rows) {
    std::string key;
    std::vector<double> doubles;
    for (const Value& v : t.values()) {
      if (v.is_double()) {
        doubles.push_back(v.AsDouble());
      } else {
        key += v.ToString();
        key += '\x1f';
      }
    }
    groups_[key].push_back(std::move(doubles));
  }
  for (auto& [key, list] : groups_) std::sort(list.begin(), list.end());
}

bool Answer::Matches(const Answer& other) const {
  if (rows_ != other.rows_ || groups_.size() != other.groups_.size())
    return false;
  for (auto a = groups_.begin(), b = other.groups_.begin(); a != groups_.end();
       ++a, ++b) {
    if (a->first != b->first || a->second.size() != b->second.size())
      return false;
    for (size_t i = 0; i < a->second.size(); ++i) {
      const std::vector<double>& x = a->second[i];
      const std::vector<double>& y = b->second[i];
      if (x.size() != y.size()) return false;
      for (size_t j = 0; j < x.size(); ++j)
        if (!Near(x[j], y[j])) return false;
    }
  }
  return true;
}

uint64_t ExactDigest(const std::vector<Tuple>& rows) {
  uint64_t digest = rows.size();
  std::string bytes;
  for (const Tuple& t : rows) {
    bytes.clear();
    t.SerializeTo(&bytes);
    digest += reoptdb::SplitMix64(Fnv1a(bytes));
  }
  return digest;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tpcd_mix") return std::make_unique<TpcdMix>(seed);
  if (name == "star_join") return std::make_unique<StarJoin>(seed);
  if (name == "dml_churn") return std::make_unique<DmlChurn>(seed);
  return nullptr;
}

reoptdb::ReoptOptions TimedReoptOptions() {
  reoptdb::ReoptOptions o;  // mu = 0.05, theta1 = 0.05, theta2 = 0.2
  o.mode = reoptdb::ReoptMode::kFull;
  return o;
}

}  // namespace perfbench
