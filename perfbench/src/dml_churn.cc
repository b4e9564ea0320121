// dml_churn: keyed write transactions beside point reads on one indexed
// table that fits its buffer pool.
//
// Each step is BEGIN; UPDATE by key; INSERT of a new key; DELETE of the
// oldest key; COMMIT; then a point SELECT by key. The row count stays
// constant. Every kStepsPerRound steps the client runs a GROUP BY scan and
// a checkpoint. No statement text repeats: updates write fresh values,
// keys only grow, each read picks a key not read before, and each scan's
// lower bound is the current oldest key. A std::map model of the table,
// updated on each acknowledged commit, checks every read and scan and a
// final full scan.

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "storage/heap_file.h"
#include "txn/wal.h"
#include "workloads.h"

namespace perfbench {

using namespace reoptdb;

namespace {

constexpr int64_t kRows = 5000;
constexpr int64_t kGroups = 16;
// Large enough that the table, which gains a page per commit, stays in
// the pool for the whole run.
constexpr size_t kPoolPages = 4096;
constexpr int kStepsPerRound = 50;
// Nominal wall time of one round (50 steps, a scan and a checkpoint),
// which gives 25 rounds at --seconds 40; rounds slow as the table grows a
// page per commit, so more rounds would lengthen the run more than in
// proportion. At least kMinRounds rounds run so that 1000 transactions
// leave ten samples beyond txn_ms.p99.
constexpr double kRoundS = 1.6;
constexpr int kMinRounds = 20;
constexpr int kSetups = 15;

struct Row {
  int64_t grp = 0;
  int64_t val = 0;
};

Schema AcctSchema() {
  return Schema(std::vector<Column>{
      Column{"", "a_key", ValueType::kInt64, 8},
      Column{"", "a_grp", ValueType::kInt64, 8},
      Column{"", "a_val", ValueType::kInt64, 8},
      Column{"", "a_note", ValueType::kString, 12},
  });
}

std::string Note(int64_t key) {
  std::string note = "n";
  note += std::to_string(key);
  return note;
}

Tuple AcctRow(int64_t key, const Row& r) {
  return Tuple({Value(key), Value(r.grp), Value(r.val), Value(Note(key))});
}

struct Setup {
  std::unique_ptr<Database> db;
  double total_s = 0, load_s = 0, index_s = 0, calibrate_s = 0;
};

Setup MakeDb(const std::map<int64_t, Row>& model, Tracer* tracer) {
  ScopedSpan span(tracer, "perfbench.setup");
  const Clock::time_point t0 = Clock::now();
  Setup s;
  DatabaseOptions o;
  o.buffer_pool_pages = kPoolPages;
  o.query_mem_pages = 256;
  o.calibrate_max_relations = 9;
  o.enable_feedback = false;
  o.enable_plan_cache = false;
  o.reopt = BenchReopt(ReoptMode::kOff);
  s.db = std::make_unique<Database>(o);
  Status st = s.db->CreateTable("acct", AcctSchema());
  if (!st.ok()) Die("CreateTable", st);
  std::vector<Tuple> rows;
  for (const auto& [key, r] : model) rows.push_back(AcctRow(key, r));
  s.load_s = Timed(tracer, "engine.BulkLoad", nullptr, [&] {
               st = s.db->BulkLoad("acct", rows);
               if (st.ok()) st = s.db->Analyze("acct");
             }) / 1e3;
  if (!st.ok()) Die("BulkLoad", st);
  s.index_s = Timed(tracer, "storage.CreateIndex", "acct", [&] {
                st = s.db->CreateIndex("acct", "a_key");
                if (st.ok()) st = s.db->DeclareKey("acct", "a_key");
              }) / 1e3;
  if (!st.ok()) Die("CreateIndex", st);
  s.calibrate_s = Timed(tracer, "optimizer.calibration", nullptr,
                        [&] { s.db->calibration(); }) /
                  1e3;
  s.total_s = MsSince(t0) / 1e3;
  return s;
}

/// Expected GROUP BY answer over the model's rows with key >= lo.
std::vector<Tuple> ExpectedGroups(const std::map<int64_t, Row>& model,
                                  int64_t lo) {
  std::map<int64_t, std::pair<int64_t, double>> g;
  for (auto it = model.lower_bound(lo); it != model.end(); ++it) {
    auto& a = g[it->second.grp];
    ++a.first;
    a.second += static_cast<double>(it->second.val);
  }
  std::vector<Tuple> out;
  for (const auto& [grp, a] : g)
    out.push_back(Tuple({Value(grp), Value(a.first), Value(a.second)}));
  return out;
}

}  // namespace

void RunDmlChurn(const RunOptions& opt, Tracer* tracer, Metrics* m,
                 Tally* tally) {
  std::mt19937_64 rng(opt.seed);
  std::map<int64_t, Row> model;
  for (int64_t k = 0; k < kRows; ++k)
    model[k] = Row{k % kGroups, static_cast<int64_t>(rng() % 1000000)};

  Setup s;
  std::vector<double> total_s, load_s, index_s, calibrate_s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};
    s = MakeDb(model, tracer);
    total_s.push_back(s.total_s);
    load_s.push_back(s.load_s);
    index_s.push_back(s.index_s);
    calibrate_s.push_back(s.calibrate_s);
  }
  (*m)["setup_s"] = Median(total_s);
  (*m)["tpcd.load_s"] = Median(load_s);
  (*m)["storage.index_build_s"] = Median(index_s);
  (*m)["optimizer.calibrate_s"] = Median(calibrate_s);
  Database* db = s.db.get();
  WriteAheadLog* wal = db->txn_manager()->wal();
  const ReoptOptions off = BenchReopt(ReoptMode::kOff);

  const int rounds = RoundsFor(opt.seconds, kRoundS, kMinRounds);
  int64_t next_key = kRows;
  int64_t next_val = 1000000;
  std::set<int64_t> read_keys;
  std::vector<double> txn_ms, read_ms, scan_ms;
  std::vector<double> stmt_ms[4];  // update, insert, delete, commit
  std::vector<double> checkpoint_ms;
  RoundSeries series;
  std::vector<StorageCounters> storage;
  const uint64_t lsn0 = wal->next_lsn();
  const uint64_t fsync0 = wal->fsync_count();

  // A random live key other than the oldest; `fresh` also excludes keys
  // read before.
  auto pick_key = [&](bool fresh) {
    const int64_t lo = model.begin()->first + 1;
    const int64_t hi = model.rbegin()->first;
    while (true) {
      const int64_t k = lo + static_cast<int64_t>(rng() % (hi - lo + 1));
      if (model.count(k) && (!fresh || read_keys.insert(k).second)) return k;
    }
  };
  auto run = [&](const char* kind, const std::string& sql, uint64_t* session,
                 std::string* why) {
    Result<QueryResult> r = Status::Internal("not run");
    const double ms = Timed(tracer, "engine.ExecuteSqlInTxn", kind,
                            [&] { r = db->ExecuteSqlInTxn(sql, session); });
    if (!r.ok()) *why = std::string(kind) + ": " + r.status().ToString();
    return r.ok() ? ms : -1.0;
  };

  for (int round = 0; round < rounds; ++round) {
    ScopedSpan round_span(tracer, "perfbench.round");
    const StorageCounters before =
        StorageCounters::Of(*db->disk(), *db->buffer_pool());
    for (int step = 0; step < kStepsPerRound; ++step) {
      tracer->NextOp();
      const int64_t upd_key = pick_key(false);
      const int64_t upd_val = next_val++;
      const int64_t ins_key = next_key++;
      const Row ins_row{ins_key % kGroups, next_val++};
      const int64_t del_key = model.begin()->first;
      const std::string sqls[4] = {
          "UPDATE acct SET a_val = " + std::to_string(upd_val) +
              " WHERE a_key = " + std::to_string(upd_key),
          "INSERT INTO acct VALUES (" + std::to_string(ins_key) + ", " +
              std::to_string(ins_row.grp) + ", " + std::to_string(ins_row.val) +
              ", '" + Note(ins_key) + "')",
          "DELETE FROM acct WHERE a_key = " + std::to_string(del_key),
          "COMMIT"};
      static const char* const kKinds[4] = {"update", "insert", "delete",
                                            "commit"};
      uint64_t session = 0;
      std::string why;
      bool ok = false;
      double ms[4] = {0, 0, 0, 0};
      const double txn = Timed(tracer, "perfbench.transaction", nullptr, [&] {
        ok = run("begin", "BEGIN", &session, &why) >= 0;
        for (int i = 0; ok && i < 4; ++i) {
          ms[i] = run(kKinds[i], sqls[i], &session, &why);
          ok = ms[i] >= 0;
        }
      });
      if (!ok && session != 0) (void)db->AbortTxn(session);
      if (tally->Record(ok, "transaction: " + why)) {
        model[upd_key].val = upd_val;
        model[ins_key] = ins_row;
        model.erase(del_key);
        txn_ms.push_back(txn);
        for (int i = 0; i < 4; ++i) stmt_ms[i].push_back(ms[i]);
      }

      tracer->NextOp();
      const int64_t read_key = pick_key(true);
      Result<QueryResult> r = Status::Internal("not run");
      const double rms = Timed(tracer, "engine.ExecuteWith", "read", [&] {
        r = db->ExecuteWith(
            "SELECT a_key, a_grp, a_val FROM acct WHERE a_key = " +
                std::to_string(read_key),
            off);
      });
      why = r.ok() ? "" : r.status().ToString();
      const Row& want = model.at(read_key);
      if (r.ok())
        ok = SameRows(
            r->rows,
            {Tuple({Value(read_key), Value(want.grp), Value(want.val)})},
            &why);
      if (tally->Record(r.ok() && ok, "point read: " + why)) {
        read_ms.push_back(rms);
        series.Add("round_sim_ms", r->report.sim_time_ms);
        AddExecSpans(r->report.trace, "off", &series);
      }
    }

    tracer->NextOp();
    const int64_t lo = model.begin()->first;
    Result<QueryResult> r = Status::Internal("not run");
    const double sms = Timed(tracer, "engine.ExecuteWith", "scan", [&] {
      r = db->ExecuteWith(
          "SELECT a_grp, COUNT(*) AS n, SUM(a_val) AS total FROM acct "
          "WHERE a_key >= " + std::to_string(lo) + " GROUP BY a_grp",
          off);
    });
    std::string why = r.ok() ? "" : r.status().ToString();
    bool ok = r.ok() && SameRows(r->rows, ExpectedGroups(model, lo), &why);
    if (tally->Record(ok, "scan: " + why)) {
      scan_ms.push_back(sms);
      series.Add("round_sim_ms", r->report.sim_time_ms);
      AddExecSpans(r->report.trace, "off", &series);
    }

    tracer->NextOp();
    Status st;
    checkpoint_ms.push_back(
        Timed(tracer, "txn.Checkpoint", nullptr,
              [&] { st = db->Checkpoint(); }));
    tally->Record(st.ok(), "checkpoint: " + st.ToString());
    storage.push_back(StorageCounters::Of(*db->disk(), *db->buffer_pool()) -
                      before);
    series.EndRound();
  }

  (*m)["peak_rss_mb"] = PeakRssMb();
  const uint64_t live_pages = db->disk()->live_pages();
  (*m)["stored_mb"] = PagesToMb(live_pages);
  // round_s sums each operation kind's median, weighted by its count per
  // round, so it rests on every sample rather than on one round's time.
  (*m)["round_s"] = (kStepsPerRound * (Median(txn_ms) + Median(read_ms)) +
                     Median(scan_ms) + Median(checkpoint_ms)) /
                    1e3;
  (*m)["txn_ms.p50"] = Median(txn_ms);
  (*m)["txn_ms.p99"] = Quantile(txn_ms, 0.99);
  (*m)["read_ms.p50"] = Median(read_ms);
  (*m)["read_ms.p99"] = Quantile(read_ms, 0.99);
  (*m)["scan_ms.p50"] = Median(scan_ms);
  (*m)["txn.update_ms"] = Median(stmt_ms[0]);
  (*m)["txn.insert_ms"] = Median(stmt_ms[1]);
  (*m)["txn.delete_ms"] = Median(stmt_ms[2]);
  (*m)["txn.commit_ms"] = Median(stmt_ms[3]);
  (*m)["txn.checkpoint_ms"] = Median(checkpoint_ms);
  (*m)["txn.wal_records"] = static_cast<double>(wal->next_lsn() - lsn0);
  (*m)["txn.wal_fsyncs"] = static_cast<double>(wal->fsync_count() - fsync0);
  series.SetMedians(m);
  SetStorageMetrics(storage, live_pages, m);

  if (opt.trace) {
    ProbeFrontEnd(db,
                  {"SELECT a_key, a_grp, a_val FROM acct WHERE a_key = " +
                       std::to_string(model.rbegin()->first),
                   "SELECT a_grp, COUNT(*) AS n, SUM(a_val) AS total FROM acct "
                   "WHERE a_key >= " + std::to_string(model.begin()->first) +
                       " GROUP BY a_grp"},
                  tracer, m);
    ProbeStorage(db, "acct", "a_key", opt.seed, tracer, m);
  }

  // Final full scan of the base table against the model.
  tracer->NextOp();
  std::map<int64_t, Row> seen;
  auto info = db->catalog()->Get("acct");
  std::string why;
  bool ok = info.ok();
  if (ok) {
    HeapFile::Iterator it = info.value()->heap->Scan();
    Tuple row;
    while (ok) {
      Result<bool> more = it.Next(&row);
      if (!more.ok() || !more.value()) {
        ok = more.ok();
        break;
      }
      ok = seen.emplace(row.at(0).AsInt(),
                        Row{row.at(1).AsInt(), row.at(2).AsInt()})
               .second;
      if (!ok) why = "key " + std::to_string(row.at(0).AsInt()) + " twice";
    }
  }
  ok = ok && seen.size() == model.size();
  for (auto a = seen.begin(), b = model.begin(); ok && a != seen.end();
       ++a, ++b)
    ok = a->first == b->first && a->second.grp == b->second.grp &&
         a->second.val == b->second.val;
  tally->Record(ok, "final scan vs model " + why);
}

}  // namespace perfbench
