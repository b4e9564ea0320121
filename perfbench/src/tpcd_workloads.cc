// tpcd_single: the paper's seven fig10 queries over TPC-D data on one node,
// with re-optimization off and full, interleaved query by query.

#include <cstdio>
#include <map>
#include <memory>

#include "reference.h"
#include "tpcd/dbgen.h"
#include "tpcd/queries.h"
#include "workloads.h"

namespace perfbench {

using namespace reoptdb;

namespace {

// Paper-proportional sizing (bench/bench_common.h): TPC-D SF 0.02 with the
// stale-catalog update is ~25 MB of data against a 64-page (0.5 MB) pool,
// with 192 pages of query memory.
constexpr double kScaleFactor = 0.02;
constexpr size_t kPoolPages = 64;
constexpr double kQueryMemPages = 192;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Nominal wall time of one round, which turns --seconds into a fixed
// round count (10 at --seconds 40); at least kMinRounds rounds are timed.
// The host's speed drifts by 20-30% over minutes, so each query's median
// is taken over as many rounds as the run length allows.
constexpr double kSingleRoundS = 4.0;
constexpr int kMinRounds = 3;

/// Indexed columns, as tpcd::Load builds them.
constexpr std::pair<const char*, const char*> kIndexes[] = {
    {"nation", "n_nationkey"}, {"supplier", "s_suppkey"},
    {"customer", "c_custkey"}, {"part", "p_partkey"},
    {"orders", "o_orderkey"},  {"lineitem", "l_orderkey"},
};

struct SetupTimes {
  std::vector<double> total_s, load_s, index_s, calibrate_s;
};

DatabaseOptions SingleNodeOptions() {
  DatabaseOptions o;
  o.buffer_pool_pages = kPoolPages;
  o.query_mem_pages = kQueryMemPages;
  o.calibrate_max_relations = 9;
  o.enable_feedback = false;
  o.enable_plan_cache = false;
  o.reopt = BenchReopt(ReoptMode::kFull);
  return o;
}

/// Loads TPC-D into `db`, builds the indexes and forces the optimizer's
/// calibration, which the first query would otherwise pay for.
void LoadTpcd(Database* db, uint64_t seed, Tracer* tracer, SetupTimes* t) {
  tpcd::TpcdOptions gen;
  gen.scale_factor = kScaleFactor;
  gen.zipf_z = 0.0;
  gen.seed = seed;
  gen.build_indexes = false;
  gen.analyze = true;
  gen.analyze_options.histogram_kind = HistogramKind::kMaxDiff;
  gen.update_fraction = 1.0;
  Status st;
  t->load_s.push_back(
      Timed(tracer, "tpcd.Load", nullptr, [&] { st = tpcd::Load(db, gen); }) /
      1e3);
  if (!st.ok()) Die("tpcd::Load", st);
  double index_ms = 0;
  for (const auto& [table, column] : kIndexes) {
    index_ms += Timed(tracer, "storage.CreateIndex", table,
                      [&] { st = db->CreateIndex(table, column); });
    if (!st.ok()) Die("CreateIndex", st);
  }
  t->index_s.push_back(index_ms / 1e3);
  t->calibrate_s.push_back(
      Timed(tracer, "optimizer.calibration", nullptr,
            [&] { db->calibration(); }) /
      1e3);
}

std::unique_ptr<Database> MakeSingle(uint64_t seed, Tracer* tracer,
                                     SetupTimes* t) {
  ScopedSpan span(tracer, "perfbench.setup");
  const Clock::time_point t0 = Clock::now();
  auto db = std::make_unique<Database>(SingleNodeOptions());
  LoadTpcd(db.get(), seed, tracer, t);
  t->total_s.push_back(MsSince(t0) / 1e3);
  return db;
}

void SetSetupMetrics(const SetupTimes& t, Metrics* m) {
  (*m)["setup_s"] = Median(t.total_s);
  (*m)["tpcd.load_s"] = Median(t.load_s);
  (*m)["storage.index_build_s"] = Median(t.index_s);
  (*m)["optimizer.calibrate_s"] = Median(t.calibrate_s);
}

/// Result of one execution, as the round loop checks and records it.
struct Answer {
  std::vector<Tuple> rows;
  double sim_ms = 0;
};

/// The first (warm-up) round's answers, which later rounds must repeat.
using Baseline = std::map<std::string, Answer>;

/// Checks a timed answer's rows and simulated time against the warm-up
/// round's; records the first.
bool CheckRepeat(Baseline* baseline, const std::string& key, const Answer& a,
                 std::string* why) {
  auto [it, first] = baseline->emplace(key, a);
  if (first) return true;
  if (!IdenticalRows(a.rows, it->second.rows)) {
    *why = "rows differ from the first round";
    return false;
  }
  if (a.sim_ms != it->second.sim_ms) {
    *why = "sim_ms " + std::to_string(a.sim_ms) + " differs from the first "
           "round's " + std::to_string(it->second.sim_ms);
    return false;
  }
  return true;
}

/// Compares the warm-up answers with the independent reference.
void CheckReference(Database* db, const Baseline& baseline,
                    const std::vector<std::string>& modes, Tally* tally) {
  auto ref = TpcdReference(db);
  if (!ref.ok()) Die("reference scan", ref.status());
  for (const tpcd::TpcdQuery& q : tpcd::AllQueries()) {
    for (const std::string& mode : modes) {
      const std::string key = std::string(q.name) + "." + mode;
      auto it = baseline.find(key);
      std::string why = "no answer from the warm-up round";
      const bool ok = it != baseline.end() &&
                      SameRows(it->second.rows, ref->at(q.name), &why);
      tally->Record(ok, key + " vs reference: " + why);
    }
  }
}

/// Stable C strings for span tags ("Q5.full").
std::vector<std::string> MakeTags(const std::vector<std::string>& modes) {
  std::vector<std::string> tags;
  for (const tpcd::TpcdQuery& q : tpcd::AllQueries())
    for (const std::string& mode : modes)
      tags.push_back(std::string(q.name) + "." + mode);
  return tags;
}

/// One round's wall time: the sum of each query's median over the rounds,
/// which one slow query in one round does not move.
double RoundSeconds(const RoundSeries& series,
                    const std::vector<std::string>& tags) {
  double ms = 0;
  for (const std::string& tag : tags) {
    auto it = series.rounds().find("engine.query_ms." + tag);
    if (it != series.rounds().end()) ms += Median(it->second);
  }
  return ms / 1e3;
}

double LastRound(const RoundSeries& series, const std::string& name) {
  auto it = series.rounds().find(name);
  return it == series.rounds().end() ? 0.0 : it->second.back();
}

std::vector<std::string> QuerySqls() {
  std::vector<std::string> out;
  for (const tpcd::TpcdQuery& q : tpcd::AllQueries()) out.push_back(q.sql);
  return out;
}

}  // namespace

void RunTpcdSingle(const RunOptions& opt, Tracer* tracer, Metrics* m,
                   Tally* tally) {
  SetupTimes setup;
  std::unique_ptr<Database> db;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    db = MakeSingle(opt.seed, tracer, &setup);
  }
  SetSetupMetrics(setup, m);

  const std::vector<std::string> modes = {"off", "full"};
  const ReoptOptions reopt[] = {BenchReopt(ReoptMode::kOff),
                                BenchReopt(ReoptMode::kFull)};
  const std::vector<std::string> tags = MakeTags(modes);
  const std::vector<tpcd::TpcdQuery> queries = tpcd::AllQueries();
  const int rounds = RoundsFor(opt.seconds, kSingleRoundS, kMinRounds);
  Baseline baseline;
  RoundSeries series;
  std::vector<StorageCounters> storage;

  // Round 0 is the untimed warm-up; its answers are the baseline.
  for (int round = 0; round <= rounds; ++round) {
    ScopedSpan round_span(tracer, "perfbench.round");
    const StorageCounters before =
        StorageCounters::Of(*db->disk(), *db->buffer_pool());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<Tuple> off_rows;
      for (size_t mi = 0; mi < modes.size(); ++mi) {
        const std::string& tag = tags[qi * modes.size() + mi];
        tracer->NextOp();
        Result<QueryResult> r = Status::Internal("not run");
        const double ms = Timed(tracer, "engine.ExecuteWith", tag.c_str(), [&] {
          r = db->ExecuteWith(queries[qi].sql, reopt[mi]);
        });
        std::string why = r.ok() ? "" : r.status().ToString();
        bool ok = r.ok();
        if (ok) {
          Answer a{r->rows, r->report.sim_time_ms};
          ok = CheckRepeat(&baseline, tag, a, &why);
          if (ok && mi == 1) ok = SameRows(r->rows, off_rows, &why);
          if (mi == 0) off_rows = r->rows;
        }
        tally->Record(ok, tag + ": " + why);
        if (round == 0 || !r.ok()) continue;
        const ExecutionReport& rep = r->report;
        series.Add("round_sim_ms", rep.sim_time_ms);
        series.Add("mix_s." + modes[mi], ms / 1e3);
        series.Add("sim_ms." + modes[mi], rep.sim_time_ms);
        series.Add("engine.query_ms." + tag, ms);
        if (mi == 1) {
          series.Add("reopt.collectors", rep.collectors_inserted);
          series.Add("reopt.mem_reallocs", rep.memory_reallocations);
          series.Add("reopt.considered", rep.reopts_considered);
          series.Add("reopt.switches", rep.plans_switched);
          series.Add("reopt.overhead_sim_ms", rep.reopt_overhead_ms);
        }
        AddExecSpans(rep.trace, modes[mi], &series);
      }
    }
    if (round == 0) continue;
    storage.push_back(StorageCounters::Of(*db->disk(), *db->buffer_pool()) -
                      before);
    series.EndRound();
    std::fprintf(stderr, "# round %d: mix_s.off = %.4f, mix_s.full = %.4f\n",
                 round, LastRound(series, "mix_s.off"),
                 LastRound(series, "mix_s.full"));
  }

  (*m)["peak_rss_mb"] = PeakRssMb();
  const uint64_t live_pages = db->disk()->live_pages();
  (*m)["stored_mb"] = PagesToMb(live_pages);
  (*m)["round_s"] = RoundSeconds(series, tags);
  series.SetMedians(m);
  SetStorageMetrics(storage, live_pages, m);

  if (opt.trace) {
    ProbeFrontEnd(db.get(), QuerySqls(), tracer, m);
    ProbeStorage(db.get(), "lineitem", "l_orderkey", opt.seed, tracer, m);
  }
  CheckReference(db.get(), baseline, modes, tally);
}

}  // namespace perfbench
