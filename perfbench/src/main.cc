// reoptdb benchmark program (perfbench).
//
//   reoptdb_perfbench --workload <tpcd_single|dml_churn> --seed <n>
//                     --seconds <s> --trace <0|1>
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
// record spans around every call into reoptdb, run the per-layer probes,
// write the spans to .bench_build/perfbench-spans/, and report the
// per-layer metrics. Every other figure a run measures goes to stderr as
// "# name = value unit". Exit status is 0 only if every output check held.

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "plan/physical_plan.h"
#include "tpcd/queries.h"
#include "workloads.h"

extern "C" {
// Defined only when a sanitizer runtime is linked in.
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __ubsan_handle_type_mismatch_v1();
}

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

std::vector<MetricDef> EndToEndMetrics() {
  return {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"stored_mb", "MB", "lower"},
      {"round_s", "s", "lower"},
      {"round_sim_ms", "sim_ms", "lower"},
  };
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> d = {
      {"tpcd.load_s", "s", "lower"},
      {"storage.index_build_s", "s", "lower"},
      {"optimizer.calibrate_s", "s", "lower"},
      {"mix_s.off", "s", "lower"},
      {"mix_s.full", "s", "lower"},
      {"sim_ms.off", "sim_ms", "lower"},
      {"sim_ms.full", "sim_ms", "lower"},
      {"txn_ms.p50", "ms", "lower"},
      {"txn_ms.p99", "ms", "lower"},
      {"read_ms.p50", "ms", "lower"},
      {"read_ms.p99", "ms", "lower"},
      {"scan_ms.p50", "ms", "lower"},
  };
  for (const reoptdb::tpcd::TpcdQuery& q : reoptdb::tpcd::AllQueries())
    for (const char* mode : {"off", "full"})
      d.push_back({std::string("engine.query_ms.") + q.name + "." + mode, "ms",
                   "lower"});
  for (const MetricDef& x : std::vector<MetricDef>{
           {"parser.parse_us", "us", "lower"},
           {"parser.bind_us", "us", "lower"},
           {"optimizer.plan_ms", "ms", "lower"},
           {"reopt.scia_us", "us", "lower"},
           {"reopt.collectors", "count", "lower"},
           {"reopt.mem_reallocs", "count", "lower"},
           {"reopt.considered", "count", "lower"},
           {"reopt.switches", "count", "lower"},
           {"reopt.overhead_sim_ms", "sim_ms", "lower"},
       })
    d.push_back(x);
  // Every operator kind the engine has, so that a plan choosing another
  // kind still reports under a registered name.
  for (const char* mode : {"off", "full"}) {
    for (int k = 0; k <= static_cast<int>(reoptdb::OpKind::kExchange); ++k)
      d.push_back({std::string("exec.self_sim_ms.") +
                       reoptdb::OpKindName(static_cast<reoptdb::OpKind>(k)) +
                       "." + mode,
                   "sim_ms", "lower"});
    d.push_back({std::string("exec.rows.") + mode, "count", "lower"});
  }
  for (const MetricDef& x : std::vector<MetricDef>{
           {"storage.page_reads", "count", "lower"},
           {"storage.page_writes", "count", "lower"},
           {"storage.pool_hits", "count", "higher"},
           {"storage.pool_misses", "count", "lower"},
           {"storage.pool_hit_rate", "ratio", "higher"},
           {"storage.live_pages", "count", "lower"},
           {"storage.read_page_us", "us", "lower"},
           {"storage.write_page_us", "us", "lower"},
           {"storage.btree_lookup_us", "us", "lower"},
           {"storage.btree_insert_us", "us", "lower"},
           {"types.decode_us", "us", "lower"},
           {"types.encode_us", "us", "lower"},
           {"txn.update_ms", "ms", "lower"},
           {"txn.insert_ms", "ms", "lower"},
           {"txn.delete_ms", "ms", "lower"},
           {"txn.commit_ms", "ms", "lower"},
           {"txn.checkpoint_ms", "ms", "lower"},
           {"txn.wal_records", "count", "lower"},
           {"txn.wal_fsyncs", "count", "lower"},
       })
    d.push_back(x);
  return d;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: reoptdb_perfbench --workload "
               "<tpcd_single|dml_churn> --seed <n> --seconds <1-3600> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (val == nullptr) Usage(("missing value for " + flag).c_str());
    uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = val;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!ParseUint(val, &n)) Usage("--seed must be a non-negative integer");
      o.seed = n;
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(val, &n) || n < 1 || n > 3600)
        Usage("--seconds must be an integer in [1, 3600]");
      o.seconds = static_cast<int>(n);
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        Usage("--trace must be 0 or 1");
      o.trace = val[0] == '1';
      have[3] = true;
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  for (bool h : have)
    if (!h) Usage("--workload, --seed, --seconds and --trace are required");
  if (o.workload != "tpcd_single" && o.workload != "dml_churn")
    Usage(("unknown workload " + o.workload).c_str());
  return o;
}

/// Refuses to measure a build or an environment that would change what is
/// measured: debug or sanitized code, injected faults, or bench overrides.
void CheckHygiene() {
  for (const char* var :
       {"REOPTDB_FAULTS", "REOPTDB_CRASH_SCHEDULE", "REOPTDB_BATCH_SIZE",
        "REOPTDB_BENCH_SF", "REOPTDB_BENCH_MEM", "REOPTDB_BENCH_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: %s is set; unset it to benchmark\n",
                   var);
      std::exit(2);
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: built without NDEBUG; use a Release build\n");
  std::exit(2);
#endif
  if (&__asan_init != nullptr || &__tsan_init != nullptr ||
      &__ubsan_handle_type_mismatch_v1 != nullptr) {
    std::fprintf(stderr,
                 "perfbench: built with a sanitizer; refusing to time\n");
    std::exit(2);
  }
}


}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions opt = ParseArgs(argc, argv);
  CheckHygiene();
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("# %s\n", DescribeSettings().c_str());
  std::fflush(stdout);

  Tracer tracer(opt.trace);
  Metrics measured;
  Tally tally;
  if (opt.workload == "tpcd_single") {
    RunTpcdSingle(opt, &tracer, &measured, &tally);
  } else {
    RunDmlChurn(opt, &tracer, &measured, &tally);
  }

  const std::vector<MetricDef> e2e = EndToEndMetrics();
  const std::vector<MetricDef> layer = PerLayerMetrics();
  auto find = [](const std::vector<MetricDef>& defs, const std::string& n) {
    for (const MetricDef& d : defs)
      if (d.name == n) return &d;
    return static_cast<const MetricDef*>(nullptr);
  };
  for (const auto& [name, value] : measured) {
    const MetricDef* d = find(e2e, name);
    if (d == nullptr) d = find(layer, name);
    if (d == nullptr) {
      // A traced run would report an incomplete per-layer set; an untraced
      // run reports end-to-end metrics only and goes on.
      std::fprintf(stderr, "perfbench: metric %s is not registered\n",
                   name.c_str());
      if (opt.trace) return 3;
      continue;
    }
    std::fprintf(stderr, "# %s = %.6g %s\n", name.c_str(), value,
                 d->unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : opt.trace ? layer : e2e) {
    auto it = measured.find(d.name);
    const double v = it == measured.end() ? 0.0 : it->second;
    if (!opt.trace && !(v > 0)) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s read %g\n",
                   d.name.c_str(), v);
      return 3;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";

  if (opt.trace) {
    std::error_code ec;
    const std::filesystem::path dir = ".bench_build/perfbench-spans";
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (opt.workload + "-seed" +
                                     std::to_string(opt.seed) + ".json"))
                                 .string();
    if (ec || !tracer.WriteJson(path))
      std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                   path.c_str());
  }
  std::printf("%s\n", json.c_str());
  return tally.failed == 0 ? 0 : 1;
}
