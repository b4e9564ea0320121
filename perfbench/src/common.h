// Shared pieces of the benchmark program: run options, the span recorder,
// order statistics, the metric sink, the operation tally, result
// comparison, and readings of process memory and storage counters.

#ifndef REOPTDB_PERFBENCH_COMMON_H_
#define REOPTDB_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "types/tuple.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command-line arguments of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

/// Records one span (name, start, end, parent, operation id) around each
/// call the benchmark makes into a reoptdb module, in memory, when tracing
/// is on; does nothing otherwise. Names are static strings; `tag` qualifies a
/// span (query and mode, statement kind) and may be null.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Starts a new operation; spans opened from now on carry its id.
  void NextOp() { ++op_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int64_t Begin(const char* name, const char* tag);
  void End(int64_t id);

  /// Durations (ms) of the closed spans with this name.
  std::vector<double> DurationsMs(const char* name) const;

  /// Writes every span as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* tag;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t op;
  };
  bool enabled_;
  Clock::time_point t0_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* tag = nullptr)
      : tracer_(tracer), id_(tracer->Begin(name, tag)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Runs `f` inside a span and returns its wall time in ms.
template <typename F>
double Timed(Tracer* tracer, const char* name, const char* tag, F&& f) {
  ScopedSpan span(tracer, name, tag);
  const Clock::time_point t0 = Clock::now();
  f();
  return MsSince(t0);
}

// --- Order statistics.

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> v, double q);

/// Metric values of one run by name; units come from the registry in
/// main.cc.
using Metrics = std::map<std::string, double>;

/// Per-round sums of named quantities; a metric is the median of its
/// per-round values.
class RoundSeries {
 public:
  void Add(const std::string& name, double v) { current_[name] += v; }
  void EndRound();
  /// Sets every quantity's median over the rounds into `m`.
  void SetMedians(Metrics* m) const;
  const std::map<std::string, std::vector<double>>& rounds() const {
    return rounds_;
  }

 private:
  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> rounds_;
};

/// Adds one query's simulated self time per operator kind
/// ("exec.self_sim_ms.<Op>.<mode>") and rows produced ("exec.rows.<mode>")
/// from the operator spans the engine records. Span times are inclusive;
/// children are found from the post-order node ids and each kind's arity,
/// and a node's self time is its blocking plus Next time minus its
/// children's Next time (the scheduler runs blocking phases itself, outside
/// the parent's calls), floored at zero.
void AddExecSpans(const reoptdb::QueryTrace& trace, const std::string& mode,
                  RoundSeries* series);

/// Reports a failed set-up step and exits 1.
[[noreturn]] void Die(const char* what, const reoptdb::Status& st);

/// Operations attempted and failed; a failed check is reported on stderr.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts one operation; returns `ok`.
  bool Record(bool ok, const std::string& what);
};

/// Rows equal as multisets: keys and counts exactly, doubles within a
/// relative tolerance of 1e-9. `why` receives the first difference.
bool SameRows(std::vector<reoptdb::Tuple> got,
              std::vector<reoptdb::Tuple> want, std::string* why);
/// Rows bit-identical, in order.
bool IdenticalRows(const std::vector<reoptdb::Tuple>& a,
                   const std::vector<reoptdb::Tuple>& b);

/// Peak resident set size of this process so far (MiB).
double PeakRssMb();

/// Disk and buffer-pool counters of one storage stack.
struct StorageCounters {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  static StorageCounters Of(const reoptdb::DiskManager& disk,
                            const reoptdb::BufferPool& pool);
  StorageCounters operator-(const StorageCounters& o) const;
};

/// Sets the storage.* per-layer counters from per-pass deltas (medians
/// over passes) and the live page count at the end of the run.
void SetStorageMetrics(const std::vector<StorageCounters>& per_pass,
                       uint64_t live_pages, Metrics* m);

/// MiB held by `pages` simulated disk pages.
double PagesToMb(uint64_t pages);

}  // namespace perfbench

#endif  // REOPTDB_PERFBENCH_COMMON_H_
