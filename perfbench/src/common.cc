#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "storage/page.h"

namespace perfbench {

using reoptdb::Tuple;
using reoptdb::Value;

int64_t Tracer::Begin(const char* name, const char* tag) {
  if (!enabled_) return -1;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0_)
                          .count();
  const int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, tag, now, -1, parent, op_});
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  // Spans close innermost first (ScopedSpan), so `id` is the top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || std::strcmp(s.name, name) != 0) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"tag\":\"" << (s.tag ? s.tag : "") << "\",\"start_ns\":"
      << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << "}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void RoundSeries::EndRound() {
  for (const auto& [name, v] : current_) rounds_[name].push_back(v);
  current_.clear();
}

void RoundSeries::SetMedians(Metrics* m) const {
  for (const auto& [name, values] : rounds_) (*m)[name] = Median(values);
}

namespace {

size_t Arity(const std::string& op) {
  if (op == "SeqScan" || op == "IndexScan" || op == "Exchange") return 0;
  if (op == "HashJoin" || op == "MergeJoin") return 2;
  return 1;  // IndexNLJoin's inner side is an index, not a child operator
}

}  // namespace

void AddExecSpans(const reoptdb::QueryTrace& trace, const std::string& mode,
                  RoundSeries* series) {
  std::map<int, std::vector<const reoptdb::OperatorSpan*>> generations;
  for (const reoptdb::OperatorSpan& s : trace.spans)
    generations[s.plan_generation].push_back(&s);
  for (auto& [gen, spans] : generations) {
    std::sort(spans.begin(), spans.end(),
              [](const auto* a, const auto* b) {
                return a->node_id < b->node_id;
              });
    std::vector<const reoptdb::OperatorSpan*> stack;
    std::vector<double> self(spans.size(), 0.0);
    bool ok = true;
    for (size_t i = 0; ok && i < spans.size(); ++i) {
      const reoptdb::OperatorSpan* s = spans[i];
      const size_t arity = Arity(s->op);
      ok = s->node_id == static_cast<int>(i) && stack.size() >= arity;
      double child_next = 0;
      for (size_t c = 0; ok && c < arity; ++c) {
        child_next += stack.back()->next_ms;
        stack.pop_back();
      }
      // At a plan switch the controller drains a stage node itself, so a
      // child's Next time can exceed what its parent pulled; the parent's
      // share of that work is none.
      self[i] = std::max(0.0, s->blocking_ms + s->next_ms - child_next);
      stack.push_back(s);
    }
    if (!ok || stack.size() != 1) {
      std::fprintf(stderr,
                   "perfbench: operator spans of plan generation %d do not "
                   "form one post-order tree; left out of exec.*\n",
                   gen);
      continue;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      series->Add("exec.self_sim_ms." + spans[i]->op + "." + mode, self[i]);
      series->Add("exec.rows." + mode, static_cast<double>(spans[i]->rows));
    }
  }
}

void Die(const char* what, const reoptdb::Status& st) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

bool Tally::Record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

namespace {

// Orders rows by their non-double columns, then their doubles, so that
// group keys (never doubles here) line up between engine and reference.
bool RowLess(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < a.size(); ++i) {
      const bool dbl = a.at(i).is_double() || b.at(i).is_double();
      if (dbl != (pass == 1)) continue;
      if (dbl) {
        if (a.at(i).AsNumeric() != b.at(i).AsNumeric())
          return a.at(i).AsNumeric() < b.at(i).AsNumeric();
      } else if (a.at(i) != b.at(i)) {
        return a.at(i) < b.at(i);
      }
    }
  }
  return false;
}

bool ValueClose(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    if (a.is_string() || b.is_string()) return false;
    const double x = a.AsNumeric(), y = b.AsNumeric();
    return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a.type() == b.type() && a == b;
}

/// A row with every double at full precision.
std::string RowString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) out += ", ";
    if (t.at(i).is_double()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", t.at(i).AsDouble());
      out += buf;
    } else {
      out += t.at(i).ToString();
    }
  }
  return out + ")";
}

}  // namespace

bool SameRows(std::vector<Tuple> got, std::vector<Tuple> want,
              std::string* why) {
  if (got.size() != want.size()) {
    *why = "row count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
    return false;
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t i = 0; same && i < got[r].size(); ++i)
      same = ValueClose(got[r].at(i), want[r].at(i));
    if (!same) {
      *why = "row " + RowString(got[r]) + " vs " + RowString(want[r]);
      return false;
    }
  }
  return true;
}

bool IdenticalRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t i = 0; i < a[r].size(); ++i) {
      const Value& x = a[r].at(i);
      const Value& y = b[r].at(i);
      if (x.type() != y.type()) return false;
      if (x.is_double() ? std::bit_cast<uint64_t>(x.AsDouble()) !=
                              std::bit_cast<uint64_t>(y.AsDouble())
                        : x != y)
        return false;
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

StorageCounters StorageCounters::Of(const reoptdb::DiskManager& disk,
                                    const reoptdb::BufferPool& pool) {
  return StorageCounters{disk.stats().page_reads, disk.stats().page_writes,
                         pool.stats().hits, pool.stats().misses};
}

StorageCounters StorageCounters::operator-(const StorageCounters& o) const {
  return {page_reads - o.page_reads, page_writes - o.page_writes,
          pool_hits - o.pool_hits, pool_misses - o.pool_misses};
}

void SetStorageMetrics(const std::vector<StorageCounters>& per_pass,
                       uint64_t live_pages, Metrics* m) {
  std::vector<double> reads, writes, hits, misses, rate;
  for (const StorageCounters& c : per_pass) {
    reads.push_back(static_cast<double>(c.page_reads));
    writes.push_back(static_cast<double>(c.page_writes));
    hits.push_back(static_cast<double>(c.pool_hits));
    misses.push_back(static_cast<double>(c.pool_misses));
    const uint64_t total = c.pool_hits + c.pool_misses;
    rate.push_back(total ? static_cast<double>(c.pool_hits) /
                               static_cast<double>(total)
                         : 0.0);
  }
  (*m)["storage.page_reads"] = Median(reads);
  (*m)["storage.page_writes"] = Median(writes);
  (*m)["storage.pool_hits"] = Median(hits);
  (*m)["storage.pool_misses"] = Median(misses);
  (*m)["storage.pool_hit_rate"] = Median(rate);
  (*m)["storage.live_pages"] = static_cast<double>(live_pages);
}

double PagesToMb(uint64_t pages) {
  return static_cast<double>(pages) * static_cast<double>(reoptdb::kPageSize) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
