// Traced-mode probes: the time per call of single layers, measured from
// the benchmark through each module's public functions, outside the timed
// work. Every call is a span; a metric is the median span duration.

#include <memory>
#include <random>

#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "reopt/scia.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "workloads.h"

namespace perfbench {

using namespace reoptdb;

namespace {

// Repetitions of each front-end call per statement, and calls per storage
// or codec probe.
constexpr int kFrontEndReps = 15;
constexpr size_t kProbeCalls = 2000;

double MedianUs(const Tracer& tracer, const char* name) {
  return Median(tracer.DurationsMs(name)) * 1e3;
}

}  // namespace

void ProbeFrontEnd(Database* db, const std::vector<std::string>& sqls,
                   Tracer* tracer, Metrics* m) {
  ScopedSpan span(tracer, "perfbench.probe", "front_end");
  OptimizerOptions opt_opts = db->options().optimizer;
  opt_opts.assumed_mem_pages = db->options().query_mem_pages;
  opt_opts.pool_pages_hint =
      static_cast<double>(db->options().buffer_pool_pages);
  SciaOptions scia;  // the paper's mu = 0.05
  const char* const kNames[4] = {"parser.ParseSelect", "parser.Bind",
                                 "optimizer.Plan",
                                 "reopt.InsertStatsCollectors"};
  double sum_ms[4] = {0, 0, 0, 0};
  for (const std::string& sql : sqls) {
    std::vector<double> ms[4];
    for (int rep = 0; rep < kFrontEndReps; ++rep) {
      tracer->NextOp();
      Result<SelectStmtAst> ast = Status::Internal("not run");
      ms[0].push_back(
          Timed(tracer, kNames[0], nullptr, [&] { ast = ParseSelect(sql); }));
      if (!ast.ok()) return;
      Result<QuerySpec> spec = Status::Internal("not run");
      ms[1].push_back(Timed(tracer, kNames[1], nullptr,
                            [&] { spec = Bind(*ast, *db->catalog()); }));
      if (!spec.ok()) return;
      Optimizer optimizer(db->catalog(), &db->cost_model(), opt_opts);
      Result<OptimizeResult> plan = Status::Internal("not run");
      ms[2].push_back(Timed(tracer, kNames[2], nullptr,
                            [&] { plan = optimizer.Plan(*spec); }));
      if (!plan.ok()) return;
      std::unique_ptr<PlanNode> root = std::move(plan.value().plan);
      ms[3].push_back(Timed(tracer, kNames[3], nullptr, [&] {
        (void)InsertStatsCollectors(&root, *spec, *db->catalog(),
                                    db->cost_model(), scia);
      }));
    }
    for (int i = 0; i < 4; ++i) sum_ms[i] += Median(ms[i]);
  }
  (*m)["parser.parse_us"] = sum_ms[0] * 1e3;
  (*m)["parser.bind_us"] = sum_ms[1] * 1e3;
  (*m)["optimizer.plan_ms"] = sum_ms[2];
  (*m)["reopt.scia_us"] = sum_ms[3] * 1e3;
}

void ProbeStorage(Database* db, const std::string& table,
                  const std::string& index_column, uint64_t seed,
                  Tracer* tracer, Metrics* m) {
  ScopedSpan probe_span(tracer, "perfbench.probe", "storage");
  Result<TableInfo*> info = db->catalog()->Get(table);
  if (!info.ok()) return;
  const HeapFile* heap = info.value()->heap.get();
  const BTree* index = info.value()->FindIndex(index_column);
  DiskManager* disk = db->disk();
  std::mt19937_64 rng(seed);

  // Pages: read each of the table's first pages; write one back unchanged.
  const size_t pages = std::min(heap->flushed_page_count(), kProbeCalls);
  Page page;
  for (size_t i = 0; i < pages; ++i) {
    tracer->NextOp();
    const PageId id = heap->page_id(i);
    Status st;
    {
      ScopedSpan span(tracer, "storage.DiskManager.ReadPage");
      st = disk->ReadPage(id, &page);
    }
    if (!st.ok()) return;
    ScopedSpan span(tracer, "storage.DiskManager.WritePage");
    st = disk->WritePage(id, page);
    if (!st.ok()) return;
  }
  (*m)["storage.read_page_us"] =
      MedianUs(*tracer, "storage.DiskManager.ReadPage");
  (*m)["storage.write_page_us"] =
      MedianUs(*tracer, "storage.DiskManager.WritePage");

  // Rows: the table's first rows, with their keys and rids.
  std::vector<Tuple> rows;
  std::vector<std::pair<int64_t, Rid>> keys;
  Result<size_t> key_col =
      info.value()->schema.IndexOf(table + "." + index_column);
  HeapFile::Iterator it = heap->Scan();
  Tuple row;
  while (rows.size() < kProbeCalls && key_col.ok()) {
    Result<bool> more = it.Next(&row);
    if (!more.ok() || !more.value()) break;
    keys.push_back({row.at(*key_col).AsInt(), it.last_rid()});
    rows.push_back(row);
  }

  std::vector<Rid> found;
  for (size_t i = 0; index != nullptr && !keys.empty() && i < kProbeCalls;
       ++i) {
    tracer->NextOp();
    const int64_t key = keys[rng() % keys.size()].first;
    found.clear();
    ScopedSpan span(tracer, "storage.BTree.Lookup");
    (void)index->Lookup(key, &found);
  }
  (*m)["storage.btree_lookup_us"] = MedianUs(*tracer, "storage.BTree.Lookup");
  Result<BTree> scratch = BTree::Create(db->buffer_pool());
  for (size_t i = 0; scratch.ok() && i < keys.size(); ++i) {
    tracer->NextOp();
    ScopedSpan span(tracer, "storage.BTree.Insert");
    (void)scratch->Insert(keys[i].first, keys[i].second);
  }
  (*m)["storage.btree_insert_us"] = MedianUs(*tracer, "storage.BTree.Insert");

  // Tuple codec over the same rows.
  std::string buf;
  std::vector<size_t> offsets;
  for (const Tuple& t : rows) {
    tracer->NextOp();
    offsets.push_back(buf.size());
    ScopedSpan span(tracer, "types.Tuple.SerializeTo");
    t.SerializeTo(&buf);
  }
  Tuple decoded;
  for (size_t off : offsets) {
    tracer->NextOp();
    size_t pos = off;
    ScopedSpan span(tracer, "types.Tuple.DeserializeInto");
    (void)Tuple::DeserializeInto(buf.data(), buf.size(), &pos, &decoded);
  }
  (*m)["types.encode_us"] = MedianUs(*tracer, "types.Tuple.SerializeTo");
  (*m)["types.decode_us"] = MedianUs(*tracer, "types.Tuple.DeserializeInto");
}

}  // namespace perfbench
