// The benchmark's workloads and the engine settings they run under.
//
// Each workload is a closed loop: one client on one thread issues the next
// operation when the previous one returns. A run does a fixed amount of
// work for a given --seconds (whole rounds of the same operations), sets
// every metric it can measure into `m`, and counts each operation in
// `tally`, failing it when a result check does not hold.

#ifndef REOPTDB_PERFBENCH_WORKLOADS_H_
#define REOPTDB_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "reopt/controller.h"

namespace perfbench {

/// Re-optimization settings of every query the benchmark runs: the
/// paper's defaults (mu = theta1 = 0.05, theta2 = 0.2), batch size 1024.
reoptdb::ReoptOptions BenchReopt(reoptdb::ReoptMode mode);
/// One line describing the settings above, printed with every run.
std::string DescribeSettings();

/// Number of timed rounds for a run of `seconds`, at a nominal round time.
int RoundsFor(int seconds, double nominal_round_s, int min_rounds);

void RunTpcdSingle(const RunOptions& opt, Tracer* tracer, Metrics* m,
                   Tally* tally);
void RunDmlChurn(const RunOptions& opt, Tracer* tracer, Metrics* m,
                 Tally* tally);

// --- Traced-mode probes (probes.cc): per-call times of single layers,
// run outside the timed work.

/// parser.parse_us, parser.bind_us, optimizer.plan_ms, reopt.scia_us:
/// one pass of `sqls` through ParseSelect, Bind, Optimizer::Plan and
/// InsertStatsCollectors, each the sum over the statements of the median
/// of several calls.
void ProbeFrontEnd(reoptdb::Database* db, const std::vector<std::string>& sqls,
                   Tracer* tracer, Metrics* m);
/// storage.read_page_us, write_page_us, btree_lookup_us, btree_insert_us
/// over `table`'s pages and the index on `index_column`, and
/// types.decode_us / types.encode_us over its rows. Leaves a scratch
/// B+-tree's pages allocated, so it runs after live pages are counted.
void ProbeStorage(reoptdb::Database* db, const std::string& table,
                  const std::string& index_column, uint64_t seed,
                  Tracer* tracer, Metrics* m);

}  // namespace perfbench

#endif  // REOPTDB_PERFBENCH_WORKLOADS_H_
