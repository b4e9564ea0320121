// Independent answers for the paper's seven TPC-D queries.
//
// Rows come from HeapFile scans of the base tables; joins and aggregates
// are plain C++ hash maps. No parser, binder, optimizer or executor code
// runs, so an engine answer that matches these is checked against code it
// does not share.

#ifndef REOPTDB_PERFBENCH_REFERENCE_H_
#define REOPTDB_PERFBENCH_REFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

/// Query name ("Q1", ...) -> expected rows, columns in SELECT-list order.
reoptdb::Result<std::map<std::string, std::vector<reoptdb::Tuple>>>
TpcdReference(reoptdb::Database* db);

}  // namespace perfbench

#endif  // REOPTDB_PERFBENCH_REFERENCE_H_
