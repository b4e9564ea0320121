#include "reference.h"

#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "storage/heap_file.h"

namespace perfbench {

using namespace reoptdb;

namespace {

/// A base table's rows with its column positions by bare name.
struct Table {
  std::vector<Tuple> rows;
  std::map<std::string, size_t> cols;

  size_t Col(const std::string& name) const { return cols.at(name); }
};

Result<Table> Read(Database* db, const char* name) {
  ASSIGN_OR_RETURN(TableInfo * info, db->catalog()->Get(name));
  Table t;
  for (size_t i = 0; i < info->schema.NumColumns(); ++i)
    t.cols[info->schema.column(i).name] = i;
  HeapFile::Iterator it = info->heap->Scan();
  Tuple row;
  while (true) {
    ASSIGN_OR_RETURN(bool more, it.Next(&row));
    if (!more) break;
    t.rows.push_back(row);
  }
  return t;
}

int64_t I(const Tuple& r, size_t c) { return r.at(c).AsInt(); }
double D(const Tuple& r, size_t c) { return r.at(c).AsDouble(); }
const std::string& S(const Tuple& r, size_t c) { return r.at(c).AsString(); }

/// key -> value column, for a table's unique key.
std::unordered_map<int64_t, int64_t> KeyMap(const Table& t, const char* key,
                                            const char* value) {
  std::unordered_map<int64_t, int64_t> out;
  const size_t k = t.Col(key), v = t.Col(value);
  for (const Tuple& r : t.rows) out[I(r, k)] = I(r, v);
  return out;
}

}  // namespace

Result<std::map<std::string, std::vector<Tuple>>> TpcdReference(
    Database* db) {
  ASSIGN_OR_RETURN(Table region, Read(db, "region"));
  ASSIGN_OR_RETURN(Table nation, Read(db, "nation"));
  ASSIGN_OR_RETURN(Table supplier, Read(db, "supplier"));
  ASSIGN_OR_RETURN(Table customer, Read(db, "customer"));
  ASSIGN_OR_RETURN(Table part, Read(db, "part"));
  ASSIGN_OR_RETURN(Table orders, Read(db, "orders"));
  ASSIGN_OR_RETURN(Table lineitem, Read(db, "lineitem"));

  const size_t l_orderkey = lineitem.Col("l_orderkey");
  const size_t l_partkey = lineitem.Col("l_partkey");
  const size_t l_suppkey = lineitem.Col("l_suppkey");
  const size_t l_quantity = lineitem.Col("l_quantity");
  const size_t l_price = lineitem.Col("l_extendedprice");
  const size_t l_discount = lineitem.Col("l_discount");
  const size_t l_returnflag = lineitem.Col("l_returnflag");
  const size_t l_linestatus = lineitem.Col("l_linestatus");
  const size_t l_shipdate = lineitem.Col("l_shipdate");
  const size_t l_shipyear = lineitem.Col("l_shipyear");
  const size_t o_orderkey = orders.Col("o_orderkey");
  const size_t o_custkey = orders.Col("o_custkey");
  const size_t o_orderdate = orders.Col("o_orderdate");
  const size_t o_orderyear = orders.Col("o_orderyear");
  const size_t c_custkey = customer.Col("c_custkey");
  const size_t c_segment = customer.Col("c_mktsegment");

  std::unordered_map<int64_t, std::string> nation_name;
  std::unordered_map<int64_t, int64_t> nation_region;
  for (const Tuple& r : nation.rows) {
    nation_name[I(r, nation.Col("n_nationkey"))] = S(r, nation.Col("n_name"));
    nation_region[I(r, nation.Col("n_nationkey"))] =
        I(r, nation.Col("n_regionkey"));
  }
  std::unordered_map<int64_t, std::string> region_name;
  for (const Tuple& r : region.rows)
    region_name[I(r, region.Col("r_regionkey"))] = S(r, region.Col("r_name"));
  const auto supp_nation = KeyMap(supplier, "s_suppkey", "s_nationkey");
  const auto cust_nation = KeyMap(customer, "c_custkey", "c_nationkey");
  auto nation_in_region = [&](int64_t n, const char* rname) {
    auto it = nation_region.find(n);
    return it != nation_region.end() && region_name.count(it->second) &&
           region_name.at(it->second) == rname;
  };

  std::map<std::string, std::vector<Tuple>> out;

  {  // Q1
    struct Agg { double qty = 0, price = 0, disc = 0; int64_t n = 0; };
    std::map<std::pair<std::string, std::string>, Agg> g;
    for (const Tuple& r : lineitem.rows) {
      if (I(r, l_shipdate) > 2100) continue;
      Agg& a = g[{S(r, l_returnflag), S(r, l_linestatus)}];
      a.qty += D(r, l_quantity);
      a.price += D(r, l_price);
      a.disc += D(r, l_discount);
      ++a.n;
    }
    for (const auto& [k, a] : g)
      out["Q1"].push_back(Tuple({Value(k.first), Value(k.second),
                                 Value(a.qty), Value(a.price),
                                 Value(a.disc / static_cast<double>(a.n)),
                                 Value(a.n)}));
  }

  {  // Q3
    std::unordered_set<int64_t> building;
    for (const Tuple& r : customer.rows)
      if (S(r, c_segment) == "BUILDING") building.insert(I(r, c_custkey));
    std::unordered_map<int64_t, int64_t> order_date;
    for (const Tuple& r : orders.rows)
      if (I(r, o_orderdate) < 1260 && building.count(I(r, o_custkey)))
        order_date[I(r, o_orderkey)] = I(r, o_orderdate);
    std::map<std::pair<int64_t, int64_t>, double> g;
    for (const Tuple& r : lineitem.rows) {
      if (I(r, l_shipdate) <= 1260) continue;
      auto it = order_date.find(I(r, l_orderkey));
      if (it == order_date.end()) continue;
      g[{it->first, it->second}] += D(r, l_price);
    }
    for (const auto& [k, v] : g)
      out["Q3"].push_back(Tuple({Value(k.first), Value(k.second), Value(v)}));
  }

  {  // Q5
    std::unordered_map<int64_t, int64_t> order_cust;
    for (const Tuple& r : orders.rows)
      if (I(r, o_orderdate) >= 730 && I(r, o_orderdate) < 1095)
        order_cust[I(r, o_orderkey)] = I(r, o_custkey);
    std::map<std::string, double> g;
    for (const Tuple& r : lineitem.rows) {
      auto o = order_cust.find(I(r, l_orderkey));
      if (o == order_cust.end()) continue;
      auto c = cust_nation.find(o->second);
      auto s = supp_nation.find(I(r, l_suppkey));
      if (c == cust_nation.end() || s == supp_nation.end()) continue;
      if (c->second != s->second || !nation_in_region(s->second, "ASIA"))
        continue;
      g[nation_name.at(s->second)] += D(r, l_price);
    }
    for (const auto& [k, v] : g)
      out["Q5"].push_back(Tuple({Value(k), Value(v)}));
  }

  {  // Q6
    double sum = 0;
    for (const Tuple& r : lineitem.rows) {
      const int64_t ship = I(r, l_shipdate);
      const double disc = D(r, l_discount);
      if (ship >= 730 && ship < 1095 && disc >= 0.05 && disc <= 0.07 &&
          D(r, l_quantity) < 24)
        sum += D(r, l_price);
    }
    out["Q6"].push_back(Tuple({Value(sum)}));
  }

  {  // Q7
    std::unordered_map<int64_t, int64_t> order_cust;
    for (const Tuple& r : orders.rows)
      order_cust[I(r, o_orderkey)] = I(r, o_custkey);
    std::map<int64_t, double> g;
    for (const Tuple& r : lineitem.rows) {
      const int64_t ship = I(r, l_shipdate);
      if (ship < 1095 || ship > 1825) continue;
      auto s = supp_nation.find(I(r, l_suppkey));
      auto o = order_cust.find(I(r, l_orderkey));
      if (s == supp_nation.end() || o == order_cust.end()) continue;
      auto c = cust_nation.find(o->second);
      if (c == cust_nation.end()) continue;
      if (!nation_name.count(s->second) || !nation_name.count(c->second))
        continue;
      if (nation_name.at(s->second) != "FRANCE" ||
          nation_name.at(c->second) != "GERMANY")
        continue;
      g[I(r, l_shipyear)] += D(r, l_price);
    }
    for (const auto& [year, v] : g)
      out["Q7"].push_back(Tuple({Value(std::string("FRANCE")),
                                 Value(std::string("GERMANY")), Value(year),
                                 Value(v)}));
  }

  {  // Q8
    std::unordered_set<int64_t> steel;
    for (const Tuple& r : part.rows)
      if (S(r, part.Col("p_type")) == "ECONOMY ANODIZED STEEL")
        steel.insert(I(r, part.Col("p_partkey")));
    std::unordered_map<int64_t, std::pair<int64_t, int64_t>> order_info;
    for (const Tuple& r : orders.rows)
      if (I(r, o_orderdate) >= 1095 && I(r, o_orderdate) <= 1825)
        order_info[I(r, o_orderkey)] = {I(r, o_custkey), I(r, o_orderyear)};
    std::map<int64_t, std::pair<double, int64_t>> g;
    for (const Tuple& r : lineitem.rows) {
      if (!steel.count(I(r, l_partkey))) continue;
      auto s = supp_nation.find(I(r, l_suppkey));
      if (s == supp_nation.end() || !nation_name.count(s->second)) continue;
      auto o = order_info.find(I(r, l_orderkey));
      if (o == order_info.end()) continue;
      auto c = cust_nation.find(o->second.first);
      if (c == cust_nation.end() || !nation_in_region(c->second, "AMERICA"))
        continue;
      auto& a = g[o->second.second];
      a.first += D(r, l_price);
      ++a.second;
    }
    for (const auto& [year, a] : g)
      out["Q8"].push_back(Tuple(
          {Value(year), Value(a.first / static_cast<double>(a.second))}));
  }

  {  // Q10
    std::unordered_map<int64_t, int64_t> order_cust;
    for (const Tuple& r : orders.rows)
      if (I(r, o_orderdate) >= 730 && I(r, o_orderdate) < 820)
        order_cust[I(r, o_orderkey)] = I(r, o_custkey);
    std::map<int64_t, double> g;
    for (const Tuple& r : lineitem.rows) {
      if (S(r, l_returnflag) != "R") continue;
      auto o = order_cust.find(I(r, l_orderkey));
      if (o == order_cust.end()) continue;
      auto c = cust_nation.find(o->second);
      if (c == cust_nation.end() || !nation_name.count(c->second)) continue;
      g[o->second] += D(r, l_price);
    }
    for (const auto& [cust, v] : g)
      out["Q10"].push_back(Tuple({Value(cust),
                                  Value(nation_name.at(cust_nation.at(cust))),
                                  Value(v)}));
  }
  return out;
}

}  // namespace perfbench
