#include "engines/query_ops.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/profiler.h"

namespace graphbench {
namespace query_ops {

namespace {

// Stable multi-key ORDER BY, then LIMIT.
void SortAndLimit(const std::vector<SortKey>& keys, int64_t limit,
                  std::vector<Row>* rows) {
  if (!keys.empty()) {
    obs::OpTimer sort_op("sort");
    std::stable_sort(rows->begin(), rows->end(),
                     [&keys](const Row& a, const Row& b) {
                       for (auto [column, desc] : keys) {
                         int c = a[column].Compare(b[column]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (limit >= 0 && rows->size() > size_t(limit)) rows->resize(size_t(limit));
}

}  // namespace

Result<int64_t> BindLimit(int64_t literal, bool parameterized,
                          const Value* param) {
  if (!parameterized) return literal;
  if (param == nullptr) {
    return Status::InvalidArgument("missing LIMIT parameter");
  }
  if (!param->is_int()) {
    return Status::InvalidArgument("LIMIT parameter must be an integer");
  }
  return param->as_int();
}

Result<std::vector<Row>> Project(size_t bindings, const ProjectSpec& spec,
                                 const RowFn& row, const RowFn& sort_key) {
  obs::OpTimer project_op("project");
  std::vector<Row> rows;
  rows.reserve(bindings);
  std::unordered_set<Row, RowHash, RowEq> seen;
  for (size_t i = 0; i < bindings; ++i) {
    // The ORDER BY keys ride behind the projected columns until the sort.
    Row r;
    r.reserve(spec.columns + spec.desc.size());
    GB_RETURN_IF_ERROR(row(i, &r));
    if (spec.distinct && !seen.insert(r).second) continue;
    if (!spec.desc.empty()) GB_RETURN_IF_ERROR(sort_key(i, &r));
    rows.push_back(std::move(r));
  }
  project_op.AddRows(rows.size());
  project_op.Stop();
  std::vector<SortKey> keys;
  for (size_t k = 0; k < spec.desc.size(); ++k) {
    keys.push_back(SortKey{spec.columns + k, spec.desc[k]});
  }
  SortAndLimit(keys, spec.limit, &rows);
  if (!keys.empty()) {
    for (Row& r : rows) r.resize(spec.columns);
  }
  return rows;
}

Result<std::vector<Row>> Aggregate(size_t bindings, const AggregateSpec& spec,
                                   const RowFn& key, const ValueFn& value) {
  obs::OpTimer agg_op("aggregate");
  struct Accumulator {
    int64_t count = 0;
    double sum = 0;
    bool ints_only = true;
    Value value;  // kFirst, kMin or kMax
  };
  const std::vector<AggItem>& items = spec.items;
  // Group g's key lives in `index`; its accumulators are
  // accs[g * items.size(), (g + 1) * items.size()).
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  std::vector<const Row*> keys;
  std::vector<Accumulator> accs;
  auto add_group = [&](const Row& group_key) {
    auto it = index.emplace(group_key, keys.size()).first;
    keys.push_back(&it->first);
    accs.resize(accs.size() + items.size());
    return it;
  };
  Row k;
  Value v;
  for (size_t i = 0; i < bindings; ++i) {
    k.clear();
    if (spec.grouped) GB_RETURN_IF_ERROR(key(i, &k));
    auto it = index.find(k);
    const bool first = it == index.end();
    if (first) it = add_group(k);
    Accumulator* group = &accs[it->second * items.size()];
    for (size_t j = 0; j < items.size(); ++j) {
      Accumulator& acc = group[j];
      switch (items[j].agg) {
        case Agg::kKey:
          break;
        case Agg::kFirst:
          if (first) GB_RETURN_IF_ERROR(value(i, j, &acc.value));
          break;
        case Agg::kCountStar:
          ++acc.count;
          break;
        default:
          GB_RETURN_IF_ERROR(value(i, j, &v));
          if (v.is_null()) break;
          ++acc.count;
          if (v.is_numeric()) {
            acc.sum += v.numeric();
            acc.ints_only &= v.is_int();
          }
          if (acc.value.is_null() ||
              (items[j].agg == Agg::kMin ? v.Compare(acc.value) < 0
                                         : v.Compare(acc.value) > 0)) {
            acc.value = v;
          }
      }
    }
  }
  if (keys.empty() && !spec.grouped) add_group(Row{});

  std::vector<Row> rows;
  rows.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row;
    row.reserve(items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      Accumulator& acc = accs[g * items.size() + j];
      switch (items[j].agg) {
        case Agg::kKey:
          row.push_back((*keys[g])[items[j].key_column]);
          break;
        case Agg::kFirst:
        case Agg::kMin:
        case Agg::kMax:
          row.push_back(std::move(acc.value));
          break;
        case Agg::kCountStar:
        case Agg::kCount:
          row.push_back(Value(acc.count));
          break;
        case Agg::kSum:
          row.push_back(acc.ints_only ? Value(int64_t(acc.sum))
                                      : Value(acc.sum));
          break;
        case Agg::kAvg:
          row.push_back(acc.count ? Value(acc.sum / double(acc.count))
                                  : Value());
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  agg_op.AddRows(rows.size());
  agg_op.Stop();
  SortAndLimit(spec.order, spec.limit, &rows);
  return rows;
}

}  // namespace query_ops
}  // namespace graphbench
