#include "engines/query_ops.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "obs/profiler.h"

namespace graphbench {
namespace query_ops {

namespace {

// ORDER BY then LIMIT as positions: [0, n) in the order std::stable_sort
// by `keys` leaves them, cut to the first `limit` (all when negative).
// `at(i, column)` is position i's value in `column`. With a LIMIT below n
// this selects the top k (a heap over k positions, O(n log k)) instead of
// sorting all n; ties go to the earlier position either way, so the
// output equals the stable sort plus truncation.
template <typename At>
std::vector<size_t> SortAndLimit(size_t n, const std::vector<SortKey>& keys,
                                 int64_t limit, const At& at) {
  const size_t k = limit < 0 ? n : std::min(n, size_t(limit));
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  if (!keys.empty() && k > 0) {
    obs::OpTimer sort_op("sort");
    auto before = [&keys, &at](size_t a, size_t b) {
      for (auto [column, desc] : keys) {
        int c = at(a, column).Compare(at(b, column));
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return a < b;
    };
    if (k < n) {
      std::partial_sort(order.begin(), order.begin() + ptrdiff_t(k),
                        order.end(), before);
    } else {
      std::sort(order.begin(), order.end(), before);
    }
  }
  order.resize(k);
  return order;
}

size_t HashValues(const Value* values, size_t n) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) h = h * 31 + values[i].Hash();
  return h;
}

bool EqualValues(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

// Open-addressing hash index from a key (a run of Values the caller
// keeps) to its dense number: DISTINCT's projected rows, group-by's
// groups. It holds numbers and hashes only, in one array that grows by
// doubling, so indexing a key allocates nothing of its own.
class KeyIndex {
 public:
  // The number of the key hashing to `hash` that `equal(number)` accepts;
  // if there is none, records `fresh` as the key's number and returns it.
  template <typename Equal>
  size_t FindOrInsert(size_t hash, size_t fresh, const Equal& equal) {
    if (2 * (count_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Mix(hash) & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.number == kEmpty) {
        slot = Slot{hash, fresh};
        ++count_;
        return fresh;
      }
      if (slot.hash == hash && equal(slot.number)) return slot.number;
    }
  }

 private:
  static constexpr size_t kEmpty = ~size_t{0};
  struct Slot {
    size_t hash = 0;
    size_t number = kEmpty;
  };
  static size_t Mix(size_t h) {
    h *= 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }
  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& o : old) {
      if (o.number == kEmpty) continue;
      size_t s = Mix(o.hash) & mask;
      while (slots_[s].number != kEmpty) s = (s + 1) & mask;
      slots_[s] = o;
    }
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
};

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

Result<int64_t> BindLimit(int64_t literal, const std::string& param,
                          const std::map<std::string, Value>& params) {
  auto it = params.find(param);
  return BindLimit(literal, !param.empty(),
                   it == params.end() ? nullptr : &it->second);
}

Result<std::vector<Row>> Project(size_t bindings, const ProjectSpec& spec,
                                 const RowFn& row, const RowFn& sort_key) {
  obs::OpTimer project_op("project");
  std::vector<Row> rows;
  rows.reserve(bindings);
  KeyIndex seen;
  // A duplicate leaves `r` to be refilled; a kept row moves out, so each
  // output row costs one allocation and a dropped one none.
  Row r;
  for (size_t i = 0; i < bindings; ++i) {
    r.clear();
    r.reserve(spec.columns + spec.desc.size());
    GB_RETURN_IF_ERROR(row(i, &r));
    if (spec.distinct) {
      const size_t n = r.size();
      const size_t found =
          seen.FindOrInsert(HashValues(r.data(), n), rows.size(),
                            [&](size_t other) {
                              return rows[other].size() >= n &&
                                     EqualValues(rows[other].data(),
                                                 r.data(), n);
                            });
      if (found != rows.size()) continue;
    }
    // The ORDER BY keys ride behind the projected columns until the sort.
    if (!spec.desc.empty()) GB_RETURN_IF_ERROR(sort_key(i, &r));
    rows.push_back(std::move(r));
  }
  project_op.AddRows(rows.size());
  project_op.Stop();
  if (spec.desc.empty()) {
    if (spec.limit >= 0 && rows.size() > size_t(spec.limit)) {
      rows.resize(size_t(spec.limit));
    }
    return rows;
  }
  std::vector<SortKey> keys;
  for (size_t k = 0; k < spec.desc.size(); ++k) {
    keys.push_back(SortKey{spec.columns + k, spec.desc[k]});
  }
  std::vector<size_t> order = SortAndLimit(
      rows.size(), keys, spec.limit,
      [&rows](size_t i, size_t column) -> const Value& {
        return rows[i][column];
      });
  std::vector<Row> out;
  out.reserve(order.size());
  for (size_t i : order) {
    out.push_back(std::move(rows[i]));
    out.back().resize(spec.columns);
  }
  return out;
}

Result<std::vector<Row>> Aggregate(size_t bindings, const AggregateSpec& spec,
                                   const RowFn& key, const ValueFn& value) {
  obs::OpTimer agg_op("aggregate");
  struct Accumulator {
    int64_t count = 0;
    double sum = 0;
    bool ints_only = true;
    Value value;  // kFirst, kMin or kMax; after the scan, the output
  };
  const std::vector<AggItem>& items = spec.items;
  const size_t width = items.size();
  // Group g's key is keys[g * key_width, (g + 1) * key_width); its
  // accumulators are accs[g * width, (g + 1) * width). Both are flat, so
  // a group of integer keys costs no allocation beyond their growth.
  std::vector<Value> keys;
  size_t key_width = 0;
  std::vector<Accumulator> accs;
  size_t groups = 0;
  KeyIndex index;
  // One global group, which yields a row even over zero solutions.
  if (!spec.grouped) {
    accs.resize(width);
    groups = 1;
  }
  Row k;
  Value v;
  for (size_t i = 0; i < bindings; ++i) {
    size_t g = 0;
    bool first = i == 0;
    if (spec.grouped) {
      k.clear();
      GB_RETURN_IF_ERROR(key(i, &k));
      if (groups == 0) key_width = k.size();
      if (k.size() != key_width) {
        return Status::Internal("group keys differ in width");
      }
      g = index.FindOrInsert(HashValues(k.data(), key_width), groups,
                             [&](size_t other) {
                               return EqualValues(&keys[other * key_width],
                                                  k.data(), key_width);
                             });
      first = g == groups;
      if (first) {
        keys.insert(keys.end(), std::make_move_iterator(k.begin()),
                    std::make_move_iterator(k.end()));
        accs.resize(accs.size() + width);
        ++groups;
      }
    }
    Accumulator* group = &accs[g * width];
    for (size_t j = 0; j < width; ++j) {
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
  // Each accumulator's output value, in place, so ORDER BY compares the
  // groups before any output row exists.
  for (size_t g = 0; g < groups; ++g) {
    for (size_t j = 0; j < width; ++j) {
      Accumulator& acc = accs[g * width + j];
      switch (items[j].agg) {
        case Agg::kKey:
        case Agg::kFirst:
        case Agg::kMin:
        case Agg::kMax:
          break;
        case Agg::kCountStar:
        case Agg::kCount:
          acc.value = Value(acc.count);
          break;
        case Agg::kSum:
          acc.value = acc.ints_only ? Value(int64_t(acc.sum)) : Value(acc.sum);
          break;
        case Agg::kAvg:
          acc.value = acc.count ? Value(acc.sum / double(acc.count)) : Value();
          break;
      }
    }
  }
  auto at = [&](size_t g, size_t j) -> const Value& {
    return items[j].agg == Agg::kKey
               ? keys[g * key_width + items[j].key_column]
               : accs[g * width + j].value;
  };
  agg_op.AddRows(groups);
  // Output rows only for the groups that survive the LIMIT.
  std::vector<size_t> order = SortAndLimit(groups, spec.order, spec.limit, at);
  std::vector<Row> rows;
  rows.reserve(order.size());
  for (size_t g : order) {
    Row& row = rows.emplace_back();
    row.reserve(width);
    for (size_t j = 0; j < width; ++j) {
      row.push_back(items[j].agg == Agg::kKey
                        ? at(g, j)
                        : std::move(accs[g * width + j].value));
    }
  }
  return rows;
}

}  // namespace query_ops
}  // namespace graphbench
