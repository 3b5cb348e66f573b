#ifndef GRAPHBENCH_ENGINES_QUERY_OPS_H_
#define GRAPHBENCH_ENGINES_QUERY_OPS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/value.h"

namespace graphbench {

/// Tabular result of a query in any of the engines (SQL, SPARQL, Cypher
/// all return these so the benchmark can compare outputs across systems).
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Rows affected for DML statements (INSERT).
  uint64_t affected = 0;
};

/// The storage-independent tail of a declarative query, written once for
/// the SQL, Cypher and SPARQL engines: group-by with its aggregates,
/// DISTINCT, ORDER BY and LIMIT. Each engine still matches, joins and
/// evaluates expressions its own way (tuple fetches, property reads,
/// dictionary decoding) and hands the values over through callbacks that
/// take a binding's position in its solution list; so the SUTs differ in
/// storage access only, not in how they group, sort and truncate.
///
/// Operator rows recorded here: `aggregate`, `project` and `sort`.
namespace query_ops {

/// Appends to `out` the values of binding `i` (the projected row, its
/// ORDER BY keys, or its group key).
using RowFn = std::function<Status(size_t i, Row* out)>;
/// Sets `*out` to output item `item`'s argument for binding `i`.
using ValueFn = std::function<Status(size_t i, size_t item, Value* out)>;

/// Whether the three-way comparison result `cmp` satisfies comparison
/// `op`, for the BinOp of any of the languages (kEq..kGe; false otherwise).
template <typename BinOp>
bool Satisfies(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq: return cmp == 0;
    case BinOp::kNe: return cmp != 0;
    case BinOp::kLt: return cmp < 0;
    case BinOp::kLe: return cmp <= 0;
    case BinOp::kGt: return cmp > 0;
    case BinOp::kGe: return cmp >= 0;
    default: return false;
  }
}

/// Binds LIMIT: `literal` for a query without a LIMIT parameter; else the
/// parameter's bound value `param`, which must be present (non-null) and
/// an integer. A negative bound means no limit.
Result<int64_t> BindLimit(int64_t literal, bool parameterized,
                          const Value* param);

/// One ORDER BY key over the aggregated output: a column and direction.
struct SortKey {
  size_t column;
  bool desc;
};

struct ProjectSpec {
  bool distinct = false;
  /// Width of the projected row.
  size_t columns = 0;
  /// One direction per ORDER BY key.
  std::vector<bool> desc;
  int64_t limit = -1;
};

/// Projects each of `bindings` solutions through `row`. With DISTINCT, a
/// row equal to an earlier one is dropped before `sort_key` computes its
/// ORDER BY keys. Then orders stably (ties keep solution order) and keeps
/// the first `limit` rows: with a LIMIT, a top-k selection that gives the
/// same rows as a full stable sort plus truncation.
Result<std::vector<Row>> Project(size_t bindings, const ProjectSpec& spec,
                                 const RowFn& row, const RowFn& sort_key);

/// An output item of an aggregation. count, sum, avg, min and max skip
/// NULL arguments; SUM stays an integer while every argument is one; avg
/// of nothing is NULL.
enum class Agg { kKey, kFirst, kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggItem {
  Agg agg;
  /// kKey: the column of the group key this item outputs.
  size_t key_column = 0;
};

struct AggregateSpec {
  std::vector<AggItem> items;
  /// False: one global group, which yields a row even over zero solutions.
  bool grouped = false;
  std::vector<SortKey> order;
  int64_t limit = -1;
};

/// Hash group-by over `bindings` solutions: `key` gives a solution's group
/// key (called only when grouped), `value` an item's argument (for every
/// solution of count..max items; for the group's first solution of kFirst
/// items; never for kKey and kCountStar). Groups come out in first-seen
/// order, then sort stably on `order` and keep the first `limit`; only
/// those groups become output rows. Groups are kept flat, so integer keys
/// cost no allocation per group beyond amortized growth.
Result<std::vector<Row>> Aggregate(size_t bindings, const AggregateSpec& spec,
                                   const RowFn& key, const ValueFn& value);

}  // namespace query_ops
}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_QUERY_OPS_H_
