#ifndef GRAPHBENCH_LANG_SPARQL_AST_H_
#define GRAPHBENCH_LANG_SPARQL_AST_H_

#include <string>
#include <vector>

#include "util/value.h"

namespace graphbench {
namespace sparql {

/// A term position in a triple pattern: constant IRI, constant literal,
/// named parameter ($name, bound to a literal at execution time), or
/// variable.
struct TermPattern {
  enum class Kind { kIri, kLiteral, kVariable, kParam };
  Kind kind = Kind::kIri;
  std::string text;  // IRI spelling, variable name, or parameter name
  Value literal;

  static TermPattern Var(std::string name) {
    TermPattern t;
    t.kind = Kind::kVariable;
    t.text = std::move(name);
    return t;
  }
};

struct TriplePattern {
  TermPattern s, p, o;
};

/// FILTER(?a != ?b) / FILTER(?a = ?b) — the only filter forms the SNB
/// queries need.
struct Filter {
  std::string var_a;
  std::string var_b;
  bool not_equal = true;
};

/// A projection: a plain variable, the transitivity extension
/// (shortestPath(?a, ?b, pred) AS ?name) — our analog of Virtuoso's
/// transitive closure support — or an aggregate (COUNT(?v) AS ?n).
struct SelectExpr {
  bool is_path = false;
  bool is_count = false;  // (COUNT(?var) AS ?name)
  std::string var;        // plain projection / COUNT argument
  std::string from_var;   // path form
  std::string to_var;
  std::string pred_iri;
  std::string as_name;
};

struct Query {
  bool distinct = false;
  std::vector<SelectExpr> select;
  std::vector<TriplePattern> patterns;
  std::vector<Filter> filters;
  std::vector<std::string> group_by;  // GROUP BY ?vars
  std::vector<std::pair<std::string, bool>> order_by;  // (var, desc)
  int64_t limit = -1;
  /// LIMIT $name — the named parameter supplying the limit at bind time;
  /// empty when the limit is a literal (or absent). Lets one cached
  /// plan serve every limit value.
  std::string limit_param;
};

}  // namespace sparql
}  // namespace graphbench

#endif  // GRAPHBENCH_LANG_SPARQL_AST_H_
