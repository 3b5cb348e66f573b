#ifndef GRAPHBENCH_LANG_CYPHER_AST_H_
#define GRAPHBENCH_LANG_CYPHER_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph_types.h"
#include "util/value.h"

namespace graphbench {
namespace cypher {

enum class BinOp { kEq, kNe, kLt, kLe, kGt, kGe, kAnd };

/// Cypher expression: property access, literals, $parameters, comparisons,
/// count(*), and length(shortestPath((a)-[:T*]-(b))).
struct Expr {
  enum class Kind {
    kProp,        // var.key
    kLiteral,
    kParam,       // $name
    kBinary,
    kCountStar,
    kPathLength,  // length(shortestPath((a)-[:T*]-(b)))
  };

  Kind kind = Kind::kLiteral;
  std::string var;   // kProp: variable; kParam: parameter name
  std::string key;   // kProp
  Value literal;
  BinOp op = BinOp::kEq;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  // kPathLength
  std::string path_from;
  std::string path_to;
  std::string path_rel_type;
};

struct NodePattern {
  std::string var;    // may be empty (anonymous)
  std::string label;  // may be empty
  // Inline property constraints {k: expr}; exprs are literals or params.
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> props;
};

struct RelPattern {
  std::string type;  // edge label; required in this subset
  Direction dir = Direction::kBoth;
  // Variable-length expansion -[:T*min..max]- ; single hop when both are 1.
  int min_hops = 1;
  int max_hops = 1;
  // Inline properties, used by CREATE (ignored for MATCH filtering).
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> props;
};

/// A linear pattern (n0)-[r0]-(n1)-[r1]-(n2)...:
/// nodes.size() == rels.size() + 1.
struct PatternChain {
  std::vector<NodePattern> nodes;
  std::vector<RelPattern> rels;
};

struct ReturnItem {
  std::unique_ptr<Expr> expr;
  std::string name;
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool desc = false;
};

/// One Cypher statement: MATCH..RETURN, CREATE.., or MATCH..CREATE..
struct Query {
  std::vector<PatternChain> match;
  std::unique_ptr<Expr> where;

  bool distinct = false;
  std::vector<ReturnItem> ret;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;
  /// LIMIT $name — the named parameter supplying the limit at bind time;
  /// empty when the limit is a literal (or absent). Lets one cached
  /// plan serve every limit value.
  std::string limit_param;

  // CREATE clause: standalone node patterns and/or relationship chains
  // between (possibly MATCH-bound) endpoints.
  std::vector<NodePattern> create_nodes;
  struct CreateRel {
    std::string from_var;
    std::string to_var;
    RelPattern rel;
  };
  std::vector<CreateRel> create_rels;
};

}  // namespace cypher
}  // namespace graphbench

#endif  // GRAPHBENCH_LANG_CYPHER_AST_H_
