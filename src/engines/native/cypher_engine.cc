#include "engines/native/cypher_engine.h"

#include <optional>

#include "engines/frame.h"
#include "graph/shortest_path.h"
#include "lang/cypher/parser.h"
#include "obs/profiler.h"

namespace graphbench {

using cypher::BinOp;
using cypher::Expr;

namespace {

// An expression bound to frame slots and parameter values. Operands are
// indices into the execution's bound expressions.
struct BoundExpr {
  const Expr* ast = nullptr;
  size_t slot = 0;               // kProp; kPathLength: the source
  size_t slot2 = 0;              // kPathLength: the target
  const Value* value = nullptr;  // kLiteral, kParam
  int lhs = -1;                  // kBinary
  int rhs = -1;
};

// One inline property constraint {key: value} of a node pattern.
struct PropCheck {
  std::string_view key;
  const Value* value;
};

// A MATCH node pattern bound to its slot. `rebound`: an earlier pattern
// bound the slot, so this one checks it. Its inline constraints are
// checks_[first, last).
struct BoundNode {
  const cypher::NodePattern* ast;
  size_t slot;
  bool rebound;
  std::optional<int> label;  // the LabelId a vertex must have, if checked
  size_t first, last;
};

// One execution of a parsed query over a Frame of VertexIds.
class Execution {
 public:
  Execution(NativeGraph* graph, const cypher::Query& q,
            const CypherEngine::Params& params)
      : graph_(graph), q_(q), params_(params) {}

  // Binds every name and constant of the query, before any vertex is read.
  Status Bind(int64_t limit);
  Status Match();
  Status Filter();
  Result<uint64_t> Create();
  Result<std::vector<Row>> Return();

 private:
  Result<const Value*> Const(const Expr& e) const;
  Result<size_t> Known(const std::string& var) const {
    return frame_.Known(var, "variable ");
  }
  // Binds `e` and its operands; returns its index in exprs_.
  Result<int> BindExpr(const Expr& e);
  Status BindReturn(int64_t limit);
  Status BindCreate();
  Result<PropertyMap> BindProps(
      const std::vector<std::pair<std::string, std::unique_ptr<Expr>>>& props);

  // Whether `v` has `node`'s checked label and inline properties.
  Result<bool> Matches(const BoundNode& node, VertexId v) const;
  Result<Value> Eval(int e, const uint64_t* b) const;
  // Operand `e`: its constant in place, or its value evaluated into `*tmp`.
  Result<const Value*> Operand(int e, const uint64_t* b, Value* tmp) const;
  // The storage access: appends the vertices one hop `rel` reaches from
  // `from` to nbrs_.
  Status Expand(VertexId from, const cypher::RelPattern& rel);
  query_ops::RowFn Values(const std::vector<int>& exprs) const {
    return [this, &exprs](size_t i, Row* out) -> Status {
      for (int e : exprs) {
        GB_ASSIGN_OR_RETURN(Value v, Eval(e, frame_.row(i)));
        out->push_back(std::move(v));
      }
      return Status::OK();
    };
  }

  NativeGraph* graph_;
  const cypher::Query& q_;
  const CypherEngine::Params& params_;
  Frame frame_;
  std::vector<BoundExpr> exprs_;
  std::vector<PropCheck> checks_;
  std::vector<BoundNode> nodes_;  // MATCH node patterns, chain by chain
  int where_ = -1;

  // RETURN: an aggregation when it counts, else a projection.
  bool aggregate_ = false;
  query_ops::AggregateSpec agg_;
  query_ops::ProjectSpec project_;
  std::vector<int> keys_;
  std::vector<int> sort_keys_;

  // CREATE: each created node's slot and properties, each relationship's
  // endpoint slots and properties.
  std::vector<size_t> created_;
  std::vector<PropertyMap> node_props_;
  std::vector<std::pair<size_t, size_t>> ends_;
  std::vector<PropertyMap> rel_props_;

  std::vector<Neighbor> nbrs_;
  std::vector<Neighbor> step_;  // one BFS expansion of a var-length hop
};

Result<const Value*> Execution::Const(const Expr& e) const {
  if (e.kind == Expr::Kind::kLiteral) return &e.literal;
  if (e.kind != Expr::Kind::kParam) {
    return Status::NotSupported("expected literal or parameter");
  }
  auto it = params_.find(e.var);
  if (it == params_.end()) {
    return Status::InvalidArgument("missing parameter $" + e.var);
  }
  return &it->second;
}

Result<int> Execution::BindExpr(const Expr& e) {
  BoundExpr b{&e};
  switch (e.kind) {
    case Expr::Kind::kProp: {
      GB_ASSIGN_OR_RETURN(b.slot, Known(e.var));
      break;
    }
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam: {
      GB_ASSIGN_OR_RETURN(b.value, Const(e));
      break;
    }
    case Expr::Kind::kBinary: {
      GB_ASSIGN_OR_RETURN(b.lhs, BindExpr(*e.lhs));
      GB_ASSIGN_OR_RETURN(b.rhs, BindExpr(*e.rhs));
      break;
    }
    case Expr::Kind::kPathLength: {
      GB_ASSIGN_OR_RETURN(b.slot, Known(e.path_from));
      GB_ASSIGN_OR_RETURN(b.slot2, Known(e.path_to));
      break;
    }
    case Expr::Kind::kCountStar:
      return Status::InvalidArgument("count(*) outside a RETURN item");
  }
  exprs_.push_back(b);
  return int(exprs_.size() - 1);
}

Result<PropertyMap> Execution::BindProps(
    const std::vector<std::pair<std::string, std::unique_ptr<Expr>>>& props) {
  PropertyMap out;
  for (const auto& [key, expr] : props) {
    GB_ASSIGN_OR_RETURN(const Value* v, Const(*expr));
    out.Set(key, *v);
  }
  return out;
}

Status Execution::Bind(int64_t limit) {
  // Every node pattern gets a slot in order of first appearance; an
  // anonymous one a hidden slot of its own.
  size_t patterns = 0;
  for (const auto& chain : q_.match) patterns += chain.nodes.size();
  nodes_.reserve(patterns);
  exprs_.reserve(16);  // room for any workload query
  for (const auto& chain : q_.match) {
    for (const auto& node : chain.nodes) {
      const int seen = frame_.Slot(node.var);
      BoundNode bound{&node, 0, seen >= 0, std::nullopt, checks_.size(), 0};
      bound.slot = bound.rebound ? size_t(seen) : frame_.AddSlot(node.var);
      // A fresh anchor's lookup or scan is by label already; every other
      // labelled pattern checks the label id.
      if (!node.label.empty() && (bound.rebound || &node != &chain.nodes[0])) {
        bound.label = graph_->LabelId(node.label);
      }
      for (const auto& [key, expr] : node.props) {
        GB_ASSIGN_OR_RETURN(const Value* v, Const(*expr));
        checks_.push_back(PropCheck{key, v});
      }
      bound.last = checks_.size();
      nodes_.push_back(bound);
    }
  }
  if (q_.where != nullptr) {
    GB_ASSIGN_OR_RETURN(where_, BindExpr(*q_.where));
  }
  GB_RETURN_IF_ERROR(BindReturn(limit));
  // Last, so WHERE and RETURN see only the MATCH variables.
  GB_RETURN_IF_ERROR(BindCreate());
  frame_.Start();
  return Status::OK();
}

Status Execution::BindCreate() {
  // A created node gets a slot of its own, which Create() binds per
  // solution; its name must be new.
  for (const auto& node : q_.create_nodes) {
    if (frame_.Slot(node.var) >= 0) {
      return Status::InvalidArgument("variable already bound: " + node.var);
    }
    created_.push_back(frame_.AddSlot(node.var));
    GB_ASSIGN_OR_RETURN(node_props_.emplace_back(), BindProps(node.props));
  }
  // A relationship joins two created or matched nodes.
  for (const auto& cr : q_.create_rels) {
    GB_ASSIGN_OR_RETURN(size_t from, Known(cr.from_var));
    GB_ASSIGN_OR_RETURN(size_t to, Known(cr.to_var));
    ends_.emplace_back(from, to);
    GB_ASSIGN_OR_RETURN(rel_props_.emplace_back(), BindProps(cr.rel.props));
  }
  return Status::OK();
}

Status Execution::BindReturn(int64_t limit) {
  // Cypher's implicit aggregation: count(*) groups by the non-aggregate
  // return items (RETURN f.id, count(*) counts per friend).
  keys_.reserve(q_.ret.size());
  for (const auto& item : q_.ret) {
    if (item.expr->kind == Expr::Kind::kCountStar) {
      aggregate_ = true;
      agg_.items.push_back({query_ops::Agg::kCountStar});
    } else {
      agg_.items.push_back({query_ops::Agg::kKey, keys_.size()});
      GB_ASSIGN_OR_RETURN(keys_.emplace_back(), BindExpr(*item.expr));
    }
  }
  if (!aggregate_) {
    // `keys_` holds every return item.
    project_ = {q_.distinct, q_.ret.size(), {}, limit};
    for (const auto& o : q_.order_by) {
      GB_ASSIGN_OR_RETURN(sort_keys_.emplace_back(), BindExpr(*o.expr));
      project_.desc.push_back(o.desc);
    }
    return Status::OK();
  }
  agg_.grouped = !keys_.empty();
  agg_.limit = limit;
  // ORDER BY over aggregated output: only aliases of return items.
  for (const auto& o : q_.order_by) {
    const Expr& oe = *o.expr;
    size_t column = 0;
    for (; column < q_.ret.size(); ++column) {
      const Expr& re = *q_.ret[column].expr;
      if (re.kind == oe.kind &&
          (re.kind == Expr::Kind::kCountStar ||
           (re.kind == Expr::Kind::kProp && re.var == oe.var &&
            re.key == oe.key))) {
        break;
      }
    }
    if (column == q_.ret.size()) {
      return Status::NotSupported(
          "aggregated ORDER BY must reference a RETURN item");
    }
    agg_.order.push_back({column, o.desc});
  }
  return Status::OK();
}

Result<bool> Execution::Matches(const BoundNode& node, VertexId v) const {
  if (node.label) {
    GB_ASSIGN_OR_RETURN(uint32_t l, graph_->VertexLabelId(v));
    if (int(l) != *node.label) return false;
  }
  for (size_t c = node.first; c < node.last; ++c) {
    GB_ASSIGN_OR_RETURN(Value got, graph_->VertexProperty(v, checks_[c].key));
    if (got != *checks_[c].value) return false;
  }
  return true;
}

Result<const Value*> Execution::Operand(int e, const uint64_t* b,
                                        Value* tmp) const {
  if (const Value* constant = exprs_[size_t(e)].value) return constant;
  GB_ASSIGN_OR_RETURN(*tmp, Eval(e, b));
  return tmp;
}

Result<Value> Execution::Eval(int i, const uint64_t* b) const {
  const BoundExpr& e = exprs_[size_t(i)];
  switch (e.ast->kind) {
    case Expr::Kind::kProp:
      return graph_->VertexProperty(b[e.slot], e.ast->key);
    case Expr::Kind::kBinary: {
      Value lv, rv;
      GB_ASSIGN_OR_RETURN(const Value* l, Operand(e.lhs, b, &lv));
      if (e.ast->op == BinOp::kAnd) {
        if (!l->is_bool() || !l->as_bool()) return Value(false);
        return Eval(e.rhs, b);
      }
      GB_ASSIGN_OR_RETURN(const Value* r, Operand(e.rhs, b, &rv));
      return Value(query_ops::Satisfies(e.ast->op, l->Compare(*r)));
    }
    case Expr::Kind::kPathLength: {
      obs::OpTimer op("ShortestPath");
      GB_ASSIGN_OR_RETURN(
          int len, graph_->ShortestPathLength(b[e.slot], b[e.slot2],
                                              e.ast->path_rel_type));
      return Value(int64_t{len});
    }
    default:  // kLiteral, kParam
      return *e.value;
  }
}

Status Execution::Expand(VertexId from, const cypher::RelPattern& rel) {
  if (rel.max_hops == 1) {
    return graph_->Neighbors(from, rel.type, rel.dir, &nbrs_);
  }
  // Variable-length expansion -[:T*min..max]-: BFS collecting the distinct
  // vertices first reached at depth in [min, max] (distinct-vertex
  // semantics; full Cypher enumerates edge-unique paths). Only the
  // vertices are used past this point.
  auto expand = [&](VertexId v, auto&& emit) -> Status {
    step_.clear();
    GB_RETURN_IF_ERROR(graph_->Neighbors(v, rel.type, rel.dir, &step_));
    for (const Neighbor& n : step_) emit(n.vertex);
    return Status::OK();
  };
  return Bfs(from, rel.max_hops, expand,
             [&](VertexId v, int depth) {
               if (depth >= rel.min_hops) {
                 nbrs_.push_back(Neighbor{v, kInvalidEdgeId});
               }
               return true;
             })
      .status();
}

Status Execution::Match() {
  const BoundNode* node = nodes_.data();
  for (const auto& chain : q_.match) {
    // Solve the chain left-to-right against every current solution.
    for (size_t ni = 0; ni < chain.nodes.size(); ++ni, ++node) {
      const char* op_name =
          ni == 0 ? (node->ast->props.empty() ? "NodeByLabelScan"
                                              : "NodeIndexSeek")
                  : (chain.rels[ni - 1].max_hops == 1 ? "Expand"
                                                      : "VarLengthExpand");
      obs::OpTimer op(op_name);
      const size_t slot = node->slot;
      if (ni == 0 && node->rebound) {
        // Anchor an earlier chain bound: its label and inline properties
        // check the bound vertex.
        GB_RETURN_IF_ERROR(frame_.Retain([&](size_t i) {
          return Matches(*node, frame_.row(i)[slot]);
        }));
      } else if (ni == 0) {
        // Anchor node: property lookup / label scan. The candidates do not
        // depend on the solution, so they are found once and crossed with
        // every solution.
        std::vector<VertexId> candidates;
        const bool seek = node->first < node->last;
        if (seek) {
          const PropCheck& first = checks_[node->first];
          auto found =
              graph_->FindVertex(node->ast->label, first.key, *first.value);
          if (found.ok()) candidates.push_back(*found);
        } else {
          candidates = graph_->VerticesByLabel(node->ast->label);
        }
        for (size_t i = 0; i < frame_.size(); ++i) {
          frame_.Extend(i, slot, candidates);
        }
        frame_.Advance();
        // The seek used only the first inline constraint; check them all.
        if (seek) {
          GB_RETURN_IF_ERROR(frame_.Retain(
              [&](size_t i) { return Matches(*node, frame_.row(i)[slot]); }));
        }
      } else {
        // Expansion step: from the previous node across rels[ni-1].
        const cypher::RelPattern& rel = chain.rels[ni - 1];
        const size_t from = node[-1].slot;
        for (size_t i = 0; i < frame_.size(); ++i) {
          const uint64_t* b = frame_.row(i);
          nbrs_.clear();
          GB_RETURN_IF_ERROR(Expand(b[from], rel));
          for (const Neighbor& n : nbrs_) {
            // Prior-binding / label / inline property checks.
            if (node->rebound && b[slot] != n.vertex) continue;
            GB_ASSIGN_OR_RETURN(bool ok, Matches(*node, n.vertex));
            if (ok) frame_.Extend(i)[slot] = n.vertex;
          }
        }
        frame_.Advance();
      }
      op.AddRows(frame_.size());
      if (frame_.size() == 0) return Status::OK();
    }
  }
  return Status::OK();
}

Status Execution::Filter() {
  obs::OpTimer op("Filter");
  GB_RETURN_IF_ERROR(frame_.Retain([&](size_t i) -> Result<bool> {
    GB_ASSIGN_OR_RETURN(Value pass, Eval(where_, frame_.row(i)));
    return pass.is_bool() && pass.as_bool();
  }));
  op.AddRows(frame_.size());
  return Status::OK();
}

Result<uint64_t> Execution::Create() {
  obs::OpTimer create_op("Create");
  uint64_t affected = 0;
  for (size_t i = 0; i < frame_.size(); ++i) {
    // The solution extended with the nodes it creates.
    uint64_t* b = frame_.Extend(i);
    for (size_t j = 0; j < created_.size(); ++j) {
      GB_ASSIGN_OR_RETURN(b[created_[j]],
                          graph_->AddVertex(q_.create_nodes[j].label,
                                            node_props_[j]));
      ++affected;
    }
    for (size_t k = 0; k < ends_.size(); ++k) {
      auto [from, to] = ends_[k];
      GB_RETURN_IF_ERROR(graph_
                             ->AddEdge(q_.create_rels[k].rel.type, b[from],
                                       b[to], rel_props_[k])
                             .status());
      ++affected;
    }
  }
  frame_.Advance();
  create_op.AddRows(affected);
  return affected;
}

Result<std::vector<Row>> Execution::Return() {
  if (aggregate_) {
    return query_ops::Aggregate(frame_.size(), agg_, Values(keys_), nullptr);
  }
  return query_ops::Project(frame_.size(), project_, Values(keys_),
                            Values(sort_keys_));
}

}  // namespace

void CypherEngine::EnablePlanCache(size_t capacity) {
  plan_cache_ =
      std::make_unique<lang::PlanCache<cypher::Query>>("cypher", capacity);
}

Result<QueryResult> CypherEngine::Execute(std::string_view query,
                                          const Params& params) {
  // Root operator (Neo4j PROFILE's ProduceResults): cumulative spans the
  // whole execution; self is whatever the specific operators below do not
  // account for (binding, result assembly).
  obs::OpTimer root_op("ProduceResults");
  auto parse = [](std::string_view text) {
    obs::OpTimer parse_op("Parse");
    return cypher::Parse(text);
  };
  return lang::WithPlan(
      plan_cache_.get(), query, parse,
      [&](const cypher::Query& q) -> Result<QueryResult> {
        // LIMIT binds like any other parameter so one cached plan serves
        // every limit value.
        GB_ASSIGN_OR_RETURN(
            int64_t limit,
            query_ops::BindLimit(q.limit, q.limit_param, params));
        Execution exec(graph_, q, params);
        GB_RETURN_IF_ERROR(exec.Bind(limit));
        GB_RETURN_IF_ERROR(exec.Match());
        if (q.where != nullptr) GB_RETURN_IF_ERROR(exec.Filter());

        QueryResult result;
        if (!q.create_nodes.empty() || !q.create_rels.empty()) {
          GB_ASSIGN_OR_RETURN(result.affected, exec.Create());
          if (q.ret.empty()) return result;
        }
        for (const auto& item : q.ret) result.columns.push_back(item.name);
        GB_ASSIGN_OR_RETURN(result.rows, exec.Return());
        return result;
      });
}

}  // namespace graphbench
