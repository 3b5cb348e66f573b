#include "engines/native/cypher_engine.h"

#include <algorithm>

#include "graph/shortest_path.h"
#include "lang/cypher/parser.h"
#include "obs/profiler.h"

namespace graphbench {

using cypher::BinOp;
using cypher::Expr;

namespace {

// The value of a literal or $parameter, or the error evaluating it gives.
Result<const Value*> Const(const Expr& e, const CypherEngine::Params& params) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return &e.literal;
    case Expr::Kind::kParam: {
      auto it = params.find(e.var);
      if (it == params.end()) {
        return Status::InvalidArgument("missing parameter $" + e.var);
      }
      return &it->second;
    }
    default:
      return Status::NotSupported("expected literal or parameter");
  }
}

// An expression with its variables resolved to binding slots and its
// constants to values. A failed binding (unknown variable, missing
// parameter) is kept and reported only when a row evaluates it, as an
// interpreter walking the AST would.
struct BoundExpr {
  const Expr* ast = nullptr;
  int slot = -1;   // kProp; kPathLength: the source (-1: unbound)
  int slot2 = -1;  // kPathLength: the target
  const Value* value = nullptr;  // kLiteral, kParam (null: failed binding)
  int lhs = -1;    // kBinary operands: indices into the bound expressions
  int rhs = -1;
};

// One inline property constraint {key: value} of a node pattern.
struct PropCheck {
  std::string_view key;
  const Expr* ast = nullptr;
  const Value* value = nullptr;  // null: failed binding
};

// One execution of a parsed query. A solution is `width_` consecutive
// VertexIds in `rows_`: one slot per named MATCH variable, numbered in
// order of first appearance. Nothing here allocates per row; the buffers
// grow by doubling and are reused across the steps of the query.
class Execution {
 public:
  Execution(NativeGraph* graph, const cypher::Query& q,
            const CypherEngine::Params& params)
      : graph_(graph), q_(q), params_(params) {
    for (const auto& chain : q.match) {
      for (const auto& node : chain.nodes) {
        if (!node.var.empty() && Slot(node.var) < 0) {
          vars_.push_back(node.var);
        }
      }
    }
    width_ = vars_.size();
    rows_.assign(width_, kInvalidVertexId);
  }

  Status Match();
  Status Filter();
  Result<uint64_t> Create();
  Result<std::vector<Row>> Return(int64_t limit);

 private:
  int Slot(std::string_view var) const {
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == var) return int(i);
    }
    return -1;
  }
  const VertexId* row(size_t i) const { return rows_.data() + i * width_; }

  // Binds `e` and its operands; returns its index in exprs_.
  int Bind(const Expr& e);
  // Binds a node pattern's inline properties into checks_.
  void BindProps(const cypher::NodePattern& node);
  Result<bool> PropsMatch(VertexId v) const;
  Result<Value> Eval(int e, const VertexId* b) const;
  // Operand `e`: its constant in place, or its value evaluated into `*tmp`.
  Result<const Value*> Operand(int e, const VertexId* b, Value* tmp) const;
  // Appends solution `b` with `slot` (when named) set to `v` to next_.
  void Extend(const VertexId* b, int slot, VertexId v) {
    next_.insert(next_.end(), b, b + width_);
    if (slot >= 0) next_[next_.size() - width_ + size_t(slot)] = v;
    ++next_count_;
  }
  // Keeps, in order, the solutions `keep` accepts.
  template <typename Keep>
  Status Retain(Keep&& keep) {
    size_t kept = 0;
    for (size_t r = 0; r < count_; ++r) {
      GB_ASSIGN_OR_RETURN(bool pass, keep(row(r)));
      if (!pass) continue;
      if (kept != r) {
        std::copy_n(row(r), width_, rows_.begin() + kept * width_);
      }
      ++kept;
    }
    count_ = kept;
    rows_.resize(kept * width_);
    return Status::OK();
  }
  // Makes next_ the solutions.
  void Advance() {
    rows_.swap(next_);
    count_ = next_count_;
    next_.clear();
    next_count_ = 0;
  }
  // Appends the vertices one hop `rel` reaches from `from` to nbrs_.
  Status Expand(VertexId from, const cypher::RelPattern& rel);
  query_ops::RowFn Values(const std::vector<int>& exprs) const {
    return [this, &exprs](size_t i, Row* out) -> Status {
      for (int e : exprs) {
        GB_ASSIGN_OR_RETURN(Value v, Eval(e, row(i)));
        out->push_back(std::move(v));
      }
      return Status::OK();
    };
  }

  NativeGraph* graph_;
  const cypher::Query& q_;
  const CypherEngine::Params& params_;
  std::vector<std::string_view> vars_;
  size_t width_ = 0;
  std::vector<BoundExpr> exprs_;
  std::vector<PropCheck> checks_;

  // The solutions; MATCH starts from one empty solution.
  std::vector<VertexId> rows_;
  size_t count_ = 1;
  std::vector<VertexId> next_;
  size_t next_count_ = 0;
  std::vector<Neighbor> nbrs_;
  std::vector<Neighbor> step_;  // one BFS expansion of a var-length hop
};

int Execution::Bind(const Expr& e) {
  BoundExpr b{&e};
  switch (e.kind) {
    case Expr::Kind::kProp:
      b.slot = Slot(e.var);
      break;
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam: {
      Result<const Value*> v = Const(e, params_);
      if (v.ok()) b.value = *v;
      break;
    }
    case Expr::Kind::kBinary:
      b.lhs = Bind(*e.lhs);
      b.rhs = Bind(*e.rhs);
      break;
    case Expr::Kind::kPathLength:
      b.slot = Slot(e.path_from);
      b.slot2 = Slot(e.path_to);
      break;
    case Expr::Kind::kCountStar:
      break;
  }
  exprs_.push_back(b);
  return int(exprs_.size() - 1);
}

void Execution::BindProps(const cypher::NodePattern& node) {
  checks_.clear();
  for (const auto& [key, expr] : node.props) {
    Result<const Value*> v = Const(*expr, params_);
    checks_.push_back(PropCheck{key, expr.get(), v.ok() ? *v : nullptr});
  }
}

Result<bool> Execution::PropsMatch(VertexId v) const {
  for (const PropCheck& c : checks_) {
    if (c.value == nullptr) return Const(*c.ast, params_).status();
    GB_ASSIGN_OR_RETURN(Value got, graph_->VertexProperty(v, c.key));
    if (got != *c.value) return false;
  }
  return true;
}

Result<const Value*> Execution::Operand(int e, const VertexId* b,
                                        Value* tmp) const {
  if (const Value* constant = exprs_[size_t(e)].value) return constant;
  GB_ASSIGN_OR_RETURN(*tmp, Eval(e, b));
  return tmp;
}

Result<Value> Execution::Eval(int i, const VertexId* b) const {
  const BoundExpr& e = exprs_[size_t(i)];
  switch (e.ast->kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam:
      if (e.value == nullptr) return Const(*e.ast, params_).status();
      return *e.value;
    case Expr::Kind::kProp:
      if (e.slot < 0 || b[e.slot] == kInvalidVertexId) {
        return Status::InvalidArgument("unbound variable " + e.ast->var);
      }
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
      if (e.slot < 0 || e.slot2 < 0) {
        return Status::InvalidArgument("shortestPath over unbound vars");
      }
      GB_ASSIGN_OR_RETURN(
          int len, graph_->ShortestPathLength(b[e.slot], b[e.slot2],
                                              e.ast->path_rel_type));
      return Value(int64_t{len});
    }
    case Expr::Kind::kCountStar:
      return Status::Internal("count(*) outside aggregation");
  }
  return Status::Internal("unhandled expr");
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
  // Slots below `bound` belong to variables an earlier step bound: a node
  // pattern naming one checks it instead of binding it.
  int bound = 0;
  for (const auto& chain : q_.match) {
    // Solve the chain left-to-right against every current solution.
    for (size_t ni = 0; ni < chain.nodes.size(); ++ni) {
      const cypher::NodePattern& node = chain.nodes[ni];
      const int slot = node.var.empty() ? -1 : Slot(node.var);
      const bool rebound = slot >= 0 && slot < bound;
      if (slot >= 0 && !rebound) bound = slot + 1;

      const char* op_name =
          ni == 0 ? (node.props.empty() ? "NodeByLabelScan"
                                        : "NodeIndexSeek")
                  : (chain.rels[ni - 1].max_hops == 1 ? "Expand"
                                                      : "VarLengthExpand");
      obs::OpTimer op(op_name);
      BindProps(node);

      if (ni == 0 && rebound) {
        // Anchor an earlier chain bound: its label and inline properties
        // check the bound vertex.
        const int label =
            node.label.empty() ? -1 : graph_->LabelId(node.label);
        GB_RETURN_IF_ERROR(Retain([&](const VertexId* b) -> Result<bool> {
          if (!node.label.empty()) {
            GB_ASSIGN_OR_RETURN(uint32_t l, graph_->VertexLabelId(b[slot]));
            if (int(l) != label) return false;
          }
          return PropsMatch(b[slot]);
        }));
      } else if (ni == 0) {
        // Anchor node: property lookup / label scan. The candidates do not
        // depend on the solution, so they are found once and crossed with
        // every solution.
        std::vector<VertexId> candidates;
        if (!node.props.empty()) {
          GB_ASSIGN_OR_RETURN(const Value* v,
                              Const(*node.props[0].second, params_));
          auto found =
              graph_->FindVertex(node.label, node.props[0].first, *v);
          if (found.ok()) candidates.push_back(*found);
        } else {
          candidates = graph_->VerticesByLabel(node.label);
        }
        // Verify every inline constraint (the lookup used only the
        // first one).
        size_t kept = 0;
        for (VertexId v : candidates) {
          GB_ASSIGN_OR_RETURN(bool props_ok, PropsMatch(v));
          if (props_ok) candidates[kept++] = v;
        }
        candidates.resize(kept);
        next_.reserve(count_ * kept * width_);
        for (size_t r = 0; r < count_; ++r) {
          for (VertexId v : candidates) Extend(row(r), slot, v);
        }
        Advance();
      } else {
        // Expansion step: from nodes[ni-1] across rels[ni-1].
        const cypher::RelPattern& rel = chain.rels[ni - 1];
        const int from = chain.nodes[ni - 1].var.empty()
                             ? -1
                             : Slot(chain.nodes[ni - 1].var);
        if (from < 0) {
          return Status::NotSupported("chain must expand from a bound node");
        }
        const int label =
            node.label.empty() ? -1 : graph_->LabelId(node.label);
        for (size_t r = 0; r < count_; ++r) {
          const VertexId* b = row(r);
          nbrs_.clear();
          GB_RETURN_IF_ERROR(Expand(b[from], rel));
          for (const Neighbor& n : nbrs_) {
            // Label / prior-binding / inline property checks.
            if (!node.label.empty()) {
              GB_ASSIGN_OR_RETURN(uint32_t l,
                                  graph_->VertexLabelId(n.vertex));
              if (int(l) != label) continue;
            }
            if (rebound && b[slot] != n.vertex) continue;
            GB_ASSIGN_OR_RETURN(bool props_ok, PropsMatch(n.vertex));
            if (props_ok) Extend(b, slot, n.vertex);
          }
        }
        Advance();
      }
      op.AddRows(count_);
      if (count_ == 0) return Status::OK();
    }
  }
  return Status::OK();
}

Status Execution::Filter() {
  obs::OpTimer op("Filter");
  const int where = Bind(*q_.where);
  GB_RETURN_IF_ERROR(Retain([&](const VertexId* b) -> Result<bool> {
    GB_ASSIGN_OR_RETURN(Value pass, Eval(where, b));
    return pass.is_bool() && pass.as_bool();
  }));
  op.AddRows(count_);
  return Status::OK();
}

Result<uint64_t> Execution::Create() {
  obs::OpTimer create_op("Create");
  // A relationship endpoint is the last created node of that name, else
  // the MATCH variable of that name.
  struct Endpoint {
    const std::string* var;
    int created = -1;
    int slot = -1;
  };
  auto endpoint = [&](const std::string& var) {
    Endpoint ep{&var};
    for (size_t j = 0; j < q_.create_nodes.size(); ++j) {
      if (!var.empty() && q_.create_nodes[j].var == var) ep.created = int(j);
    }
    if (ep.created < 0) ep.slot = Slot(var);
    return ep;
  };
  std::vector<std::pair<Endpoint, Endpoint>> ends;
  for (const auto& cr : q_.create_rels) {
    ends.emplace_back(endpoint(cr.from_var), endpoint(cr.to_var));
  }
  auto props_of = [&](const auto& pattern_props) -> Result<PropertyMap> {
    PropertyMap props;
    for (const auto& [key, expr] : pattern_props) {
      GB_ASSIGN_OR_RETURN(const Value* v, Const(*expr, params_));
      props.Set(key, *v);
    }
    return props;
  };

  uint64_t affected = 0;
  std::vector<VertexId> created(q_.create_nodes.size(), kInvalidVertexId);
  for (size_t r = 0; r < count_; ++r) {
    const VertexId* b = row(r);
    for (size_t j = 0; j < q_.create_nodes.size(); ++j) {
      const cypher::NodePattern& node = q_.create_nodes[j];
      GB_ASSIGN_OR_RETURN(PropertyMap props, props_of(node.props));
      GB_ASSIGN_OR_RETURN(created[j], graph_->AddVertex(node.label, props));
      ++affected;
    }
    auto resolve = [&](const Endpoint& ep) -> Result<VertexId> {
      if (ep.created >= 0) return created[size_t(ep.created)];
      if (ep.slot < 0 || b[ep.slot] == kInvalidVertexId) {
        return Status::InvalidArgument("CREATE endpoint unbound: " + *ep.var);
      }
      return b[ep.slot];
    };
    for (size_t k = 0; k < q_.create_rels.size(); ++k) {
      GB_ASSIGN_OR_RETURN(VertexId from, resolve(ends[k].first));
      GB_ASSIGN_OR_RETURN(VertexId to, resolve(ends[k].second));
      GB_ASSIGN_OR_RETURN(PropertyMap props,
                          props_of(q_.create_rels[k].rel.props));
      GB_RETURN_IF_ERROR(
          graph_->AddEdge(q_.create_rels[k].rel.type, from, to, props)
              .status());
      ++affected;
    }
  }
  create_op.AddRows(affected);
  return affected;
}

Result<std::vector<Row>> Execution::Return(int64_t limit) {
  // Cypher's implicit aggregation: count(*) groups by the non-aggregate
  // return items (RETURN f.id, count(*) counts per friend).
  query_ops::AggregateSpec agg;
  std::vector<int> keys;
  bool has_count = false;
  for (const auto& item : q_.ret) {
    if (item.expr->kind == Expr::Kind::kCountStar) {
      has_count = true;
      agg.items.push_back({query_ops::Agg::kCountStar});
    } else {
      agg.items.push_back({query_ops::Agg::kKey, keys.size()});
      keys.push_back(Bind(*item.expr));
    }
  }
  if (has_count) {
    agg.grouped = !keys.empty();
    agg.limit = limit;
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
      agg.order.push_back({column, o.desc});
    }
    return query_ops::Aggregate(count_, agg, Values(keys), nullptr);
  }

  // No count(*): `keys` holds every return item.
  query_ops::ProjectSpec spec{q_.distinct, q_.ret.size(), {}, limit};
  std::vector<int> sort_keys;
  for (const auto& o : q_.order_by) {
    sort_keys.push_back(Bind(*o.expr));
    spec.desc.push_back(o.desc);
  }
  return query_ops::Project(count_, spec, Values(keys), Values(sort_keys));
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
  if (plan_cache_ != nullptr) {
    if (auto cached = plan_cache_->Lookup(query)) {
      return ExecuteParsed(*cached, params);
    }
    obs::OpTimer cached_parse_op("Parse");
    GB_ASSIGN_OR_RETURN(cypher::Query parsed, cypher::Parse(query));
    cached_parse_op.Stop();
    auto shared = std::make_shared<const cypher::Query>(std::move(parsed));
    plan_cache_->Insert(query, shared);
    return ExecuteParsed(*shared, params);
  }
  obs::OpTimer parse_op("Parse");
  GB_ASSIGN_OR_RETURN(cypher::Query q, cypher::Parse(query));
  parse_op.Stop();
  return ExecuteParsed(q, params);
}

Result<QueryResult> CypherEngine::ExecuteParsed(const cypher::Query& q,
                                                const Params& params) {
  // LIMIT binds like any other parameter so one cached plan serves every
  // limit value.
  auto limit_param = params.find(q.limit_param);
  GB_ASSIGN_OR_RETURN(
      int64_t limit,
      query_ops::BindLimit(
          q.limit, !q.limit_param.empty(),
          limit_param == params.end() ? nullptr : &limit_param->second));

  Execution exec(graph_, q, params);
  GB_RETURN_IF_ERROR(exec.Match());
  if (q.where != nullptr) GB_RETURN_IF_ERROR(exec.Filter());

  QueryResult result;
  if (!q.create_nodes.empty() || !q.create_rels.empty()) {
    GB_ASSIGN_OR_RETURN(result.affected, exec.Create());
    if (q.ret.empty()) return result;
  }
  for (const auto& item : q.ret) result.columns.push_back(item.name);
  GB_ASSIGN_OR_RETURN(result.rows, exec.Return(limit));
  return result;
}

}  // namespace graphbench
