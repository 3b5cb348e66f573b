#include "engines/native/cypher_engine.h"

#include <functional>
#include <unordered_map>

#include "graph/shortest_path.h"
#include "lang/cypher/parser.h"
#include "obs/profiler.h"

namespace graphbench {

using cypher::BinOp;
using cypher::Expr;

namespace {

using BindingRow = std::vector<VertexId>;

}  // namespace

Result<Value> CypherEngine::EvalConst(const Expr& e,
                                      const Params& params) const {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam: {
      auto it = params.find(e.var);
      if (it == params.end()) {
        return Status::InvalidArgument("missing parameter $" + e.var);
      }
      return it->second;
    }
    default:
      return Status::NotSupported("expected literal or parameter");
  }
}

void CypherEngine::EnablePlanCache(size_t capacity) {
  plan_cache_ =
      std::make_unique<lang::PlanCache<cypher::Query>>("cypher", capacity);
}

Result<QueryResult> CypherEngine::Execute(std::string_view query,
                                          const Params& params) {
  // Root operator (Neo4j PROFILE's ProduceResults): cumulative spans the
  // whole execution; self is whatever the specific operators below do not
  // account for (setup, expression-closure allocation, result assembly).
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

  // Variable name -> binding slot.
  std::unordered_map<std::string, int> slots;
  auto find_slot = [&slots](const std::string& var) {
    auto it = slots.find(var);
    return it == slots.end() ? -1 : it->second;
  };
  std::vector<BindingRow> rows;
  rows.emplace_back();

  auto ensure_width = [&rows, &slots] {
    for (BindingRow& r : rows) r.resize(slots.size(), kInvalidVertexId);
  };

  // Evaluate an expression against one binding.
  std::function<Result<Value>(const Expr&, const BindingRow&)> eval =
      [&](const Expr& e, const BindingRow& b) -> Result<Value> {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kParam:
        return EvalConst(e, params);
      case Expr::Kind::kProp: {
        int slot = find_slot(e.var);
        if (slot < 0 || b[size_t(slot)] == kInvalidVertexId) {
          return Status::InvalidArgument("unbound variable " + e.var);
        }
        return graph_->VertexProperty(b[size_t(slot)], e.key);
      }
      case Expr::Kind::kBinary: {
        if (e.op == BinOp::kAnd) {
          GB_ASSIGN_OR_RETURN(Value l, eval(*e.lhs, b));
          if (!l.is_bool() || !l.as_bool()) return Value(false);
          return eval(*e.rhs, b);
        }
        GB_ASSIGN_OR_RETURN(Value l, eval(*e.lhs, b));
        GB_ASSIGN_OR_RETURN(Value r, eval(*e.rhs, b));
        return Value(query_ops::Satisfies(e.op, l.Compare(r)));
      }
      case Expr::Kind::kPathLength: {
        obs::OpTimer op("ShortestPath");
        int from = find_slot(e.path_from);
        int to = find_slot(e.path_to);
        if (from < 0 || to < 0) {
          return Status::InvalidArgument("shortestPath over unbound vars");
        }
        GB_ASSIGN_OR_RETURN(
            int len, graph_->ShortestPathLength(b[size_t(from)],
                                                b[size_t(to)],
                                                e.path_rel_type));
        return Value(int64_t{len});
      }
      case Expr::Kind::kCountStar:
        return Status::Internal("count(*) outside aggregation");
    }
    return Status::Internal("unhandled expr");
  };

  // --- MATCH ----------------------------------------------------------
  for (const auto& chain : q.match) {
    // Solve the chain left-to-right against every current binding.
    for (size_t ni = 0; ni < chain.nodes.size(); ++ni) {
      const cypher::NodePattern& node = chain.nodes[ni];
      int slot = node.var.empty()
                     ? -1
                     : slots.emplace(node.var, int(slots.size())).first->second;
      ensure_width();

      const char* op_name =
          ni == 0 ? (node.props.empty() ? "NodeByLabelScan"
                                        : "NodeIndexSeek")
                  : (chain.rels[ni - 1].max_hops == 1 ? "Expand"
                                                      : "VarLengthExpand");
      obs::OpTimer op(op_name);

      // Every inline property constraint of `node` holds on `v`.
      auto props_match = [&](VertexId v) -> Result<bool> {
        for (const auto& [key, expr] : node.props) {
          GB_ASSIGN_OR_RETURN(Value want, EvalConst(*expr, params));
          GB_ASSIGN_OR_RETURN(Value got, graph_->VertexProperty(v, key));
          if (got != want) return false;
        }
        return true;
      };
      std::vector<BindingRow> next;
      for (const BindingRow& b : rows) {
        if (ni == 0) {
          // Anchor node: already bound / property lookup / label scan.
          if (slot >= 0 && b[size_t(slot)] != kInvalidVertexId) {
            next.push_back(b);
            continue;
          }
          std::vector<VertexId> candidates;
          if (!node.props.empty()) {
            GB_ASSIGN_OR_RETURN(Value v, EvalConst(*node.props[0].second,
                                                   params));
            auto found =
                graph_->FindVertex(node.label, node.props[0].first, v);
            if (found.ok()) candidates.push_back(*found);
          } else {
            candidates = graph_->VerticesByLabel(node.label);
          }
          for (VertexId v : candidates) {
            // Verify every inline constraint (the lookup used only the
            // first one).
            GB_ASSIGN_OR_RETURN(bool props_ok, props_match(v));
            if (!props_ok) continue;
            BindingRow nb = b;
            if (slot >= 0) nb[size_t(slot)] = v;
            next.push_back(std::move(nb));
          }
          continue;
        }
        // Expansion step: from nodes[ni-1] across rels[ni-1].
        const cypher::NodePattern& prev = chain.nodes[ni - 1];
        const cypher::RelPattern& rel = chain.rels[ni - 1];
        int prev_slot = find_slot(prev.var);
        if (prev_slot < 0 || b[size_t(prev_slot)] == kInvalidVertexId) {
          return Status::NotSupported(
              "chain must expand from a bound node");
        }
        std::vector<Neighbor> neighbors;
        if (rel.max_hops == 1) {
          GB_ASSIGN_OR_RETURN(
              neighbors,
              graph_->Neighbors(b[size_t(prev_slot)], rel.type, rel.dir));
        } else {
          // Variable-length expansion -[:T*min..max]-: BFS collecting the
          // distinct vertices first reached at depth in [min, max]
          // (distinct-vertex semantics; full Cypher enumerates edge-unique
          // paths). Only the vertices are used past this point.
          auto expand = [&](VertexId v, auto&& emit) -> Status {
            GB_ASSIGN_OR_RETURN(std::vector<Neighbor> step,
                                graph_->Neighbors(v, rel.type, rel.dir));
            for (const Neighbor& n : step) emit(n.vertex);
            return Status::OK();
          };
          GB_RETURN_IF_ERROR(
              Bfs(b[size_t(prev_slot)], rel.max_hops, expand,
                  [&](VertexId v, int depth) {
                    if (depth >= rel.min_hops) {
                      neighbors.push_back(Neighbor{v, kInvalidEdgeId});
                    }
                    return true;
                  })
                  .status());
        }
        for (const Neighbor& n : neighbors) {
          // Label / inline property / prior-binding consistency checks.
          if (!node.label.empty()) {
            std::string label;
            GB_RETURN_IF_ERROR(graph_->GetVertex(n.vertex, &label, nullptr));
            if (label != node.label) continue;
          }
          if (slot >= 0 && b[size_t(slot)] != kInvalidVertexId &&
              b[size_t(slot)] != n.vertex) {
            continue;
          }
          GB_ASSIGN_OR_RETURN(bool props_ok, props_match(n.vertex));
          if (!props_ok) continue;
          BindingRow nb = b;
          if (slot >= 0) nb[size_t(slot)] = n.vertex;
          next.push_back(std::move(nb));
        }
      }
      rows = std::move(next);
      op.AddRows(rows.size());
      if (rows.empty()) break;
    }
    if (rows.empty()) break;
  }

  // --- WHERE ----------------------------------------------------------
  if (q.where != nullptr) {
    obs::OpTimer op("Filter");
    std::vector<BindingRow> kept;
    for (BindingRow& b : rows) {
      GB_ASSIGN_OR_RETURN(Value pass, eval(*q.where, b));
      if (pass.is_bool() && pass.as_bool()) kept.push_back(std::move(b));
    }
    rows = std::move(kept);
    op.AddRows(rows.size());
  }

  QueryResult result;

  // --- CREATE ---------------------------------------------------------
  if (!q.create_nodes.empty() || !q.create_rels.empty()) {
    obs::OpTimer create_op("Create");
    for (const BindingRow& b : rows) {
      std::unordered_map<std::string, VertexId> created;
      for (const auto& node : q.create_nodes) {
        PropertyMap props;
        for (const auto& [key, expr] : node.props) {
          GB_ASSIGN_OR_RETURN(Value v, EvalConst(*expr, params));
          props.Set(key, std::move(v));
        }
        GB_ASSIGN_OR_RETURN(VertexId v,
                            graph_->AddVertex(node.label, props));
        if (!node.var.empty()) created[node.var] = v;
        ++result.affected;
      }
      for (const auto& cr : q.create_rels) {
        auto resolve = [&](const std::string& var) -> Result<VertexId> {
          auto it = created.find(var);
          if (it != created.end()) return it->second;
          int slot = find_slot(var);
          if (slot < 0 || b[size_t(slot)] == kInvalidVertexId) {
            return Status::InvalidArgument("CREATE endpoint unbound: " +
                                           var);
          }
          return b[size_t(slot)];
        };
        GB_ASSIGN_OR_RETURN(VertexId from, resolve(cr.from_var));
        GB_ASSIGN_OR_RETURN(VertexId to, resolve(cr.to_var));
        PropertyMap props;
        for (const auto& [key, expr] : cr.rel.props) {
          GB_ASSIGN_OR_RETURN(Value v, EvalConst(*expr, params));
          props.Set(key, std::move(v));
        }
        GB_RETURN_IF_ERROR(
            graph_->AddEdge(cr.rel.type, from, to, props).status());
        ++result.affected;
      }
    }
    create_op.AddRows(result.affected);
    if (q.ret.empty()) return result;
  }

  // --- RETURN ---------------------------------------------------------
  for (const auto& item : q.ret) result.columns.push_back(item.name);

  auto eval_row = [&](std::vector<const Expr*> exprs) -> query_ops::RowFn {
    return [&, exprs = std::move(exprs)](size_t i, Row* out) -> Status {
      for (const Expr* e : exprs) {
        GB_ASSIGN_OR_RETURN(Value v, eval(*e, rows[i]));
        out->push_back(std::move(v));
      }
      return Status::OK();
    };
  };

  // Cypher's implicit aggregation: count(*) groups by the non-aggregate
  // return items (RETURN f.id, count(*) counts per friend).
  query_ops::AggregateSpec agg;
  std::vector<const Expr*> keys;
  bool has_count = false;
  for (const auto& item : q.ret) {
    if (item.expr->kind == Expr::Kind::kCountStar) {
      has_count = true;
      agg.items.push_back({query_ops::Agg::kCountStar});
    } else {
      agg.items.push_back({query_ops::Agg::kKey, keys.size()});
      keys.push_back(item.expr.get());
    }
  }
  if (has_count) {
    agg.grouped = !keys.empty();
    agg.limit = limit;
    // ORDER BY over aggregated output: only aliases of return items.
    for (const auto& o : q.order_by) {
      const Expr& oe = *o.expr;
      size_t column = 0;
      for (; column < q.ret.size(); ++column) {
        const Expr& re = *q.ret[column].expr;
        if (re.kind == oe.kind &&
            (re.kind == Expr::Kind::kCountStar ||
             (re.kind == Expr::Kind::kProp && re.var == oe.var &&
              re.key == oe.key))) {
          break;
        }
      }
      if (column == q.ret.size()) {
        return Status::NotSupported(
            "aggregated ORDER BY must reference a RETURN item");
      }
      agg.order.push_back({column, o.desc});
    }
    GB_ASSIGN_OR_RETURN(result.rows,
                        query_ops::Aggregate(rows.size(), agg,
                                             eval_row(std::move(keys)),
                                             nullptr));
    return result;
  }

  // No count(*): `keys` holds every return item.
  query_ops::ProjectSpec spec{q.distinct, q.ret.size(), {}, limit};
  std::vector<const Expr*> sort_keys;
  for (const auto& o : q.order_by) {
    sort_keys.push_back(o.expr.get());
    spec.desc.push_back(o.desc);
  }
  GB_ASSIGN_OR_RETURN(result.rows,
                      query_ops::Project(rows.size(), spec,
                                         eval_row(std::move(keys)),
                                         eval_row(std::move(sort_keys))));
  return result;
}

}  // namespace graphbench
