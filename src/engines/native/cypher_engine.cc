#include "engines/native/cypher_engine.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "lang/cypher/parser.h"
#include "obs/profiler.h"

namespace graphbench {

using cypher::BinOp;
using cypher::Expr;

namespace {

bool CompareSatisfies(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq: return cmp == 0;
    case BinOp::kNe: return cmp != 0;
    case BinOp::kLt: return cmp < 0;
    case BinOp::kLe: return cmp <= 0;
    case BinOp::kGt: return cmp > 0;
    case BinOp::kGe: return cmp >= 0;
    case BinOp::kAnd: return false;
  }
  return false;
}

// Variable slot registry shared by the executor below.
class Slots {
 public:
  int GetOrAdd(const std::string& var) {
    auto [it, inserted] = map_.emplace(var, int(map_.size()));
    return it->second;
  }
  int Find(const std::string& var) const {
    auto it = map_.find(var);
    return it == map_.end() ? -1 : it->second;
  }
  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, int> map_;
};

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
  int64_t limit_bound = q.limit;
  if (!q.limit_param.empty()) {
    auto it = params.find(q.limit_param);
    if (it == params.end()) {
      return Status::InvalidArgument("missing parameter $" + q.limit_param);
    }
    if (!it->second.is_int()) {
      return Status::InvalidArgument("LIMIT parameter must be an integer");
    }
    limit_bound = it->second.as_int();
  }

  Slots slots;
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
        int slot = slots.Find(e.var);
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
        return Value(CompareSatisfies(e.op, l.Compare(r)));
      }
      case Expr::Kind::kPathLength: {
        obs::OpTimer op("ShortestPath");
        int from = slots.Find(e.path_from);
        int to = slots.Find(e.path_to);
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
      int slot = node.var.empty() ? -1 : slots.GetOrAdd(node.var);
      ensure_width();

      const char* op_name =
          ni == 0 ? (node.props.empty() ? "NodeByLabelScan"
                                        : "NodeIndexSeek")
                  : (chain.rels[ni - 1].max_hops == 1 ? "Expand"
                                                      : "VarLengthExpand");
      obs::OpTimer op(op_name);

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
            bool props_ok = true;
            for (const auto& [key, expr] : node.props) {
              GB_ASSIGN_OR_RETURN(Value want, EvalConst(*expr, params));
              GB_ASSIGN_OR_RETURN(Value got,
                                  graph_->VertexProperty(v, key));
              if (got != want) {
                props_ok = false;
                break;
              }
            }
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
        int prev_slot = slots.Find(prev.var);
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
          // paths).
          std::unordered_set<VertexId> visited{b[size_t(prev_slot)]};
          std::vector<VertexId> frontier{b[size_t(prev_slot)]};
          for (int depth = 1;
               depth <= rel.max_hops && !frontier.empty(); ++depth) {
            std::vector<VertexId> next_frontier;
            for (VertexId v : frontier) {
              GB_ASSIGN_OR_RETURN(
                  std::vector<Neighbor> step,
                  graph_->Neighbors(v, rel.type, rel.dir));
              for (const Neighbor& n : step) {
                if (!visited.insert(n.vertex).second) continue;
                next_frontier.push_back(n.vertex);
                if (depth >= rel.min_hops) {
                  neighbors.push_back(Neighbor{n.vertex, n.edge});
                }
              }
            }
            frontier = std::move(next_frontier);
          }
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
          bool props_ok = true;
          for (const auto& [key, expr] : node.props) {
            GB_ASSIGN_OR_RETURN(Value want, EvalConst(*expr, params));
            GB_ASSIGN_OR_RETURN(Value got,
                                graph_->VertexProperty(n.vertex, key));
            if (got != want) {
              props_ok = false;
              break;
            }
          }
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
          int slot = slots.Find(var);
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

  // Cypher's implicit aggregation: count(*) groups by the non-aggregate
  // return items (RETURN f.id, count(*) counts per friend).
  bool has_count = false;
  for (const auto& item : q.ret) {
    has_count |= item.expr->kind == Expr::Kind::kCountStar;
  }
  if (has_count) {
    obs::OpTimer agg_op("EagerAggregation");
    std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
    std::vector<Row> group_order;
    for (const BindingRow& b : rows) {
      Row key;
      for (const auto& item : q.ret) {
        if (item.expr->kind == Expr::Kind::kCountStar) continue;
        GB_ASSIGN_OR_RETURN(Value v, eval(*item.expr, b));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = counts.emplace(key, 0);
      if (inserted) group_order.push_back(key);
      ++it->second;
    }
    if (group_order.empty() && q.ret.size() == 1) {
      // Bare RETURN count(*) over zero rows.
      result.rows.push_back(Row{Value(int64_t{0})});
      return result;
    }
    for (const Row& key : group_order) {
      Row row;
      size_t key_index = 0;
      for (const auto& item : q.ret) {
        if (item.expr->kind == Expr::Kind::kCountStar) {
          row.push_back(Value(counts[key]));
        } else {
          row.push_back(key[key_index++]);
        }
      }
      result.rows.push_back(std::move(row));
    }
    agg_op.AddRows(result.rows.size());
    agg_op.Stop();
    // ORDER BY over aggregated output: only aliases of return items.
    if (!q.order_by.empty()) {
      obs::OpTimer sort_op("Sort");
      std::vector<std::pair<size_t, bool>> keys;
      for (const auto& o : q.order_by) {
        size_t column = q.ret.size();
        if (o.expr->kind == Expr::Kind::kProp) {
          for (size_t i = 0; i < q.ret.size(); ++i) {
            const Expr& re = *q.ret[i].expr;
            if (re.kind == Expr::Kind::kProp && re.var == o.expr->var &&
                re.key == o.expr->key) {
              column = i;
              break;
            }
          }
        } else if (o.expr->kind == Expr::Kind::kCountStar) {
          for (size_t i = 0; i < q.ret.size(); ++i) {
            if (q.ret[i].expr->kind == Expr::Kind::kCountStar) column = i;
          }
        }
        if (column == q.ret.size()) {
          return Status::NotSupported(
              "aggregated ORDER BY must reference a RETURN item");
        }
        keys.emplace_back(column, o.desc);
      }
      std::stable_sort(result.rows.begin(), result.rows.end(),
                       [&keys](const Row& a, const Row& b) {
                         for (auto [column, desc] : keys) {
                           int c = a[column].Compare(b[column]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    if (limit_bound >= 0 && result.rows.size() > size_t(limit_bound)) {
      result.rows.resize(size_t(limit_bound));
    }
    return result;
  }

  struct Projected {
    Row row;
    Row sort_key;
  };
  std::vector<Projected> projected;
  std::unordered_set<Row, RowHash, RowEq> seen;
  obs::OpTimer project_op("Projection");
  for (const BindingRow& b : rows) {
    Row row;
    for (const auto& item : q.ret) {
      GB_ASSIGN_OR_RETURN(Value v, eval(*item.expr, b));
      row.push_back(std::move(v));
    }
    if (q.distinct && !seen.insert(row).second) continue;
    Row sort_key;
    for (const auto& o : q.order_by) {
      GB_ASSIGN_OR_RETURN(Value v, eval(*o.expr, b));
      sort_key.push_back(std::move(v));
    }
    projected.push_back(Projected{std::move(row), std::move(sort_key)});
  }
  project_op.AddRows(projected.size());
  project_op.Stop();
  if (!q.order_by.empty()) {
    obs::OpTimer sort_op("Sort");
    std::stable_sort(projected.begin(), projected.end(),
                     [&q](const Projected& a, const Projected& b) {
                       for (size_t i = 0; i < q.order_by.size(); ++i) {
                         int c = a.sort_key[i].Compare(b.sort_key[i]);
                         if (c != 0) return q.order_by[i].desc ? c > 0
                                                               : c < 0;
                       }
                       return false;
                     });
  }
  size_t limit = limit_bound < 0
                     ? projected.size()
                     : std::min(size_t(limit_bound), projected.size());
  result.rows.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    result.rows.push_back(std::move(projected[i].row));
  }
  return result;
}

}  // namespace graphbench
