#include "engines/rdf/rdf_engine.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "lang/sparql/parser.h"
#include "obs/profiler.h"

namespace graphbench {

RdfEngine::RdfEngine(int num_indexes) : store_(num_indexes) {}

Status RdfEngine::AddTriple(const Term& subject, std::string_view predicate,
                            const Term& object) {
  uint64_t s = subject.kind == Term::Kind::kIri
                   ? dict_.InternIri(subject.iri)
                   : dict_.InternLiteral(subject.literal);
  uint64_t p = dict_.InternIri(predicate);
  uint64_t o = object.kind == Term::Kind::kIri
                   ? dict_.InternIri(object.iri)
                   : dict_.InternLiteral(object.literal);
  Status st = store_.Insert(s, p, o);
  if (st.IsAlreadyExists()) return Status::OK();  // idempotent graph insert
  return st;
}

Status RdfEngine::RemoveTriple(const Term& subject,
                               std::string_view predicate,
                               const Term& object) {
  auto s = subject.kind == Term::Kind::kIri
               ? dict_.LookupIri(subject.iri)
               : dict_.LookupLiteral(subject.literal);
  auto p = dict_.LookupIri(predicate);
  auto o = object.kind == Term::Kind::kIri
               ? dict_.LookupIri(object.iri)
               : dict_.LookupLiteral(object.literal);
  if (!s || !p || !o) return Status::NotFound("triple term");
  return store_.Remove(*s, *p, *o);
}

void RdfEngine::EnablePlanCache(size_t capacity) {
  plan_cache_ =
      std::make_unique<lang::PlanCache<sparql::Query>>("sparql", capacity);
}

Result<QueryResult> RdfEngine::Execute(std::string_view sparql_text,
                                       const Params& params) {
  // Root phase: cumulative spans the whole query; self is whatever the
  // specific phases below do not account for.
  obs::OpTimer root_op("execute");
  if (plan_cache_ != nullptr) {
    if (auto cached = plan_cache_->Lookup(sparql_text)) {
      return ExecuteParsed(*cached, params);
    }
    obs::OpTimer cached_parse_op("parse");
    GB_ASSIGN_OR_RETURN(sparql::Query parsed, sparql::Parse(sparql_text));
    cached_parse_op.Stop();
    auto shared = std::make_shared<const sparql::Query>(std::move(parsed));
    plan_cache_->Insert(sparql_text, shared);
    return ExecuteParsed(*shared, params);
  }
  obs::OpTimer parse_op("parse");
  GB_ASSIGN_OR_RETURN(sparql::Query q, sparql::Parse(sparql_text));
  parse_op.Stop();
  return ExecuteParsed(q, params);
}

Result<QueryResult> RdfEngine::ExecuteParsed(const sparql::Query& q,
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

  // Assign variable slots.
  std::unordered_map<std::string, int> var_slots;
  auto slot_of = [&var_slots](const std::string& name) {
    auto [it, inserted] =
        var_slots.emplace(name, int(var_slots.size()));
    return it->second;
  };

  std::vector<ResolvedPattern> patterns;
  patterns.reserve(q.patterns.size());
  bool impossible = false;
  // Dictionary-encode the constant terms (the forward half of the RDF
  // translation cost).
  obs::OpTimer resolve_op("resolve_terms");
  for (const auto& tp : q.patterns) {
    ResolvedPattern rp{kWildcard, kWildcard, kWildcard};
    auto resolve = [&](const sparql::TermPattern& t, uint64_t* id,
                       int* var) -> Status {
      switch (t.kind) {
        case sparql::TermPattern::Kind::kVariable:
          *var = slot_of(t.text);
          break;
        case sparql::TermPattern::Kind::kIri: {
          auto found = dict_.LookupIri(t.text);
          if (!found) rp.impossible = true;
          else *id = *found;
          break;
        }
        case sparql::TermPattern::Kind::kLiteral: {
          auto found = dict_.LookupLiteral(t.literal);
          if (!found) rp.impossible = true;
          else *id = *found;
          break;
        }
        case sparql::TermPattern::Kind::kParam: {
          // Bind step: parameters resolve to literal terms per call.
          auto it = params.find(t.text);
          if (it == params.end()) {
            return Status::InvalidArgument("missing parameter $" + t.text);
          }
          auto found = dict_.LookupLiteral(it->second);
          if (!found) rp.impossible = true;
          else *id = *found;
          break;
        }
      }
      return Status::OK();
    };
    GB_RETURN_IF_ERROR(resolve(tp.s, &rp.s, &rp.s_var));
    GB_RETURN_IF_ERROR(resolve(tp.p, &rp.p, &rp.p_var));
    GB_RETURN_IF_ERROR(resolve(tp.o, &rp.o, &rp.o_var));
    impossible |= rp.impossible;
    patterns.push_back(rp);
  }
  resolve_op.AddRows(patterns.size());
  resolve_op.Stop();
  // Variables that only appear in projections (shortestPath args must come
  // from patterns; plain vars too) are an error caught below.

  QueryResult result;
  for (const auto& sel : q.select) {
    result.columns.push_back(
        sel.is_path || sel.is_count ? sel.as_name : sel.var);
  }
  if (impossible) {
    // Some constant term is not in the dictionary: no solutions. A global
    // aggregate still yields its zero row.
    bool all_counts = !q.select.empty();
    for (const auto& sel : q.select) all_counts &= sel.is_count;
    if (all_counts && q.group_by.empty()) {
      Row zeros(q.select.size(), Value(int64_t{0}));
      result.rows.push_back(std::move(zeros));
    }
    return result;
  }

  // Greedy BGP join: repeatedly run the most selective remaining pattern.
  std::vector<BindingRow> rows;
  rows.emplace_back(var_slots.size(), kWildcard);
  std::vector<bool> used(patterns.size(), false);
  std::vector<bool> bound(var_slots.size(), false);

  auto selectivity = [&](const ResolvedPattern& rp) {
    int score = 0;
    if (rp.s_var < 0 || bound[size_t(rp.s_var)]) score += 4;
    if (rp.o_var < 0 || bound[size_t(rp.o_var)]) score += 2;
    if (rp.p_var < 0 || bound[size_t(rp.p_var)]) score += 1;
    return score;
  };

  for (size_t step = 0; step < patterns.size(); ++step) {
    int best = -1, best_score = -1;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      int s = selectivity(patterns[i]);
      if (s > best_score) {
        best_score = s;
        best = int(i);
      }
    }
    used[size_t(best)] = true;
    const ResolvedPattern& rp = patterns[size_t(best)];

    // One triple-pattern join step: probe the triple indexes once per
    // current binding and extend with every match.
    obs::OpTimer join_op("triple_pattern_join");
    std::vector<BindingRow> next;
    std::vector<Triple> matches;
    for (const BindingRow& row : rows) {
      uint64_t s = rp.s_var >= 0 && row[size_t(rp.s_var)] != kWildcard
                       ? row[size_t(rp.s_var)]
                       : rp.s;
      uint64_t p = rp.p_var >= 0 && row[size_t(rp.p_var)] != kWildcard
                       ? row[size_t(rp.p_var)]
                       : rp.p;
      uint64_t o = rp.o_var >= 0 && row[size_t(rp.o_var)] != kWildcard
                       ? row[size_t(rp.o_var)]
                       : rp.o;
      store_.Match(s, p, o, &matches);
      for (const Triple& t : matches) {
        BindingRow extended = row;
        if (rp.s_var >= 0) extended[size_t(rp.s_var)] = t.s;
        if (rp.p_var >= 0) extended[size_t(rp.p_var)] = t.p;
        if (rp.o_var >= 0) extended[size_t(rp.o_var)] = t.o;
        next.push_back(std::move(extended));
      }
    }
    if (rp.s_var >= 0) bound[size_t(rp.s_var)] = true;
    if (rp.p_var >= 0) bound[size_t(rp.p_var)] = true;
    if (rp.o_var >= 0) bound[size_t(rp.o_var)] = true;
    rows = std::move(next);
    join_op.AddRows(rows.size());
    join_op.Stop();

    // Apply filters whose variables are both bound.
    if (!q.filters.empty()) {
      obs::OpTimer filter_op("filter");
      for (const auto& f : q.filters) {
        auto a = var_slots.find(f.var_a);
        auto b = var_slots.find(f.var_b);
        if (a == var_slots.end() || b == var_slots.end()) {
          return Status::InvalidArgument("FILTER on unknown variable");
        }
        if (!bound[size_t(a->second)] || !bound[size_t(b->second)]) {
          continue;
        }
        std::vector<BindingRow> kept;
        kept.reserve(rows.size());
        for (BindingRow& row : rows) {
          bool eq = row[size_t(a->second)] == row[size_t(b->second)];
          if (eq != f.not_equal) kept.push_back(std::move(row));
        }
        rows = std::move(kept);
      }
      filter_op.AddRows(rows.size());
    }
    if (rows.empty()) break;
  }

  // Project (decoding ids back to Values — the reverse-dictionary half of
  // the translation cost) plus ORDER BY keys.
  auto decode = [this](uint64_t id) {
    Term t = dict_.Decode(id);
    return t.kind == Term::Kind::kIri ? Value(t.iri) : t.literal;
  };

  // Aggregation path: any (COUNT(?v) AS ?n) projection groups the
  // solutions by the GROUP BY variables (SPARQL 1.1 semantics subset).
  bool has_count = false;
  for (const auto& sel : q.select) has_count |= sel.is_count;
  if (has_count) {
    obs::OpTimer agg_op("aggregate");
    auto slot = [&var_slots](const std::string& name) -> Result<int> {
      auto it = var_slots.find(name);
      if (it == var_slots.end()) {
        return Status::InvalidArgument("unknown variable ?" + name);
      }
      return it->second;
    };
    std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
    std::vector<Row> group_order;
    for (const BindingRow& binding : rows) {
      Row key;
      for (const std::string& g : q.group_by) {
        GB_ASSIGN_OR_RETURN(int s, slot(g));
        key.push_back(decode(binding[size_t(s)]));
      }
      auto [it, inserted] = counts.emplace(key, 0);
      if (inserted) group_order.push_back(key);
      ++it->second;
    }
    if (group_order.empty() && q.group_by.empty()) {
      group_order.push_back(Row{});
      counts[Row{}] = 0;
    }
    for (const Row& key : group_order) {
      Row row;
      for (const auto& sel : q.select) {
        if (sel.is_count) {
          row.push_back(Value(counts[key]));
          continue;
        }
        if (sel.is_path) {
          return Status::NotSupported(
              "shortestPath cannot mix with aggregates");
        }
        // Plain variable: must be one of the GROUP BY keys.
        size_t key_index = q.group_by.size();
        for (size_t g = 0; g < q.group_by.size(); ++g) {
          if (q.group_by[g] == sel.var) {
            key_index = g;
            break;
          }
        }
        if (key_index == q.group_by.size()) {
          return Status::InvalidArgument(
              "projected variable ?" + sel.var + " not in GROUP BY");
        }
        row.push_back(key[key_index]);
      }
      result.rows.push_back(std::move(row));
    }
    agg_op.AddRows(result.rows.size());
    agg_op.Stop();
    // ORDER BY over aggregated output references projected names.
    if (!q.order_by.empty()) {
      obs::OpTimer sort_op("sort");
      std::vector<std::pair<size_t, bool>> keys;
      for (const auto& [var, desc] : q.order_by) {
        size_t column = q.select.size();
        for (size_t i = 0; i < q.select.size(); ++i) {
          const std::string& name =
              q.select[i].is_count ? q.select[i].as_name : q.select[i].var;
          if (name == var) {
            column = i;
            break;
          }
        }
        if (column == q.select.size()) {
          return Status::InvalidArgument("ORDER BY unknown projection ?" +
                                         var);
        }
        keys.emplace_back(column, desc);
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
  obs::OpTimer project_op("project");
  for (const BindingRow& binding : rows) {
    Row row;
    for (const auto& sel : q.select) {
      if (sel.is_path) {
        auto from = var_slots.find(sel.from_var);
        auto to = var_slots.find(sel.to_var);
        auto pred = dict_.LookupIri(sel.pred_iri);
        if (from == var_slots.end() || to == var_slots.end()) {
          return Status::InvalidArgument("shortestPath over unbound vars");
        }
        if (!pred) {
          row.push_back(Value(int64_t{-1}));
          continue;
        }
        GB_ASSIGN_OR_RETURN(int len,
                            ShortestPath(binding[size_t(from->second)],
                                         binding[size_t(to->second)], *pred));
        row.push_back(Value(int64_t{len}));
      } else {
        auto it = var_slots.find(sel.var);
        if (it == var_slots.end()) {
          return Status::InvalidArgument("projection of unknown variable ?" +
                                         sel.var);
        }
        row.push_back(decode(binding[size_t(it->second)]));
      }
    }
    if (q.distinct && !seen.insert(row).second) continue;
    Row sort_key;
    for (const auto& [var, desc] : q.order_by) {
      auto it = var_slots.find(var);
      if (it == var_slots.end()) {
        return Status::InvalidArgument("ORDER BY unknown variable");
      }
      sort_key.push_back(decode(binding[size_t(it->second)]));
    }
    projected.push_back(Projected{std::move(row), std::move(sort_key)});
  }
  project_op.AddRows(projected.size());
  project_op.Stop();

  if (!q.order_by.empty()) {
    obs::OpTimer sort_op("sort");
    std::stable_sort(projected.begin(), projected.end(),
                     [&q](const Projected& a, const Projected& b) {
                       for (size_t i = 0; i < q.order_by.size(); ++i) {
                         int c = a.sort_key[i].Compare(b.sort_key[i]);
                         if (c != 0) return q.order_by[i].second ? c > 0
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

Result<int> RdfEngine::ShortestPath(uint64_t from_id, uint64_t to_id,
                                    uint64_t pred_id) const {
  obs::OpTimer op("shortest_path");
  if (from_id == to_id) return 0;
  // BFS over the triple indexes, expanding both edge directions.
  std::unordered_set<uint64_t> visited{from_id};
  std::deque<uint64_t> frontier{from_id};
  std::vector<Triple> matches;
  int depth = 0;
  while (!frontier.empty()) {
    ++depth;
    size_t level = frontier.size();
    for (size_t i = 0; i < level; ++i) {
      uint64_t v = frontier.front();
      frontier.pop_front();
      for (bool forward : {true, false}) {
        if (forward) {
          store_.Match(v, pred_id, kWildcard, &matches);
        } else {
          store_.Match(kWildcard, pred_id, v, &matches);
        }
        for (const Triple& t : matches) {
          uint64_t next = forward ? t.o : t.s;
          if (visited.count(next)) continue;
          if (next == to_id) return depth;
          visited.insert(next);
          frontier.push_back(next);
        }
      }
    }
  }
  return -1;
}

}  // namespace graphbench
