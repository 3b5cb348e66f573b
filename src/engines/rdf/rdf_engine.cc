#include "engines/rdf/rdf_engine.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "graph/shortest_path.h"
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
  auto limit_param = params.find(q.limit_param);
  GB_ASSIGN_OR_RETURN(
      int64_t limit,
      query_ops::BindLimit(
          q.limit, !q.limit_param.empty(),
          limit_param == params.end() ? nullptr : &limit_param->second));

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
      std::optional<uint64_t> found;
      switch (t.kind) {
        case sparql::TermPattern::Kind::kVariable:
          *var = slot_of(t.text);
          return Status::OK();
        case sparql::TermPattern::Kind::kIri:
          found = dict_.LookupIri(t.text);
          break;
        case sparql::TermPattern::Kind::kLiteral:
          found = dict_.LookupLiteral(t.literal);
          break;
        case sparql::TermPattern::Kind::kParam: {
          // Bind step: parameters resolve to literal terms per call.
          auto it = params.find(t.text);
          if (it == params.end()) {
            return Status::InvalidArgument("missing parameter $" + t.text);
          }
          found = dict_.LookupLiteral(it->second);
          break;
        }
      }
      if (found) *id = *found;
      else rp.impossible = true;
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

  // Greedy BGP join: repeatedly run the most selective remaining pattern.
  // A constant term missing from the dictionary means no solutions.
  std::vector<BindingRow> rows;
  if (!impossible) rows.emplace_back(var_slots.size(), kWildcard);
  std::vector<bool> used(patterns.size(), false);
  std::vector<bool> bound(var_slots.size(), false);

  auto selectivity = [&](const ResolvedPattern& rp) {
    int score = 0;
    if (rp.s_var < 0 || bound[size_t(rp.s_var)]) score += 4;
    if (rp.o_var < 0 || bound[size_t(rp.o_var)]) score += 2;
    if (rp.p_var < 0 || bound[size_t(rp.p_var)]) score += 1;
    return score;
  };

  for (size_t step = 0; step < patterns.size() && !rows.empty(); ++step) {
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
  }

  // Project (decoding ids back to Values — the reverse-dictionary half of
  // the translation cost) plus ORDER BY keys.
  auto decode = [this](uint64_t id) -> Value {
    Term t = dict_.Decode(id);
    if (t.kind == Term::Kind::kIri) return Value(std::move(t.iri));
    return std::move(t.literal);
  };
  auto decode_row = [&](std::vector<size_t> slots) -> query_ops::RowFn {
    return [&, slots = std::move(slots)](size_t i, Row* out) -> Status {
      for (size_t s : slots) out->push_back(decode(rows[i][s]));
      return Status::OK();
    };
  };
  auto slot = [&var_slots](const std::string& name) -> Result<size_t> {
    auto it = var_slots.find(name);
    if (it == var_slots.end()) {
      return Status::InvalidArgument("unknown variable ?" + name);
    }
    return size_t(it->second);
  };

  // Aggregation path: any (COUNT(?v) AS ?n) projection groups the
  // solutions by the GROUP BY variables (SPARQL 1.1 semantics subset).
  bool has_count = false;
  for (const auto& sel : q.select) has_count |= sel.is_count;
  if (has_count) {
    query_ops::AggregateSpec spec;
    spec.grouped = !q.group_by.empty();
    spec.limit = limit;
    std::vector<size_t> group_slots;
    for (const std::string& g : q.group_by) {
      GB_ASSIGN_OR_RETURN(size_t s, slot(g));
      group_slots.push_back(s);
    }
    for (const auto& sel : q.select) {
      if (sel.is_count) {
        spec.items.push_back({query_ops::Agg::kCountStar});
        continue;
      }
      if (sel.is_path) {
        return Status::NotSupported(
            "shortestPath cannot mix with aggregates");
      }
      // Plain variable: must be one of the GROUP BY keys.
      size_t key = size_t(
          std::find(q.group_by.begin(), q.group_by.end(), sel.var) -
          q.group_by.begin());
      if (key == q.group_by.size()) {
        return Status::InvalidArgument(
            "projected variable ?" + sel.var + " not in GROUP BY");
      }
      spec.items.push_back({query_ops::Agg::kKey, key});
    }
    // ORDER BY over aggregated output references projected names.
    for (const auto& [var, desc] : q.order_by) {
      size_t column = 0;
      while (column < q.select.size() &&
             (q.select[column].is_count ? q.select[column].as_name
                                        : q.select[column].var) != var) {
        ++column;
      }
      if (column == q.select.size()) {
        return Status::InvalidArgument("ORDER BY unknown projection ?" +
                                       var);
      }
      spec.order.push_back({column, desc});
    }
    GB_ASSIGN_OR_RETURN(result.rows,
                        query_ops::Aggregate(rows.size(), spec,
                                             decode_row(std::move(group_slots)),
                                             nullptr));
    return result;
  }

  // Each column decodes `slot`, or for shortestPath() runs the BFS from
  // `slot` to `to_slot` over `pred` (-1 when the predicate is unknown).
  struct Column {
    size_t slot;
    bool is_path = false;
    size_t to_slot = 0;
    std::optional<uint64_t> pred = std::nullopt;
  };
  std::vector<Column> columns;
  for (const auto& sel : q.select) {
    if (!sel.is_path) {
      GB_ASSIGN_OR_RETURN(size_t s, slot(sel.var));
      columns.push_back({s});
      continue;
    }
    auto from = var_slots.find(sel.from_var);
    auto to = var_slots.find(sel.to_var);
    if (from == var_slots.end() || to == var_slots.end()) {
      return Status::InvalidArgument("shortestPath over unbound vars");
    }
    columns.push_back({size_t(from->second), true, size_t(to->second),
                       dict_.LookupIri(sel.pred_iri)});
  }
  query_ops::ProjectSpec spec{q.distinct, q.select.size(), {}, limit};
  std::vector<size_t> sort_slots;
  for (const auto& [var, desc] : q.order_by) {
    GB_ASSIGN_OR_RETURN(size_t s, slot(var));
    sort_slots.push_back(s);
    spec.desc.push_back(desc);
  }
  GB_ASSIGN_OR_RETURN(
      result.rows,
      query_ops::Project(
          rows.size(), spec,
          [&](size_t i, Row* out) -> Status {
            for (const Column& c : columns) {
              if (!c.is_path) {
                out->push_back(decode(rows[i][c.slot]));
              } else if (!c.pred) {
                out->emplace_back(int64_t{-1});
              } else {
                GB_ASSIGN_OR_RETURN(int len,
                                    ShortestPath(rows[i][c.slot],
                                                 rows[i][c.to_slot], *c.pred));
                out->emplace_back(int64_t{len});
              }
            }
            return Status::OK();
          },
          decode_row(std::move(sort_slots))));
  return result;
}

Result<int> RdfEngine::ShortestPath(uint64_t from_id, uint64_t to_id,
                                    uint64_t pred_id) const {
  obs::OpTimer op("shortest_path");
  // BFS over the triple indexes, expanding both edge directions.
  std::vector<Triple> matches;
  return BfsDistance(from_id, to_id, [&](uint64_t v, auto&& emit) {
    store_.Match(v, pred_id, kWildcard, &matches);
    for (const Triple& t : matches) {
      if (!emit(t.o)) return Status::OK();
    }
    store_.Match(kWildcard, pred_id, v, &matches);
    for (const Triple& t : matches) {
      if (!emit(t.s)) return Status::OK();
    }
    return Status::OK();
  });
}

}  // namespace graphbench
