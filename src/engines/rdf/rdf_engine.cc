#include "engines/rdf/rdf_engine.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "engines/frame.h"
#include "graph/shortest_path.h"
#include "lang/sparql/parser.h"
#include "obs/profiler.h"

namespace graphbench {

namespace {

// A triple pattern with its constants dictionary-encoded and its
// variables bound to solution slots. Positions are s, p, o.
struct BoundPattern {
  uint64_t term[3] = {kWildcard, kWildcard, kWildcard};  // constants
  int slot[3] = {-1, -1, -1};                            // variables
};

// FILTER(?a = ?b) or FILTER(?a != ?b) over two slots.
struct BoundFilter {
  size_t a, b;
  bool not_equal;
  bool applied = false;
};

// A projected column: the term in `slot`, or for shortestPath() the BFS
// length from `slot` to `to_slot` over `pred` (-1 when the predicate is
// unknown).
struct Column {
  size_t slot;
  bool is_path = false;
  size_t to_slot = 0;
  std::optional<uint64_t> pred = std::nullopt;
};

// One execution of a parsed query over a Frame of term ids: one slot per
// variable, numbered in order of first appearance in the triple patterns.
// Bind() resolves every name the query uses (FILTER, projection, GROUP BY,
// ORDER BY) and every constant before a triple is read, so its errors do
// not depend on the data.
class Execution {
 public:
  Execution(const RdfEngine& engine, const TermDictionary& dict,
            const sparql::Query& q)
      : engine_(engine), dict_(dict), q_(q) {}

  Status Bind(const RdfEngine::Params& params, int64_t limit);
  void Join();
  Result<std::vector<Row>> Output();

 private:
  Result<size_t> Known(const std::string& var) const {
    return frame_.Known(var, "variable ?");
  }
  Status BindPattern(const sparql::TriplePattern& tp,
                     const RdfEngine::Params& params);
  Status BindOutput(int64_t limit);
  // The storage access: probes the store once per solution with `bp` and
  // keeps every extension.
  void JoinStep(const BoundPattern& bp, const std::vector<char>& bound);
  Value Decode(uint64_t id) const {
    Term t = dict_.Decode(id);
    if (t.kind == Term::Kind::kIri) return Value(std::move(t.iri));
    return std::move(t.literal);
  }
  query_ops::RowFn Decoded(const std::vector<size_t>& slots) const {
    return [this, &slots](size_t i, Row* out) -> Status {
      for (size_t s : slots) out->push_back(Decode(frame_.row(i)[s]));
      return Status::OK();
    };
  }

  const RdfEngine& engine_;
  const TermDictionary& dict_;
  const sparql::Query& q_;
  Frame frame_;
  std::vector<BoundPattern> patterns_;
  bool impossible_ = false;  // a constant term is not in the dictionary
  std::vector<BoundFilter> filters_;

  // The output: a grouped aggregation, or a projection.
  bool aggregate_ = false;
  query_ops::AggregateSpec agg_;
  std::vector<size_t> group_slots_;
  query_ops::ProjectSpec project_;
  std::vector<Column> columns_;
  std::vector<size_t> sort_slots_;

  std::vector<Triple> matches_;
};

Status Execution::BindPattern(const sparql::TriplePattern& tp,
                              const RdfEngine::Params& params) {
  BoundPattern bp;
  const sparql::TermPattern* terms[3] = {&tp.s, &tp.p, &tp.o};
  for (int k = 0; k < 3; ++k) {
    const sparql::TermPattern& t = *terms[k];
    std::optional<uint64_t> found;
    switch (t.kind) {
      case sparql::TermPattern::Kind::kVariable:
        bp.slot[k] = frame_.Slot(t.text);
        if (bp.slot[k] < 0) bp.slot[k] = int(frame_.AddSlot(t.text));
        continue;
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
    if (found) bp.term[k] = *found;
    else impossible_ = true;
  }
  patterns_.push_back(bp);
  return Status::OK();
}

Status Execution::Bind(const RdfEngine::Params& params, int64_t limit) {
  // Dictionary-encode the constant terms (the forward half of the RDF
  // translation cost) and number the variables.
  obs::OpTimer resolve_op("resolve_terms");
  patterns_.reserve(q_.patterns.size());
  for (const auto& tp : q_.patterns) {
    GB_RETURN_IF_ERROR(BindPattern(tp, params));
  }
  resolve_op.AddRows(patterns_.size());
  resolve_op.Stop();

  for (const auto& f : q_.filters) {
    GB_ASSIGN_OR_RETURN(size_t a, Known(f.var_a));
    GB_ASSIGN_OR_RETURN(size_t b, Known(f.var_b));
    filters_.push_back({a, b, f.not_equal});
  }
  return BindOutput(limit);
}

Status Execution::BindOutput(int64_t limit) {
  // Aggregation: any (COUNT(?v) AS ?n) projection groups the solutions by
  // the GROUP BY variables (SPARQL 1.1 semantics subset).
  for (const auto& sel : q_.select) aggregate_ |= sel.is_count;
  if (aggregate_) {
    agg_.grouped = !q_.group_by.empty();
    agg_.limit = limit;
    for (const std::string& g : q_.group_by) {
      GB_ASSIGN_OR_RETURN(size_t s, Known(g));
      group_slots_.push_back(s);
    }
    for (const auto& sel : q_.select) {
      if (sel.is_count) {
        agg_.items.push_back({query_ops::Agg::kCountStar});
        continue;
      }
      if (sel.is_path) {
        return Status::NotSupported(
            "shortestPath cannot mix with aggregates");
      }
      // Plain variable: must be one of the GROUP BY keys.
      size_t key = size_t(
          std::find(q_.group_by.begin(), q_.group_by.end(), sel.var) -
          q_.group_by.begin());
      if (key == q_.group_by.size()) {
        return Status::InvalidArgument(
            "projected variable ?" + sel.var + " not in GROUP BY");
      }
      agg_.items.push_back({query_ops::Agg::kKey, key});
    }
    // ORDER BY over aggregated output references projected names.
    for (const auto& [var, desc] : q_.order_by) {
      size_t column = 0;
      while (column < q_.select.size() &&
             (q_.select[column].is_count ? q_.select[column].as_name
                                         : q_.select[column].var) != var) {
        ++column;
      }
      if (column == q_.select.size()) {
        return Status::InvalidArgument("ORDER BY unknown projection ?" +
                                       var);
      }
      agg_.order.push_back({column, desc});
    }
    return Status::OK();
  }

  columns_.reserve(q_.select.size());
  for (const auto& sel : q_.select) {
    if (!sel.is_path) {
      GB_ASSIGN_OR_RETURN(size_t s, Known(sel.var));
      columns_.push_back({s});
      continue;
    }
    GB_ASSIGN_OR_RETURN(size_t from, Known(sel.from_var));
    GB_ASSIGN_OR_RETURN(size_t to, Known(sel.to_var));
    columns_.push_back({from, true, to, dict_.LookupIri(sel.pred_iri)});
  }
  project_ = {q_.distinct, q_.select.size(), {}, limit};
  for (const auto& [var, desc] : q_.order_by) {
    GB_ASSIGN_OR_RETURN(size_t s, Known(var));
    sort_slots_.push_back(s);
    project_.desc.push_back(desc);
  }
  return Status::OK();
}

void Execution::Join() {
  frame_.Start();
  // A constant term missing from the dictionary means no solutions.
  if (impossible_) frame_.Advance();
  std::vector<char> used(patterns_.size(), 0);
  std::vector<char> bound(frame_.width(), 0);
  auto bound_or_constant = [&bound](int slot) {
    return slot < 0 || bound[size_t(slot)];
  };
  // Greedy BGP join: repeatedly run the most selective remaining pattern.
  for (size_t step = 0; step < patterns_.size() && frame_.size() > 0;
       ++step) {
    int best = -1, best_score = -1;
    for (size_t i = 0; i < patterns_.size(); ++i) {
      if (used[i]) continue;
      const BoundPattern& bp = patterns_[i];
      int score = 4 * bound_or_constant(bp.slot[0]) +
                  2 * bound_or_constant(bp.slot[2]) +
                  bound_or_constant(bp.slot[1]);
      if (score > best_score) {
        best_score = score;
        best = int(i);
      }
    }
    used[size_t(best)] = 1;
    const BoundPattern& bp = patterns_[size_t(best)];
    JoinStep(bp, bound);
    for (int slot : bp.slot) {
      if (slot >= 0) bound[size_t(slot)] = 1;
    }
    // Each filter runs once, as soon as both its variables are bound.
    for (BoundFilter& f : filters_) {
      if (f.applied || !bound[f.a] || !bound[f.b]) continue;
      obs::OpTimer filter_op("filter");
      (void)frame_.Retain([&](size_t i) {
        const uint64_t* b = frame_.row(i);
        return (b[f.a] == b[f.b]) != f.not_equal;
      });
      filter_op.AddRows(frame_.size());
      f.applied = true;
    }
  }
}

void Execution::JoinStep(const BoundPattern& bp,
                         const std::vector<char>& bound) {
  // One triple-pattern join step: probe the triple indexes once per
  // current solution and extend it with every match.
  obs::OpTimer join_op("triple_pattern_join");
  // Per position: the slot whose bound value probes it, or the slot the
  // match binds; and the earlier position a repeated unbound variable
  // must equal.
  int probe[3] = {-1, -1, -1}, binds[3] = {-1, -1, -1}, same[3] = {-1, -1, -1};
  for (int k = 0; k < 3; ++k) {
    int slot = bp.slot[k];
    if (slot < 0) continue;
    if (bound[size_t(slot)]) {
      probe[k] = slot;
      continue;
    }
    binds[k] = slot;
    for (int j = 0; j < k; ++j) {
      if (binds[j] == slot) same[k] = j;
    }
  }
  for (size_t i = 0; i < frame_.size(); ++i) {
    const uint64_t* b = frame_.row(i);
    uint64_t key[3];
    for (int k = 0; k < 3; ++k) {
      key[k] = probe[k] >= 0 ? b[probe[k]] : bp.term[k];
    }
    matches_.clear();
    engine_.store().Match(key[0], key[1], key[2], &matches_);
    for (const Triple& t : matches_) {
      const uint64_t v[3] = {t.s, t.p, t.o};
      if ((same[1] >= 0 && v[1] != v[same[1]]) ||
          (same[2] >= 0 && v[2] != v[same[2]])) {
        continue;
      }
      uint64_t* extended = frame_.Extend(i);
      for (int k = 0; k < 3; ++k) {
        if (binds[k] >= 0) extended[binds[k]] = v[k];
      }
    }
  }
  frame_.Advance();
  join_op.AddRows(frame_.size());
}

Result<std::vector<Row>> Execution::Output() {
  // Decoding ids back to Values is the reverse-dictionary half of the
  // translation cost.
  if (aggregate_) {
    return query_ops::Aggregate(frame_.size(), agg_, Decoded(group_slots_),
                                nullptr);
  }
  return query_ops::Project(
      frame_.size(), project_,
      [this](size_t i, Row* out) -> Status {
        const uint64_t* b = frame_.row(i);
        for (const Column& c : columns_) {
          if (!c.is_path) {
            out->push_back(Decode(b[c.slot]));
          } else if (!c.pred) {
            out->emplace_back(int64_t{-1});
          } else {
            GB_ASSIGN_OR_RETURN(int len, engine_.ShortestPath(
                                             b[c.slot], b[c.to_slot], *c.pred));
            out->emplace_back(int64_t{len});
          }
        }
        return Status::OK();
      },
      Decoded(sort_slots_));
}

}  // namespace

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
  auto parse = [](std::string_view text) {
    obs::OpTimer parse_op("parse");
    return sparql::Parse(text);
  };
  return lang::WithPlan(
      plan_cache_.get(), sparql_text, parse,
      [&](const sparql::Query& q) -> Result<QueryResult> {
        // LIMIT binds like any other parameter so one cached plan serves
        // every limit value.
        GB_ASSIGN_OR_RETURN(
            int64_t limit,
            query_ops::BindLimit(q.limit, q.limit_param, params));
        Execution ex(*this, dict_, q);
        GB_RETURN_IF_ERROR(ex.Bind(params, limit));
        ex.Join();
        QueryResult result;
        for (const auto& sel : q.select) {
          result.columns.push_back(
              sel.is_path || sel.is_count ? sel.as_name : sel.var);
        }
        GB_ASSIGN_OR_RETURN(result.rows, ex.Output());
        return result;
      });
}

Result<int> RdfEngine::ShortestPath(uint64_t from_id, uint64_t to_id,
                                    uint64_t pred_id) const {
  obs::OpTimer op("shortest_path");
  // BFS over the triple indexes, expanding both edge directions.
  std::vector<Triple> matches;
  return BfsDistance(from_id, to_id, [&](uint64_t v, auto&& emit) {
    matches.clear();
    store_.Match(v, pred_id, kWildcard, &matches);
    for (const Triple& t : matches) {
      if (!emit(t.o)) return Status::OK();
    }
    matches.clear();
    store_.Match(kWildcard, pred_id, v, &matches);
    for (const Triple& t : matches) {
      if (!emit(t.s)) return Status::OK();
    }
    return Status::OK();
  });
}

}  // namespace graphbench
