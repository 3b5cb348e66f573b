#ifndef GRAPHBENCH_ENGINES_RDF_RDF_ENGINE_H_
#define GRAPHBENCH_ENGINES_RDF_RDF_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/query_ops.h"
#include "engines/rdf/term_dictionary.h"
#include "engines/rdf/triple_store.h"
#include "lang/plan_cache.h"
#include "lang/sparql/ast.h"
#include "util/result.h"

namespace graphbench {

/// RDF store with a SPARQL front-end: the Virtuoso-SPARQL analog. The
/// whole graph lives in one dictionary-encoded triple table with up to
/// four covering indexes; SPARQL basic graph patterns translate into
/// index-range joins (the "query translation cost" of §4.2) and every
/// update maintains all indexes (the write tax of §4.3).
class RdfEngine {
 public:
  explicit RdfEngine(int num_indexes = 4);

  /// Named $parameters bound at execution time; parameter values bind as
  /// literals (ids, names — the constants the SNB workload varies).
  using Params = std::map<std::string, Value>;

  /// Parses and executes one SPARQL query. Constants may be inlined in the
  /// text or written as $name parameters bound from `params` (LIMIT $limit
  /// included). Parses per call — the paper-faithful default — unless the
  /// plan cache is enabled, in which case the parsed query is looked up by
  /// statement text and only the parameters bind.
  Result<QueryResult> Execute(std::string_view sparql,
                              const Params& params = {});

  /// Opts this instance into caching parsed queries keyed by statement
  /// text. Call before concurrent use. Off by default.
  void EnablePlanCache(size_t capacity = lang::kDefaultPlanCacheCapacity);
  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  lang::PlanCacheStats plan_cache_stats() const {
    return plan_cache_ == nullptr ? lang::PlanCacheStats{}
                                  : plan_cache_->Stats();
  }

  /// Loader/update path (bulk import bypasses SPARQL, as Virtuoso's bulk
  /// loader does; per-update inserts are issued by the writer thread).
  Status AddTriple(const Term& subject, std::string_view predicate,
                   const Term& object);

  /// Deletes one asserted triple (SPARQL UPDATE's DELETE DATA analog).
  /// NotFound when the triple, or any of its terms, was never asserted.
  Status RemoveTriple(const Term& subject, std::string_view predicate,
                      const Term& object);

  /// Unweighted shortest-path length over `predicate` edges (undirected),
  /// BFS over the POS/SPO indexes. Exposed for tests; SPARQL reaches it
  /// through the shortestPath() projection extension.
  Result<int> ShortestPath(uint64_t from_id, uint64_t to_id,
                           uint64_t pred_id) const;

  uint64_t TripleCount() const { return store_.size(); }
  uint64_t ApproximateSizeBytes() const {
    return store_.ApproximateSizeBytes() + dict_.ApproximateSizeBytes();
  }

  TermDictionary& dict() { return dict_; }
  const TripleStore& store() const { return store_; }

 private:
  Result<QueryResult> ExecuteParsed(const sparql::Query& q,
                                    const Params& params);

  TermDictionary dict_;
  TripleStore store_;
  std::unique_ptr<lang::PlanCache<sparql::Query>> plan_cache_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_RDF_RDF_ENGINE_H_
