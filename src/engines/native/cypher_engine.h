#ifndef GRAPHBENCH_ENGINES_NATIVE_CYPHER_ENGINE_H_
#define GRAPHBENCH_ENGINES_NATIVE_CYPHER_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/native/native_graph.h"
#include "engines/query_ops.h"
#include "lang/cypher/ast.h"
#include "lang/plan_cache.h"
#include "util/result.h"

namespace graphbench {

/// Declarative query front-end over the native graph store: the
/// Neo4j-with-Cypher configuration. Queries are parsed and planned per
/// execution (as a server does) by default; EnablePlanCache keeps parsed
/// queries keyed by statement text so a repeated statement binds its
/// per-call $parameters only (Neo4j's query-cache analog).
///
/// Planning: each MATCH chain is solved left-to-right; the first node of a
/// chain must be resolvable — by an inline property equality (index lookup
/// when one exists), by a label scan, or by already being bound by an
/// earlier chain. The SNB interactive queries all satisfy this.
///
/// Execution binds once per call: every variable becomes a slot and every
/// $parameter a value before the MATCH starts. Solutions are flat runs of
/// VertexIds, one slot each, and expansions read adjacency into one reused
/// buffer, so a row costs no heap allocation until the RETURN tail
/// (query_ops) builds the output rows.
class CypherEngine {
 public:
  using Params = std::map<std::string, Value>;

  explicit CypherEngine(NativeGraph* graph) : graph_(graph) {}

  /// Parses and executes one statement with named $parameters (LIMIT
  /// $limit included). Parses per call — the paper-faithful default —
  /// unless the plan cache is enabled, in which case the parsed query is
  /// looked up by statement text and only the parameters bind.
  Result<QueryResult> Execute(std::string_view query,
                              const Params& params = {});

  /// Opts this instance into caching parsed queries keyed by statement
  /// text. Call before concurrent use. Off by default.
  void EnablePlanCache(size_t capacity = lang::kDefaultPlanCacheCapacity);
  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  lang::PlanCacheStats plan_cache_stats() const {
    return plan_cache_ == nullptr ? lang::PlanCacheStats{}
                                  : plan_cache_->Stats();
  }

  NativeGraph* graph() { return graph_; }

 private:
  // Runs an already-parsed query: the shared tail of the cached and
  // parse-per-call paths of Execute.
  Result<QueryResult> ExecuteParsed(const cypher::Query& q,
                                    const Params& params);

  NativeGraph* graph_;
  std::unique_ptr<lang::PlanCache<cypher::Query>> plan_cache_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_NATIVE_CYPHER_ENGINE_H_
