#ifndef GRAPHBENCH_SUT_CYPHER_SUT_H_
#define GRAPHBENCH_SUT_CYPHER_SUT_H_

#include <string>

#include "engines/native/cypher_engine.h"
#include "engines/native/native_graph.h"
#include "snb/schema.h"
#include "sut/sut.h"

namespace graphbench {

/// Neo4j (Cypher): the native graph store behind its declarative query
/// language. Reads and updates go through the Cypher parser/executor;
/// bulk loading uses the store's import API (neo4j-import analog), which
/// is why it posts the best single-loader ingest rates (Appendix A).
class CypherSut : public Sut {
 public:
  explicit CypherSut(NativeGraphOptions options = {});

  uint64_t SizeBytes() const override {
    return graph_.ApproximateSizeBytes();
  }
  lang::PlanCacheStats plan_cache_stats() const override {
    return engine_.plan_cache_stats();
  }
  std::string StatementText(std::string_view kind) const override;

  NativeGraph* graph() { return &graph_; }
  CypherEngine* engine() { return &engine_; }

 protected:
  Status DoLoad(const snb::Dataset& data) override;
  Result<QueryResult> DoPointLookup(int64_t person_id) override;
  Result<QueryResult> DoOneHop(int64_t person_id) override;
  Result<QueryResult> DoTwoHop(int64_t person_id) override;
  Result<int> DoShortestPathLen(int64_t from_person,
                                int64_t to_person) override;
  Result<QueryResult> DoRecentPosts(int64_t person_id,
                                    int64_t limit) override;
  Result<QueryResult> DoFriendsWithName(
      int64_t person_id, const std::string& first_name) override;
  Result<QueryResult> DoRepliesOfPost(int64_t post_id) override;
  Result<QueryResult> DoTopPosters(int64_t limit) override;
  Status DoApply(const snb::UpdateOp& op) override;

 private:
  NativeGraph graph_;
  CypherEngine engine_;
};

/// Loads the SNB snapshot into the native store via a bulk import (used by CypherSut; the Gremlin SUTs load through the structure
/// API instead). Creates the per-label unique id indexes first.
Status LoadSnbIntoNativeGraph(const snb::Dataset& data, NativeGraph* graph);

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_CYPHER_SUT_H_
