#ifndef GRAPHBENCH_SUT_GREMLIN_SUT_H_
#define GRAPHBENCH_SUT_GREMLIN_SUT_H_

#include <memory>
#include <string>

#include "engines/relational/database.h"
#include "snb/schema.h"
#include "storage/durability.h"
#include "sut/sut.h"
#include "tinkerpop/gremlin_server.h"
#include "tinkerpop/structure.h"

namespace graphbench {

/// Shared SUT for every TinkerPop3-compliant configuration
/// (Neo4j-Gremlin, Titan-C, Titan-B, Sqlg). Queries and updates are
/// traversals submitted through the Gremlin Server analog; bulk loading
/// goes through the structure API in embedded mode (the LDBC Gremlin
/// loading utilities of Appendix A).
class GremlinSut : public Sut {
 public:
  /// `kind` is one of the four TinkerPop configurations; `graph` is the
  /// provider; `extra` optionally owns provider dependencies (e.g. the
  /// Database under a SqlgProvider).
  GremlinSut(SutKind kind, std::unique_ptr<GremlinGraph> graph,
             GremlinServerOptions server_options = {},
             std::shared_ptr<void> extra = nullptr);

  /// Appendix A: load with `loaders` concurrent threads (vertices first,
  /// then edges, each phase split across threads).
  Status LoadConcurrent(const snb::Dataset& data, size_t loaders);

  uint64_t SizeBytes() const override {
    return graph_->ApproximateSizeBytes();
  }
  lang::PlanCacheStats plan_cache_stats() const override {
    return server_->plan_cache_stats();
  }

  GremlinGraph* graph() { return graph_.get(); }
  GremlinServer* server() { return server_.get(); }

  /// Loads vertices/edges via the structure API. `shard`/`num_shards`
  /// partition the work for concurrent loading.
  Status LoadVertices(const snb::Dataset& data, size_t shard,
                      size_t num_shards);
  Status LoadEdges(const snb::Dataset& data, size_t shard,
                   size_t num_shards);

 protected:
  /// With the plan cache enabled, first recreates the Gremlin Server with
  /// a bytecode→traversal cache (nothing is in flight before Load).
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
  /// One read round trip: `build` fills a traversal, the server runs it,
  /// and the flat result stream is reshaped into rows of
  /// `columns.size()` values.
  template <typename Build>
  Result<QueryResult> Query(std::vector<std::string> columns, Build&& build);
  Result<GVertex> FindOne(std::string_view label, int64_t id);

  std::shared_ptr<void> extra_;
  std::unique_ptr<GremlinGraph> graph_;
  // Kept so DoLoad can rebuild the server with the same sizing.
  GremlinServerOptions options_;
  std::unique_ptr<GremlinServer> server_;
  // Loader threads for the next DoLoad; only LoadConcurrent sets it.
  size_t loaders_ = 1;
};

/// Factory helpers for the four TinkerPop configurations. The server
/// options expose the Gremlin Server's worker/queue sizing for the §4.4
/// overload experiment.
std::unique_ptr<GremlinSut> MakeNeo4jGremlinSut(
    GremlinServerOptions server_options = {});
std::unique_ptr<GremlinSut> MakeTitanCSut(
    GremlinServerOptions server_options = {});
std::unique_ptr<GremlinSut> MakeTitanBSut(
    GremlinServerOptions server_options = {});
/// Durable Titan-B (--durable): the BerkeleyDB analog backed by
/// PagedBTreeKv over the pager/WAL substrate. Returns the open error when
/// the db/wal files cannot be opened or recovered.
Result<std::unique_ptr<GremlinSut>> MakeTitanBSut(
    const storage::DurabilityOptions& durability,
    GremlinServerOptions server_options = {});
std::unique_ptr<GremlinSut> MakeSqlgSut(
    GremlinServerOptions server_options = {});

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_GREMLIN_SUT_H_
