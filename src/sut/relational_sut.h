#ifndef GRAPHBENCH_SUT_RELATIONAL_SUT_H_
#define GRAPHBENCH_SUT_RELATIONAL_SUT_H_

#include <string>

#include "engines/relational/database.h"
#include "snb/schema.h"
#include "sut/sut.h"

namespace graphbench {

/// SQL-over-RDBMS SUT: Postgres (row storage) or Virtuoso (columnar).
/// Each statement is one constant SQL text with `?` parameters, parsed
/// and planned per execution unless the plan cache is on; the knows
/// relation is stored in both directions, the fix the paper contributed to
/// the LDBC SQL reference implementation (§4.4).
class RelationalSut : public Sut {
 public:
  /// With `durability.enabled` (--durable), tables persist through the
  /// pager/WAL substrate.
  explicit RelationalSut(StorageMode mode,
                         const storage::DurabilityOptions& durability = {});

  uint64_t SizeBytes() const override { return db_.TotalSizeBytes(); }
  lang::PlanCacheStats plan_cache_stats() const override {
    return db_.plan_cache_stats();
  }
  std::string StatementText(std::string_view kind) const override;

  Database* database() { return &db_; }

  /// Creates the SNB relational schema (tables + vertex-id indexes) on a
  /// database; shared with the Sqlg SUT, which runs on the same schema.
  static Status CreateSnbSchema(Database* db);

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
  Database db_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_RELATIONAL_SUT_H_
