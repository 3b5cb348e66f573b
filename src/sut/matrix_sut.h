#ifndef GRAPHBENCH_SUT_MATRIX_SUT_H_
#define GRAPHBENCH_SUT_MATRIX_SUT_H_

#include <string>

#include "engines/matrix/matrix_engine.h"
#include "snb/schema.h"
#include "sut/sut.h"

namespace graphbench {

/// Matrix (GraphBLAS): the ninth configuration — the graph as a sparse
/// boolean adjacency matrix with queries as linear-algebra kernels, the
/// RedisGraph design point the paper's taxonomy omits. There is no query
/// language in front of the engine: each benchmark query maps directly to
/// a matrix or column-table operation, which is what makes this column the
/// raw-speed bar for the k-hop reads (ROADMAP: "Ninth SUT"). With no
/// statement text to prepare, the plan-cache flag changes nothing here.
class MatrixSut : public Sut {
 public:
  explicit MatrixSut(MatrixEngineOptions options = {})
      : Sut(SutKind::kMatrix), engine_(options) {}

  uint64_t SizeBytes() const override { return engine_.SizeBytes(); }

  MatrixStats matrix_stats() const { return engine_.stats(); }

 protected:
  Status DoLoad(const snb::Dataset& data) override {
    return engine_.Load(data);
  }
  Result<QueryResult> DoPointLookup(int64_t person_id) override {
    return engine_.PointLookup(person_id);
  }
  Result<QueryResult> DoOneHop(int64_t person_id) override {
    return engine_.OneHop(person_id);
  }
  Result<QueryResult> DoTwoHop(int64_t person_id) override {
    return engine_.TwoHop(person_id);
  }
  Result<int> DoShortestPathLen(int64_t from_person,
                                int64_t to_person) override {
    return engine_.ShortestPathLen(from_person, to_person);
  }
  Result<QueryResult> DoRecentPosts(int64_t person_id,
                                    int64_t limit) override {
    return engine_.RecentPosts(person_id, limit);
  }
  Result<QueryResult> DoFriendsWithName(
      int64_t person_id, const std::string& first_name) override {
    return engine_.FriendsWithName(person_id, first_name);
  }
  Result<QueryResult> DoRepliesOfPost(int64_t post_id) override {
    return engine_.RepliesOfPost(post_id);
  }
  Result<QueryResult> DoTopPosters(int64_t limit) override {
    return engine_.TopPosters(limit);
  }
  Status DoApply(const snb::UpdateOp& op) override {
    return engine_.Apply(op);
  }

 private:
  MatrixEngine engine_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_MATRIX_SUT_H_
