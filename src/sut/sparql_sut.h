#ifndef GRAPHBENCH_SUT_SPARQL_SUT_H_
#define GRAPHBENCH_SUT_SPARQL_SUT_H_

#include <string>

#include "engines/rdf/rdf_engine.h"
#include "snb/schema.h"
#include "sut/sut.h"

namespace graphbench {

/// Virtuoso (SPARQL): the RDF-store configuration. The SNB graph maps to
/// triples (edge properties are dropped — plain RDF has no edge
/// attributes without reification; none of the benchmark queries read
/// them). The knows relation is asserted in both directions, matching the
/// bi-directional-edge fix (§4.4). Each read is one constant SPARQL text
/// with $name parameters in literal positions (LIMIT $limit included),
/// translated per execution by default; with the plan cache enabled the
/// engine looks the parsed query up by text and binds only (DESIGN.md §8).
class SparqlSut : public Sut {
 public:
  explicit SparqlSut(int num_indexes = 4)
      : Sut(SutKind::kVirtuosoSparql), engine_(num_indexes) {}

  uint64_t SizeBytes() const override {
    return engine_.ApproximateSizeBytes();
  }
  lang::PlanCacheStats plan_cache_stats() const override {
    return engine_.plan_cache_stats();
  }
  std::string StatementText(std::string_view kind) const override;

  RdfEngine* engine() { return &engine_; }

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
  // Triple helpers for the SNB mapping.
  Status AddPersonTriples(const snb::Person& p);
  Status AddKnowsTriples(const snb::Knows& k);
  Status AddForumTriples(const snb::Forum& f);
  Status AddMemberTriples(const snb::ForumMember& m);
  Status AddPostTriples(const snb::Post& p);
  Status AddCommentTriples(const snb::Comment& c);
  Status AddLikeTriples(const snb::Like& l);
  Status RemoveKnowsTriples(const snb::Knows& k);

  RdfEngine engine_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_SPARQL_SUT_H_
