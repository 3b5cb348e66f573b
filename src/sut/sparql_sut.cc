#include "sut/sparql_sut.h"

namespace graphbench {

namespace {

std::string PersonIri(int64_t id) { return "person:" + std::to_string(id); }
std::string ForumIri(int64_t id) { return "forum:" + std::to_string(id); }
std::string PostIri(int64_t id) { return "post:" + std::to_string(id); }
std::string CommentIri(int64_t id) {
  return "comment:" + std::to_string(id);
}
std::string TagIri(int64_t id) { return "tag:" + std::to_string(id); }
std::string PlaceIri(int64_t id) { return "place:" + std::to_string(id); }
std::string OrgIri(int64_t id) { return "org:" + std::to_string(id); }

// The fixed read statement set: one text per statement, constants bound
// as $name parameters in literal positions (LIMIT included), so the
// engine's plan cache holds one plan per statement and a bound first
// name needs no quoting.
constexpr char kPointLookupSparql[] =
    "SELECT ?fn ?ln ?g ?b ?br ?ip WHERE { "
    "?p snb:id $person_id ; rdf:type snb:Person ; snb:firstName ?fn ; "
    "snb:lastName ?ln ; snb:gender ?g ; snb:birthday ?b ; "
    "snb:browserUsed ?br ; snb:locationIP ?ip }";
constexpr char kOneHopSparql[] =
    "SELECT ?fid ?fn ?ln WHERE { "
    "?p snb:id $person_id ; rdf:type snb:Person . ?p snb:knows ?f . "
    "?f snb:id ?fid ; snb:firstName ?fn ; snb:lastName ?ln }";
constexpr char kTwoHopSparql[] =
    "SELECT DISTINCT ?ffid WHERE { "
    "?p snb:id $person_id ; rdf:type snb:Person . ?p snb:knows ?f . "
    "?f snb:knows ?ff . FILTER(?ff != ?p) . ?ff snb:id ?ffid }";
constexpr char kShortestPathSparql[] =
    "SELECT (shortestPath(?a, ?b, snb:knows) AS ?len) WHERE { "
    "?a snb:id $from_id ; rdf:type snb:Person . "
    "?b snb:id $to_id ; rdf:type snb:Person }";
constexpr char kRecentPostsSparql[] =
    "SELECT ?pid ?content ?date WHERE { "
    "?p snb:id $person_id ; rdf:type snb:Person . "
    "?post snb:hasCreator ?p ; rdf:type snb:Post ; snb:id ?pid ; "
    "snb:content ?content ; snb:creationDate ?date } "
    "ORDER BY DESC(?date) LIMIT $limit";
constexpr char kFriendsWithNameSparql[] =
    "SELECT ?fid ?ln WHERE { ?p snb:id $person_id ; rdf:type snb:Person . "
    "?p snb:knows ?f . ?f snb:firstName $first_name ; snb:id ?fid ; "
    "snb:lastName ?ln } ORDER BY ?fid";
constexpr char kRepliesOfPostSparql[] =
    "SELECT ?cid ?content ?crid WHERE { "
    "?post snb:id $post_id ; rdf:type snb:Post . ?c snb:replyOf ?post . "
    "?c snb:id ?cid ; snb:content ?content ; snb:creationDate ?date . "
    "?c snb:hasCreator ?cr . ?cr snb:id ?crid } ORDER BY DESC(?date)";
constexpr char kTopPostersSparql[] =
    "SELECT ?pid (COUNT(?post) AS ?n) WHERE { "
    "?post rdf:type snb:Post . ?post snb:hasCreator ?cr . "
    "?cr snb:id ?pid } GROUP BY ?pid ORDER BY DESC(?n) ?pid LIMIT $limit";

}  // namespace

Status SparqlSut::AddPersonTriples(const snb::Person& p) {
  Term s = Term::Iri(PersonIri(p.id));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Person")));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:id", Term::Literal(Value(p.id))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:firstName", Term::Literal(Value(p.first_name))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:lastName", Term::Literal(Value(p.last_name))));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:gender", Term::Literal(Value(p.gender))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:birthday", Term::Literal(Value(p.birthday))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:creationDate", Term::Literal(Value(p.creation_date))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:browserUsed", Term::Literal(Value(p.browser))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:locationIP", Term::Literal(Value(p.location_ip))));
  return engine_.AddTriple(s, "snb:isLocatedIn",
                           Term::Iri(PlaceIri(p.city_id)));
}

Status SparqlSut::AddKnowsTriples(const snb::Knows& k) {
  // Both directions (§4.4 bi-directional fix).
  GB_RETURN_IF_ERROR(engine_.AddTriple(Term::Iri(PersonIri(k.person1)),
                                       "snb:knows",
                                       Term::Iri(PersonIri(k.person2))));
  return engine_.AddTriple(Term::Iri(PersonIri(k.person2)), "snb:knows",
                           Term::Iri(PersonIri(k.person1)));
}

Status SparqlSut::RemoveKnowsTriples(const snb::Knows& k) {
  // Both asserted directions go away, mirroring AddKnowsTriples.
  GB_RETURN_IF_ERROR(engine_.RemoveTriple(Term::Iri(PersonIri(k.person1)),
                                          "snb:knows",
                                          Term::Iri(PersonIri(k.person2))));
  return engine_.RemoveTriple(Term::Iri(PersonIri(k.person2)), "snb:knows",
                              Term::Iri(PersonIri(k.person1)));
}

Status SparqlSut::AddForumTriples(const snb::Forum& f) {
  Term s = Term::Iri(ForumIri(f.id));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Forum")));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:id", Term::Literal(Value(f.id))));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:title", Term::Literal(Value(f.title))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:creationDate", Term::Literal(Value(f.creation_date))));
  return engine_.AddTriple(s, "snb:hasModerator",
                           Term::Iri(PersonIri(f.moderator)));
}

Status SparqlSut::AddMemberTriples(const snb::ForumMember& m) {
  return engine_.AddTriple(Term::Iri(ForumIri(m.forum)), "snb:hasMember",
                           Term::Iri(PersonIri(m.person)));
}

Status SparqlSut::AddPostTriples(const snb::Post& p) {
  Term s = Term::Iri(PostIri(p.id));
  GB_RETURN_IF_ERROR(engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Post")));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:id", Term::Literal(Value(p.id))));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:content", Term::Literal(Value(p.content))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:creationDate", Term::Literal(Value(p.creation_date))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(s, "snb:hasCreator",
                                       Term::Iri(PersonIri(p.creator))));
  return engine_.AddTriple(Term::Iri(ForumIri(p.forum)), "snb:containerOf",
                           s);
}

Status SparqlSut::AddCommentTriples(const snb::Comment& c) {
  Term s = Term::Iri(CommentIri(c.id));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Comment")));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:id", Term::Literal(Value(c.id))));
  GB_RETURN_IF_ERROR(
      engine_.AddTriple(s, "snb:content", Term::Literal(Value(c.content))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(
      s, "snb:creationDate", Term::Literal(Value(c.creation_date))));
  GB_RETURN_IF_ERROR(engine_.AddTriple(s, "snb:hasCreator",
                                       Term::Iri(PersonIri(c.creator))));
  if (c.reply_of_post >= 0) {
    return engine_.AddTriple(s, "snb:replyOf",
                             Term::Iri(PostIri(c.reply_of_post)));
  }
  return engine_.AddTriple(s, "snb:replyOf",
                           Term::Iri(CommentIri(c.reply_of_comment)));
}

Status SparqlSut::AddLikeTriples(const snb::Like& l) {
  Term target = l.post >= 0 ? Term::Iri(PostIri(l.post))
                            : Term::Iri(CommentIri(l.comment));
  return engine_.AddTriple(Term::Iri(PersonIri(l.person)), "snb:likes",
                           target);
}

Status SparqlSut::DoLoad(const snb::Dataset& data) {
  if (plan_cache_enabled()) engine_.EnablePlanCache();
  for (const auto& pl : data.places) {
    Term s = Term::Iri(PlaceIri(pl.id));
    GB_RETURN_IF_ERROR(
        engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Place")));
    GB_RETURN_IF_ERROR(
        engine_.AddTriple(s, "snb:name", Term::Literal(Value(pl.name))));
  }
  for (const auto& t : data.tags) {
    Term s = Term::Iri(TagIri(t.id));
    GB_RETURN_IF_ERROR(engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Tag")));
    GB_RETURN_IF_ERROR(
        engine_.AddTriple(s, "snb:name", Term::Literal(Value(t.name))));
  }
  for (const auto& o : data.organisations) {
    Term s = Term::Iri(OrgIri(o.id));
    GB_RETURN_IF_ERROR(
        engine_.AddTriple(s, "rdf:type", Term::Iri("snb:Organisation")));
    GB_RETURN_IF_ERROR(
        engine_.AddTriple(s, "snb:name", Term::Literal(Value(o.name))));
  }
  for (const auto& p : data.persons) GB_RETURN_IF_ERROR(AddPersonTriples(p));
  for (const auto& k : data.knows) GB_RETURN_IF_ERROR(AddKnowsTriples(k));
  for (const auto& f : data.forums) GB_RETURN_IF_ERROR(AddForumTriples(f));
  for (const auto& m : data.members) GB_RETURN_IF_ERROR(AddMemberTriples(m));
  for (const auto& p : data.posts) GB_RETURN_IF_ERROR(AddPostTriples(p));
  for (const auto& c : data.comments) {
    GB_RETURN_IF_ERROR(AddCommentTriples(c));
  }
  for (const auto& l : data.likes) GB_RETURN_IF_ERROR(AddLikeTriples(l));
  for (const auto& pt : data.post_tags) {
    GB_RETURN_IF_ERROR(engine_.AddTriple(Term::Iri(PostIri(pt.post)),
                                         "snb:hasTag",
                                         Term::Iri(TagIri(pt.tag))));
  }
  for (const auto& s : data.study_at) {
    GB_RETURN_IF_ERROR(engine_.AddTriple(Term::Iri(PersonIri(s.person)),
                                         "snb:studyAt",
                                         Term::Iri(OrgIri(s.organisation))));
  }
  for (const auto& w : data.work_at) {
    GB_RETURN_IF_ERROR(engine_.AddTriple(Term::Iri(PersonIri(w.person)),
                                         "snb:workAt",
                                         Term::Iri(OrgIri(w.organisation))));
  }
  return Status::OK();
}

std::string SparqlSut::StatementText(std::string_view kind) const {
  if (kind == "point_lookup") return kPointLookupSparql;
  if (kind == "one_hop") return kOneHopSparql;
  if (kind == "two_hop") return kTwoHopSparql;
  if (kind == "recent_posts") return kRecentPostsSparql;
  return std::string();
}

Result<QueryResult> SparqlSut::DoPointLookup(int64_t person_id) {
  return engine_.Execute(kPointLookupSparql,
                         {{"person_id", Value(person_id)}});
}

Result<QueryResult> SparqlSut::DoOneHop(int64_t person_id) {
  return engine_.Execute(kOneHopSparql, {{"person_id", Value(person_id)}});
}

Result<QueryResult> SparqlSut::DoTwoHop(int64_t person_id) {
  return engine_.Execute(kTwoHopSparql, {{"person_id", Value(person_id)}});
}

Result<int> SparqlSut::DoShortestPathLen(int64_t from_person,
                                         int64_t to_person) {
  GB_ASSIGN_OR_RETURN(QueryResult r,
                      engine_.Execute(kShortestPathSparql,
                                      {{"from_id", Value(from_person)},
                                       {"to_id", Value(to_person)}}));
  if (r.rows.empty()) return Status::Internal("no shortest path row");
  return int(r.rows[0][0].as_int());
}

Result<QueryResult> SparqlSut::DoRecentPosts(int64_t person_id,
                                             int64_t limit) {
  return engine_.Execute(
      kRecentPostsSparql,
      {{"person_id", Value(person_id)}, {"limit", Value(limit)}});
}

Result<QueryResult> SparqlSut::DoFriendsWithName(
    int64_t person_id, const std::string& first_name) {
  return engine_.Execute(kFriendsWithNameSparql,
                         {{"person_id", Value(person_id)},
                          {"first_name", Value(first_name)}});
}

Result<QueryResult> SparqlSut::DoRepliesOfPost(int64_t post_id) {
  return engine_.Execute(kRepliesOfPostSparql, {{"post_id", Value(post_id)}});
}

Result<QueryResult> SparqlSut::DoTopPosters(int64_t limit) {
  return engine_.Execute(kTopPostersSparql, {{"limit", Value(limit)}});
}

Status SparqlSut::DoApply(const snb::UpdateOp& op) {
  using K = snb::UpdateOp::Kind;
  switch (op.kind) {
    case K::kAddPerson:
      return AddPersonTriples(op.person);
    case K::kAddFriendship:
      return AddKnowsTriples(op.knows);
    case K::kRemoveFriendship:
      return RemoveKnowsTriples(op.knows);
    case K::kAddForum:
      return AddForumTriples(op.forum);
    case K::kAddForumMember:
      return AddMemberTriples(op.member);
    case K::kAddPost:
      return AddPostTriples(op.post);
    case K::kAddComment:
      return AddCommentTriples(op.comment);
    case K::kAddLikePost:
    case K::kAddLikeComment:
      return AddLikeTriples(op.like);
  }
  return Status::InvalidArgument("unknown update kind");
}

}  // namespace graphbench
