#include "sut/cypher_sut.h"

#include <unordered_map>

namespace graphbench {

namespace {

/// Vertex labels and edge types of the SNB property-graph mapping, shared
/// by the native and Gremlin loaders.
constexpr const char* kVertexLabels[] = {"Person",       "Forum",
                                         "Post",         "Comment",
                                         "Tag",          "Place",
                                         "Organisation"};

// The fixed read statement set: one text per statement, constants (LIMIT
// included) bound as $parameters, so the engine's plan cache holds one
// plan per statement.
constexpr char kPointLookupCypher[] =
    "MATCH (p:Person {id: $id}) RETURN p.firstName, p.lastName, "
    "p.gender, p.birthday, p.browserUsed, p.locationIP";
constexpr char kOneHopCypher[] =
    "MATCH (p:Person {id: $id})-[:knows]-(f) "
    "RETURN f.id, f.firstName, f.lastName";
constexpr char kTwoHopCypher[] =
    "MATCH (p:Person {id: $id})-[:knows]-(f)-[:knows]-(ff) "
    "WHERE ff.id <> $id RETURN DISTINCT ff.id";
constexpr char kShortestPathCypher[] =
    "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
    "RETURN length(shortestPath((a)-[:knows*]-(b))) AS len";
constexpr char kRecentPostsCypher[] =
    "MATCH (p:Person {id: $id})<-[:postHasCreator]-(post) "
    "RETURN post.id, post.content, post.creationDate "
    "ORDER BY post.creationDate DESC LIMIT $limit";
constexpr char kFriendsWithNameCypher[] =
    "MATCH (p:Person {id: $id})-[:knows]-(f) WHERE f.firstName = $name "
    "RETURN f.id, f.lastName ORDER BY f.id";
constexpr char kRepliesOfPostCypher[] =
    "MATCH (post:Post {id: $id})<-[:replyOfPost]-(c)"
    "-[:commentHasCreator]->(cr) "
    "RETURN c.id, c.content, cr.id "
    "ORDER BY c.creationDate DESC";
constexpr char kTopPostersCypher[] =
    "MATCH (post:Post)-[:postHasCreator]->(p) "
    "RETURN p.id, count(*) AS n "
    "ORDER BY count(*) DESC, p.id LIMIT $limit";

}  // namespace

Status LoadSnbIntoNativeGraph(const snb::Dataset& data, NativeGraph* graph) {
  for (const char* label : kVertexLabels) {
    GB_RETURN_IF_ERROR(graph->CreateUniqueIndex(label, "id"));
  }
  std::unordered_map<int64_t, VertexId> persons, forums, posts, comments,
      tags, places, orgs;

  for (const auto& p : data.persons) {
    GB_ASSIGN_OR_RETURN(
        VertexId v,
        graph->AddVertex(
            "Person",
            {{"id", Value(p.id)},
             {"firstName", Value(p.first_name)},
             {"lastName", Value(p.last_name)},
             {"gender", Value(p.gender)},
             {"birthday", Value(p.birthday)},
             {"creationDate", Value(p.creation_date)},
             {"browserUsed", Value(p.browser)},
             {"locationIP", Value(p.location_ip)}}));
    persons[p.id] = v;
  }
  for (const auto& pl : data.places) {
    GB_ASSIGN_OR_RETURN(VertexId v,
                        graph->AddVertex("Place", {{"id", Value(pl.id)},
                                                   {"name", Value(pl.name)}}));
    places[pl.id] = v;
  }
  for (const auto& t : data.tags) {
    GB_ASSIGN_OR_RETURN(VertexId v,
                        graph->AddVertex("Tag", {{"id", Value(t.id)},
                                                 {"name", Value(t.name)}}));
    tags[t.id] = v;
  }
  for (const auto& o : data.organisations) {
    GB_ASSIGN_OR_RETURN(
        VertexId v, graph->AddVertex("Organisation",
                                     {{"id", Value(o.id)},
                                      {"name", Value(o.name)},
                                      {"type", Value(o.type)}}));
    orgs[o.id] = v;
  }
  for (const auto& f : data.forums) {
    GB_ASSIGN_OR_RETURN(
        VertexId v,
        graph->AddVertex("Forum", {{"id", Value(f.id)},
                                   {"title", Value(f.title)},
                                   {"creationDate", Value(f.creation_date)}}));
    forums[f.id] = v;
    GB_RETURN_IF_ERROR(
        graph->AddEdge("hasModerator", v, persons.at(f.moderator), {})
            .status());
  }
  for (const auto& p : data.posts) {
    GB_ASSIGN_OR_RETURN(
        VertexId v,
        graph->AddVertex("Post", {{"id", Value(p.id)},
                                  {"content", Value(p.content)},
                                  {"creationDate", Value(p.creation_date)},
                                  {"browserUsed", Value(p.browser)}}));
    posts[p.id] = v;
    GB_RETURN_IF_ERROR(
        graph->AddEdge("postHasCreator", v, persons.at(p.creator), {}).status());
    GB_RETURN_IF_ERROR(
        graph->AddEdge("containerOf", forums.at(p.forum), v, {}).status());
  }
  for (const auto& c : data.comments) {
    GB_ASSIGN_OR_RETURN(
        VertexId v,
        graph->AddVertex("Comment",
                         {{"id", Value(c.id)},
                          {"content", Value(c.content)},
                          {"creationDate", Value(c.creation_date)}}));
    comments[c.id] = v;
    GB_RETURN_IF_ERROR(
        graph->AddEdge("commentHasCreator", v, persons.at(c.creator), {}).status());
    if (c.reply_of_post >= 0) {
      GB_RETURN_IF_ERROR(
          graph->AddEdge("replyOfPost", v, posts.at(c.reply_of_post), {})
              .status());
    } else {
      GB_RETURN_IF_ERROR(
          graph->AddEdge("replyOfComment", v, comments.at(c.reply_of_comment), {})
              .status());
    }
  }
  for (const auto& k : data.knows) {
    GB_RETURN_IF_ERROR(
        graph->AddEdge("knows", persons.at(k.person1), persons.at(k.person2),
                       {{"creationDate", Value(k.creation_date)}})
            .status());
  }
  for (const auto& m : data.members) {
    GB_RETURN_IF_ERROR(
        graph->AddEdge("hasMember", forums.at(m.forum),
                       persons.at(m.person),
                       {{"joinDate", Value(m.join_date)}})
            .status());
  }
  for (const auto& l : data.likes) {
    VertexId target = l.post >= 0 ? posts.at(l.post)
                                  : comments.at(l.comment);
    const char* like_label = l.post >= 0 ? "likesPost" : "likesComment";
    GB_RETURN_IF_ERROR(
        graph->AddEdge(like_label, persons.at(l.person), target,
                       {{"creationDate", Value(l.creation_date)}})
            .status());
  }
  for (const auto& pt : data.post_tags) {
    GB_RETURN_IF_ERROR(
        graph->AddEdge("hasTag", posts.at(pt.post), tags.at(pt.tag), {})
            .status());
  }
  for (const auto& p : data.persons) {
    GB_RETURN_IF_ERROR(graph->AddEdge("isLocatedIn", persons.at(p.id),
                                      places.at(p.city_id), {})
                           .status());
  }
  for (const auto& s : data.study_at) {
    GB_RETURN_IF_ERROR(graph->AddEdge("studyAt", persons.at(s.person),
                                      orgs.at(s.organisation),
                                      {{"classYear", Value(s.year)}})
                           .status());
  }
  for (const auto& w : data.work_at) {
    GB_RETURN_IF_ERROR(graph->AddEdge("workAt", persons.at(w.person),
                                      orgs.at(w.organisation),
                                      {{"workFrom", Value(w.year)}})
                           .status());
  }
  return Status::OK();
}

CypherSut::CypherSut(NativeGraphOptions options)
    : Sut(SutKind::kNeo4jCypher), graph_(options), engine_(&graph_) {}

Status CypherSut::DoLoad(const snb::Dataset& data) {
  if (plan_cache_enabled()) engine_.EnablePlanCache();
  return LoadSnbIntoNativeGraph(data, &graph_);
}

std::string CypherSut::StatementText(std::string_view kind) const {
  if (kind == "point_lookup") return kPointLookupCypher;
  if (kind == "one_hop") return kOneHopCypher;
  if (kind == "two_hop") return kTwoHopCypher;
  if (kind == "recent_posts") return kRecentPostsCypher;
  return std::string();
}

Result<QueryResult> CypherSut::DoPointLookup(int64_t person_id) {
  return engine_.Execute(kPointLookupCypher, {{"id", Value(person_id)}});
}

Result<QueryResult> CypherSut::DoOneHop(int64_t person_id) {
  return engine_.Execute(kOneHopCypher, {{"id", Value(person_id)}});
}

Result<QueryResult> CypherSut::DoTwoHop(int64_t person_id) {
  return engine_.Execute(kTwoHopCypher, {{"id", Value(person_id)}});
}

Result<int> CypherSut::DoShortestPathLen(int64_t from_person,
                                         int64_t to_person) {
  GB_ASSIGN_OR_RETURN(
      QueryResult r,
      engine_.Execute(kShortestPathCypher,
                      {{"a", Value(from_person)}, {"b", Value(to_person)}}));
  if (r.rows.empty()) return Status::Internal("no shortest path row");
  return int(r.rows[0][0].as_int());
}

Result<QueryResult> CypherSut::DoRecentPosts(int64_t person_id,
                                             int64_t limit) {
  return engine_.Execute(kRecentPostsCypher,
                         {{"id", Value(person_id)}, {"limit", Value(limit)}});
}

Result<QueryResult> CypherSut::DoFriendsWithName(
    int64_t person_id, const std::string& first_name) {
  return engine_.Execute(
      kFriendsWithNameCypher,
      {{"id", Value(person_id)}, {"name", Value(first_name)}});
}

Result<QueryResult> CypherSut::DoRepliesOfPost(int64_t post_id) {
  return engine_.Execute(kRepliesOfPostCypher, {{"id", Value(post_id)}});
}

Result<QueryResult> CypherSut::DoTopPosters(int64_t limit) {
  return engine_.Execute(kTopPostersCypher, {{"limit", Value(limit)}});
}

Status CypherSut::DoApply(const snb::UpdateOp& op) {
  using K = snb::UpdateOp::Kind;
  switch (op.kind) {
    case K::kAddPerson: {
      const auto& p = op.person;
      return engine_
          .Execute("CREATE (p:Person {id: $id, firstName: $fn, "
                   "lastName: $ln, gender: $g, birthday: $b, "
                   "creationDate: $cd, browserUsed: $br, "
                   "locationIP: $ip})",
                   {{"id", Value(p.id)},
                    {"fn", Value(p.first_name)},
                    {"ln", Value(p.last_name)},
                    {"g", Value(p.gender)},
                    {"b", Value(p.birthday)},
                    {"cd", Value(p.creation_date)},
                    {"br", Value(p.browser)},
                    {"ip", Value(p.location_ip)}})
          .status();
    }
    case K::kAddFriendship:
      return engine_
          .Execute("MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
                   "CREATE (a)-[:knows {creationDate: $cd}]->(b)",
                   {{"a", Value(op.knows.person1)},
                    {"b", Value(op.knows.person2)},
                    {"cd", Value(op.knows.creation_date)}})
          .status();
    case K::kRemoveFriendship: {
      // Cypher has no DELETE in this engine; unfriending goes through the
      // store's structure API, the same records MATCH/CREATE touch.
      GB_ASSIGN_OR_RETURN(
          VertexId a,
          graph_.FindVertex("Person", "id", Value(op.knows.person1)));
      GB_ASSIGN_OR_RETURN(
          VertexId b,
          graph_.FindVertex("Person", "id", Value(op.knows.person2)));
      return graph_.RemoveEdge("knows", a, b);
    }
    case K::kAddForum:
      GB_RETURN_IF_ERROR(
          engine_
              .Execute("CREATE (f:Forum {id: $id, title: $t, "
                       "creationDate: $cd})",
                       {{"id", Value(op.forum.id)},
                        {"t", Value(op.forum.title)},
                        {"cd", Value(op.forum.creation_date)}})
              .status());
      return engine_
          .Execute("MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "
                   "CREATE (f)-[:hasModerator]->(p)",
                   {{"f", Value(op.forum.id)},
                    {"p", Value(op.forum.moderator)}})
          .status();
    case K::kAddForumMember:
      return engine_
          .Execute("MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "
                   "CREATE (f)-[:hasMember {joinDate: $jd}]->(p)",
                   {{"f", Value(op.member.forum)},
                    {"p", Value(op.member.person)},
                    {"jd", Value(op.member.join_date)}})
          .status();
    case K::kAddPost: {
      const auto& p = op.post;
      GB_RETURN_IF_ERROR(
          engine_
              .Execute("CREATE (post:Post {id: $id, content: $c, "
                       "creationDate: $cd, browserUsed: $br})",
                       {{"id", Value(p.id)},
                        {"c", Value(p.content)},
                        {"cd", Value(p.creation_date)},
                        {"br", Value(p.browser)}})
              .status());
      GB_RETURN_IF_ERROR(
          engine_
              .Execute("MATCH (post:Post {id: $post}), "
                       "(p:Person {id: $p}) "
                       "CREATE (post)-[:postHasCreator]->(p)",
                       {{"post", Value(p.id)}, {"p", Value(p.creator)}})
              .status());
      return engine_
          .Execute("MATCH (f:Forum {id: $f}), (post:Post {id: $post}) "
                   "CREATE (f)-[:containerOf]->(post)",
                   {{"f", Value(p.forum)}, {"post", Value(p.id)}})
          .status();
    }
    case K::kAddComment: {
      const auto& c = op.comment;
      GB_RETURN_IF_ERROR(
          engine_
              .Execute("CREATE (c:Comment {id: $id, content: $c, "
                       "creationDate: $cd})",
                       {{"id", Value(c.id)},
                        {"c", Value(c.content)},
                        {"cd", Value(c.creation_date)}})
              .status());
      GB_RETURN_IF_ERROR(
          engine_
              .Execute("MATCH (c:Comment {id: $c}), (p:Person {id: $p}) "
                       "CREATE (c)-[:commentHasCreator]->(p)",
                       {{"c", Value(c.id)}, {"p", Value(c.creator)}})
              .status());
      if (c.reply_of_post >= 0) {
        return engine_
            .Execute("MATCH (c:Comment {id: $c}), (post:Post {id: $p}) "
                     "CREATE (c)-[:replyOfPost]->(post)",
                     {{"c", Value(c.id)}, {"p", Value(c.reply_of_post)}})
            .status();
      }
      return engine_
          .Execute("MATCH (c:Comment {id: $c}), (pc:Comment {id: $p}) "
                   "CREATE (c)-[:replyOfComment]->(pc)",
                   {{"c", Value(c.id)}, {"p", Value(c.reply_of_comment)}})
          .status();
    }
    case K::kAddLikePost:
      return engine_
          .Execute("MATCH (p:Person {id: $p}), (post:Post {id: $t}) "
                   "CREATE (p)-[:likesPost {creationDate: $cd}]->(post)",
                   {{"p", Value(op.like.person)},
                    {"t", Value(op.like.post)},
                    {"cd", Value(op.like.creation_date)}})
          .status();
    case K::kAddLikeComment:
      return engine_
          .Execute("MATCH (p:Person {id: $p}), (c:Comment {id: $t}) "
                   "CREATE (p)-[:likesComment {creationDate: $cd}]->(c)",
                   {{"p", Value(op.like.person)},
                    {"t", Value(op.like.comment)},
                    {"cd", Value(op.like.creation_date)}})
          .status();
  }
  return Status::InvalidArgument("unknown update kind");
}

}  // namespace graphbench
