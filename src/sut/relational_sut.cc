#include "sut/relational_sut.h"

namespace graphbench {

namespace {

// The fixed workload statement set: one text per statement, constants
// (LIMIT included) bound as `?` parameters, so the engine's plan cache
// holds one plan per statement.
constexpr char kPointLookupSql[] =
    "SELECT firstName, lastName, gender, birthday, browserUsed, "
    "locationIP FROM person WHERE id = ?";
constexpr char kOneHopSql[] =
    "SELECT p.id, p.firstName, p.lastName FROM knows k "
    "JOIN person p ON k.person2Id = p.id WHERE k.person1Id = ?";
constexpr char kTwoHopSql[] =
    "SELECT DISTINCT p.id FROM knows k1 "
    "JOIN knows k2 ON k1.person2Id = k2.person1Id "
    "JOIN person p ON k2.person2Id = p.id "
    "WHERE k1.person1Id = ? AND p.id <> ?";
constexpr char kShortestPathSql[] =
    "SELECT SHORTEST_PATH(?, ?) USING knows(person1Id, person2Id)";
constexpr char kRecentPostsSql[] =
    "SELECT p.id, p.content, p.creationDate FROM post p "
    "WHERE p.creatorId = ? ORDER BY p.creationDate DESC LIMIT ?";
constexpr char kFriendsWithNameSql[] =
    "SELECT p.id, p.lastName FROM knows k "
    "JOIN person p ON k.person2Id = p.id "
    "WHERE k.person1Id = ? AND p.firstName = ? ORDER BY p.id";
constexpr char kRepliesOfPostSql[] =
    "SELECT c.id, c.content, c.creatorId FROM comment c "
    "WHERE c.replyOfPost = ? ORDER BY c.creationDate DESC";
constexpr char kTopPostersSql[] =
    "SELECT p.creatorId, COUNT(*) AS n FROM post p "
    "GROUP BY p.creatorId ORDER BY n DESC, creatorId LIMIT ?";

constexpr char kInsertPersonSql[] =
    "INSERT INTO person (id, firstName, lastName, gender, "
    "birthday, creationDate, browserUsed, locationIP, cityId) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)";
constexpr char kInsertKnowsSql[] =
    "INSERT INTO knows (person1Id, person2Id, creationDate) "
    "VALUES (?, ?, ?)";
constexpr char kDeleteKnowsSql[] =
    "DELETE FROM knows WHERE person1Id = ? AND person2Id = ?";
constexpr char kInsertForumSql[] =
    "INSERT INTO forum (id, title, creationDate, moderatorId) "
    "VALUES (?, ?, ?, ?)";
constexpr char kInsertForumMemberSql[] =
    "INSERT INTO forum_member (forumId, personId, joinDate) "
    "VALUES (?, ?, ?)";
constexpr char kInsertPostSql[] =
    "INSERT INTO post (id, content, creationDate, creatorId, forumId, "
    "browserUsed) VALUES (?, ?, ?, ?, ?, ?)";
constexpr char kInsertCommentSql[] =
    "INSERT INTO comment (id, content, creationDate, creatorId, "
    "replyOfPost, replyOfComment) VALUES (?, ?, ?, ?, ?, ?)";
constexpr char kInsertLikePostSql[] =
    "INSERT INTO likes_post (personId, postId, creationDate) "
    "VALUES (?, ?, ?)";
constexpr char kInsertLikeCommentSql[] =
    "INSERT INTO likes_comment (personId, commentId, creationDate) "
    "VALUES (?, ?, ?)";

}  // namespace

RelationalSut::RelationalSut(StorageMode mode,
                             const storage::DurabilityOptions& durability)
    : Sut(mode == StorageMode::kRow ? SutKind::kPostgresSql
                                    : SutKind::kVirtuosoSql),
      db_(mode, durability) {}

Status RelationalSut::CreateSnbSchema(Database* db) {
  using T = Value::Type;
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "person",
      {{"id", T::kInt},       {"firstName", T::kString},
       {"lastName", T::kString}, {"gender", T::kString},
       {"birthday", T::kInt}, {"creationDate", T::kInt},
       {"browserUsed", T::kString}, {"locationIP", T::kString},
       {"cityId", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "knows", {{"person1Id", T::kInt},
                {"person2Id", T::kInt},
                {"creationDate", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "forum", {{"id", T::kInt},
                {"title", T::kString},
                {"creationDate", T::kInt},
                {"moderatorId", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "forum_member", {{"forumId", T::kInt},
                       {"personId", T::kInt},
                       {"joinDate", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "post", {{"id", T::kInt},
               {"content", T::kString},
               {"creationDate", T::kInt},
               {"creatorId", T::kInt},
               {"forumId", T::kInt},
               {"browserUsed", T::kString}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "comment", {{"id", T::kInt},
                  {"content", T::kString},
                  {"creationDate", T::kInt},
                  {"creatorId", T::kInt},
                  {"replyOfPost", T::kInt},
                  {"replyOfComment", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "likes_post", {{"personId", T::kInt},
                     {"postId", T::kInt},
                     {"creationDate", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "likes_comment", {{"personId", T::kInt},
                        {"commentId", T::kInt},
                        {"creationDate", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(
      TableSchema("tag", {{"id", T::kInt}, {"name", T::kString}})));
  GB_RETURN_IF_ERROR(db->CreateTable(
      TableSchema("post_tag", {{"postId", T::kInt}, {"tagId", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(
      TableSchema("place", {{"id", T::kInt}, {"name", T::kString}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "organisation",
      {{"id", T::kInt}, {"name", T::kString}, {"type", T::kString}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "study_at", {{"personId", T::kInt},
                   {"organisationId", T::kInt},
                   {"classYear", T::kInt}})));
  GB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "work_at", {{"personId", T::kInt},
                  {"organisationId", T::kInt},
                  {"workFrom", T::kInt}})));

  // Indexes on vertex-id columns only (the paper's fairness rule, §4.1):
  // primary ids plus edge-table columns holding vertex ids.
  GB_RETURN_IF_ERROR(db->CreateIndex("person", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("knows", "person1Id", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("knows", "person2Id", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("forum", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("post", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("post", "creatorId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("comment", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("comment", "replyOfPost", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("forum_member", "forumId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("forum_member", "personId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("likes_post", "postId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("likes_post", "personId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("likes_comment", "personId", false));
  GB_RETURN_IF_ERROR(db->CreateIndex("tag", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("place", "id", true));
  GB_RETURN_IF_ERROR(db->CreateIndex("organisation", "id", true));
  // The knows relation is declared as the graph edge set (columnar mode
  // builds its transitivity accelerator over it).
  GB_RETURN_IF_ERROR(db->RegisterEdgeTable("knows", "person1Id",
                                           "person2Id"));
  return Status::OK();
}

Status RelationalSut::DoLoad(const snb::Dataset& data) {
  if (plan_cache_enabled()) db_.EnablePlanCache();
  GB_RETURN_IF_ERROR(CreateSnbSchema(&db_));
  // Bulk load through the storage API (the vendor bulk loader path).
  for (const auto& p : data.persons) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("person",
                      {Value(p.id), Value(p.first_name),
                       Value(p.last_name), Value(p.gender),
                       Value(p.birthday), Value(p.creation_date),
                       Value(p.browser), Value(p.location_ip),
                       Value(p.city_id)})
            .status());
  }
  for (const auto& k : data.knows) {
    // Both directions (§4.4 fix).
    GB_RETURN_IF_ERROR(db_.InsertRow("knows", {Value(k.person1),
                                               Value(k.person2),
                                               Value(k.creation_date)})
                           .status());
    GB_RETURN_IF_ERROR(db_.InsertRow("knows", {Value(k.person2),
                                               Value(k.person1),
                                               Value(k.creation_date)})
                           .status());
  }
  for (const auto& f : data.forums) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("forum", {Value(f.id), Value(f.title),
                                Value(f.creation_date),
                                Value(f.moderator)})
            .status());
  }
  for (const auto& m : data.members) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("forum_member", {Value(m.forum), Value(m.person),
                                       Value(m.join_date)})
            .status());
  }
  for (const auto& p : data.posts) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("post", {Value(p.id), Value(p.content),
                               Value(p.creation_date), Value(p.creator),
                               Value(p.forum), Value(p.browser)})
            .status());
  }
  for (const auto& c : data.comments) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("comment",
                      {Value(c.id), Value(c.content),
                       Value(c.creation_date), Value(c.creator),
                       Value(c.reply_of_post), Value(c.reply_of_comment)})
            .status());
  }
  for (const auto& l : data.likes) {
    if (l.post >= 0) {
      GB_RETURN_IF_ERROR(
          db_.InsertRow("likes_post", {Value(l.person), Value(l.post),
                                       Value(l.creation_date)})
              .status());
    } else {
      GB_RETURN_IF_ERROR(
          db_.InsertRow("likes_comment", {Value(l.person), Value(l.comment),
                                          Value(l.creation_date)})
              .status());
    }
  }
  for (const auto& t : data.tags) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("tag", {Value(t.id), Value(t.name)}).status());
  }
  for (const auto& pt : data.post_tags) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("post_tag", {Value(pt.post), Value(pt.tag)})
            .status());
  }
  for (const auto& p : data.places) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("place", {Value(p.id), Value(p.name)}).status());
  }
  for (const auto& o : data.organisations) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("organisation",
                      {Value(o.id), Value(o.name), Value(o.type)})
            .status());
  }
  for (const auto& s : data.study_at) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("study_at", {Value(s.person), Value(s.organisation),
                                   Value(s.year)})
            .status());
  }
  for (const auto& w : data.work_at) {
    GB_RETURN_IF_ERROR(
        db_.InsertRow("work_at", {Value(w.person), Value(w.organisation),
                                  Value(w.year)})
            .status());
  }
  return Status::OK();
}

std::string RelationalSut::StatementText(std::string_view kind) const {
  if (kind == "point_lookup") return kPointLookupSql;
  if (kind == "one_hop") return kOneHopSql;
  if (kind == "two_hop") return kTwoHopSql;
  if (kind == "recent_posts") return kRecentPostsSql;
  return std::string();
}

Result<QueryResult> RelationalSut::DoPointLookup(int64_t person_id) {
  return db_.Execute(kPointLookupSql, {Value(person_id)});
}

Result<QueryResult> RelationalSut::DoOneHop(int64_t person_id) {
  return db_.Execute(kOneHopSql, {Value(person_id)});
}

Result<QueryResult> RelationalSut::DoTwoHop(int64_t person_id) {
  return db_.Execute(kTwoHopSql, {Value(person_id), Value(person_id)});
}

Result<int> RelationalSut::DoShortestPathLen(int64_t from_person,
                                             int64_t to_person) {
  GB_ASSIGN_OR_RETURN(
      QueryResult r,
      db_.Execute(kShortestPathSql, {Value(from_person), Value(to_person)}));
  if (r.rows.empty()) return Status::Internal("no shortest path row");
  return int(r.rows[0][0].as_int());
}

Result<QueryResult> RelationalSut::DoRecentPosts(int64_t person_id,
                                                 int64_t limit) {
  return db_.Execute(kRecentPostsSql, {Value(person_id), Value(limit)});
}

Result<QueryResult> RelationalSut::DoFriendsWithName(
    int64_t person_id, const std::string& first_name) {
  return db_.Execute(kFriendsWithNameSql,
                     {Value(person_id), Value(first_name)});
}

Result<QueryResult> RelationalSut::DoRepliesOfPost(int64_t post_id) {
  return db_.Execute(kRepliesOfPostSql, {Value(post_id)});
}

Result<QueryResult> RelationalSut::DoTopPosters(int64_t limit) {
  return db_.Execute(kTopPostersSql, {Value(limit)});
}

Status RelationalSut::DoApply(const snb::UpdateOp& op) {
  using K = snb::UpdateOp::Kind;
  auto run = [this](const char* text,
                    const std::vector<Value>& params) -> Status {
    return db_.Execute(text, params).status();
  };
  switch (op.kind) {
    case K::kAddPerson: {
      const auto& p = op.person;
      return run(kInsertPersonSql,
                 {Value(p.id), Value(p.first_name), Value(p.last_name),
                  Value(p.gender), Value(p.birthday), Value(p.creation_date),
                  Value(p.browser), Value(p.location_ip), Value(p.city_id)});
    }
    case K::kAddFriendship: {
      const auto& k = op.knows;
      GB_RETURN_IF_ERROR(run(kInsertKnowsSql,
                             {Value(k.person1), Value(k.person2),
                              Value(k.creation_date)}));
      return run(kInsertKnowsSql,
                 {Value(k.person2), Value(k.person1), Value(k.creation_date)});
    }
    case K::kRemoveFriendship: {
      // Both stored directions go away (§4.4's doubled knows relation).
      const auto& k = op.knows;
      GB_ASSIGN_OR_RETURN(
          QueryResult forward,
          db_.Execute(kDeleteKnowsSql, {Value(k.person1), Value(k.person2)}));
      GB_ASSIGN_OR_RETURN(
          QueryResult backward,
          db_.Execute(kDeleteKnowsSql, {Value(k.person2), Value(k.person1)}));
      if (forward.affected == 0 && backward.affected == 0) {
        return Status::NotFound("knows edge");
      }
      return Status::OK();
    }
    case K::kAddForum: {
      const auto& f = op.forum;
      return run(kInsertForumSql,
                 {Value(f.id), Value(f.title), Value(f.creation_date),
                  Value(f.moderator)});
    }
    case K::kAddForumMember: {
      const auto& m = op.member;
      return run(kInsertForumMemberSql,
                 {Value(m.forum), Value(m.person), Value(m.join_date)});
    }
    case K::kAddPost: {
      const auto& p = op.post;
      return run(kInsertPostSql,
                 {Value(p.id), Value(p.content), Value(p.creation_date),
                  Value(p.creator), Value(p.forum), Value(p.browser)});
    }
    case K::kAddComment: {
      const auto& c = op.comment;
      return run(kInsertCommentSql,
                 {Value(c.id), Value(c.content), Value(c.creation_date),
                  Value(c.creator), Value(c.reply_of_post),
                  Value(c.reply_of_comment)});
    }
    case K::kAddLikePost:
      return run(kInsertLikePostSql,
                 {Value(op.like.person), Value(op.like.post),
                  Value(op.like.creation_date)});
    case K::kAddLikeComment:
      return run(kInsertLikeCommentSql,
                 {Value(op.like.person), Value(op.like.comment),
                  Value(op.like.creation_date)});
  }
  return Status::InvalidArgument("unknown update kind");
}

}  // namespace graphbench
