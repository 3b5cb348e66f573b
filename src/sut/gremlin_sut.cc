#include "sut/gremlin_sut.h"

#include <thread>

#include "engines/native/native_graph.h"
#include "engines/titan/titan_graph.h"
#include "obs/profiler.h"
#include "kv/btree_kv.h"
#include "kv/lsm_kv.h"
#include "kv/paged_btree_kv.h"
#include "providers/native_provider.h"
#include "providers/sqlg_provider.h"
#include "sut/relational_sut.h"

namespace graphbench {

GremlinSut::GremlinSut(SutKind kind, std::unique_ptr<GremlinGraph> graph,
                       GremlinServerOptions server_options,
                       std::shared_ptr<void> extra)
    : Sut(kind, Facade::kNoApplyBatch),
      extra_(std::move(extra)),
      graph_(std::move(graph)),
      options_(server_options),
      server_(std::make_unique<GremlinServer>(graph_.get(), options_)) {}

Status GremlinSut::LoadVertices(const snb::Dataset& data, size_t shard,
                                size_t num_shards) {
  auto mine = [&](size_t i) { return i % num_shards == shard; };
  for (size_t i = 0; i < data.places.size(); ++i) {
    if (!mine(i)) continue;
    const auto& pl = data.places[i];
    GB_RETURN_IF_ERROR(graph_
                           ->AddVertex("Place", {{"id", Value(pl.id)},
                                                 {"name", Value(pl.name)}})
                           .status());
  }
  for (size_t i = 0; i < data.tags.size(); ++i) {
    if (!mine(i)) continue;
    const auto& t = data.tags[i];
    GB_RETURN_IF_ERROR(graph_
                           ->AddVertex("Tag", {{"id", Value(t.id)},
                                               {"name", Value(t.name)}})
                           .status());
  }
  for (size_t i = 0; i < data.organisations.size(); ++i) {
    if (!mine(i)) continue;
    const auto& o = data.organisations[i];
    GB_RETURN_IF_ERROR(graph_
                           ->AddVertex("Organisation",
                                       {{"id", Value(o.id)},
                                        {"name", Value(o.name)},
                                        {"type", Value(o.type)}})
                           .status());
  }
  for (size_t i = 0; i < data.persons.size(); ++i) {
    if (!mine(i)) continue;
    const auto& p = data.persons[i];
    GB_RETURN_IF_ERROR(
        graph_
            ->AddVertex("Person",
                        {{"id", Value(p.id)},
                         {"firstName", Value(p.first_name)},
                         {"lastName", Value(p.last_name)},
                         {"gender", Value(p.gender)},
                         {"birthday", Value(p.birthday)},
                         {"creationDate", Value(p.creation_date)},
                         {"browserUsed", Value(p.browser)},
                         {"locationIP", Value(p.location_ip)},
                         {"cityId", Value(p.city_id)}})
            .status());
  }
  for (size_t i = 0; i < data.forums.size(); ++i) {
    if (!mine(i)) continue;
    const auto& f = data.forums[i];
    GB_RETURN_IF_ERROR(
        graph_
            ->AddVertex("Forum",
                        {{"id", Value(f.id)},
                         {"title", Value(f.title)},
                         {"creationDate", Value(f.creation_date)},
                         {"moderatorId", Value(f.moderator)}})
            .status());
  }
  for (size_t i = 0; i < data.posts.size(); ++i) {
    if (!mine(i)) continue;
    const auto& p = data.posts[i];
    GB_RETURN_IF_ERROR(
        graph_
            ->AddVertex("Post",
                        {{"id", Value(p.id)},
                         {"content", Value(p.content)},
                         {"creationDate", Value(p.creation_date)},
                         {"creatorId", Value(p.creator)},
                         {"forumId", Value(p.forum)},
                         {"browserUsed", Value(p.browser)}})
            .status());
  }
  for (size_t i = 0; i < data.comments.size(); ++i) {
    if (!mine(i)) continue;
    const auto& c = data.comments[i];
    GB_RETURN_IF_ERROR(
        graph_
            ->AddVertex("Comment",
                        {{"id", Value(c.id)},
                         {"content", Value(c.content)},
                         {"creationDate", Value(c.creation_date)},
                         {"creatorId", Value(c.creator)},
                         {"replyOfPost", Value(c.reply_of_post)},
                         {"replyOfComment", Value(c.reply_of_comment)}})
            .status());
  }
  return Status::OK();
}

Result<GVertex> GremlinSut::FindOne(std::string_view label, int64_t id) {
  GB_ASSIGN_OR_RETURN(std::vector<GVertex> found,
                      graph_->VerticesByProperty(label, "id", Value(id)));
  if (found.empty()) {
    return Status::NotFound(std::string(label) + " " + std::to_string(id));
  }
  return found.front();
}

Status GremlinSut::LoadEdges(const snb::Dataset& data, size_t shard,
                             size_t num_shards) {
  auto mine = [&](size_t i) { return i % num_shards == shard; };
  // Endpoints are resolved through the id index per edge — the LDBC
  // Gremlin loader's access pattern.
  for (size_t i = 0; i < data.knows.size(); ++i) {
    if (!mine(i)) continue;
    const auto& k = data.knows[i];
    GB_ASSIGN_OR_RETURN(GVertex a, FindOne("Person", k.person1));
    GB_ASSIGN_OR_RETURN(GVertex b, FindOne("Person", k.person2));
    GB_RETURN_IF_ERROR(graph_->AddEdge(
        "knows", a, b, {{"creationDate", Value(k.creation_date)}}));
  }
  for (size_t i = 0; i < data.forums.size(); ++i) {
    if (!mine(i)) continue;
    const auto& f = data.forums[i];
    GB_ASSIGN_OR_RETURN(GVertex forum, FindOne("Forum", f.id));
    GB_ASSIGN_OR_RETURN(GVertex mod, FindOne("Person", f.moderator));
    GB_RETURN_IF_ERROR(graph_->AddEdge("hasModerator", forum, mod, {}));
  }
  for (size_t i = 0; i < data.members.size(); ++i) {
    if (!mine(i)) continue;
    const auto& m = data.members[i];
    GB_ASSIGN_OR_RETURN(GVertex forum, FindOne("Forum", m.forum));
    GB_ASSIGN_OR_RETURN(GVertex person, FindOne("Person", m.person));
    GB_RETURN_IF_ERROR(graph_->AddEdge("hasMember", forum, person,
                                       {{"joinDate", Value(m.join_date)}}));
  }
  for (size_t i = 0; i < data.posts.size(); ++i) {
    if (!mine(i)) continue;
    const auto& p = data.posts[i];
    GB_ASSIGN_OR_RETURN(GVertex post, FindOne("Post", p.id));
    GB_ASSIGN_OR_RETURN(GVertex creator, FindOne("Person", p.creator));
    GB_ASSIGN_OR_RETURN(GVertex forum, FindOne("Forum", p.forum));
    GB_RETURN_IF_ERROR(graph_->AddEdge("postHasCreator", post, creator, {}));
    GB_RETURN_IF_ERROR(graph_->AddEdge("containerOf", forum, post, {}));
  }
  for (size_t i = 0; i < data.comments.size(); ++i) {
    if (!mine(i)) continue;
    const auto& c = data.comments[i];
    GB_ASSIGN_OR_RETURN(GVertex comment, FindOne("Comment", c.id));
    GB_ASSIGN_OR_RETURN(GVertex creator, FindOne("Person", c.creator));
    GB_RETURN_IF_ERROR(
        graph_->AddEdge("commentHasCreator", comment, creator, {}));
    if (c.reply_of_post >= 0) {
      GB_ASSIGN_OR_RETURN(GVertex post, FindOne("Post", c.reply_of_post));
      GB_RETURN_IF_ERROR(graph_->AddEdge("replyOfPost", comment, post, {}));
    } else {
      GB_ASSIGN_OR_RETURN(GVertex parent,
                          FindOne("Comment", c.reply_of_comment));
      GB_RETURN_IF_ERROR(
          graph_->AddEdge("replyOfComment", comment, parent, {}));
    }
  }
  for (size_t i = 0; i < data.likes.size(); ++i) {
    if (!mine(i)) continue;
    const auto& l = data.likes[i];
    GB_ASSIGN_OR_RETURN(GVertex person, FindOne("Person", l.person));
    if (l.post >= 0) {
      GB_ASSIGN_OR_RETURN(GVertex post, FindOne("Post", l.post));
      GB_RETURN_IF_ERROR(
          graph_->AddEdge("likesPost", person, post,
                          {{"creationDate", Value(l.creation_date)}}));
    } else {
      GB_ASSIGN_OR_RETURN(GVertex comment, FindOne("Comment", l.comment));
      GB_RETURN_IF_ERROR(
          graph_->AddEdge("likesComment", person, comment,
                          {{"creationDate", Value(l.creation_date)}}));
    }
  }
  for (size_t i = 0; i < data.post_tags.size(); ++i) {
    if (!mine(i)) continue;
    const auto& pt = data.post_tags[i];
    GB_ASSIGN_OR_RETURN(GVertex post, FindOne("Post", pt.post));
    GB_ASSIGN_OR_RETURN(GVertex tag, FindOne("Tag", pt.tag));
    GB_RETURN_IF_ERROR(graph_->AddEdge("hasTag", post, tag, {}));
  }
  for (size_t i = 0; i < data.persons.size(); ++i) {
    if (!mine(i)) continue;
    const auto& p = data.persons[i];
    GB_ASSIGN_OR_RETURN(GVertex person, FindOne("Person", p.id));
    GB_ASSIGN_OR_RETURN(GVertex place, FindOne("Place", p.city_id));
    GB_RETURN_IF_ERROR(graph_->AddEdge("isLocatedIn", person, place, {}));
  }
  for (size_t i = 0; i < data.study_at.size(); ++i) {
    if (!mine(i)) continue;
    const auto& s = data.study_at[i];
    GB_ASSIGN_OR_RETURN(GVertex person, FindOne("Person", s.person));
    GB_ASSIGN_OR_RETURN(GVertex org, FindOne("Organisation",
                                             s.organisation));
    GB_RETURN_IF_ERROR(graph_->AddEdge("studyAt", person, org,
                                       {{"classYear", Value(s.year)}}));
  }
  for (size_t i = 0; i < data.work_at.size(); ++i) {
    if (!mine(i)) continue;
    const auto& w = data.work_at[i];
    GB_ASSIGN_OR_RETURN(GVertex person, FindOne("Person", w.person));
    GB_ASSIGN_OR_RETURN(GVertex org, FindOne("Organisation",
                                             w.organisation));
    GB_RETURN_IF_ERROR(graph_->AddEdge("workAt", person, org,
                                       {{"workFrom", Value(w.year)}}));
  }
  return Status::OK();
}

Status GremlinSut::DoLoad(const snb::Dataset& data) {
  if (plan_cache_enabled()) {
    options_.plan_cache_capacity = lang::kDefaultPlanCacheCapacity;
    server_ = std::make_unique<GremlinServer>(graph_.get(), options_);
  }
  std::vector<Status> statuses(loaders_);
  auto run_phase = [&](bool vertices) -> Status {
    std::vector<std::thread> threads;
    for (size_t s = 1; s < loaders_; ++s) {
      threads.emplace_back([&, s] {
        statuses[s] = vertices ? LoadVertices(data, s, loaders_)
                               : LoadEdges(data, s, loaders_);
      });
    }
    statuses[0] = vertices ? LoadVertices(data, 0, loaders_)
                           : LoadEdges(data, 0, loaders_);
    for (auto& t : threads) t.join();
    for (const Status& s : statuses) GB_RETURN_IF_ERROR(s);
    return Status::OK();
  };
  GB_RETURN_IF_ERROR(run_phase(true));
  return run_phase(false);
}

Status GremlinSut::LoadConcurrent(const snb::Dataset& data, size_t loaders) {
  if (loaders <= 1) return Load(data);
  loaders_ = loaders;
  // Not Load: its batch, held open on this thread, would keep the epoch
  // from advancing, so loader threads could not read each other's vertices.
  Status st = DoLoad(data);
  loaders_ = 1;
  return st;
}

template <typename Build>
Result<QueryResult> GremlinSut::Query(std::vector<std::string> columns,
                                      Build&& build) {
  // buildTraversal / materializeResult are client-side work the server's
  // step profiler cannot see. Both run strictly outside Submit, so they
  // never race with the worker recording into the same profile.
  obs::OpTimer build_op("buildTraversal");
  Traversal t;
  build(t);
  build_op.Stop();
  GB_ASSIGN_OR_RETURN(std::vector<Value> flat, server_->Submit(t));
  obs::OpTimer mat_op("materializeResult");
  const size_t width = columns.size();
  QueryResult out;
  out.columns = std::move(columns);
  for (size_t i = 0; i + width <= flat.size(); i += width) {
    out.rows.emplace_back(std::make_move_iterator(flat.begin() + i),
                          std::make_move_iterator(flat.begin() + i + width));
  }
  mat_op.AddRows(out.rows.size());
  return out;
}

Result<QueryResult> GremlinSut::DoPointLookup(int64_t person_id) {
  auto build = [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(person_id))
        .ValueMap({"firstName", "lastName", "gender", "birthday",
                   "browserUsed", "locationIP"});
  };
  return Query({"firstName", "lastName", "gender", "birthday", "browserUsed",
                "locationIP"},
               build);
}

Result<QueryResult> GremlinSut::DoOneHop(int64_t person_id) {
  return Query({"id", "firstName", "lastName"}, [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(person_id))
        .Both("knows")
        .ValueMap({"id", "firstName", "lastName"});
  });
}

Result<QueryResult> GremlinSut::DoTwoHop(int64_t person_id) {
  return Query({"id"}, [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(person_id))
        .As("p")
        .Both("knows")
        .Both("knows")
        .WhereNeq("p")
        .Dedup()
        .Values("id");
  });
}

Result<int> GremlinSut::DoShortestPathLen(int64_t from_person,
                                          int64_t to_person) {
  auto build = [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(from_person))
        .ShortestPath("knows", "id", Value(to_person));
  };
  GB_ASSIGN_OR_RETURN(QueryResult r, Query({"len"}, build));
  if (r.rows.empty()) return Status::NotFound("start person");
  return int(r.rows[0][0].as_int());
}

Result<QueryResult> GremlinSut::DoRecentPosts(int64_t person_id,
                                              int64_t limit) {
  return Query({"id", "content", "creationDate"}, [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(person_id))
        .In("postHasCreator")
        .OrderBy("creationDate", /*desc=*/true)
        .Limit(limit)
        .ValueMap({"id", "content", "creationDate"});
  });
}

Result<QueryResult> GremlinSut::DoFriendsWithName(
    int64_t person_id, const std::string& first_name) {
  return Query({"id", "lastName"}, [&](Traversal& t) {
    t.V().HasIndexed("Person", "id", Value(person_id))
        .Both("knows")
        .Has("firstName", Value(first_name))
        .OrderBy("id", /*desc=*/false)
        .ValueMap({"id", "lastName"});
  });
}

Result<QueryResult> GremlinSut::DoRepliesOfPost(int64_t post_id) {
  return Query({"id", "content", "creatorId"}, [&](Traversal& t) {
    t.V().HasIndexed("Post", "id", Value(post_id))
        .In("replyOfPost")
        .OrderBy("creationDate", /*desc=*/true)
        .ValueMap({"id", "content", "creatorId"});
  });
}

Result<QueryResult> GremlinSut::DoTopPosters(int64_t limit) {
  return Query({"personId", "posts"}, [&](Traversal& t) {
    t.V("Post").Out("postHasCreator").GroupCount("id", limit);
  });
}

Status GremlinSut::DoApply(const snb::UpdateOp& op) {
  // Runs with no outer batch (Facade::kNoApplyBatch): each traversal
  // commits on its server worker before the next one is submitted.
  using K = snb::UpdateOp::Kind;
  auto submit = [this](const Traversal& t) {
    return server_->Submit(t).status();
  };
  switch (op.kind) {
    case K::kAddPerson: {
      const auto& p = op.person;
      Traversal t;
      t.AddV("Person", {{"id", Value(p.id)},
                        {"firstName", Value(p.first_name)},
                        {"lastName", Value(p.last_name)},
                        {"gender", Value(p.gender)},
                        {"birthday", Value(p.birthday)},
                        {"creationDate", Value(p.creation_date)},
                        {"browserUsed", Value(p.browser)},
                        {"locationIP", Value(p.location_ip)},
                        {"cityId", Value(p.city_id)}});
      return submit(t);
    }
    case K::kAddFriendship: {
      Traversal t;
      t.V().HasIndexed("Person", "id", Value(op.knows.person1))
          .AddEdgeTo("knows", "Person", "id", Value(op.knows.person2),
                     {{"creationDate", Value(op.knows.creation_date)}});
      return submit(t);
    }
    case K::kRemoveFriendship: {
      Traversal t;
      t.V().HasIndexed("Person", "id", Value(op.knows.person1))
          .DropEdgeTo("knows", "Person", "id", Value(op.knows.person2));
      return submit(t);
    }
    case K::kAddForum: {
      const auto& f = op.forum;
      Traversal create;
      create.AddV("Forum", {{"id", Value(f.id)},
                            {"title", Value(f.title)},
                            {"creationDate", Value(f.creation_date)},
                            {"moderatorId", Value(f.moderator)}});
      GB_RETURN_IF_ERROR(submit(create));
      Traversal link;
      link.V().HasIndexed("Forum", "id", Value(f.id))
          .AddEdgeTo("hasModerator", "Person", "id", Value(f.moderator), {});
      return submit(link);
    }
    case K::kAddForumMember: {
      Traversal t;
      t.V().HasIndexed("Forum", "id", Value(op.member.forum))
          .AddEdgeTo("hasMember", "Person", "id", Value(op.member.person),
                     {{"joinDate", Value(op.member.join_date)}});
      return submit(t);
    }
    case K::kAddPost: {
      const auto& p = op.post;
      Traversal create;
      create.AddV("Post", {{"id", Value(p.id)},
                           {"content", Value(p.content)},
                           {"creationDate", Value(p.creation_date)},
                           {"creatorId", Value(p.creator)},
                           {"forumId", Value(p.forum)},
                           {"browserUsed", Value(p.browser)}});
      GB_RETURN_IF_ERROR(submit(create));
      Traversal creator;
      creator.V().HasIndexed("Post", "id", Value(p.id))
          .AddEdgeTo("postHasCreator", "Person", "id", Value(p.creator), {});
      GB_RETURN_IF_ERROR(submit(creator));
      Traversal container;
      container.V().HasIndexed("Forum", "id", Value(p.forum))
          .AddEdgeTo("containerOf", "Post", "id", Value(p.id), {});
      return submit(container);
    }
    case K::kAddComment: {
      const auto& c = op.comment;
      Traversal create;
      create.AddV("Comment", {{"id", Value(c.id)},
                              {"content", Value(c.content)},
                              {"creationDate", Value(c.creation_date)},
                              {"creatorId", Value(c.creator)},
                              {"replyOfPost", Value(c.reply_of_post)},
                              {"replyOfComment",
                               Value(c.reply_of_comment)}});
      GB_RETURN_IF_ERROR(submit(create));
      Traversal creator;
      creator.V().HasIndexed("Comment", "id", Value(c.id))
          .AddEdgeTo("commentHasCreator", "Person", "id", Value(c.creator),
                     {});
      GB_RETURN_IF_ERROR(submit(creator));
      Traversal reply;
      if (c.reply_of_post >= 0) {
        reply.V().HasIndexed("Comment", "id", Value(c.id))
            .AddEdgeTo("replyOfPost", "Post", "id", Value(c.reply_of_post),
                       {});
      } else {
        reply.V().HasIndexed("Comment", "id", Value(c.id))
            .AddEdgeTo("replyOfComment", "Comment", "id",
                       Value(c.reply_of_comment), {});
      }
      return submit(reply);
    }
    case K::kAddLikePost: {
      Traversal t;
      t.V().HasIndexed("Person", "id", Value(op.like.person))
          .AddEdgeTo("likesPost", "Post", "id", Value(op.like.post),
                     {{"creationDate", Value(op.like.creation_date)}});
      return submit(t);
    }
    case K::kAddLikeComment: {
      Traversal t;
      t.V().HasIndexed("Person", "id", Value(op.like.person))
          .AddEdgeTo("likesComment", "Comment", "id",
                     Value(op.like.comment),
                     {{"creationDate", Value(op.like.creation_date)}});
      return submit(t);
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

namespace {

constexpr const char* kIndexedLabels[] = {
    "Person", "Forum", "Post", "Comment", "Tag", "Place", "Organisation"};

std::unique_ptr<GremlinSut> MakeTitanSut(std::unique_ptr<KvStore> backend,
                                         SutKind kind,
                                         GremlinServerOptions server_options) {
  auto titan = std::make_unique<TitanGraph>(std::move(backend));
  for (const char* label : kIndexedLabels) {
    titan->RegisterUniqueIndex(label, "id");
  }
  return std::make_unique<GremlinSut>(kind, std::move(titan),
                                      server_options);
}

}  // namespace

std::unique_ptr<GremlinSut> MakeNeo4jGremlinSut(
    GremlinServerOptions server_options) {
  auto native = std::make_shared<NativeGraph>();
  for (const char* label : kIndexedLabels) {
    native->CreateUniqueIndex(label, "id");
  }
  auto provider = std::make_unique<NativeProvider>(native.get());
  return std::make_unique<GremlinSut>(SutKind::kNeo4jGremlin,
                                      std::move(provider), server_options,
                                      native);
}

std::unique_ptr<GremlinSut> MakeTitanCSut(
    GremlinServerOptions server_options) {
  return MakeTitanSut(std::make_unique<LsmKv>(), SutKind::kTitanC,
                      server_options);
}

std::unique_ptr<GremlinSut> MakeTitanBSut(
    GremlinServerOptions server_options) {
  return MakeTitanSut(std::make_unique<BTreeKv>(), SutKind::kTitanB,
                      server_options);
}

Result<std::unique_ptr<GremlinSut>> MakeTitanBSut(
    const storage::DurabilityOptions& durability,
    GremlinServerOptions server_options) {
  if (!durability.enabled) return MakeTitanBSut(server_options);
  GB_ASSIGN_OR_RETURN(
      std::unique_ptr<PagedBTreeKv> backend,
      PagedBTreeKv::Open(storage::ResolveFileSystem(durability),
                         storage::DbPath(durability, "titanb"),
                         storage::WalPath(durability, "titanb"),
                         storage::ToPagerOptions(durability)));
  return MakeTitanSut(std::move(backend), SutKind::kTitanB,
                      server_options);
}

std::unique_ptr<GremlinSut> MakeSqlgSut(
    GremlinServerOptions server_options) {
  // Sqlg materializes its own schema on the RDBMS: one table per vertex
  // label plus one E_* table per edge label with (srcId, dstId) columns —
  // every edge is a row, every structure-API call a SQL statement.
  auto db = std::make_shared<Database>(StorageMode::kRow);
  RelationalSut::CreateSnbSchema(db.get());
  using T = Value::Type;
  struct EdgeDef {
    const char* label;
    const char* table;
    const char* src_label;
    const char* dst_label;
    const char* prop;  // optional third column
  };
  const EdgeDef kEdges[] = {
      {"knows", "e_knows", "Person", "Person", "creationDate"},
      {"postHasCreator", "e_post_has_creator", "Post", "Person", nullptr},
      {"containerOf", "e_container_of", "Forum", "Post", nullptr},
      {"commentHasCreator", "e_comment_has_creator", "Comment", "Person",
       nullptr},
      {"hasModerator", "e_has_moderator", "Forum", "Person", nullptr},
      {"hasMember", "e_has_member", "Forum", "Person", "joinDate"},
      {"likesPost", "e_likes_post", "Person", "Post", "creationDate"},
      {"likesComment", "e_likes_comment", "Person", "Comment",
       "creationDate"},
      {"hasTag", "e_has_tag", "Post", "Tag", nullptr},
      {"isLocatedIn", "e_is_located_in", "Person", "Place", nullptr},
      {"replyOfPost", "e_reply_of_post", "Comment", "Post", nullptr},
      {"replyOfComment", "e_reply_of_comment", "Comment", "Comment",
       nullptr},
      {"studyAt", "e_study_at", "Person", "Organisation", "classYear"},
      {"workAt", "e_work_at", "Person", "Organisation", "workFrom"},
  };
  for (const EdgeDef& e : kEdges) {
    std::vector<ColumnDef> columns{{"srcId", T::kInt}, {"dstId", T::kInt}};
    if (e.prop != nullptr) columns.push_back({e.prop, T::kInt});
    db->CreateTable(TableSchema(e.table, columns));
    db->CreateIndex(e.table, "srcId", false);
    db->CreateIndex(e.table, "dstId", false);
  }

  auto sqlg = std::make_unique<SqlgProvider>(db.get());
  sqlg->RegisterVertexLabel("Person", "person");
  sqlg->RegisterVertexLabel("Forum", "forum");
  sqlg->RegisterVertexLabel("Post", "post");
  sqlg->RegisterVertexLabel("Comment", "comment");
  sqlg->RegisterVertexLabel("Tag", "tag");
  sqlg->RegisterVertexLabel("Place", "place");
  sqlg->RegisterVertexLabel("Organisation", "organisation");
  for (const EdgeDef& e : kEdges) {
    sqlg->RegisterEdgeLabel(e.label, e.table, "srcId", "dstId", e.src_label,
                            e.dst_label);
  }
  return std::make_unique<GremlinSut>(SutKind::kSqlg, std::move(sqlg),
                                      server_options, db);
}

}  // namespace graphbench
