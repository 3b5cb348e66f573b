#include "graphbench/answers.h"

#include <algorithm>
#include <iterator>

namespace graphbench {
namespace perf {

namespace {

std::string JoinIds(const std::set<int64_t>& ids) {
  std::string out;
  for (int64_t id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

std::string IdSet(const QueryResult& result) {
  std::set<int64_t> ids;
  for (const Row& row : result.rows) ids.insert(row.at(0).as_int());
  return JoinIds(ids);
}

std::string ExactRows(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& cell : row) out += cell.ToString() + '|';
    out += '\n';
  }
  return out;
}

}  // namespace

const char* ReadKindName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kPointLookup: return "PointLookup";
    case ReadKind::kOneHop: return "OneHop";
    case ReadKind::kTwoHop: return "TwoHop";
    case ReadKind::kShortestPath: return "ShortestPathLen";
    case ReadKind::kRecentPosts: return "RecentPosts";
    case ReadKind::kFriendsWithName: return "FriendsWithName";
    case ReadKind::kRepliesOfPost: return "RepliesOfPost";
    case ReadKind::kTopPosters: return "TopPosters";
  }
  return "unknown";
}

RequestSource::RequestSource(const snb::Dataset& data) {
  std::unordered_map<int64_t, const std::string*> first_name;
  for (const snb::Person& p : data.persons) {
    persons_.push_back(p.id);
    first_name[p.id] = &p.first_name;
  }
  for (const snb::Knows& k : data.knows) {
    auto a = first_name.find(k.person1);
    auto b = first_name.find(k.person2);
    if (a == first_name.end() || b == first_name.end()) continue;
    friend_names_[k.person1].push_back(*b->second);
    friend_names_[k.person2].push_back(*a->second);
  }
  for (const auto& [person, names] : friend_names_) {
    connected_.push_back(person);
  }
  std::sort(connected_.begin(), connected_.end());
  std::set<int64_t> replied;
  for (const snb::Comment& c : data.comments) {
    if (c.reply_of_post >= 0) replied.insert(c.reply_of_post);
  }
  replied_posts_.assign(replied.begin(), replied.end());
}

ReadRequest RequestSource::Draw(ReadKind kind, SplitMix* rng) const {
  auto pick = [rng](const std::vector<int64_t>& from) {
    return from[rng->Uniform(from.size())];
  };
  ReadRequest r;
  r.kind = kind;
  switch (kind) {
    case ReadKind::kShortestPath:
      r.id = pick(connected_);
      r.other = pick(connected_);
      break;
    case ReadKind::kFriendsWithName: {
      r.id = pick(connected_);
      const std::vector<std::string>& names = friend_names_.at(r.id);
      r.first_name = names[rng->Uniform(names.size())];
      break;
    }
    case ReadKind::kRepliesOfPost:
      r.id = pick(replied_posts_);
      break;
    case ReadKind::kTopPosters:
      break;
    default:
      r.id = pick(persons_);
      break;
  }
  return r;
}

namespace {

// Every read but ShortestPathLen, which answers a scalar.
Result<QueryResult> TableRead(Sut* sut, const ReadRequest& r) {
  switch (r.kind) {
    case ReadKind::kPointLookup: return sut->PointLookup(r.id);
    case ReadKind::kOneHop: return sut->OneHop(r.id);
    case ReadKind::kTwoHop: return sut->TwoHop(r.id);
    case ReadKind::kRecentPosts:
      return sut->RecentPosts(r.id, kRecentPostsLimit);
    case ReadKind::kFriendsWithName:
      return sut->FriendsWithName(r.id, r.first_name);
    case ReadKind::kRepliesOfPost: return sut->RepliesOfPost(r.id);
    case ReadKind::kTopPosters: return sut->TopPosters(kTopPostersLimit);
    case ReadKind::kShortestPath: break;
  }
  return Status::InvalidArgument("not a table read");
}

}  // namespace

Status Issue(Sut* sut, const ReadRequest& r) {
  if (r.kind == ReadKind::kShortestPath) {
    return sut->ShortestPathLen(r.id, r.other).status();
  }
  return TableRead(sut, r).status();
}

Result<std::string> CanonicalAnswer(Sut* sut, const ReadRequest& r) {
  if (r.kind == ReadKind::kShortestPath) {
    GB_ASSIGN_OR_RETURN(int len, sut->ShortestPathLen(r.id, r.other));
    return std::to_string(len);
  }
  GB_ASSIGN_OR_RETURN(QueryResult result, TableRead(sut, r));
  if (r.kind == ReadKind::kPointLookup || r.kind == ReadKind::kTopPosters) {
    return ExactRows(result);
  }
  return IdSet(result);
}

StreamOracle::StreamOracle(const snb::Dataset& data) {
  for (const snb::Knows& k : data.knows) {
    friends_[k.person1].insert(k.person2);
    friends_[k.person2].insert(k.person1);
  }
  for (const snb::Post& p : data.posts) {
    posts_[p.creator].insert({p.creation_date, p.id});
  }
}

void StreamOracle::Apply(const snb::UpdateOp& op) {
  switch (op.kind) {
    case snb::UpdateOp::Kind::kAddFriendship:
      friends_[op.knows.person1].insert(op.knows.person2);
      friends_[op.knows.person2].insert(op.knows.person1);
      befriended_.push_back(op.knows.person1);
      befriended_.push_back(op.knows.person2);
      break;
    case snb::UpdateOp::Kind::kRemoveFriendship:
      friends_[op.knows.person1].erase(op.knows.person2);
      friends_[op.knows.person2].erase(op.knows.person1);
      befriended_.push_back(op.knows.person1);
      befriended_.push_back(op.knows.person2);
      break;
    case snb::UpdateOp::Kind::kAddPost:
      posts_[op.post.creator].insert({op.post.creation_date, op.post.id});
      posters_.push_back(op.post.creator);
      break;
    default:
      break;
  }
}

std::vector<ReadRequest> StreamOracle::Probes(int per_kind,
                                              SplitMix* rng) const {
  std::vector<ReadRequest> out;
  auto add = [&](ReadKind kind, const std::vector<int64_t>& changed,
                 const auto& snapshot) {
    for (int i = 0; i < per_kind; ++i) {
      ReadRequest r;
      r.kind = kind;
      if (!changed.empty()) {
        r.id = changed[rng->Uniform(changed.size())];
      } else {
        auto it = snapshot.begin();
        std::advance(it, std::ptrdiff_t(rng->Uniform(snapshot.size())));
        r.id = it->first;
      }
      out.push_back(r);
    }
  };
  add(ReadKind::kOneHop, befriended_, friends_);
  add(ReadKind::kRecentPosts, posters_, posts_);
  return out;
}

std::string StreamOracle::Expected(const ReadRequest& r) const {
  if (r.kind == ReadKind::kOneHop) {
    auto it = friends_.find(r.id);
    return it == friends_.end() ? std::string() : JoinIds(it->second);
  }
  std::set<int64_t> newest;
  auto it = posts_.find(r.id);
  if (it != posts_.end()) {
    for (auto p = it->second.rbegin();
         p != it->second.rend() && int64_t(newest.size()) < kRecentPostsLimit;
         ++p) {
      newest.insert(p->second);
    }
  }
  return JoinIds(newest);
}

}  // namespace perf
}  // namespace graphbench
