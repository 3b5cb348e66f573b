#include "engines/matrix/matrix_engine.h"

#include <algorithm>
#include <deque>
#include <mutex>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace graphbench {
namespace {

obs::Counter* SpmvRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("matrix.spmv_rows");
  return c;
}

/// Fixed-size bitmap over dense ordinals: the SpMV frontier/visited
/// vectors.
class Bitmap {
 public:
  explicit Bitmap(size_t bits) : words_((bits + 63) / 64, 0) {}

  bool Test(int32_t i) const {
    return (words_[size_t(i) >> 6] >> (size_t(i) & 63)) & 1;
  }
  void Set(int32_t i) { words_[size_t(i) >> 6] |= uint64_t{1} << (size_t(i) & 63); }
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }
  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Visits every set bit in ascending order (the row-order sweep that
  /// makes the SpMV BFS cache-friendly).
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        w &= w - 1;
        fn(int32_t(wi * 64 + size_t(bit)));
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace

MatrixEngine::MatrixEngine(MatrixEngineOptions options)
    : options_(options), knows_(options.csr) {}

int32_t MatrixEngine::PersonOrd(int64_t person_id, uint64_t pin) const {
  const int32_t* ord = person_ord_.Find(person_id, pin);
  return ord == nullptr ? -1 : *ord;
}

int32_t MatrixEngine::PostOrd(int64_t post_id, uint64_t pin) const {
  const int32_t* ord = post_ord_.Find(post_id, pin);
  return ord == nullptr ? -1 : *ord;
}

int32_t MatrixEngine::InternPerson(concurrency::EpochManager& mgr,
                                   const snb::Person& p) {
  const int32_t* existing =
      person_ord_.Find(p.id, concurrency::EpochManager::kWriterPin);
  if (existing != nullptr) return *existing;
  int32_t ord = int32_t(person_id_.size());
  // Columns before the ordinal: a reader that resolves the ordinal has
  // every cell of its row already published.
  person_id_.PushBack(mgr, p.id);
  first_name_.PushBack(mgr, p.first_name);
  last_name_.PushBack(mgr, p.last_name);
  gender_.PushBack(mgr, p.gender);
  birthday_.PushBack(mgr, p.birthday);
  person_creation_.PushBack(mgr, p.creation_date);
  browser_.PushBack(mgr, p.browser);
  location_ip_.PushBack(mgr, p.location_ip);
  posts_by_creator_.Append(mgr, {});
  knows_.AddRow();
  person_ord_.Insert(mgr, p.id, ord);
  counts_.Publish(mgr, [&p](Counts& c) {
    ++c.persons;
    c.side_string_bytes += p.first_name.size() + p.last_name.size() +
                           p.gender.size() + p.browser.size() +
                           p.location_ip.size();
  });
  return ord;
}

void MatrixEngine::AppendPost(concurrency::EpochManager& mgr,
                              const snb::Post& p) {
  int32_t ord = int32_t(post_id_.size());
  post_id_.PushBack(mgr, p.id);
  post_content_.PushBack(mgr, p.content);
  post_creation_.PushBack(mgr, p.creation_date);
  replies_of_post_.Append(mgr, {});
  int32_t creator = PersonOrd(p.creator, concurrency::EpochManager::kWriterPin);
  post_creator_.PushBack(mgr, creator);
  if (creator >= 0) {
    posts_by_creator_.Publish(mgr, size_t(creator), [ord](auto& posts) {
      posts.push_back(ord);
    });
  }
  post_ord_.Insert(mgr, p.id, ord);
  counts_.Publish(mgr, [&p](Counts& c) {
    ++c.posts;
    c.side_string_bytes += p.content.size() + p.browser.size();
  });
}

void MatrixEngine::AppendComment(concurrency::EpochManager& mgr,
                                 const snb::Comment& c) {
  int32_t ord = int32_t(comment_id_.size());
  comment_id_.PushBack(mgr, c.id);
  comment_content_.PushBack(mgr, c.content);
  comment_creation_.PushBack(mgr, c.creation_date);
  comment_creator_.PushBack(mgr, c.creator);
  if (c.reply_of_post >= 0) {
    int32_t post = PostOrd(c.reply_of_post,
                           concurrency::EpochManager::kWriterPin);
    if (post >= 0) {
      replies_of_post_.Publish(mgr, size_t(post), [ord](auto& replies) {
        replies.push_back(ord);
      });
    }
  }
  counts_.Publish(mgr, [&c](Counts& cc) {
    ++cc.comments;
    cc.side_string_bytes += c.content.size();
  });
}

Status MatrixEngine::Load(const snb::Dataset& data) {
  concurrency::EpochManager& mgr = concurrency::EpochManager::Global();
  concurrency::WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  for (const snb::Person& p : data.persons) InternPerson(mgr, p);
  // Bulk path: materialize the adjacency once and CSR-pack it in one
  // Build, instead of n AddEdge overlay inserts followed by merges.
  std::vector<std::vector<int32_t>> adjacency(person_id_.size());
  for (const snb::Knows& k : data.knows) {
    int32_t a = PersonOrd(k.person1, concurrency::EpochManager::kWriterPin);
    int32_t b = PersonOrd(k.person2, concurrency::EpochManager::kWriterPin);
    if (a < 0 || b < 0) {
      return Status::Corruption("knows references unknown person");
    }
    adjacency[size_t(a)].push_back(b);
    adjacency[size_t(b)].push_back(a);
  }
  knows_.Build(std::move(adjacency));
  for (const snb::Post& p : data.posts) AppendPost(mgr, p);
  for (const snb::Comment& c : data.comments) AppendComment(mgr, c);
  forums_ = data.forums;
  counts_.Publish(mgr, [&data](Counts& c) {
    c.forums = data.forums.size();
    c.members = data.members.size();
    c.likes = data.likes.size();
  });
  return Status::OK();
}

QueryResult MatrixEngine::PointLookup(int64_t person_id) const {
  obs::OpTimer op("column_lookup");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"p.firstName", "p.lastName",    "p.gender",
               "p.birthday",  "p.browserUsed", "p.locationIP"};
  int32_t ord = PersonOrd(person_id, pin);
  if (ord < 0) return r;
  size_t i = size_t(ord);
  r.rows.push_back({Value(first_name_[i]), Value(last_name_[i]),
                    Value(gender_[i]), Value(birthday_[i]),
                    Value(browser_[i]), Value(location_ip_[i])});
  op.AddRows(1);
  return r;
}

QueryResult MatrixEngine::OneHop(int64_t person_id) const {
  obs::OpTimer op("spmv_gather");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"f.id", "f.firstName", "f.lastName"};
  int32_t ord = PersonOrd(person_id, pin);
  if (ord < 0) return r;
  knows_.ForEachInRow(ord, [&](int32_t f) {
    size_t i = size_t(f);
    r.rows.push_back(
        {Value(person_id_[i]), Value(first_name_[i]), Value(last_name_[i])});
  }, pin);
  spmv_rows_.fetch_add(1, std::memory_order_relaxed);
  SpmvRowsCounter()->Increment();
  op.AddRows(r.rows.size());
  return r;
}

QueryResult MatrixEngine::TwoHop(int64_t person_id) const {
  obs::OpTimer op("masked_spgemm");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"ff.id"};
  int32_t ord = PersonOrd(person_id, pin);
  if (ord < 0) return r;
  // Masked SpGEMM row: (A · A_row)(ord) with the self bit masked out. The
  // `seen` bitmap is both the DISTINCT and the mask — direct friends stay
  // includable (they are reachable in two hops through a mutual friend),
  // matching the reference semantics where only self is excluded.
  Bitmap seen(size_t(knows_.rows(pin)));
  seen.Set(ord);
  uint64_t gathered = 1;
  knows_.ForEachInRow(ord, [&](int32_t f) {
    ++gathered;
    knows_.ForEachInRow(f, [&](int32_t ff) {
      if (seen.Test(ff)) return;
      seen.Set(ff);
      r.rows.push_back({Value(person_id_[size_t(ff)])});
    }, pin);
  }, pin);
  // A direct friend that is *not* reachable in two hops was masked by
  // `seen` without ever being emitted — correct, since the mask seeded
  // only self; friends enter `seen` exclusively via second-level gathers.
  spmv_rows_.fetch_add(gathered, std::memory_order_relaxed);
  SpmvRowsCounter()->Increment(gathered);
  op.AddRows(r.rows.size());
  return r;
}

int MatrixEngine::ShortestPathSpmv(int32_t src, int32_t dst,
                                   uint64_t pin) const {
  const size_t n = size_t(knows_.rows(pin));
  Bitmap visited(n);
  Bitmap frontier(n);
  Bitmap next(n);
  visited.Set(src);
  frontier.Set(src);
  uint64_t rows_gathered = 0;
  int depth = 0;
  bool found = false;
  while (!found && !frontier.Empty()) {
    ++depth;
    next.Clear();
    // One SpMV step: y = A^T x over the frontier bitmap, masked by
    // !visited. Rows stream in ascending order — the cache-friendly sweep
    // the ablation measures against the pointer-chasing walk.
    frontier.ForEachSet([&](int32_t row) {
      ++rows_gathered;
      knows_.ForEachInRow(row, [&](int32_t col) {
        if (visited.Test(col)) return;
        visited.Set(col);
        next.Set(col);
        if (col == dst) found = true;
      }, pin);
    });
    std::swap(frontier, next);
  }
  spmv_rows_.fetch_add(rows_gathered, std::memory_order_relaxed);
  SpmvRowsCounter()->Increment(rows_gathered);
  return found ? depth : -1;
}

int MatrixEngine::ShortestPathPointerChasing(int32_t src, int32_t dst,
                                             uint64_t pin) const {
  const size_t n = size_t(knows_.rows(pin));
  std::vector<int32_t> dist(n, -1);
  dist[size_t(src)] = 0;
  std::deque<int32_t> queue{src};
  while (!queue.empty()) {
    int32_t v = queue.front();
    queue.pop_front();
    if (v == dst) return dist[size_t(v)];
    int32_t next = dist[size_t(v)] + 1;
    bool hit = false;
    knows_.ForEachInRow(v, [&](int32_t nb) {
      if (dist[size_t(nb)] >= 0) return;
      dist[size_t(nb)] = next;
      if (nb == dst) hit = true;
      queue.push_back(nb);
    }, pin);
    if (hit) return next;
  }
  return -1;
}

int MatrixEngine::ShortestPathLen(int64_t from_person,
                                  int64_t to_person) const {
  obs::OpTimer op("spmv_bfs");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  int32_t src = PersonOrd(from_person, pin);
  int32_t dst = PersonOrd(to_person, pin);
  if (src < 0 || dst < 0) return -1;
  if (src == dst) return 0;
  return options_.bfs == MatrixBfsKind::kSpmv
             ? ShortestPathSpmv(src, dst, pin)
             : ShortestPathPointerChasing(src, dst, pin);
}

QueryResult MatrixEngine::RecentPosts(int64_t person_id,
                                      int64_t limit) const {
  obs::OpTimer op("column_sort");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"post.id", "post.content", "post.creationDate"};
  int32_t ord = PersonOrd(person_id, pin);
  if (ord < 0 || limit <= 0) return r;
  const std::vector<int32_t>* by_creator =
      posts_by_creator_.Read(size_t(ord), pin);
  if (by_creator == nullptr) return r;
  std::vector<int32_t> posts = *by_creator;
  std::stable_sort(posts.begin(), posts.end(), [this](int32_t a, int32_t b) {
    return post_creation_[size_t(a)] > post_creation_[size_t(b)];
  });
  if (posts.size() > size_t(limit)) posts.resize(size_t(limit));
  for (int32_t p : posts) {
    size_t i = size_t(p);
    r.rows.push_back({Value(post_id_[i]), Value(post_content_[i]),
                      Value(post_creation_[i])});
  }
  op.AddRows(r.rows.size());
  return r;
}

QueryResult MatrixEngine::FriendsWithName(int64_t person_id,
                                          const std::string& first_name) const {
  obs::OpTimer op("spmv_gather");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"f.id", "f.lastName"};
  int32_t ord = PersonOrd(person_id, pin);
  if (ord < 0) return r;
  std::vector<int32_t> matches;
  knows_.ForEachInRow(ord, [&](int32_t f) {
    if (first_name_[size_t(f)] == first_name) matches.push_back(f);
  }, pin);
  spmv_rows_.fetch_add(1, std::memory_order_relaxed);
  SpmvRowsCounter()->Increment();
  // ORDER BY f.id: ordinals are insertion order, not id order.
  std::sort(matches.begin(), matches.end(), [this](int32_t a, int32_t b) {
    return person_id_[size_t(a)] < person_id_[size_t(b)];
  });
  for (int32_t f : matches) {
    r.rows.push_back({Value(person_id_[size_t(f)]),
                      Value(last_name_[size_t(f)])});
  }
  op.AddRows(r.rows.size());
  return r;
}

QueryResult MatrixEngine::RepliesOfPost(int64_t post_id) const {
  obs::OpTimer op("column_sort");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"c.id", "c.content", "cr.id"};
  int32_t ord = PostOrd(post_id, pin);
  if (ord < 0) return r;
  const std::vector<int32_t>* reply_row =
      replies_of_post_.Read(size_t(ord), pin);
  if (reply_row == nullptr) return r;
  std::vector<int32_t> replies = *reply_row;
  std::stable_sort(replies.begin(), replies.end(),
                   [this](int32_t a, int32_t b) {
                     return comment_creation_[size_t(a)] >
                            comment_creation_[size_t(b)];
                   });
  for (int32_t c : replies) {
    size_t i = size_t(c);
    r.rows.push_back({Value(comment_id_[i]), Value(comment_content_[i]),
                      Value(comment_creator_[i])});
  }
  op.AddRows(r.rows.size());
  return r;
}

QueryResult MatrixEngine::TopPosters(int64_t limit) const {
  obs::OpTimer op("column_aggregate");
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  QueryResult r;
  r.columns = {"p.id", "n"};
  if (limit <= 0) return r;
  const Counts* counts = counts_.Read(pin);
  const size_t persons = counts == nullptr ? 0 : counts->persons;
  // Aggregate straight off the posts_by_creator_ rows of the pinned
  // snapshot: persons without posts never rank (the MATCH semantics of
  // the reference query).
  std::vector<std::pair<int32_t, size_t>> creators;
  for (size_t i = 0; i < persons; ++i) {
    const std::vector<int32_t>* posts = posts_by_creator_.Read(i, pin);
    if (posts != nullptr && !posts->empty()) {
      creators.emplace_back(int32_t(i), posts->size());
    }
  }
  auto rank = [this](const std::pair<int32_t, size_t>& a,
                     const std::pair<int32_t, size_t>& b) {
    if (a.second != b.second) return a.second > b.second;
    return person_id_[size_t(a.first)] < person_id_[size_t(b.first)];
  };
  size_t k = std::min(size_t(limit), creators.size());
  std::partial_sort(creators.begin(), creators.begin() + long(k),
                    creators.end(), rank);
  creators.resize(k);
  for (const auto& [c, n] : creators) {
    r.rows.push_back({Value(person_id_[size_t(c)]), Value(int64_t(n))});
  }
  op.AddRows(r.rows.size());
  return r;
}

Status MatrixEngine::Apply(const snb::UpdateOp& op) {
  obs::OpTimer timer("matrix_apply");
  concurrency::EpochManager& mgr = concurrency::EpochManager::Global();
  concurrency::WriteBatch batch;
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t wp = concurrency::EpochManager::kWriterPin;
  using K = snb::UpdateOp::Kind;
  switch (op.kind) {
    case K::kAddPerson: {
      // A new person is a new row and column of the knows matrix.
      InternPerson(mgr, op.person);
      return Status::OK();
    }
    case K::kAddFriendship: {
      int32_t a = PersonOrd(op.knows.person1, wp);
      int32_t b = PersonOrd(op.knows.person2, wp);
      // Unknown endpoints no-op, mirroring a MATCH that binds nothing.
      if (a < 0 || b < 0) return Status::OK();
      knows_.AddEdge(a, b);
      return Status::OK();
    }
    case K::kRemoveFriendship: {
      int32_t a = PersonOrd(op.knows.person1, wp);
      int32_t b = PersonOrd(op.knows.person2, wp);
      if (a < 0 || b < 0) {
        return Status::NotFound("unfriend references unknown person");
      }
      if (!knows_.RemoveEdge(a, b)) {
        return Status::NotFound("no knows edge to remove");
      }
      return Status::OK();
    }
    case K::kAddPost:
      if (PostOrd(op.post.id, wp) >= 0) {
        return Status::AlreadyExists("duplicate post id");
      }
      AppendPost(mgr, op.post);
      return Status::OK();
    case K::kAddComment:
      AppendComment(mgr, op.comment);
      return Status::OK();
    case K::kAddForum:
      forums_.push_back(op.forum);
      counts_.Publish(mgr, [&op](Counts& c) {
        ++c.forums;
        c.side_string_bytes += op.forum.title.size();
      });
      return Status::OK();
    case K::kAddForumMember:
      counts_.Publish(mgr, [](Counts& c) { ++c.members; });
      return Status::OK();
    case K::kAddLikePost:
    case K::kAddLikeComment:
      counts_.Publish(mgr, [](Counts& c) { ++c.likes; });
      return Status::OK();
  }
  return Status::InvalidArgument("unknown update kind");
}

uint64_t MatrixEngine::SizeBytes() const {
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  const Counts* cp = counts_.Read(pin);
  const Counts counts = cp == nullptr ? Counts{} : *cp;
  uint64_t bytes = knows_.ApproximateSizeBytes(pin) + counts.side_string_bytes;
  bytes += counts.persons * sizeof(int64_t) * 3;  // id/birthday/created
  bytes += counts.persons * sizeof(std::string) * 5;
  bytes += counts.posts * (sizeof(int64_t) * 2 + sizeof(int32_t) +
                           sizeof(std::string));
  bytes += counts.comments * (sizeof(int64_t) * 3 + sizeof(std::string));
  for (size_t i = 0; i < counts.persons; ++i) {
    const std::vector<int32_t>* v = posts_by_creator_.Read(i, pin);
    bytes += sizeof(std::vector<int32_t>);
    if (v != nullptr) bytes += v->size() * sizeof(int32_t);
  }
  for (size_t i = 0; i < counts.posts; ++i) {
    const std::vector<int32_t>* v = replies_of_post_.Read(i, pin);
    bytes += sizeof(std::vector<int32_t>);
    if (v != nullptr) bytes += v->size() * sizeof(int32_t);
  }
  bytes += (counts.persons + counts.posts) *
           (sizeof(int64_t) + sizeof(int32_t) + sizeof(void*) * 2);
  bytes += counts.forums * sizeof(snb::Forum);
  bytes += (counts.members + counts.likes) * sizeof(int64_t);
  return bytes;
}

MatrixStats MatrixEngine::stats() const {
  concurrency::EpochGuard guard;
  const uint64_t pin = concurrency::ReadPin(guard);
  DeltaCsrStats c = knows_.stats(pin);
  MatrixStats s;
  s.spmv_rows = spmv_rows_.load(std::memory_order_relaxed);
  s.delta_merges = c.delta_merges;
  s.csr_rebuilds = c.csr_rebuilds;
  s.pending_delta = c.pending_delta;
  s.nnz = c.nnz;
  return s;
}

}  // namespace graphbench
