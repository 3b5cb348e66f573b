#ifndef GRAPHBENCH_PERF_GRAPHBENCH_ANSWERS_H_
#define GRAPHBENCH_PERF_GRAPHBENCH_ANSWERS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "snb/schema.h"
#include "sut/sut.h"
#include "util/result.h"

namespace graphbench {
namespace perf {

/// The generator's own random stream (SplitMix64), kept in the benchmark
/// so neither its draws nor their cost change with the code under test.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) for n > 0; the modulo bias is below 2^-50 for the
  /// pool sizes drawn from here.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return double(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The read calls the workloads issue, one per public Sut read method.
enum class ReadKind {
  kPointLookup,
  kOneHop,
  kTwoHop,
  kShortestPath,
  kRecentPosts,
  kFriendsWithName,
  kRepliesOfPost,
  kTopPosters,
};

/// Span and report name of the Sut method behind `kind` ("OneHop", ...).
const char* ReadKindName(ReadKind kind);

inline constexpr int64_t kRecentPostsLimit = 10;
inline constexpr int64_t kTopPostersLimit = 10;

/// One read request: the kind plus the parameters its Sut call takes.
struct ReadRequest {
  ReadKind kind = ReadKind::kPointLookup;
  int64_t id = 0;     // person id, or the post id of RepliesOfPost
  int64_t other = 0;  // second person of ShortestPath
  std::string first_name;
};

/// Parameter draws over the static snapshot, as snb::ParamPools makes
/// them: person ids uniform over the snapshot, shortest-path endpoints
/// over persons with a friendship. FriendsWithName asks for a first name
/// one of the person's snapshot friends has and RepliesOfPost for a post
/// that has direct replies, so neither answer is empty. Immutable after
/// construction and shared by every generator thread; each thread draws
/// with its own SplitMix, which is cheap to seed for every slice.
class RequestSource {
 public:
  explicit RequestSource(const snb::Dataset& data);

  ReadRequest Draw(ReadKind kind, SplitMix* rng) const;

 private:
  std::vector<int64_t> persons_;
  std::vector<int64_t> connected_;  // persons with a snapshot friend
  std::unordered_map<int64_t, std::vector<std::string>> friend_names_;
  std::vector<int64_t> replied_posts_;
};

/// Issues `request` against `sut`; the status of the call.
Status Issue(Sut* sut, const ReadRequest& request);

/// Issues `request` and renders the answer canonically, so any two SUTs
/// that agree logically produce the same string: sorted id sets for the
/// traversal reads, the exact rows for PointLookup and TopPosters, the
/// scalar for ShortestPath.
Result<std::string> CanonicalAnswer(Sut* sut, const ReadRequest& request);

/// The expected OneHop and RecentPosts answers after a prefix of the
/// update stream, replayed from the snapshot: the durable_writes check,
/// where each SUT has applied a different number of ops.
class StreamOracle {
 public:
  explicit StreamOracle(const snb::Dataset& data);

  /// Applies the effect of a successfully applied op on the two reads.
  void Apply(const snb::UpdateOp& op);

  /// `per_kind` OneHop probes of persons whose friendships the applied
  /// ops changed and as many RecentPosts probes of persons they added
  /// posts for, so the probes look where a lost or misapplied write
  /// shows. Persons come from the snapshot while the ops changed none.
  std::vector<ReadRequest> Probes(int per_kind, SplitMix* rng) const;

  /// Canonical answer in CanonicalAnswer's format; kOneHop and
  /// kRecentPosts only.
  std::string Expected(const ReadRequest& request) const;

 private:
  std::map<int64_t, std::set<int64_t>> friends_;
  // creator -> (creationDate, post id)
  std::map<int64_t, std::set<std::pair<int64_t, int64_t>>> posts_;
  std::vector<int64_t> befriended_;  // endpoints of applied knows changes
  std::vector<int64_t> posters_;     // creators of applied posts
};

}  // namespace perf
}  // namespace graphbench

#endif  // GRAPHBENCH_PERF_GRAPHBENCH_ANSWERS_H_
