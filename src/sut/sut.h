#ifndef GRAPHBENCH_SUT_SUT_H_
#define GRAPHBENCH_SUT_SUT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engines/query_ops.h"
#include "lang/plan_cache.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "snb/schema.h"
#include "storage/durability.h"
#include "util/result.h"

namespace graphbench {

/// Factory identifiers: the paper's eight configurations plus the matrix
/// engine (the linear-algebra design point the paper omits, DESIGN.md
/// §10).
enum class SutKind {
  kNeo4jCypher,
  kNeo4jGremlin,
  kTitanC,
  kTitanB,
  kSqlg,
  kPostgresSql,
  kVirtuosoSql,
  kVirtuosoSparql,
  kMatrix,
};

/// Column label, e.g. "Postgres (SQL)" or "Titan-C (Gremlin)".
const char* SutKindName(SutKind kind);

/// Stable lowercase identifier ("postgres", "neo4j", "titan-c", ...);
/// used for flags, metric names, and report keys.
const char* SutKindId(SutKind kind);

/// A system under test: one column of the paper's result tables. Every
/// SUT loads the same SNB snapshot, answers the four §4.2 read queries and
/// the §4.3 short reads, and applies the eight SNB update types — each
/// through its own query language and engine stack.
///
/// The public methods are one facade for every column (template method):
/// each does the shared work once around a SUT-specific protected `Do*`
/// body. Reads pin an epoch and are counted as `sut.<id>.*`; the facade
/// reads no clock, so whoever drives a call times it. Load and Apply open
/// a WriteBatch. A new SUT implements only the `Do*` bodies and SizeBytes.
class Sut {
 public:
  virtual ~Sut() = default;

  SutKind kind() const { return kind_; }
  /// Column label, e.g. "Postgres (SQL)" or "Titan-C (Gremlin)".
  std::string name() const { return SutKindName(kind_); }

  /// Bulk-loads the static snapshot (vendor-specific loading mechanism).
  Status Load(const snb::Dataset& data);

  // --- §4.2 read-only queries -----------------------------------------
  /// Person profile by id (point lookup).
  Result<QueryResult> PointLookup(int64_t person_id);
  /// Friends with names (1-hop).
  Result<QueryResult> OneHop(int64_t person_id);
  /// Distinct friends-of-friends excluding self (2-hop).
  Result<QueryResult> TwoHop(int64_t person_id);
  /// Unweighted shortest-path length over knows; -1 if unreachable.
  Result<int> ShortestPathLen(int64_t from_person, int64_t to_person);

  // --- §4.3 short reads -------------------------------------------------
  /// Most recent posts of a person (id, content, creationDate).
  Result<QueryResult> RecentPosts(int64_t person_id, int64_t limit);

  // --- Additional LDBC-style interactive reads ---------------------------
  /// IC1-lite: friends of a person with the given first name
  /// (id, lastName).
  Result<QueryResult> FriendsWithName(int64_t person_id,
                                      const std::string& first_name);
  /// IS7-lite: direct comment replies to a post
  /// (comment id, content, creator person id).
  Result<QueryResult> RepliesOfPost(int64_t post_id);
  /// Aggregation read: the `limit` most prolific post creators
  /// (person id, post count), count descending then id ascending.
  Result<QueryResult> TopPosters(int64_t limit);

  // --- Updates (U1-U8), applied by the single writer --------------------
  Status Apply(const snb::UpdateOp& op);

  /// Resident database size (Table 1's per-system column).
  virtual uint64_t SizeBytes() const = 0;

  // --- Statement lifecycle (plan cache, DESIGN.md §8) -------------------
  /// Opts the SUT into its engine's plan cache: call before Load, and each
  /// statement's one text is parsed on its first call, later calls binding
  /// parameters only. Off by default — every query parses per call, the
  /// paper's methodology.
  void EnablePlanCache() { plan_cache_ = true; }
  bool plan_cache_enabled() const { return plan_cache_; }
  /// Aggregated plan-cache traffic for this SUT's engine cache(s); zeros
  /// when the cache is disabled.
  virtual lang::PlanCacheStats plan_cache_stats() const { return {}; }
  /// The workload statement text behind a driver query kind
  /// ("point_lookup", "one_hop", "two_hop", "recent_posts"); empty when
  /// the SUT has no textual statement form (Gremlin builds traversals).
  virtual std::string StatementText(std::string_view kind) const {
    (void)kind;
    return std::string();
  }

 protected:
  /// What the facade wraps around the `Do*` bodies.
  enum class Facade {
    /// Reads pin an epoch; reads and Apply are counted; Load and Apply
    /// open a WriteBatch.
    kFull,
    /// As kFull, except Apply opens no WriteBatch. The Gremlin SUTs
    /// submit every traversal to a Gremlin Server worker thread, and a
    /// batch is pinned to the thread that opened it: one held here would
    /// keep the epoch from advancing, hiding each worker's committed
    /// mutation from the follow-up traversals of a multi-step update.
    /// Each worker-side mutation batches itself instead (DESIGN.md §11).
    kNoApplyBatch,
    /// Nothing: a decorator whose `Do*` bodies call another SUT's public
    /// methods, which already pin, batch and count once. Passing through
    /// keeps the probe from counting twice and never opens a batch
    /// around a Gremlin SUT.
    kForward,
  };

  explicit Sut(SutKind kind, Facade facade = Facade::kFull);

  /// Loads the snapshot; `plan_cache_enabled()` says whether to turn on
  /// the engine's plan cache.
  virtual Status DoLoad(const snb::Dataset& data) = 0;
  virtual Result<QueryResult> DoPointLookup(int64_t person_id) = 0;
  virtual Result<QueryResult> DoOneHop(int64_t person_id) = 0;
  virtual Result<QueryResult> DoTwoHop(int64_t person_id) = 0;
  virtual Result<int> DoShortestPathLen(int64_t from_person,
                                        int64_t to_person) = 0;
  virtual Result<QueryResult> DoRecentPosts(int64_t person_id,
                                            int64_t limit) = 0;
  virtual Result<QueryResult> DoFriendsWithName(
      int64_t person_id, const std::string& first_name) = 0;
  virtual Result<QueryResult> DoRepliesOfPost(int64_t post_id) = 0;
  virtual Result<QueryResult> DoTopPosters(int64_t limit) = 0;
  /// Applies one update.
  virtual Status DoApply(const snb::UpdateOp& op) = 0;

 private:
  template <typename Body>
  auto Read(Body&& body) -> decltype(body());

  const SutKind kind_;
  const Facade facade_;
  obs::SutProbe probe_;
  bool plan_cache_ = false;
};

/// Everything a factory call can toggle on a fresh SUT before Load. One
/// struct instead of a growing ladder of bool parameters: call sites name
/// what they set, and new knobs don't multiply overloads.
struct SutOptions {
  /// Engine plan caches keyed by statement text (the --plan_cache flag).
  bool plan_cache = false;
  /// Durable storage (the --durable flag): when `durability.enabled`, the
  /// SUTs with a paged analog open pager/WAL-backed stores under
  /// `durability.dir` — Titan-B's BerkeleyDB analog becomes PagedBTreeKv,
  /// the relational engines put heap/column tables on paged storage, and
  /// Neo4j-Cypher journals writes and fsyncs real checkpoints. The other
  /// configurations stay memory-resident (documented in DESIGN.md §12).
  storage::DurabilityOptions durability{};
};

/// Creates a fresh SUT of the given kind with the selected opt-in read
/// structures enabled before any Load. The canonical factory form.
std::unique_ptr<Sut> MakeSut(SutKind kind, const SutOptions& options);

/// Creates a fresh, empty SUT of the given kind (no opt-in structures).
std::unique_ptr<Sut> MakeSut(SutKind kind);

/// Creates a SUT selected by configuration name (see ParseSutKind for the
/// accepted spellings). InvalidArgument for unknown names.
Result<std::unique_ptr<Sut>> MakeSut(std::string_view name);

/// All nine configurations in column order (the paper's eight, then the
/// matrix extension).
std::vector<SutKind> AllSutKinds();

/// Parses a configuration name: the SutKindId spellings plus the common
/// aliases "neo4j-cypher", "virtuoso-sql", "titan", and the full column
/// labels ("Postgres (SQL)", ...), case-insensitively. InvalidArgument
/// (with the accepted spellings in the message) for anything else.
Result<SutKind> ParseSutKind(std::string_view name);

}  // namespace graphbench

#endif  // GRAPHBENCH_SUT_SUT_H_
