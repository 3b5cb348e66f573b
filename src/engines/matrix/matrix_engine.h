#ifndef GRAPHBENCH_ENGINES_MATRIX_MATRIX_ENGINE_H_
#define GRAPHBENCH_ENGINES_MATRIX_MATRIX_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "concurrency/epoch.h"
#include "concurrency/versioned.h"
#include "engines/matrix/delta_csr.h"
#include "engines/query_ops.h"
#include "snb/schema.h"
#include "util/result.h"

namespace graphbench {

/// Which BFS the engine runs for ShortestPathLen — the axis of the
/// bench_ablation_matrix algorithm comparison.
enum class MatrixBfsKind : uint8_t {
  /// Level-synchronous repeated SpMV: the frontier is a bitmap, each level
  /// sweeps the frontier rows of the adjacency matrix in row order and
  /// ORs unreached columns into the next frontier (the GraphBLAS idiom).
  kSpmv,
  /// Per-vertex FIFO walk (the native-graph style): pop one vertex, chase
  /// its adjacency, push unseen neighbors. Same answers, no frontier
  /// batching — the cache-behavior baseline the SpMV sweep is measured
  /// against.
  kPointerChasing,
};

struct MatrixEngineOptions {
  DeltaCsrOptions csr{};
  MatrixBfsKind bfs = MatrixBfsKind::kSpmv;
};

/// Engine traffic, mirrored into the default obs registry as
/// matrix.spmv_rows / matrix.delta_merges / matrix.csr_rebuilds.
struct MatrixStats {
  uint64_t spmv_rows = 0;  // adjacency rows gathered by reads
  uint64_t delta_merges = 0;
  uint64_t csr_rebuilds = 0;
  size_t pending_delta = 0;
  size_t nnz = 0;
};

/// The linear-algebra substrate (DESIGN.md §10): the KNOWS relation as a
/// boolean delta-CSR adjacency matrix over dense person ordinals, with
/// person/post/comment properties in columnar side tables that share the
/// same ordinals. Graph reads are matrix operations — OneHop is one SpMV
/// row gather, TwoHop a masked SpGEMM-style two-level gather, shortest
/// path a repeated-SpMV BFS over bitmaps — and the property reads scan or
/// index the columns directly. There is no query language: MatrixSut calls
/// these methods straight, the RedisGraph/GraphBLAS design point.
///
/// Concurrency follows the repo's one-writer/lock-free-readers discipline:
/// Load/Apply serialize on a plain mutex and publish inside a write batch;
/// queries pin an epoch and read the matrix body, overlay rows, ordinal
/// maps, and columnar counts of that snapshot — no reader lock, so a
/// pending CSR merge or update burst never stalls a gather.
class MatrixEngine {
 public:
  explicit MatrixEngine(MatrixEngineOptions options = {});

  MatrixEngine(const MatrixEngine&) = delete;
  MatrixEngine& operator=(const MatrixEngine&) = delete;

  Status Load(const snb::Dataset& data);

  // --- Reads (columns match the Cypher reference SUT positionally) ------
  QueryResult PointLookup(int64_t person_id) const;
  QueryResult OneHop(int64_t person_id) const;
  QueryResult TwoHop(int64_t person_id) const;
  /// -1 when unreachable or either person is unknown.
  int ShortestPathLen(int64_t from_person, int64_t to_person) const;
  QueryResult RecentPosts(int64_t person_id, int64_t limit) const;
  QueryResult FriendsWithName(int64_t person_id,
                              const std::string& first_name) const;
  QueryResult RepliesOfPost(int64_t post_id) const;
  QueryResult TopPosters(int64_t limit) const;

  /// Applies one update-stream op. A duplicate friendship insert is a
  /// no-op: the boolean matrix collapses it.
  Status Apply(const snb::UpdateOp& op);

  uint64_t SizeBytes() const;
  MatrixStats stats() const;

 private:
  /// Epoch-versioned row counts: the bound every reader applies to the
  /// append-only columns of its pinned snapshot.
  struct Counts {
    uint64_t persons = 0;
    uint64_t posts = 0;
    uint64_t comments = 0;
    uint64_t forums = 0;
    uint64_t members = 0;
    uint64_t likes = 0;
    uint64_t side_string_bytes = 0;  // content/name bytes across columns
  };

  // Dense ordinal of a person/post id visible at `pin`, or -1.
  int32_t PersonOrd(int64_t person_id, uint64_t pin) const;
  int32_t PostOrd(int64_t post_id, uint64_t pin) const;
  // Interns a person id, growing the matrix and every person column;
  // write_mu_ held, inside a batch.
  int32_t InternPerson(concurrency::EpochManager& mgr, const snb::Person& p);
  void AppendPost(concurrency::EpochManager& mgr, const snb::Post& p);
  void AppendComment(concurrency::EpochManager& mgr, const snb::Comment& c);
  int ShortestPathSpmv(int32_t src, int32_t dst, uint64_t pin) const;
  int ShortestPathPointerChasing(int32_t src, int32_t dst,
                                 uint64_t pin) const;

  const MatrixEngineOptions options_;
  std::mutex write_mu_;  // serializes writers; readers never take it

  DeltaCsrMatrix knows_;

  // Person columns, indexed by matrix row ordinal. Appended inside the
  // batch that inserts the ordinal, so a visible ordinal implies visible
  // column cells.
  concurrency::EpochHashMap<int64_t, int32_t> person_ord_;
  concurrency::StableVec<int64_t> person_id_;
  concurrency::StableVec<std::string> first_name_;
  concurrency::StableVec<std::string> last_name_;
  concurrency::StableVec<std::string> gender_;
  concurrency::StableVec<int64_t> birthday_;
  concurrency::StableVec<int64_t> person_creation_;
  concurrency::StableVec<std::string> browser_;
  concurrency::StableVec<std::string> location_ip_;
  /// Post ordinals per creator; mutated by every post append, so
  /// versioned per row.
  concurrency::VersionedTable<std::vector<int32_t>> posts_by_creator_;

  // Post columns, indexed by post ordinal.
  concurrency::EpochHashMap<int64_t, int32_t> post_ord_;
  concurrency::StableVec<int64_t> post_id_;
  concurrency::StableVec<std::string> post_content_;
  concurrency::StableVec<int64_t> post_creation_;
  concurrency::StableVec<int32_t> post_creator_;  // person ordinal, -1
  concurrency::VersionedTable<std::vector<int32_t>> replies_of_post_;

  // Comment columns, indexed by comment ordinal.
  concurrency::StableVec<int64_t> comment_id_;
  concurrency::StableVec<std::string> comment_content_;
  concurrency::StableVec<int64_t> comment_creation_;
  concurrency::StableVec<int64_t> comment_creator_;  // person id (cr.id)

  // Entities no read query touches, kept only so Apply is total and
  // SizeBytes honest. The forum rows themselves are writer-only; their
  // count is in counts_.
  std::vector<snb::Forum> forums_;
  concurrency::VersionedCell<Counts> counts_;

  // Read-side counter: relaxed, bumped lock-free.
  mutable std::atomic<uint64_t> spmv_rows_{0};
};

}  // namespace graphbench

#endif  // GRAPHBENCH_ENGINES_MATRIX_MATRIX_ENGINE_H_
